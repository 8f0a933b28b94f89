"""Reference samplers: adaptive random-walk Metropolis and the follow-up MCMC.

The Metropolis sampler spends exact density evaluations through the ledger
and is the budget-matched comparison baseline.  The follow-up sampler runs
one chain per design point on the fitted surrogate, spending zero exact
evaluations, and pools the draws with density-proportional chain lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import DensityModel, EvaluationLedger, eval_batch
from .engine import Design
from .errors import ConfigError
from .surrogate import SurrogateModel, predict

TARGET_ACCEPT = 0.234


@dataclass
class ChainSpec:
    """Random-walk chain parameters; scale is the lower-triangular proposal factor."""

    start: np.ndarray
    length: int
    scale: np.ndarray | None = None
    seed: int = 0


@dataclass(frozen=True)
class MetropolisResult:
    chain: np.ndarray
    accept_rate: float
    evaluations: int


@dataclass(frozen=True)
class FollowupResult:
    samples: np.ndarray
    chain_ids: np.ndarray
    lengths: np.ndarray
    logf: np.ndarray


def _proposal_factor(scale: np.ndarray | None, p: int) -> np.ndarray:
    """Lower triangle of ``scale``, or 0.1 I when it is None.

    The factor must be p x p, finite, and nonsingular (no zero on its diagonal).
    """
    if scale is None:
        return 0.1 * np.eye(p)
    scale = np.asarray(scale, dtype=float)
    if scale.shape != (p, p):
        raise ConfigError(f"proposal scale has shape {scale.shape}, expected ({p}, {p})")
    S = np.tril(scale)
    if not np.all(np.isfinite(S)) or np.any(np.diag(S) == 0.0):
        raise ConfigError("proposal scale must be a finite, nonsingular triangular matrix")
    return S


def _check_spec(spec: ChainSpec, p: int) -> np.ndarray:
    start = np.asarray(spec.start, dtype=float).ravel()
    if start.shape != (p,):
        raise ConfigError(f"start point has shape {start.shape}, expected ({p},)")
    if np.any(start < 0.0) or np.any(start > 1.0):
        raise ConfigError("start point must lie in the unit cube")
    if spec.length < 1:
        raise ConfigError(f"chain length must be >= 1, got {spec.length}")
    if spec.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {spec.seed}")
    return _proposal_factor(spec.scale, p)


def _adapt(
    S: np.ndarray, u: np.ndarray, v: np.ndarray, alpha: np.ndarray, step: int, target: float
) -> np.ndarray:
    """Rank-1 updates of a stack of proposal factors toward the target acceptance rate.

    ``S`` is (a, p, p), ``u`` (a, p) the step's normal draws, ``v`` (a, p, 1)
    the products ``S u`` and ``alpha`` (a,) the acceptance probabilities.
    Each updated covariance S(I + eta(alpha-target)uu'/|u|^2)S' stays positive
    definite because eta <= 1 bounds the rank-1 eigenvalue above -1.  Stacked
    ``matmul`` and ``cholesky`` run the one-matrix BLAS and LAPACK kernels per
    factor, so each update has the bits of updating that factor alone.
    """
    norm2 = (u[:, None, :] @ u[:, :, None])[:, 0, 0]
    moved = norm2 > 0.0
    if not moved.all():
        out = S.copy()
        out[moved] = _adapt(S[moved], u[moved], v[moved], alpha[moved], step, target)
        return out
    c = step ** (-2.0 / 3.0) * (alpha - target) / norm2
    outer = c[:, None, None] * (v * v.transpose(0, 2, 1))
    return np.linalg.cholesky(S @ S.transpose(0, 2, 1) + outer)


def _step(x, current, S, rngs, t, values_of) -> tuple[int, int]:
    """Round ``t`` of robust adaptive Metropolis (Vihola 2012) for a stack of chains.

    Chain j proposes ``x[j] + S[j] u`` with ``u`` normal draws from ``rngs[j]``.
    Out-of-cube proposals are rejected without a value; the others get their
    log values from one ``values_of`` call and a second draw of the chain's
    stream accepts each.  ``x`` (a, p), ``current`` (a,) and ``S`` (a, p, p)
    are updated in place.  Returns the values requested and the moves accepted.
    """
    u = np.empty(x.shape)
    for j in range(len(x)):
        rngs[j].standard_normal(out=u[j])
    v = S @ u[:, :, None]
    proposal = x + v[:, :, 0]
    inside = np.flatnonzero(np.all((proposal >= 0.0) & (proposal <= 1.0), axis=1))
    alpha = np.zeros(len(x))
    accepted = 0
    if len(inside):
        values = values_of(proposal[inside])
        for j, value in zip(inside.tolist(), values.tolist()):
            alpha[j] = prob = min(1.0, math.exp(min(value - current[j], 0.0)))
            if prob > 0.0 and rngs[j].random() < prob:
                x[j] = proposal[j]
                current[j] = value
                accepted += 1
    S[:] = _adapt(S, u, v, alpha, t, TARGET_ACCEPT)
    return len(inside), accepted


def adaptive_metropolis(
    model: DensityModel,
    spec: ChainSpec,
    ledger: EvaluationLedger,
    eval_budget: int | None = None,
) -> MetropolisResult:
    """Adaptive random-walk Metropolis on the exact density: one-chain ``_step`` rounds.

    Proposals leaving the unit cube are rejected without an evaluation.  With
    ``eval_budget`` set, the chain runs until exactly that many ledger
    evaluations are spent, ignoring ``spec.length``; otherwise it runs
    ``spec.length`` steps.
    """
    p = model.p
    S = _check_spec(spec, p)[None]
    if eval_budget is not None and eval_budget < 1:
        raise ConfigError(f"evaluation budget must be >= 1, got {eval_budget}")
    rngs = [np.random.default_rng(spec.seed)]
    values_of = lambda points: eval_batch(model, points, ledger)  # noqa: E731
    x = np.asarray(spec.start, dtype=float).reshape(1, p).copy()
    current = values_of(x)
    evals = 1
    chain: list[np.ndarray] = []
    accepted = step = 0
    while step < spec.length if eval_budget is None else evals < eval_budget:
        step += 1
        requested, moved = _step(x, current, S, rngs, step, values_of)
        evals += requested
        accepted += moved
        chain.append(x[0].copy())
    return MetropolisResult(
        chain=np.array(chain).reshape(len(chain), p),
        accept_rate=accepted / step if step else 0.0,
        evaluations=evals,
    )


def chain_lengths(logf: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Density-proportional budget split: weights softmax(logf), lengths ceil(N w)."""
    logf = np.asarray(logf, dtype=float)
    if N < 1:
        raise ConfigError(f"total budget must be >= 1, got {N}")
    shifted = np.exp(logf - logf.max())
    weights = shifted / shifted.sum()
    lengths = np.ceil(N * weights).astype(int)
    return lengths, weights


def followup_mcmc(
    med: Design,
    surrogate: SurrogateModel,
    N: int,
    seed: int = 0,
    scale: np.ndarray | None = None,
) -> FollowupResult:
    """One surrogate-driven Metropolis chain per design point, pooled.

    Chain i starts at design point i with length ceil(N w_i); every density
    ratio comes from the surrogate, so no exact evaluations are spent and no
    ledger is involved.  No burn-in is dropped: the starts are already in
    high-probability regions.

    The chains advance in lockstep: round t is one ``_step`` of every chain
    whose length is at least t.  Each chain draws from its own stream in the
    order a chain run alone would, and ``predict`` gives each start and each
    proposal its one-point value, so the samples are bit for bit those of
    running the chains one after another.  ``logf`` holds each stored state's
    surrogate value as its chain knew it, which is therefore
    ``predict(surrogate, state)`` to the last bit.
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    points = np.atleast_2d(np.asarray(med.points, dtype=float))
    n, p = points.shape
    lengths, _ = chain_lengths(med.logf, N)
    S0 = _proposal_factor(scale, p)

    # Chain state in longest-first order, so a round's running chains are a prefix.
    order = np.argsort(-lengths, kind="stable")
    steps = lengths[order]
    first_row = (np.cumsum(lengths) - lengths)[order]
    rngs = [
        np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(int(i),)))
        for i in order
    ]
    x = points[order]
    current = predict(surrogate, x)
    S = np.repeat(S0[None], n, axis=0)
    samples = np.empty((int(lengths.sum()), p))
    logf = np.empty(len(samples))
    # the module's ``predict`` is looked up per round, so a wrapper set on it counts each call
    values_of = lambda y: predict(surrogate, y)  # noqa: E731
    for t in range(1, int(steps[0]) + 1):
        a = int(np.count_nonzero(steps >= t))
        _step(x[:a], current[:a], S[:a], rngs, t, values_of)
        rows = first_row[:a] + (t - 1)
        samples[rows] = x[:a]
        logf[rows] = current[:a]
    return FollowupResult(
        samples=samples,
        chain_ids=np.repeat(np.arange(n), lengths),
        lengths=lengths,
        logf=logf,
    )
