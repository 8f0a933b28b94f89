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

from .density import DensityModel, EvaluationLedger, eval_logf
from .engine import Design
from .errors import ConfigError
from .surrogate import SurrogateModel, predict, predict_rows

TARGET_ACCEPT = 0.234


@dataclass
class ChainSpec:
    """Random-walk chain parameters; scale is the lower-triangular proposal factor."""

    start: np.ndarray
    length: int
    scale: np.ndarray | None = None
    target_accept: float = TARGET_ACCEPT
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


def _check_spec(spec: ChainSpec, p: int) -> np.ndarray:
    start = np.asarray(spec.start, dtype=float).ravel()
    if start.shape != (p,):
        raise ConfigError(f"start point has shape {start.shape}, expected ({p},)")
    if np.any(start < 0.0) or np.any(start > 1.0):
        raise ConfigError("start point must lie in the unit cube")
    if spec.length < 1:
        raise ConfigError(f"chain length must be >= 1, got {spec.length}")
    if spec.scale is None:
        return 0.1 * np.eye(p)
    scale = np.asarray(spec.scale, dtype=float)
    if scale.shape != (p, p) or np.any(np.diag(scale) == 0.0):
        raise ConfigError("proposal scale must be a nonsingular p x p triangular matrix")
    return np.tril(scale)


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


def adaptive_metropolis(
    model: DensityModel,
    spec: ChainSpec,
    ledger: EvaluationLedger,
    eval_budget: int | None = None,
) -> MetropolisResult:
    """Adaptive random-walk Metropolis on the exact density.

    Proposals leaving the unit cube are rejected without an evaluation (the
    density is treated as zero outside).  With ``eval_budget`` set, the chain
    runs until exactly that many ledger evaluations are spent, ignoring
    ``spec.length``; otherwise it runs ``spec.length`` steps.
    """
    p = model.p
    S = _check_spec(spec, p)[None]
    if eval_budget is not None and eval_budget < 1:
        raise ConfigError(f"evaluation budget must be >= 1, got {eval_budget}")
    rng = np.random.default_rng(spec.seed)

    x = np.asarray(spec.start, dtype=float).ravel().copy()
    current = eval_logf(model, x, ledger)
    evals = 1
    chain: list[np.ndarray] = []
    accepted = 0
    step = 0
    while True:
        if eval_budget is None:
            if step >= spec.length:
                break
        elif evals >= eval_budget:
            break
        step += 1
        u = rng.standard_normal((1, p))
        v = S @ u[:, :, None]
        proposal = x + v[0, :, 0]
        if np.all((proposal >= 0.0) & (proposal <= 1.0)):
            logf = eval_logf(model, proposal, ledger)
            evals += 1
            alpha = min(1.0, math.exp(min(logf - current, 0.0)))
        else:
            alpha = 0.0
        if alpha > 0.0 and rng.random() < alpha:
            x = proposal
            current = logf
            accepted += 1
        S = _adapt(S, u, v, np.array([alpha]), step, spec.target_accept)
        chain.append(x.copy())
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

    The chains advance in lockstep: round t steps every chain whose length is
    at least t, with one correlation block for the round's in-cube proposals
    and one stacked update of the proposal factors.  Each chain draws from its
    own stream in the order a chain run alone would, and ``predict_rows``
    gives each proposal its one-point value, so the samples are bit for bit
    those of running the chains one after another.  ``logf`` holds each
    stored state's surrogate value as its chain knew it, which is therefore
    ``predict(surrogate, state)`` to the last bit.
    """
    points = np.atleast_2d(np.asarray(med.points, dtype=float))
    n, p = points.shape
    lengths, _ = chain_lengths(med.logf, N)
    S0 = 0.1 * np.eye(p) if scale is None else np.tril(np.asarray(scale, dtype=float))
    if np.any(np.diag(S0) == 0.0):
        raise ConfigError("proposal scale must be nonsingular")

    # Chain state in longest-first order, so a round's running chains are a prefix.
    order = np.argsort(-lengths, kind="stable")
    steps = lengths[order]
    first_row = (np.cumsum(lengths) - lengths)[order]
    rngs = [
        np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(int(i),)))
        for i in order
    ]
    x = points[order]
    current = [float(predict(surrogate, row)) for row in x]
    S = np.repeat(S0[None], n, axis=0)
    u = np.empty((n, p))
    samples = np.empty((int(lengths.sum()), p))
    logf = np.empty(len(samples))
    for t in range(1, int(steps[0]) + 1):
        a = int(np.count_nonzero(steps >= t))
        for j in range(a):
            rngs[j].standard_normal(out=u[j])
        v = S[:a] @ u[:a, :, None]
        proposal = x[:a] + v[:, :, 0]
        inside = np.flatnonzero(np.all((proposal >= 0.0) & (proposal <= 1.0), axis=1))
        alpha = np.zeros(a)
        if len(inside):
            values = predict_rows(surrogate, proposal[inside])
            for j, value in zip(inside.tolist(), values.tolist()):
                alpha[j] = prob = min(1.0, math.exp(min(value - current[j], 0.0)))
                if prob > 0.0 and rngs[j].random() < prob:
                    x[j] = proposal[j]
                    current[j] = value
        S[:a] = _adapt(S[:a], u[:a], v, alpha, t, TARGET_ACCEPT)
        rows = first_row[:a] + (t - 1)
        samples[rows] = x[:a]
        logf[rows] = current[:a]
    return FollowupResult(
        samples=samples,
        chain_ids=np.repeat(np.arange(n), lengths),
        lengths=lengths,
        logf=logf,
    )
