"""Annealed, budget-limited construction of minimum energy designs.

The run anneals the target from flat to full strength over K stages with
exactly K*n density evaluations.  Each stage proposes n new points, one per
current design point, by scoring a local candidate pool against the already
evaluated points (pass 1: unwhitened metric, surrogate value for the
candidate, exact values for everything else), then re-selects an n-point
design greedily from every point evaluated so far (pass 2: whitened metric,
no new evaluations).

Both selection passes use the stage's target level gamma_{k+1}; the adaptive
distance exponent uses the current level gamma_k, so early stages favor the
projection-friendly product metric.  Both conventions are surfaced in the run
report's notes.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from math import ceil, isfinite, sqrt

import numpy as np

from .density import DensityModel, EvaluationLedger, eval_batch, eval_logf
from .errors import ConfigError, MedError
from .geometry import (
    DistanceSpec,
    identity_spec,
    log_dist_block,
    log_dist_bound,
    psi_log,
    spec_from_sigma,
)
from .qmc import (
    DELTA_SEPARATION,
    N_COMBOS,
    LatticeRule,
    cbc_lattice,
    largest_prime_below,
    local_candidates,
)
from .surrogate import JITTER_START, TRAINING_CAP, fit, predict
# perfbench/tracer.py wraps engine.default_theta and engine.theta_sensitivity; keep them importable.
from .surrogate import default_theta, theta_sensitivity  # noqa: F401

# Covariance estimates are shrunk toward their own diagonal past this condition.
SIGMA_CONDITION_LIMIT = 1e6


def default_n(p: int) -> int:
    """Design size rule: largest prime strictly below 100 + 5p."""
    if p < 1:
        raise ConfigError(f"dimension must be >= 1, got {p}")
    return largest_prime_below(100 + 5 * p)


def default_K(p: int) -> int:
    """Stage count rule: ceil(4 * sqrt(p))."""
    if p < 1:
        raise ConfigError(f"dimension must be >= 1, got {p}")
    return ceil(4.0 * sqrt(p))


@dataclass(frozen=True)
class AnnealSchedule:
    """Evenly spaced annealing levels gamma_k = (k-1)/(K-1), k = 1..K."""

    K: int
    gammas: np.ndarray

    @classmethod
    def of(cls, K: int) -> "AnnealSchedule":
        if K < 2:
            raise ConfigError(f"need at least 2 stages, got {K}")
        return cls(K=K, gammas=np.arange(K) / (K - 1))


@dataclass(frozen=True)
class Design:
    """An n-point design with its exact log-density values."""

    points: np.ndarray
    logf: np.ndarray
    stage: int
    gamma: float

    def __len__(self) -> int:
        return len(self.logf)


@dataclass
class RunConfig:
    """Run parameters; None means "use the dimension-dependent default"."""

    seed: int = 0
    n: int | None = None
    K: int | None = None
    m: int | None = None
    theta: float | None = None
    s_mode: str = "adaptive"
    s_value: float = 2.0
    s_quantile: float | None = None
    whitening: bool = True


@dataclass(frozen=True)
class StageReport:
    stage: int
    gamma: float
    s: float
    sigma_cond: float
    psi_log: float
    psi_tilde_log: float
    seconds: float


@dataclass
class RunReport:
    model_name: str
    p: int
    n: int
    K: int
    seed: int
    budget: int
    config: dict
    gammas: list[float]
    stages: list[StageReport]
    notes: dict[str, str]
    ledger: EvaluationLedger
    total_seconds: float


@dataclass
class StageState:
    """Mutable context for one stage: every evaluated point plus the metrics.

    The evaluated-point buffers are preallocated for the whole run; ``count``
    is the committed prefix length.  ``white`` holds the same prefix under the
    stage's whitening transform, refreshed when sigma changes.
    """

    model: DensityModel
    config: RunConfig
    ledger: EvaluationLedger
    stage_next: int
    m: int
    s: float
    spec_white: DistanceSpec
    pts: np.ndarray
    logf: np.ndarray
    white: np.ndarray
    count: int

    def all_points(self) -> np.ndarray:
        return self.pts[: self.count]

    def add_evaluated(self, x: np.ndarray, val: float) -> None:
        self.pts[self.count] = x
        self.logf[self.count] = val
        self.white[self.count] = self.spec_white.whiten(x)
        self.count += 1


def adaptive_s(fk_min_log: float, fk_max_log: float, gamma: float) -> float:
    """Distance exponent s = 2 * (1 - (f_min / f_max)^gamma), in log arguments.

    Zero when the annealed density is flat (equal extremes or gamma = 0),
    approaching 2 when the density range is huge: flat targets get the
    projection-friendly product metric, peaked ones the Euclidean-like one.
    """
    if fk_min_log > fk_max_log:
        raise ConfigError(
            f"fk_min_log {fk_min_log} exceeds fk_max_log {fk_max_log}"
        )
    return 2.0 * (1.0 - float(np.exp(gamma * (fk_min_log - fk_max_log))))


def update_sigma(
    points: np.ndarray, gamma_k: float, gamma_next: float, whitening: bool
) -> np.ndarray:
    """Covariance estimate for the next stage's whitening metric.

    Scales the sample covariance of the current design by gamma_k /
    gamma_next, shrinking toward its own diagonal until the condition number
    is acceptable.  Stage one (gamma_k = 0) and degenerate designs fall back
    to the uniform-distribution covariance I/12; whitening off gives I.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    p = points.shape[1]
    if not whitening:
        return np.eye(p)
    if gamma_next <= 0:
        raise ConfigError(f"gamma_next must be positive, got {gamma_next}")
    base = np.eye(p) / 12.0
    if gamma_k <= 0 or len(points) < 2:
        return base
    var = np.cov(points, rowvar=False).reshape(p, p)
    sigma = (gamma_k / gamma_next) * var
    if not np.all(np.isfinite(sigma)):
        return base
    # collapsed designs leave rounding noise, not zeros, on the diagonal
    if float(np.max(np.diag(sigma))) <= 1e-12:
        return base
    diagonal = np.diag(np.diag(sigma))
    for lam in np.linspace(0.0, 1.0, 11):
        shrunk = (1.0 - lam) * sigma + lam * diagonal
        if np.all(np.diag(shrunk) > 0) and np.linalg.cond(shrunk) <= SIGMA_CONDITION_LIMIT:
            return shrunk
    return base


def _check_config(config: RunConfig) -> None:
    """Reject the exponent and correlation settings no stage could use."""
    if config.s_mode not in ("adaptive", "fixed"):
        raise ConfigError(f"s_mode must be 'adaptive' or 'fixed', got {config.s_mode!r}")
    if not (isfinite(config.s_value) and config.s_value >= 0.0):
        raise ConfigError(f"s_value must be finite and >= 0, got {config.s_value}")
    if config.s_quantile is not None and not 0.0 <= config.s_quantile <= 0.5:
        raise ConfigError(f"s_quantile must be in [0, 0.5], got {config.s_quantile}")
    if config.theta is not None and not (isfinite(config.theta) and config.theta > 0.0):
        raise ConfigError(f"theta must be finite and positive, got {config.theta}")


def _resolve_s(logf: np.ndarray, gamma_k: float, config: RunConfig) -> float:
    if config.s_mode == "fixed":
        return float(config.s_value)
    if config.s_quantile is not None:
        f_lo = float(np.quantile(logf, config.s_quantile))
        f_hi = float(np.quantile(logf, 1.0 - config.s_quantile))
    else:
        f_lo = float(np.min(logf))
        f_hi = float(np.max(logf))
    return adaptive_s(f_lo, f_hi, gamma_k)


def _argmax_min_term(
    cand: np.ndarray,
    cand_part: np.ndarray,
    cond: np.ndarray,
    cond_part: np.ndarray,
    s: float,
    center: np.ndarray,
) -> tuple[int, float]:
    """Exact argmax over candidates of the min pairwise term, with pruning.

    ``cand_part``/``cond_part`` are the per-point additive pieces (gamma times
    the log density or its surrogate).  A candidate's min term is usually
    attained at a low-density conditioning point, so the conditioning set is
    scanned in increasing order of a cheap proxy of its pairwise term,
    ``cond_part + p * log |cond - center|^2``: up to a constant, the s = 2
    term with the center standing in for every candidate and its part left
    out.  At gamma = 0 the parts are zero and this is distance order.

    Before any exact chunk, every candidate's min over the first 8
    conditioning points is bounded from above through ``log_dist_bound``.
    The bound's argmax is completed to a true score, the level, and
    candidates whose bound falls short of it never reach the exact kernel.
    The survivors are scored exactly in chunks of 8, 16, 32, 64, then 128,
    pruned against the level after each chunk.  If the level is -inf (the
    front-runner coincides with a conditioning point in the metric), nothing
    is pruned until a chunk's front-runner completes to a finite score.

    The proxy only orders the scan and the bound only prunes: every score
    comes from ``log_dist_block`` and the min is order-free, so the result
    does not depend on either.  First-occurrence tie-breaking is preserved
    because pruned candidates are strictly worse.
    """
    m, p = cand.shape
    two_p = 2.0 * p
    with np.errstate(divide="ignore"):
        proxy = cond_part + p * np.log(((cond - center[None, :]) ** 2).sum(axis=1))
    order = np.argsort(proxy, kind="stable")
    cond = cond[order]
    cond_part = cond_part[order]
    total = len(cond)

    # (cand_part + cond_part) + two_p * logd, here and below, in that
    # association: the bound holds term by term because float addition and
    # the positive scaling are monotone
    bound = np.add(cand_part[:, None], cond_part[None, :8])
    logd = log_dist_bound(cand, cond[:8], s)
    logd *= two_p
    bound += logd
    bound = bound.min(axis=1)
    lead = int(np.argmax(bound))
    ub = np.full(m, np.inf)
    full = cand_part[lead] + cond_part + two_p * log_dist_block(cand[lead : lead + 1], cond, s)[0]
    level = ub[lead] = full.min()
    alive = bound >= level if level > -np.inf else np.ones(m, dtype=bool)
    # the front-runner's score is complete; the chunks score the others
    alive[lead] = False
    pos = 0
    size = 8
    while pos < total and alive.any():
        stop = min(pos + size, total)
        size = min(2 * size, 128)
        idx = np.nonzero(alive)[0]
        terms = np.add(cand_part[idx][:, None], cond_part[None, pos:stop])
        logd = log_dist_block(cand[idx], cond[pos:stop], s)
        logd *= two_p
        terms += logd
        ub[idx] = np.minimum(ub[idx], terms.min(axis=1))
        pos = stop
        if level == -np.inf and pos < total:
            star = idx[int(np.argmax(ub[idx]))]
            tail = (
                cand_part[star]
                + cond_part[pos:]
                + two_p * log_dist_block(cand[star : star + 1], cond[pos:], s)[0]
            )
            ub[star] = min(ub[star], float(tail.min()))
            level = ub[star]
        if level > -np.inf:
            alive &= ub >= level
    alive[lead] = True
    scores = np.where(alive, ub, -np.inf)
    best = int(np.argmax(scores))
    return best, float(scores[best])


def _nearest(d2: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(d2, kind="stable")[:k]`` without sorting all of ``d2``.

    Every value at or below the k-th smallest is kept and stably sorted, in
    index order, so ties at the k-th value keep their first-index order.
    """
    if k >= len(d2):
        return np.argsort(d2, kind="stable")
    kth = d2[np.argpartition(d2, k - 1)[k - 1]]
    idx = np.flatnonzero(d2 <= kth)
    return idx[np.argsort(d2[idx], kind="stable")[:k]]


def propose_new_points(
    design: Design, state: StageState, gamma_next: float
) -> tuple[np.ndarray, np.ndarray]:
    """Pass 1: one new evaluated point per design point, in index order.

    Each design point gets a local region (its n nearest evaluated points in
    the whitened metric), a surrogate fitted to the nearest of them, and a
    candidate pool; the candidate maximizing the minimum pairwise term against
    the conditioning set (current design plus this stage's earlier winners,
    unwhitened metric) is evaluated exactly.  Exactly n ledger records.
    """
    cfg = state.config
    n = len(design)
    p = design.points.shape[1]
    # conditioning set: the design, then this stage's winners as they come
    cond = np.empty((2 * n, p))
    cond_logf = np.empty(2 * n)
    cond[:n] = design.points
    cond_logf[:n] = design.logf

    for j in range(n):
        center = design.points[j]
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(state.stage_next, j))
        )
        wc = state.spec_white.whiten(center)
        d2 = ((state.white[: state.count] - wc[None, :]) ** 2).sum(axis=1)
        nearest = _nearest(d2, n)
        region = state.pts[nearest]
        train = nearest[: min(len(nearest), TRAINING_CAP)]

        pool = local_candidates(center, region, state.m, N_COMBOS, state.all_points(), rng)

        surrogate = fit(state.pts[train], state.logf[train], cfg.theta)
        yhat = np.atleast_1d(predict(surrogate, pool))

        size = n + j
        best, _ = _argmax_min_term(
            pool,
            gamma_next * yhat,
            cond[:size],
            gamma_next * cond_logf[:size],
            state.s,
            center,
        )

        x_new = pool[best]
        val = eval_logf(state.model, x_new, state.ledger)
        state.add_evaluated(x_new, val)
        cond[size] = x_new
        cond_logf[size] = val

    return cond[n:], cond_logf[n:]


def greedy_select(
    points: np.ndarray,
    logf: np.ndarray,
    n: int,
    gamma: float,
    spec: DistanceSpec,
    stage: int = 0,
) -> Design:
    """Pass 2: greedy n-point selection from evaluated candidates only.

    The first point is the log-density argmax (ties to the lowest index);
    each later point maximizes the minimum pairwise term against the points
    already chosen, under the whitened metric.  No density evaluations.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    logf = np.asarray(logf, dtype=float)
    total = len(points)
    if n < 1:
        raise ConfigError(f"need n >= 1, got {n}")
    if total < n:
        raise ConfigError(f"cannot select {n} points from {total} candidates")
    p = points.shape[1]
    two_p = 2.0 * p
    white = spec.whiten(points)
    part = gamma * logf

    first = int(np.argmax(logf))
    chosen = [first]
    current = np.full(total, np.inf)
    current[first] = -np.inf
    for _ in range(1, n):
        last = chosen[-1]
        logd = log_dist_block(white, white[last : last + 1], spec.s)[:, 0]
        current = np.minimum(current, part + part[last] + two_p * logd)
        nxt = int(np.argmax(current))
        current[nxt] = -np.inf
        chosen.append(nxt)
    idx = np.array(chosen)
    return Design(points=points[idx].copy(), logf=logf[idx].copy(), stage=stage, gamma=gamma)


def _initial_lattice(n: int, p: int, seed: int) -> LatticeRule:
    shift_seed = int(
        np.random.SeedSequence(entropy=seed, spawn_key=(1, 0)).generate_state(1)[0]
    )
    return cbc_lattice(n, p, seed=shift_seed)


def _stage_metric(
    design: Design, gamma_k: float, gamma_next: float, config: RunConfig
) -> tuple[float, np.ndarray, DistanceSpec, DistanceSpec]:
    """Metric of the stage that starts from ``design``: (s, sigma, plain, white)."""
    p = design.points.shape[1]
    s = _resolve_s(design.logf, gamma_k, config)
    sigma = update_sigma(design.points, gamma_k, gamma_next, config.whitening)
    spec_plain = identity_spec(p, s)
    spec_white = spec_from_sigma(sigma, s=s) if config.whitening else spec_plain
    return s, sigma, spec_plain, spec_white


def _stage_report(design: Design, metric: tuple, t0: float) -> StageReport:
    """Stage summary of ``design`` under ``metric``; seconds counted from ``t0``."""
    s, sigma, spec_plain, spec_white = metric
    return StageReport(
        stage=design.stage,
        gamma=design.gamma,
        s=s,
        sigma_cond=float(np.linalg.cond(sigma)),
        psi_log=psi_log(design.points, design.logf, design.gamma, spec_plain).value,
        psi_tilde_log=psi_log(design.points, design.logf, design.gamma, spec_white).value,
        seconds=time.perf_counter() - t0,
    )


def run(
    model: DensityModel,
    config: RunConfig | None = None,
    ledger: EvaluationLedger | None = None,
) -> tuple[Design, RunReport]:
    """Full annealed construction: exactly K*n evaluations, deterministic per seed.

    Passing a ledger keeps its records available for postmortem even when the
    run aborts partway.
    """
    config = config if config is not None else RunConfig()
    p = model.p
    n = config.n if config.n is not None else default_n(p)
    K = config.K if config.K is not None else default_K(p)
    if n < 2:
        raise ConfigError(f"need n >= 2, got {n}")
    m = config.m if config.m is not None else 50 * p
    if m < 1:
        raise ConfigError(f"need m >= 1, got {m}")
    _check_config(config)
    ledger = ledger if ledger is not None else EvaluationLedger()
    start_count = ledger.count
    schedule = AnnealSchedule.of(K)
    t_run = time.perf_counter()

    budget = K * n
    buf_pts = np.empty((budget, p))
    buf_logf = np.empty(budget)
    buf_white = np.empty((budget, p))

    t0 = time.perf_counter()
    ledger.begin_stage(1)
    pts1 = _initial_lattice(n, p, config.seed).points()
    logf1 = eval_batch(model, pts1, ledger)
    design = Design(points=pts1, logf=logf1, stage=1, gamma=0.0)
    count = len(pts1)
    buf_pts[:count] = pts1
    buf_logf[:count] = logf1

    # stage 1 is reported under the metric that stage 2 runs on
    metric = _stage_metric(design, 0.0, float(schedule.gammas[1]), config)
    stages = [_stage_report(design, metric, t0)]

    for k_next in range(2, K + 1):
        t0 = time.perf_counter()
        gamma_k = float(schedule.gammas[k_next - 2])
        gamma_next = float(schedule.gammas[k_next - 1])
        if k_next > 2:
            metric = _stage_metric(design, gamma_k, gamma_next, config)
        s, _, _, spec_white = metric

        buf_white[:count] = spec_white.whiten(buf_pts[:count])
        state = StageState(
            model=model,
            config=config,
            ledger=ledger,
            stage_next=k_next,
            m=m,
            s=s,
            spec_white=spec_white,
            pts=buf_pts,
            logf=buf_logf,
            white=buf_white,
            count=count,
        )
        ledger.begin_stage(k_next)
        propose_new_points(design, state, gamma_next)
        count = state.count

        design = greedy_select(
            buf_pts[:count], buf_logf[:count], n, gamma_next, spec_white, stage=k_next
        )
        stages.append(_stage_report(design, metric, t0))

    used = ledger.count - start_count
    if used != budget:
        raise MedError(f"budget violated: {used} evaluations, expected {budget}")

    report = RunReport(
        model_name=model.name,
        p=p,
        n=n,
        K=K,
        seed=config.seed,
        budget=used,
        # the pool and surrogate constants are echoed with the run's settings
        config={
            **asdict(config),
            "n": n,
            "K": K,
            "m": m,
            "n_combos": N_COMBOS,
            "delta": DELTA_SEPARATION,
            "jitter": JITTER_START,
        },
        gammas=[float(g) for g in schedule.gammas],
        stages=stages,
        notes={
            "lattice": "rank-1 CBC, Bernoulli-2 kernel, product weights 1/l^2, naive search",
            "selection_gamma": "both selection passes use the stage target level",
            "adaptive_s_gamma": "adaptive exponent uses the current stage level",
        },
        ledger=ledger,
        total_seconds=time.perf_counter() - t_run,
    )
    return design, report
