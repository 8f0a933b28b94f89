"""Log-density models, the evaluation ledger, and the external-process evaluator.

Every density is evaluated on the unit hypercube; a per-coordinate affine box
maps unit-scale points to the original scale, and builtin models compute in
original coordinates (the Jacobian constant is dropped along with the unknown
normalizing constant).  Every evaluation goes through ``_evaluate`` and is
recorded by ``eval_batch`` (``eval_logf`` is its one-point form), so the
ledger is a complete audit of the budget: no hidden evaluations anywhere.
"""

from __future__ import annotations

import json
import math
import os
import queue
import shlex
import subprocess
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cholesky, get_lapack_funcs, solve_triangular, toeplitz
from scipy.special import ndtr

from .errors import ConfigError, DensityProtocolError
from .geometry import LOGF_FLOOR

# The LAPACK routine behind solve_triangular; a Cholesky factor's positive
# diagonal is never singular, so its info is always 0.
(_TRTRS,) = get_lapack_funcs(("trtrs",), dtype=np.float64)


@dataclass(frozen=True)
class LedgerRecord:
    """One density evaluation: unit-scale point, value, stage, sequence."""

    seq: int
    stage: int
    x: np.ndarray
    logf: float
    duration_ms: float


@dataclass
class EvaluationLedger:
    """Append-only record of every density evaluation in a run.

    ``begin_stage`` stamps subsequent records with the stage index.  Appends
    are serialized under a lock so concurrent external evaluations stay safe;
    sequence numbers follow request order, also for threaded batches.
    """

    records: list[LedgerRecord] = field(default_factory=list)
    stage: int = 1
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def count(self) -> int:
        return len(self.records)

    def begin_stage(self, k: int) -> None:
        self.stage = k

    def append(self, x: np.ndarray, logf: float, duration_ms: float) -> LedgerRecord:
        with self._lock:
            rec = LedgerRecord(
                seq=len(self.records),
                stage=self.stage,
                x=np.array(x, dtype=float),
                logf=float(logf),
                duration_ms=float(duration_ms),
            )
            self.records.append(rec)
            return rec

    def points(self) -> np.ndarray:
        return np.array([r.x for r in self.records])

    def logf_values(self) -> np.ndarray:
        return np.array([r.logf for r in self.records])


@dataclass
class DensityModel:
    """A log-unnormalized density on the unit cube with its original-scale box.

    ``truth_transform`` maps an (n, p) block of unit-scale points into the
    unit cube by the Rosenblatt map (Rosenblatt 1952, Ann. Math. Stat. 23),
    u_l = F(x_l | x_1..x_{l-1}), which sends an exact sample of the density to
    an iid uniform one; it is None when the density is not known in closed form.
    ``covariance`` is the density's unit-scale covariance where it is known in
    closed form, None otherwise.
    """

    p: int
    box: np.ndarray
    kind: str
    name: str
    logf_original: Callable[[np.ndarray], float] | None = None
    pool: "_ExternalPool | None" = None
    truth_transform: Callable[[np.ndarray], np.ndarray] | None = None
    covariance: np.ndarray | None = None

    def to_original(self, u: np.ndarray) -> np.ndarray:
        lo, hi = self.box[:, 0], self.box[:, 1]
        return lo + np.asarray(u, dtype=float) * (hi - lo)

    @property
    def has_identity_box(self) -> bool:
        return bool(np.all(self.box[:, 0] == 0.0) and np.all(self.box[:, 1] == 1.0))

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()

    def __enter__(self) -> "DensityModel":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _identity_box(p: int) -> np.ndarray:
    return np.column_stack([np.zeros(p), np.ones(p)])


def _validate_box(box: np.ndarray, p: int) -> np.ndarray:
    box = np.asarray(box, dtype=float)
    if box.shape != (p, 2):
        raise ConfigError(f"box must have shape ({p}, 2), got {box.shape}")
    if not np.all(np.isfinite(box)):
        raise ConfigError(f"box bounds must be finite, got {box.tolist()}")
    if not np.all(box[:, 1] > box[:, 0]):
        raise ConfigError("box upper bounds must exceed lower bounds")
    return box


def _trapezoid_cdf(grid: np.ndarray, dens: np.ndarray) -> np.ndarray:
    """Normalized cumulative trapezoid integral of ``dens`` over ``grid``."""
    cum = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(grid))])
    return cum / cum[-1]


def _evaluate(model: DensityModel, worker: int, u: np.ndarray) -> tuple[float, float]:
    """Evaluate log f at one clipped unit-scale point: (value, duration_ms).

    Builtin models compute in original coordinates; external ones ask pool
    worker ``worker``.  Values below the floor (including -inf for zero
    density) are clamped to it so criterion arithmetic stays finite.  A NaN
    or +inf from any evaluator aborts the run before anything is recorded.
    """
    t0 = time.perf_counter()
    if model.kind == "builtin":
        val = float(model.logf_original(model.to_original(u)))
    else:
        x_orig = None if model.has_identity_box else model.to_original(u)
        val = model.pool.eval_on(worker, u, x_orig)
    duration_ms = (time.perf_counter() - t0) * 1e3
    if math.isnan(val) or val == math.inf:
        kind = "NaN" if math.isnan(val) else "+inf"
        raise DensityProtocolError(f"density returned {kind} at point {u.tolist()}")
    return max(val, LOGF_FLOOR), duration_ms


def eval_logf(model: DensityModel, x: np.ndarray, ledger: EvaluationLedger) -> float:
    """Evaluate log f at a unit-scale point, recording exactly one ledger entry."""
    u = np.asarray(x, dtype=float)
    if u.shape != (model.p,):
        raise ConfigError(f"point has shape {u.shape}, model dimension is {model.p}")
    return float(eval_batch(model, u[None, :], ledger)[0])


def eval_batch(
    model: DensityModel, points: np.ndarray, ledger: EvaluationLedger
) -> np.ndarray:
    """Evaluate many unit-scale points, clipped to [0,1]; results in request order.

    The pool's workers share the requests round-robin; worker 0's share runs
    on the calling thread, so a builtin model (one worker) starts no thread.
    Every completed evaluation is appended in request order once the workers
    have stopped, also when the batch fails.  A density failure stops its
    worker and lets the others finish their shares, then the first failure is
    raised.  An interrupt (Ctrl-C), whenever it arrives, stops every worker
    after its evaluation in flight and is raised once their records are in.
    """
    units = np.clip(np.atleast_2d(np.asarray(points, dtype=float)), 0.0, 1.0)
    if units.ndim != 2 or units.shape[1] != model.p:
        raise ConfigError(f"points have shape {units.shape}, model dimension is {model.p}")
    workers = 1 if model.pool is None else len(model.pool.workers)
    done: list[tuple[float, float] | None] = [None] * len(units)
    errors: list[Exception] = []
    stop = threading.Event()

    def run_share(worker: int) -> None:
        try:
            for i in range(worker, len(units), workers):
                if stop.is_set():
                    return
                done[i] = _evaluate(model, worker, units[i])
        except Exception as exc:  # raised once every record is appended
            errors.append(exc)

    threads = []
    try:
        for w in range(1, workers):
            t = threading.Thread(target=run_share, args=(w,))
            t.start()
            threads.append(t)
        run_share(0)
        for t in threads:
            t.join()
    finally:
        stop.set()
        for t in threads:
            t.join()
        for u, record in zip(units, done):
            if record is not None:
                ledger.append(u, *record)
    if errors:
        raise errors[0]
    return np.array([val for val, _ in done])


def make_banana() -> DensityModel:
    """Banana-shaped 2-d test density on the box [-40, 40] x [-25, 10].

    Its truth map is u1 = F(x1), u2 = F(x2 | x1).  F(x1) integrates
    exp(-x1^2/200) P(x2 in box | x1) by the trapezoid rule on 8001 points;
    F(x2 | x1) is the CDF of N(3 - 0.03 x1^2, 1) truncated to the box.  Both
    normal masses are taken as upper tails: the plain difference
    ndtr(10 - m) - ndtr(-25 - m) is 1 - 1 = 0 once |x1| exceeds about 38.
    """
    box = np.array([[-40.0, 40.0], [-25.0, 10.0]])
    grid = np.linspace(box[0, 0], box[0, 1], 8001)
    m = 3.0 - 0.03 * grid**2
    cum = _trapezoid_cdf(
        grid, np.exp(-0.5 * grid**2 / 100.0) * (ndtr(m - box[1, 0]) - ndtr(m - box[1, 1]))
    )

    def logf(x: np.ndarray) -> float:
        x1, x2 = x[0], x[1]
        return -0.5 * x1**2 / 100.0 - 0.5 * (x2 + 0.03 * x1**2 - 3.0) ** 2

    def truth(points: np.ndarray) -> np.ndarray:
        x1, x2 = model.to_original(points).T
        m = 3.0 - 0.03 * x1**2
        top = ndtr(m - box[1, 0])
        mass = top - ndtr(m - box[1, 1])
        return np.column_stack([np.interp(x1, grid, cum), (top - ndtr(m - x2)) / mass])

    model = DensityModel(
        p=2, box=box, kind="builtin", name="banana", logf_original=logf, truth_transform=truth
    )
    return model


def make_uniform(p: int) -> DensityModel:
    """Flat density on the unit cube; log f identically zero."""
    if p < 1:
        raise ConfigError(f"dimension must be >= 1, got {p}")
    return DensityModel(
        p=p,
        box=_identity_box(p),
        kind="builtin",
        name="uniform",
        logf_original=lambda x: 0.0,
        truth_transform=lambda u: np.array(u, dtype=float),
    )


def make_ar1_normal(p: int, rho: float, sigma: float) -> DensityModel:
    """Normal density N(0.5, sigma^2 R) with AR(1) correlation R_ij = rho^|i-j|.

    The truth map is ndtr(L^-1 (x - 0.5)) with L the Cholesky factor of the
    covariance: the Rosenblatt map of the untruncated normal, whose covariance
    the model carries.  Both ignore the truncation to the unit cube, which at
    p=10, rho 0.9, sigma 0.125 drops 4.1e-4 of the probability mass (1e7
    draws, standard error 6e-6).
    """
    if p < 1:
        raise ConfigError(f"dimension must be >= 1, got {p}")
    if not 0.0 < sigma < math.inf:
        raise ConfigError(f"sigma must be positive and finite, got {sigma}")
    # rho = 1 would make the covariance singular
    if not 0.0 <= rho < 1.0:
        raise ConfigError(f"rho must lie in [0, 1), got {rho}")
    cov = sigma**2 * toeplitz(rho ** np.arange(p))
    # Fortran-ordered, so trtrs takes it as it is, as solve_triangular would
    chol = np.asfortranarray(cholesky(cov, lower=True))

    def logf(x: np.ndarray) -> float:
        # solve_triangular's own LAPACK call, without its checks and copies;
        # a NaN point gives a NaN value, which _evaluate rejects
        z, _ = _TRTRS(chol, x - 0.5, lower=True, overwrite_b=True)
        return -0.5 * float(z @ z)

    def truth(points: np.ndarray) -> np.ndarray:
        z = solve_triangular(chol, (np.asarray(points, dtype=float) - 0.5).T, lower=True)
        return ndtr(z.T)

    return DensityModel(
        p=p,
        box=_identity_box(p),
        kind="builtin",
        name=f"ar1-normal(p={p}, rho={rho}, sigma={sigma})",
        logf_original=logf,
        truth_transform=truth,
        covariance=cov,
    )


@dataclass(frozen=True)
class PriorFactor:
    """One-dimensional factor: uniform on [a, b], exponential tails outside."""

    a: float
    b: float
    lambda_a: float
    lambda_b: float

    def log_pdf(self, x: float) -> float:
        if x < self.a:
            return self.lambda_a * (x - self.a)
        if x > self.b:
            return -self.lambda_b * (x - self.b)
        return 0.0


def make_piecewise_prior(
    a: float, b: float, lambda_a: float, lambda_b: float
) -> PriorFactor:
    """Uniform-with-exponential-tails prior factor; factors add in log scale."""
    if not np.all(np.isfinite([a, b, lambda_a, lambda_b])):
        raise ConfigError(f"prior factor settings must be finite, got {[a, b, lambda_a, lambda_b]}")
    if not a < b:
        raise ConfigError(f"need a < b, got a={a}, b={b}")
    if not (lambda_a > 0 and lambda_b > 0):
        raise ConfigError("tail rates must be positive")
    return PriorFactor(a=a, b=b, lambda_a=lambda_a, lambda_b=lambda_b)


def make_product_prior(
    factors: Sequence[PriorFactor], box: np.ndarray | None = None
) -> DensityModel:
    """Product of one-dimensional prior factors as a density model.

    The factors are independent, so each factor's CDF (trapezoid rule on 2001
    points over its box interval) is the Rosenblatt map.
    """
    p = len(factors)
    if p < 1:
        raise ConfigError("need at least one prior factor")
    box = _identity_box(p) if box is None else _validate_box(box, p)
    tables = []
    for (lo, hi), f in zip(box, factors):
        grid = np.linspace(lo, hi, 2001)
        tables.append((grid, _trapezoid_cdf(grid, np.exp([f.log_pdf(x) for x in grid]))))

    def logf(x: np.ndarray) -> float:
        return sum(f.log_pdf(x[l]) for l, f in enumerate(factors))

    def truth(points: np.ndarray) -> np.ndarray:
        x = model.to_original(points)
        return np.column_stack([np.interp(x[:, l], g, c) for l, (g, c) in enumerate(tables)])

    model = DensityModel(
        p=p, box=box, kind="builtin", name="product-prior", logf_original=logf,
        truth_transform=truth,
    )
    return model


class _Worker:
    """One child process speaking JSON-lines on stdin/stdout."""

    def __init__(self, argv: list[str], p: int, timeout: float):
        self.argv = argv
        self.p = p
        self.timeout = timeout
        self.proc: subprocess.Popen | None = None
        self.lines: queue.Queue = queue.Queue()
        self.next_id = 0
        self.spawn()

    def spawn(self) -> None:
        env = dict(os.environ)
        env["MED_DENSITY_DIM"] = str(self.p)
        self.proc = subprocess.Popen(
            self.argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
            bufsize=1,
        )
        self.lines = queue.Queue()
        t = threading.Thread(target=self._reader, args=(self.proc, self.lines), daemon=True)
        t.start()

    @staticmethod
    def _reader(proc: subprocess.Popen, out: queue.Queue) -> None:
        for line in proc.stdout:
            out.put(line)
        out.put(None)  # EOF marker

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    def round_trip(self, request: dict) -> str:
        """Send one request and wait for one line; raises on timeout or death."""
        payload = json.dumps(request) + "\n"
        try:
            self.proc.stdin.write(payload)
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise _WorkerLost(str(exc)) from exc
        try:
            line = self.lines.get(timeout=self.timeout)
        except queue.Empty as exc:
            raise _WorkerLost(f"no response within {self.timeout}s") from exc
        if line is None:
            raise _WorkerLost("child closed its output")
        return line


class _WorkerLost(Exception):
    """The child died or did not answer in time."""


class _ExternalPool:
    """Pool of external evaluator processes with restart-once recovery."""

    def __init__(self, command: str | Sequence[str], p: int, timeout: float, size: int):
        argv = shlex.split(command) if isinstance(command, str) else list(command)
        self.workers = [_Worker(argv, p, timeout) for _ in range(size)]

    def eval_on(self, idx: int, u: np.ndarray, x_orig: np.ndarray | None) -> float:
        worker = self.workers[idx]
        request = {"id": worker.next_id, "x": [float(v) for v in u]}
        if x_orig is not None:
            request["x_orig"] = [float(v) for v in x_orig]
        worker.next_id += 1
        for attempt in (0, 1):
            try:
                line = worker.round_trip(request)
                break
            except _WorkerLost as exc:
                worker.kill()
                if attempt == 1:
                    raise DensityProtocolError(
                        f"evaluator failed twice ({exc}) at point {request['x']}"
                    ) from exc
                worker.spawn()
        # a child whose reply is not understood is out of step with its
        # requests, so it is killed whatever is wrong with the reply
        try:
            reply = json.loads(line)
            if not isinstance(reply, dict):
                raise ValueError(f"{reply!r} is not a JSON object")
            if reply.get("id") != request["id"]:
                raise ValueError(
                    f"response id {reply.get('id')!r} does not match request id {request['id']}"
                )
            if "logf" not in reply:
                raise ValueError("no 'logf'")
            return float(reply["logf"])
        except (TypeError, ValueError) as exc:
            worker.kill()
            raise DensityProtocolError(
                f"malformed response ({exc}) at point {request['x']}"
            ) from exc

    def close(self) -> None:
        for w in self.workers:
            if w.proc is not None and w.proc.poll() is None:
                try:
                    w.proc.stdin.close()
                except OSError:
                    pass
                try:
                    w.proc.wait(timeout=1.0)
                except subprocess.TimeoutExpired:
                    w.kill()


def make_external(
    command: str | Sequence[str],
    timeout: float,
    max_concurrency: int,
    p: int,
    box: np.ndarray | None = None,
) -> DensityModel:
    """Density evaluated by child processes speaking JSON-lines.

    Each request line is ``{"id": k, "x": [...]}`` with unit-scale
    coordinates (plus ``"x_orig"`` when a box is given); the child must reply
    ``{"id": k, "logf": value}`` with the id echoed.  MED_DENSITY_DIM is set
    in the child's environment.  A dead or silent child is restarted once per
    request before the run aborts.  A NaN or +inf value, or a reply that is
    not a JSON object with the echoed id and a numeric ``logf``, aborts
    immediately with ``DensityProtocolError``; a malformed reply also kills the
    child that sent it.  From the command line this is exit 3, and an
    aborted ``generate`` still writes its ``ledger.csv``.  -inf is a valid
    zero density.
    """
    if p < 1:
        raise ConfigError(f"dimension must be >= 1, got {p}")
    if max_concurrency < 1:
        raise ConfigError(f"max_concurrency must be >= 1, got {max_concurrency}")
    if not 0 < timeout < math.inf:
        raise ConfigError(f"timeout must be positive and finite, got {timeout}")
    box = _identity_box(p) if box is None else _validate_box(box, p)
    pool = _ExternalPool(command, p, timeout, max_concurrency)
    return DensityModel(p=p, box=box, kind="external", name="external", pool=pool)
