"""Generalized distances and the energy-design criteria.

All criterion arithmetic is carried out in log scale.  A pairwise term for
points ``(i, j)`` at annealing level ``gamma`` is

    gamma * (logf_i + logf_j) + 2p * log d_s(x_i, x_j),

which for ``gamma = 1`` is ``2p`` times the log of the classic pairwise
criterion ``f(x_i)^{1/(2p)} f(x_j)^{1/(2p)} d(x_i, x_j)``.  The generalized
distance is the power mean

    d_s(u, v) = ((1/p) * sum_l |u_l - v_l|^s)^(1/s),

with the ``s = 0`` limit implemented exactly as the geometric mean
``prod_l |u_l - v_l|^(1/p)``.  Distances may be computed after whitening both
points by a lower-triangular matrix ``W`` with ``W' W = Sigma^{-1}``, which
turns the Euclidean case into the Mahalanobis distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular
from scipy.spatial.distance import cdist

from .errors import ConfigError

# Exponents below this are treated as the exact s = 0 product form.
S_ZERO_THRESHOLD = 1e-8

# Sentinel floor for log densities; values at or below this mean "zero density".
LOGF_FLOOR = -1e10

# Values in one (rows, j, p) block of a row-blocked kernel (8 MB of float64):
# dim_sum_block here and the CL2 cross terms in diagnostics.
BLOCK_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class DistanceSpec:
    """Distance definition: exponent ``s`` plus an optional whitening matrix.

    ``whitener`` is the inverse Cholesky factor of the covariance ``sigma``
    it was built from (lower triangular), so that whitened coordinates are
    ``W @ x`` and squared whitened Euclidean distances equal the Mahalanobis
    quadratic form: ``W @ sigma @ W' = I`` holds by construction.
    """

    s: float
    whitener: np.ndarray

    @property
    def is_product_form(self) -> bool:
        return self.s < S_ZERO_THRESHOLD

    @property
    def is_identity(self) -> bool:
        p = self.whitener.shape[0]
        return bool(np.array_equal(self.whitener, np.eye(p)))

    def whiten(self, points: np.ndarray) -> np.ndarray:
        """Apply the whitening transform to a point (p,) or block (m, p)."""
        if self.is_identity:
            return points
        return points @ self.whitener.T


def identity_spec(p: int, s: float = 2.0) -> DistanceSpec:
    """Unwhitened distance spec in dimension ``p``."""
    return DistanceSpec(s=float(s), whitener=np.eye(p))


def spec_from_sigma(sigma: np.ndarray, s: float = 2.0) -> DistanceSpec:
    """Build a whitened spec from an SPD matrix via its Cholesky factor."""
    sigma = np.asarray(sigma, dtype=float)
    p = sigma.shape[0]
    if sigma.shape != (p, p):
        raise ConfigError(f"sigma must be square, got shape {sigma.shape}")
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise ConfigError(f"sigma is not positive definite: {exc}") from exc
    whitener = solve_triangular(chol, np.eye(p), lower=True)
    return DistanceSpec(s=float(s), whitener=whitener)


@dataclass(frozen=True)
class CriterionValue:
    """Log-scale criterion value together with the pair attaining the min."""

    value: float
    pair: tuple[int, int]


def dist_s(u: np.ndarray, v: np.ndarray, spec: DistanceSpec) -> float:
    """Generalized (optionally whitened) distance between two points."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    diff = np.abs(spec.whiten(u) - spec.whiten(v))
    p = diff.shape[-1]
    if spec.is_product_form:
        if np.any(diff == 0.0):
            return 0.0
        return float(np.exp(np.log(diff).sum() / p))
    s = spec.s
    return float(np.mean(diff**s) ** (1.0 / s))


def dim_sum_block(a: np.ndarray, b: np.ndarray, s: float) -> np.ndarray:
    """Per-pair sums over dimensions of ``|a_l - b_l|**s`` for two blocks.

    ``a`` has shape (m, p) and ``b`` (j, p); the result is (m, j).  Below
    ``S_ZERO_THRESHOLD`` the summand is ``log|a_l - b_l|`` instead.  This is
    the tensor formula ``.sum(axis=2)`` over the C-ordered (m, j, p) tensor
    ``|a[:, None] - b[None]|``, built a block of rows at a time so that a
    block holds at most ``BLOCK_ELEMENTS`` values (or one row).  Each result
    is numpy's own pairwise sum over p contiguous values, whatever the block.
    """
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    m, p = a.shape
    j = b.shape[0]
    out = np.empty((m, j))
    rows = max(1, BLOCK_ELEMENTS // max(1, j * p))
    block = np.empty((min(rows, m), j, p))
    with np.errstate(divide="ignore"):
        for lo in range(0, m, rows):
            buf = block[: min(rows, m - lo)]
            np.subtract(a[lo : lo + rows, None, :], b[None, :, :], out=buf)
            np.abs(buf, out=buf)
            if s < S_ZERO_THRESHOLD:
                np.log(buf, out=buf)
            else:
                buf **= s
            np.sum(buf, axis=2, out=out[lo : lo + rows])
    return out


def log_dist_block(a: np.ndarray, b: np.ndarray, s: float) -> np.ndarray:
    """Log generalized distances between two pre-whitened blocks.

    ``a`` has shape (m, p) and ``b`` (j, p); the result is (m, j).  Coincident
    pairs produce ``-inf``.  The ``1/s * log mean`` form avoids overflow for
    small exponents.  This is ``np.log((diff**s).mean(axis=2)) / s``
    (``np.log(diff).mean(axis=2)`` below the s threshold) over the (m, j, p)
    tensor ``diff = |a[:, None] - b[None]|``, which ``dim_sum_block`` builds
    one block of rows at a time, so memory stays near the (m, j) result.
    """
    p = np.shape(a)[1]
    out = dim_sum_block(a, b, s)
    out /= p
    if s < S_ZERO_THRESHOLD:
        return out
    with np.errstate(divide="ignore"):
        np.log(out, out=out)
    out /= s
    return out


def log_dist_bound(a: np.ndarray, b: np.ndarray, s: float) -> np.ndarray:
    """Upper bounds on ``log_dist_block(a, b, s)``, from one ``cdist`` call.

    Power means grow with the exponent, so ``d_s <= d_2`` for ``s <= 2`` (the
    product form included) and ``d_s <= d_inf`` for any ``s``.  The margin
    covers the rounding of both sides: relative error in the pairwise sum of
    ``p`` powers, amplified by ``1/s`` in the power form, and in the logs.
    Distances are floored where their ``s``-th power would be subnormal,
    since underflow can lift the kernel's mean above the true one; the floor
    also keeps the bound off -inf, so the margin never meets an infinity.
    Where the kernel's sum of powers could overflow, the bound is +inf.
    """
    p = np.shape(a)[1]
    info = np.finfo(float)
    if s > 2.0:
        d = cdist(a, b, "chebyshev")
        np.maximum(d, info.tiny ** (1.0 / s), out=d)
        d[d > (info.max / (2 * p)) ** (1.0 / s)] = np.inf
        np.log(d, out=d)
    else:
        d = cdist(a, b, "sqeuclidean")
        np.maximum(d, info.tiny, out=d)
        d /= p
        np.log(d, out=d)
        d *= 0.5
    eps = info.eps
    rel = 8.0 * eps * p * (1.0 + np.log(p))
    slack = rel + (8.0 * eps * p / s if s >= S_ZERO_THRESHOLD else 0.0)
    d += rel * np.abs(d) + slack
    return d


def pair_term_log(
    logf_i: float,
    logf_j: float,
    xi: np.ndarray,
    xj: np.ndarray,
    p: int,
    gamma: float,
    spec: DistanceSpec,
) -> float:
    """Single pairwise criterion term in log scale; ``-inf`` for coincident points."""
    d = dist_s(xi, xj, spec)
    if d == 0.0:
        return -np.inf
    return gamma * (logf_i + logf_j) + 2.0 * p * np.log(d)


def pair_term_matrix(
    a: np.ndarray,
    a_logf: np.ndarray,
    b: np.ndarray,
    b_logf: np.ndarray,
    gamma: float,
    spec: DistanceSpec,
) -> np.ndarray:
    """All pairwise terms between point blocks ``a`` (m, p) and ``b`` (j, p)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    p = a.shape[1]
    logd = log_dist_block(spec.whiten(a), spec.whiten(b), spec.s)
    terms = 2.0 * p * logd
    terms += gamma * (np.asarray(a_logf)[:, None] + np.asarray(b_logf)[None, :])
    return terms


def psi_log(
    points: np.ndarray,
    logf: np.ndarray,
    gamma: float,
    spec: DistanceSpec,
) -> CriterionValue:
    """Minimum pairwise term over a design, with the attaining pair.

    The reported value is the log-scale criterion (2p times the log of the
    product-of-charges-times-distance term at ``gamma = 1``).  Ties are broken
    by the lexicographically smallest index pair ``(i, j)`` with ``i < j``.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if n < 2:
        raise ConfigError(f"criterion needs at least 2 points, got {n}")
    terms = pair_term_matrix(points, logf, points, logf, gamma, spec)
    iu, ju = np.triu_indices(n, k=1)
    flat = terms[iu, ju]
    k = int(np.argmin(flat))
    return CriterionValue(value=float(flat[k]), pair=(int(iu[k]), int(ju[k])))
