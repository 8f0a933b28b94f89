"""Local limit-kriging interpolation of log-density values.

The predictor is

    yhat(x) = r(x)' R^{-1} y / r(x)' R^{-1} 1,

with Gaussian correlation r_i(x) = exp(-theta * ||x - x_i||^2) and
R_ij = exp(-theta * ||x_i - x_j||^2) + eps * I.  Compared to ordinary
kriging's constant-mean form, the ratio form degrades gracefully when the
correlation parameter is misspecified, which is why no likelihood-based
tuning of theta happens anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs
from scipy.spatial.distance import cdist

from .errors import ConfigError, SurrogateFitError

# Jitter escalation bounds for the correlation-matrix factorization.
JITTER_START = 1e-8
JITTER_LIMIT = 1e-4

# Largest training set a local fit will accept (keeps the O(k^3) solve cheap).
TRAINING_CAP = 200

# Below this magnitude the limit-kriging denominator is numerically meaningless.
DENOMINATOR_FLOOR = 1e-12

# np.exp is exactly +0.0 below about -745.1332, and takes a slow path
# (about 20 times the cost of a normal result) to get there.
EXP_ZERO_BELOW = -746.0

# Masking those exponents out costs about two passes over the block, which
# pays once roughly this share of them would underflow.
EXP_MASK_SHARE = 1.0 / 32.0

# The LAPACK routines behind cho_factor and cho_solve, called with the same
# arguments but without the wrappers' checks and copies.
_POTRF, _POTRS = get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


@dataclass(frozen=True)
class SurrogateModel:
    """Fitted limit-kriging interpolator with precomputed solves."""

    x_train: np.ndarray
    theta: float
    jitter: float
    rinv_y: np.ndarray
    rinv_one: np.ndarray
    gls_mean: float


def _theta_rule(d2: np.ndarray) -> float:
    """``default_theta`` from the squared distance matrix, left as it was found.

    The diagonal is set to +inf for the row minima and back to 0.0, the
    self-distance, after them.
    """
    if len(d2) < 2:
        return np.log(2.0)
    np.fill_diagonal(d2, np.inf)
    nn2 = d2.min(axis=1)
    np.fill_diagonal(d2, 0.0)
    # np.median's bits without its overhead: the middle value, or the mean
    # of the middle two as (a + b) / 2; the partition also places the
    # largest value last, where a NaN would sort, so NaN distances give NaN
    half = len(nn2) // 2
    part = np.partition(nn2, (half - 1, half, -1))
    d_med2 = float(part[half] if len(nn2) % 2 else (part[half - 1] + part[half]) / 2)
    if np.isnan(part[-1]):
        d_med2 = np.nan
    if d_med2 <= 0.0:
        return np.log(2.0)
    return np.log(2.0) / d_med2


def default_theta(x_train: np.ndarray) -> float:
    """Correlation parameter putting correlation 0.5 at the median NN distance."""
    x_train = np.atleast_2d(np.asarray(x_train, dtype=float))
    return _theta_rule(cdist(x_train, x_train, "sqeuclidean"))


def fit(
    x_train: np.ndarray,
    y_train: np.ndarray,
    theta: float | None = None,
    jitter_start: float = JITTER_START,
) -> SurrogateModel:
    """Factorize the correlation matrix once and store both solves.

    ``theta=None`` applies the ``default_theta`` rule to the training points.
    Jitter starts at 1e-8 and escalates tenfold on factorization failure; if
    1e-4 is still not enough the error names the closest pair of training
    points, which is virtually always the culprit.

    R is built in the one squared-distance matrix: its off-diagonal entries
    are the bits of ``exp(-theta * d2)`` and its diagonal is ``1 + jitter``,
    as adding ``jitter * I`` would give.  R is exactly symmetric, so its
    transpose is a Fortran-ordered view with the same lower triangle, and
    LAPACK's ``potrf`` factors it in place: peak memory is that one matrix.
    A failed factorization has overwritten part of it, so R is rebuilt
    before the next jitter.
    """
    x_train = np.atleast_2d(np.asarray(x_train, dtype=float))
    y_train = np.asarray(y_train, dtype=float).ravel()
    k = len(x_train)
    if k < 1:
        raise ConfigError("surrogate needs at least one training point")
    if len(y_train) != k:
        raise ConfigError(f"got {k} points but {len(y_train)} values")
    if not np.all(np.isfinite(y_train)):
        raise ConfigError("training values must be finite (floor them first)")
    if not np.all(np.isfinite(x_train)):
        raise ConfigError("training points must be finite")
    if theta is not None and not (np.isfinite(theta) and theta > 0):
        raise ConfigError(f"theta must be finite and positive, got {theta}")
    if not 0.0 < jitter_start <= JITTER_LIMIT:
        raise ConfigError(f"jitter_start must be in (0, {JITTER_LIMIT}], got {jitter_start}")

    corr = cdist(x_train, x_train, "sqeuclidean")
    if theta is None:
        theta = _theta_rule(corr)
    _gaussian(corr, theta)
    jitter = jitter_start
    while True:
        np.fill_diagonal(corr, 1.0 + jitter)
        factor, info = _POTRF(corr.T, lower=True, overwrite_a=True, clean=False)
        if info == 0:
            break
        if jitter >= JITTER_LIMIT:
            d2 = cdist(x_train, x_train, "sqeuclidean")
            np.fill_diagonal(d2, np.inf)
            i, j = np.unravel_index(np.argmin(d2), d2.shape)
            raise SurrogateFitError(
                f"correlation matrix not factorizable at jitter {jitter:g}; "
                f"closest training pair is ({min(i, j)}, {max(i, j)}) at "
                f"distance {np.sqrt(d2[i, j]):g}"
            )
        _gaussian(cdist(x_train, x_train, "sqeuclidean", out=corr), theta)
        jitter *= 10.0

    solves, info = _POTRS(factor, np.column_stack([y_train, np.ones(k)]), lower=True)
    if info != 0:
        raise LinAlgError(f"potrs info {info}")
    rinv_y, rinv_one = np.ascontiguousarray(solves.T)
    gls_mean = float(rinv_y.sum() / rinv_one.sum())
    return SurrogateModel(
        x_train=x_train,
        theta=float(theta),
        jitter=jitter,
        rinv_y=rinv_y,
        rinv_one=rinv_one,
        gls_mean=gls_mean,
    )


def _gaussian(d2: np.ndarray, theta: float) -> np.ndarray:
    """``exp(-theta * d2)`` written over ``d2``.

    ``d2 *= -theta`` rounds each product as ``-theta * d2`` does, so the
    result has that formula's bits without its two temporaries.  A block
    whose least exponent is at or above ``EXP_ZERO_BELOW`` (or empty) goes
    straight to ``exp``; a NaN least exponent takes the masked route, whose
    comparisons pass NaN through.  When at least ``EXP_MASK_SHARE`` of the
    exponents lie below ``EXP_ZERO_BELOW``, they are set to 0 before ``exp``
    and their results to +0.0 after it, the value ``exp`` gives them, so
    ``exp`` skips its underflow path; subnormal results still come from
    ``exp``.
    """
    d2 *= -theta
    if d2.min(initial=np.inf) >= EXP_ZERO_BELOW:
        return np.exp(d2, out=d2)
    zero = d2 < EXP_ZERO_BELOW
    if np.count_nonzero(zero) < EXP_MASK_SHARE * zero.size:
        return np.exp(d2, out=d2)
    np.putmask(d2, zero, 0.0)
    np.exp(d2, out=d2)
    np.putmask(d2, zero, 0.0)
    return d2


def _correlation(model: SurrogateModel, xs: np.ndarray) -> np.ndarray:
    """Correlations of each row of ``xs`` (m, p) with the training points, (m, k)."""
    return _gaussian(cdist(xs, model.x_train, "sqeuclidean"), model.theta)


def _ratio(model: SurrogateModel, num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den``, or the GLS mean where the denominator is below the floor."""
    small = np.abs(den) < DENOMINATOR_FLOOR
    if not small.any():
        return num / den
    return np.where(small, model.gls_mean, num / np.where(small, 1.0, den))


def predict(model: SurrogateModel, x: np.ndarray) -> float | np.ndarray:
    """Limit-kriging prediction at one point (p,) or a block (m, p).

    Queries whose denominator magnitude drops below 1e-12 (far from all
    training points) fall back to the generalized-least-squares mean of y.
    A block holds one (m, k) correlation matrix, and each row's value has
    the bits of its one-point prediction: the stacked product
    (m, 1, k) @ (k,) runs numpy's one-point ``dot`` per row, where a
    (m, k) @ (k,) product is a ``gemv`` whose last bits depend on the block.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    r = _correlation(model, np.atleast_2d(x))[:, None, :]
    out = _ratio(model, (r @ model.rinv_y)[:, 0], (r @ model.rinv_one)[:, 0])
    return float(out[0]) if single else out


def theta_sensitivity(
    x_train: np.ndarray,
    y_train: np.ndarray,
    theta: float,
    probes: np.ndarray,
) -> float:
    """RMS disagreement between theta and 2*theta fits, relative to RMS level.

    A robustness metric, not a guarantee: small values mean the predictor
    barely cares about the exact correlation parameter on these probes.
    """
    m1 = fit(x_train, y_train, theta)
    m2 = fit(x_train, y_train, 2.0 * theta)
    p1 = np.atleast_1d(predict(m1, probes))
    p2 = np.atleast_1d(predict(m2, probes))
    scale = max(float(np.sqrt(np.mean(p1**2))), 1e-12)
    return float(np.sqrt(np.mean((p1 - p2) ** 2)) / scale)
