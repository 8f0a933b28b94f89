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
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.spatial.distance import cdist

from .errors import ConfigError, SurrogateFitError

# Jitter escalation bounds for the correlation-matrix factorization.
JITTER_START = 1e-8
JITTER_LIMIT = 1e-4

# Largest training set a local fit will accept (keeps the O(k^3) solve cheap).
TRAINING_CAP = 200

# Below this magnitude the limit-kriging denominator is numerically meaningless.
DENOMINATOR_FLOOR = 1e-12


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
    """``default_theta`` from the squared distance matrix; fills its diagonal."""
    if len(d2) < 2:
        return np.log(2.0)
    np.fill_diagonal(d2, np.inf)
    d_med2 = float(np.median(d2.min(axis=1)))
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
    as adding ``jitter * I`` would give.  Peak memory is that matrix plus the
    factor's copy.
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
    if theta is not None and theta <= 0:
        raise ConfigError(f"theta must be positive, got {theta}")
    if not 0.0 < jitter_start <= JITTER_LIMIT:
        raise ConfigError(f"jitter_start must be in (0, {JITTER_LIMIT}], got {jitter_start}")

    corr = cdist(x_train, x_train, "sqeuclidean")
    if theta is None:
        theta = _theta_rule(corr)
    _gaussian(corr, theta)
    jitter = jitter_start
    while True:
        np.fill_diagonal(corr, 1.0 + jitter)
        try:
            factor = cho_factor(corr, lower=True, check_finite=False)
            break
        except LinAlgError:
            if jitter >= JITTER_LIMIT:
                d2 = cdist(x_train, x_train, "sqeuclidean")
                np.fill_diagonal(d2, np.inf)
                i, j = np.unravel_index(np.argmin(d2), d2.shape)
                raise SurrogateFitError(
                    f"correlation matrix not factorizable at jitter {jitter:g}; "
                    f"closest training pair is ({min(i, j)}, {max(i, j)}) at "
                    f"distance {np.sqrt(d2[i, j]):g}"
                ) from None
            jitter *= 10.0

    solves = cho_solve(factor, np.column_stack([y_train, np.ones(k)]), check_finite=False)
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
    result has that formula's bits without its two temporaries.
    """
    d2 *= -theta
    return np.exp(d2, out=d2)


def _correlation(model: SurrogateModel, xs: np.ndarray) -> np.ndarray:
    """Correlations of each row of ``xs`` (m, p) with the training points, (m, k)."""
    return _gaussian(cdist(xs, model.x_train, "sqeuclidean"), model.theta)


def _ratio(model: SurrogateModel, num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den``, or the GLS mean where the denominator is below the floor."""
    small = np.abs(den) < DENOMINATOR_FLOOR
    return np.where(small, model.gls_mean, num / np.where(small, 1.0, den))


def predict(model: SurrogateModel, x: np.ndarray) -> float | np.ndarray:
    """Limit-kriging prediction at one point (p,) or a block (m, p).

    Queries whose denominator magnitude drops below 1e-12 (far from all
    training points) fall back to the generalized-least-squares mean of y.
    A block holds one (m, k) correlation matrix, and its products with the
    two solves are BLAS ``gemv`` calls (see ``predict_rows``).
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    r = _correlation(model, np.atleast_2d(x))
    out = _ratio(model, r @ model.rinv_y, r @ model.rinv_one)
    return float(out[0]) if single else out


def predict_rows(model: SurrogateModel, xs: np.ndarray) -> np.ndarray:
    """``predict(model, row)`` for each row of ``xs`` (m, p), from one correlation block.

    Each row's value has the bits of its one-point prediction: the stacked
    product (m, 1, k) @ (k,) runs numpy's one-point ``dot`` per row, where
    ``predict``'s block product is a ``gemv`` whose last bits differ.
    """
    r = _correlation(model, np.atleast_2d(np.asarray(xs, dtype=float)))[:, None, :]
    return _ratio(model, (r @ model.rinv_y)[:, 0], (r @ model.rinv_one)[:, 0])


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
