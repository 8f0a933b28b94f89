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


def default_theta(x_train: np.ndarray) -> float:
    """Correlation parameter putting correlation 0.5 at the median NN distance."""
    x_train = np.atleast_2d(np.asarray(x_train, dtype=float))
    if len(x_train) < 2:
        return np.log(2.0)
    d2 = cdist(x_train, x_train, "sqeuclidean")
    np.fill_diagonal(d2, np.inf)
    d_med2 = float(np.median(d2.min(axis=1)))
    if d_med2 <= 0.0:
        return np.log(2.0)
    return np.log(2.0) / d_med2


def fit(
    x_train: np.ndarray,
    y_train: np.ndarray,
    theta: float,
    jitter_start: float = JITTER_START,
) -> SurrogateModel:
    """Factorize the correlation matrix once and store both solves.

    Jitter starts at 1e-8 and escalates tenfold on factorization failure; if
    1e-4 is still not enough the error names the closest pair of training
    points, which is virtually always the culprit.
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
    if theta <= 0:
        raise ConfigError(f"theta must be positive, got {theta}")
    if not 0.0 < jitter_start <= JITTER_LIMIT:
        raise ConfigError(f"jitter_start must be in (0, {JITTER_LIMIT}], got {jitter_start}")

    corr = np.exp(-theta * cdist(x_train, x_train, "sqeuclidean"))
    jitter = jitter_start
    while True:
        try:
            factor = cho_factor(corr + jitter * np.eye(k), lower=True)
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

    rinv_y = cho_solve(factor, y_train)
    rinv_one = cho_solve(factor, np.ones(k))
    gls_mean = float(rinv_y.sum() / rinv_one.sum())
    return SurrogateModel(
        x_train=x_train,
        theta=float(theta),
        jitter=jitter,
        rinv_y=rinv_y,
        rinv_one=rinv_one,
        gls_mean=gls_mean,
    )


def predict(model: SurrogateModel, x: np.ndarray) -> float | np.ndarray:
    """Limit-kriging prediction at one point (p,) or a block (m, p).

    Queries whose denominator magnitude drops below 1e-12 (far from all
    training points) fall back to the generalized-least-squares mean of y.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    xs = np.atleast_2d(x)
    r = np.exp(-model.theta * cdist(xs, model.x_train, "sqeuclidean"))
    num = r @ model.rinv_y
    den = r @ model.rinv_one
    out = np.where(
        np.abs(den) < DENOMINATOR_FLOOR,
        model.gls_mean,
        num / np.where(np.abs(den) < DENOMINATOR_FLOOR, 1.0, den),
    )
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
