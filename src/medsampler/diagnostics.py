"""Quality measures for point sets.

Energy objectives in log scale, centered-L2 discrepancy, marginal and
correlation summaries, and the per-point probability-balance statistic.
All functions are pure; nothing here spends density evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from . import geometry
from .engine import Design
from .errors import ConfigError
from .geometry import dim_sum_block, identity_spec, pair_term_matrix, psi_log


@dataclass(frozen=True)
class MarginalSummary:
    dim: int
    mean: float
    sd: float
    bin_edges: np.ndarray
    masses: np.ndarray


@dataclass(frozen=True)
class DiagnosticsReport:
    psi_log: float
    total_energy_log: float
    cl2: float
    marginals: list[MarginalSummary]
    correlation: np.ndarray
    correlation_degenerate: bool
    balance_log: np.ndarray
    balance_spread: float

    def to_dict(self) -> dict:
        return {
            "psi_log": self.psi_log,
            "total_energy_log": self.total_energy_log,
            "cl2": self.cl2,
            "marginals": [
                {
                    "dim": m.dim,
                    "mean": m.mean,
                    "sd": m.sd,
                    "bin_edges": list(m.bin_edges),
                    "masses": list(m.masses),
                }
                for m in self.marginals
            ],
            "correlation": [list(row) for row in self.correlation],
            "correlation_degenerate": self.correlation_degenerate,
            "balance_log": list(self.balance_log),
            "balance_spread": self.balance_spread,
            "balance_note": "P values use unnormalized f; only within-design comparisons are meaningful",
        }


def total_energy_log(design: Design) -> float:
    """Log of the summed pairwise charge energy, over ordered pairs.

    A pair's log energy log(q_i q_j / d_ij), with charge q = f^(-1/(2p)), is
    ``-T_ij / (2p)`` for psi's gamma = 1 identity-metric term ``T_ij``, so the
    largest one is ``-psi_log / (2p)``.  Coincident points make the sum
    infinite; the +inf sentinel is returned rather than raising since the
    value is an honest limit.
    """
    points = np.atleast_2d(np.asarray(design.points, dtype=float))
    n, p = points.shape
    if n < 2:
        raise ConfigError("energy needs at least 2 points")
    terms = pair_term_matrix(points, design.logf, points, design.logf, 1.0, identity_spec(p))
    terms = -terms[np.triu_indices(n, k=1)] / (2.0 * p)
    if np.any(np.isposinf(terms)):
        return float("inf")
    # ordered pairs count both (i,j) and (j,i)
    peak = float(np.max(terms))
    return peak + float(np.log(2.0 * np.sum(np.exp(terms - peak))))


def cl2_discrepancy(points: np.ndarray) -> float:
    """Centered L2 discrepancy of a point set in the unit cube.

    Standard closed form: CL2^2 = (13/12)^p
      - (2/n) sum_i prod_l (1 + |c_il|/2 - c_il^2/2)
      + (1/n^2) sum_ij prod_l (1 + |c_il|/2 + |c_jl|/2 - |x_il - x_jl|/2)
    with c = x - 1/2.  Returns the square root.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, p = points.shape
    if n < 1:
        raise ConfigError("discrepancy of an empty point set")
    if not np.all((points >= 0.0) & (points <= 1.0)):
        raise ConfigError("points must lie in the unit cube")
    c = np.abs(points - 0.5)
    term2 = np.prod(1.0 + 0.5 * c - 0.5 * c**2, axis=1).sum() * (2.0 / n)
    # The cross-term factor of dimension l is ((1 + h_i) + h_j) - 0.5|x_il - x_jl|
    # with h = c/2, the tensor form's own arithmetic.  Multiplied into a block
    # of rows from 1.0 in dimension order, it gives np.prod's left-to-right
    # product over the axis.  Each row of products is summed by np.sum and the
    # n row sums are summed last, so the result is the tensor form's
    # prod(axis=2).sum(axis=1).sum() for any block size, without holding an
    # (n, n) matrix.  The three (rows, n) buffers use geometry's budget.
    x = np.ascontiguousarray(points.T)
    h = 0.5 * c.T
    one_h = 1.0 + h
    rows = max(1, geometry.BLOCK_ELEMENTS // n)
    block = np.empty((min(rows, n), n))
    dist = np.empty_like(block)
    factor = np.empty_like(block)
    row_sums = np.empty(n)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        b, d, f = block[: hi - lo], dist[: hi - lo], factor[: hi - lo]
        b.fill(1.0)
        for l in range(p):
            np.subtract(x[l, lo:hi, None], x[l, None, :], out=d)
            np.abs(d, out=d)
            d *= 0.5
            np.add(one_h[l, lo:hi, None], h[l, None, :], out=f)
            f -= d
            b *= f
        np.sum(b, axis=1, out=row_sums[lo:hi])
    term3 = row_sums.sum() / (n * n)
    sq = (13.0 / 12.0) ** p - term2 + term3
    return math.sqrt(max(sq, 0.0))


def probability_balance(design: Design) -> tuple[np.ndarray, float]:
    """Per-point log of the smallest adjacent probability mass, plus spread.

    For each pair, P_ij = sqrt(f_i f_j) * V(d_ij) with V the Euclidean-ball
    volume of radius d_ij/2; the statistic is log P_{ii*} with i* the
    minimizing partner.  f is unnormalized, so only the within-design spread
    (max - min) is meaningful.
    """
    points = np.atleast_2d(np.asarray(design.points, dtype=float))
    logf = np.asarray(design.logf, dtype=float)
    n, p = points.shape
    if n < 2:
        raise ConfigError("probability balance needs at least 2 points")
    dist = np.sqrt(dim_sum_block(points, points, 2.0))
    log_volume_const = (p / 2.0) * math.log(math.pi) - gammaln(p / 2.0 + 1.0)
    with np.errstate(divide="ignore"):
        log_p = (
            0.5 * (logf[:, None] + logf[None, :])
            + log_volume_const
            + p * np.log(dist / 2.0)
        )
    np.fill_diagonal(log_p, np.inf)
    balance = log_p.min(axis=1)
    return balance, float(balance.max() - balance.min())


def marginals_and_correlations(
    points: np.ndarray, bins: int | None = None
) -> tuple[list[MarginalSummary], np.ndarray, bool]:
    """Per-dimension histogram/mean/sd plus the sample correlation matrix.

    Dimensions with zero variance make the correlation undefined; those
    entries are reported as 0 and the degeneracy flag is set.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, p = points.shape
    if n < 2:
        raise ConfigError("summaries need at least 2 points")
    if bins is None:
        bins = math.ceil(math.sqrt(n))
    if bins < 1:
        raise ConfigError(f"need at least 1 bin, got {bins}")

    marginals = []
    for l in range(p):
        counts, edges = np.histogram(points[:, l], bins=bins, range=(0.0, 1.0))
        sd = float(points[:, l].std(ddof=1))
        marginals.append(
            MarginalSummary(
                dim=l,
                mean=float(points[:, l].mean()),
                sd=sd if sd > 1e-12 else 0.0,
                bin_edges=edges,
                masses=counts / n,
            )
        )

    # constant columns leave ~1e-17 rounding residue, not exact zeros
    ok = points.std(axis=0, ddof=1) > 1e-12
    corr = np.zeros((p, p))
    if ok.sum() >= 2:
        # compress keeps the rows contiguous (points[:, ok] would not), so
        # corrcoef sums in the order it uses on the full matrix
        corr[np.ix_(ok, ok)] = np.corrcoef(np.compress(ok, points, axis=1), rowvar=False)
    np.fill_diagonal(corr, 1.0)
    corr = np.clip(corr, -1.0, 1.0)
    return marginals, corr, not bool(ok.all())


def diagnostics_report(design: Design, bins: int | None = None) -> DiagnosticsReport:
    """Assemble the full report for a design; pure, no density evaluations.

    psi is taken at gamma = 1 in the identity metric: a design file carries
    no metric.
    """
    points = np.atleast_2d(np.asarray(design.points, dtype=float))
    marginals, corr, degenerate = marginals_and_correlations(points, bins)
    balance, spread = probability_balance(design)
    return DiagnosticsReport(
        psi_log=psi_log(points, design.logf, 1.0, identity_spec(points.shape[1])).value,
        total_energy_log=total_energy_log(design),
        cl2=cl2_discrepancy(points) if np.all((points >= 0) & (points <= 1)) else float("nan"),
        marginals=marginals,
        correlation=corr,
        correlation_degenerate=degenerate,
        balance_log=balance,
        balance_spread=spread,
    )
