"""Tests for the point-set quality measures."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import gammaln

from medsampler import geometry
from medsampler.diagnostics import (
    cl2_discrepancy,
    diagnostics_report,
    marginals_and_correlations,
    probability_balance,
    total_energy_log,
)
from medsampler.engine import Design
from medsampler.errors import ConfigError
from medsampler.geometry import identity_spec, psi_log


def design_of(points, logf=None):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if logf is None:
        logf = np.zeros(len(points))
    return Design(points=points, logf=np.asarray(logf, float), stage=1, gamma=1.0)


# ---------------------------------------------------------------- energies


class TestEnergies:
    def test_two_unit_charges_at_distance_one(self):
        # 1-d, logf = 0 so q = 1; both ordered pairs contribute 1/1
        d = design_of([[0.0], [1.0]])
        assert total_energy_log(d) == pytest.approx(math.log(2.0))

    def test_two_unit_charges_at_distance_two(self):
        d = design_of([[0.0], [2.0]])
        assert total_energy_log(d) == pytest.approx(0.0, abs=1e-12)

    def test_equilateral_triangle_of_unit_separations(self):
        # Euclidean side sqrt(2) gives dimension-averaged distance exactly 1,
        # so all six ordered terms are 1
        side = math.sqrt(2.0)
        pts = np.array(
            [[0.0, 0.0], [side, 0.0], [side / 2.0, side * math.sqrt(3.0) / 2.0]]
        )
        assert total_energy_log(design_of(pts)) == pytest.approx(math.log(6.0))

    def test_coincident_pair_gives_infinite_energy(self):
        d = design_of([[0.3, 0.3], [0.3, 0.3], [0.9, 0.1]])
        assert total_energy_log(d) == math.inf

    def test_single_point_rejected(self):
        with pytest.raises(ConfigError):
            total_energy_log(design_of([[0.5]]))

    def test_max_term_never_exceeds_total(self):
        # the largest pair energy is -psi / (2p), one of the summed terms
        rng = np.random.default_rng(5)
        for _ in range(20):
            pts, logf = rng.random((8, 3)), rng.normal(size=8)
            peak = -psi_log(pts, logf, 1.0, identity_spec(3)).value / 6.0
            assert peak <= total_energy_log(design_of(pts, logf)) + 1e-12


# ---------------------------------------------------------------- discrepancy


def mc_cl2_squared(points, n_samples, rng):
    """Monte-Carlo estimate of the defining integral.

    For each nonempty coordinate subset, the anchor x spans a box to the
    nearest cube corner per coordinate; the squared gap between empirical and
    true mass is integrated over x, and the subsets' integrals are summed.
    One shared anchor draw estimates every subset at once.
    """
    from itertools import combinations

    points = np.atleast_2d(points)
    n, p = points.shape
    x = rng.random((n_samples, p))
    lo = np.where(x <= 0.5, 0.0, x)
    hi = np.where(x <= 0.5, x, 1.0)
    span = hi - lo
    inb = (points[None, :, :] >= lo[:, None, :]) & (points[None, :, :] <= hi[:, None, :])
    total = np.zeros(n_samples)
    for r in range(1, p + 1):
        for dims in combinations(range(p), r):
            idx = list(dims)
            count = inb[:, :, idx].all(axis=2).sum(axis=1)
            vol = span[:, idx].prod(axis=1)
            total += (count / n - vol) ** 2
    return total.mean(), total.std(ddof=1) / math.sqrt(n_samples)


def cl2_reference(points):
    """CL2 closed form over the whole n x n x p cross tensor, its products
    summed row by row and the row sums summed last."""
    n, p = points.shape
    c = np.abs(points - 0.5)
    term2 = np.prod(1.0 + 0.5 * c - 0.5 * c**2, axis=1).sum() * (2.0 / n)
    cross = (
        1.0
        + 0.5 * c[:, None, :]
        + 0.5 * c[None, :, :]
        - 0.5 * np.abs(points[:, None, :] - points[None, :, :])
    )
    term3 = np.prod(cross, axis=2).sum(axis=1).sum() / (n * n)
    return math.sqrt(max((13.0 / 12.0) ** p - term2 + term3, 0.0))


class TestCL2:
    def test_single_centered_point_hand_value(self):
        # closed form at n=1, p=1, x=1/2: 13/12 - 2 + 1 = 1/12
        assert cl2_discrepancy(np.array([[0.5]])) ** 2 == pytest.approx(1.0 / 12.0)

    def test_single_corner_point_matches_integral_oracle(self):
        # closed form at x=0 gives 13/12 - 9/4 + 3/2 = 1/3; the defining
        # integral agrees: int_0^.5 (1-t)^2 + int_.5^1 (1-t)^2 = 7/24 + 1/24
        got = cl2_discrepancy(np.array([[0.0]])) ** 2
        assert got == pytest.approx(1.0 / 3.0)
        mc, se = mc_cl2_squared(np.array([[0.0]]), 200_000, np.random.default_rng(0))
        assert abs(got - mc) < 3.0 * se

    def test_matches_monte_carlo_on_random_sets(self):
        rng = np.random.default_rng(42)
        for trial in range(3):
            pts = rng.random((16, 2))
            closed = cl2_discrepancy(pts) ** 2
            mc, se = mc_cl2_squared(pts, 200_000, rng)
            assert abs(closed - mc) < 3.0 * se, f"trial {trial}"

    def test_coordinate_permutation_invariance(self):
        rng = np.random.default_rng(3)
        pts = rng.random((20, 3))
        assert cl2_discrepancy(pts) == pytest.approx(
            cl2_discrepancy(pts[:, [2, 0, 1]]), rel=1e-12
        )

    def test_rejects_empty_and_out_of_cube(self):
        with pytest.raises(ConfigError):
            cl2_discrepancy(np.zeros((0, 2)))
        with pytest.raises(ConfigError):
            cl2_discrepancy(np.array([[1.5, 0.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        # NaN fails every comparison, so the cube check must ask for membership
        with pytest.raises(ConfigError):
            cl2_discrepancy(np.array([[bad, 0.5], [0.2, 0.3]]))

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        for n in (1, 5, 40):
            assert cl2_discrepancy(rng.random((n, 4))) >= 0.0

    # rows per cross-term block, forced small through geometry's element
    # budget, which diagnostics reads: below one row, one row, 3 and 4 rows,
    # which split n = 4, 12, 13, 40 and 129 into uneven blocks, and a third
    # of the rows.  Every budget must give the whole tensor's bits.
    @pytest.mark.parametrize("n", [1, 4, 12, 13, 40, 129, 300])
    def test_row_blocks_match_the_whole_tensor(self, monkeypatch, n):
        rng = np.random.default_rng(n)
        for p in (1, 3, 10, 8, 30) if n < 40 else (1, 3, 10):
            drawn = rng.random((n, p))
            # the same points with every other coordinate snapped to exactly
            # 0, 0.5 or 1 and the last point a repeat of the first
            snapped = drawn.copy()
            snapped[:, ::2] = np.round(2.0 * snapped[:, ::2]) / 2.0
            snapped[-1] = snapped[0]
            for pts in (drawn, snapped):
                want = cl2_reference(pts)
                assert cl2_discrepancy(pts) == want
                for budget in (1, n, 3 * n, 4 * n, (n // 3 + 1) * n):
                    monkeypatch.setattr(geometry, "BLOCK_ELEMENTS", budget)
                    assert cl2_discrepancy(pts) == want, f"p={p} budget={budget}"
                monkeypatch.undo()

    @pytest.mark.parametrize("p", [2, 10, 30])
    def test_peak_memory_is_three_row_blocks(self, p):
        """The cross term holds three (rows, n) buffers and an (n,) vector of
        row sums, rows = geometry.BLOCK_ELEMENTS // n whatever p is, and no
        (n, n) matrix, which alone would be 72 MB here.  The slack covers the
        (n, p) working arrays and numpy's per-call iterator buffers."""
        n = 3000
        pts = np.random.default_rng(9).random((n, p))
        tracemalloc.start()
        try:
            cl2_discrepancy(pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = max(1, geometry.BLOCK_ELEMENTS // n)
        slack = 8 * 8 * n * p + 256 * 1024
        assert peak <= 3 * 8 * (rows + 2) * n + slack


# ---------------------------------------------------------------- balance


def balance_reference(points, logf):
    """Probability balance with distances from the n x n x p difference tensor."""
    n, p = points.shape
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    log_volume_const = (p / 2.0) * math.log(math.pi) - gammaln(p / 2.0 + 1.0)
    with np.errstate(divide="ignore"):
        log_p = 0.5 * (logf[:, None] + logf[None, :]) + log_volume_const + p * np.log(dist / 2.0)
    np.fill_diagonal(log_p, np.inf)
    balance = log_p.min(axis=1)
    return balance, float(balance.max() - balance.min())


class TestProbabilityBalance:
    @pytest.mark.parametrize("p", [1, 3, 8, 10, 17])
    def test_matches_the_tensor_formula(self, p):
        rng = np.random.default_rng(p)
        for n in (2, 13, 40):
            pts = rng.random((n, p))
            logf = rng.normal(size=n)
            balance, spread = probability_balance(design_of(pts, logf))
            want_balance, want_spread = balance_reference(pts, logf)
            assert np.array_equal(balance, want_balance), f"n={n}"
            assert spread == want_spread

    def test_coincident_points_match_the_tensor_formula(self):
        pts = np.array([[0.1, 0.2], [0.1, 0.2], [0.7, 0.4]])
        logf = np.zeros(3)
        balance, spread = probability_balance(design_of(pts, logf))
        want_balance, want_spread = balance_reference(pts, logf)
        assert np.isneginf(balance[0])
        assert np.array_equal(balance, want_balance)
        assert spread == want_spread

    def test_two_points_disk_area(self):
        # p=2, equal logf 0, Euclidean distance 2: volume term pi*(d/2)^2 = pi
        d = design_of([[0.0, 0.0], [2.0, 0.0]])
        balance, spread = probability_balance(d)
        assert balance == pytest.approx([math.log(math.pi)] * 2)
        assert spread == pytest.approx(0.0, abs=1e-12)

    def test_uniform_grid_is_balanced(self):
        g = np.linspace(0.0, 1.0, 5)
        pts = np.array([[a, b] for a in g for b in g])
        _, spread = probability_balance(design_of(pts))
        assert spread < 1e-9

    def test_matches_exhaustive_nearest_scan(self):
        rng = np.random.default_rng(14)
        pts = rng.random((12, 3))
        logf = rng.normal(size=12)
        balance, spread = probability_balance(design_of(pts, logf))
        vol_const = (3 / 2) * math.log(math.pi) - math.lgamma(3 / 2 + 1)
        for i in range(12):
            best = math.inf
            for j in range(12):
                if j == i:
                    continue
                dist = math.dist(pts[i], pts[j])
                best = min(
                    best,
                    0.5 * (logf[i] + logf[j]) + vol_const + 3 * math.log(dist / 2),
                )
            assert balance[i] == pytest.approx(best, rel=1e-12)
        assert spread == pytest.approx(balance.max() - balance.min())


# ---------------------------------------------------------------- summaries


class TestMarginalsAndCorrelations:
    def test_grid_symmetry(self):
        g = np.linspace(0.0, 1.0, 5)
        pts = np.array([[a, b] for a in g for b in g])
        marg, corr, degenerate = marginals_and_correlations(pts)
        assert not degenerate
        for m in marg:
            assert m.mean == pytest.approx(0.5)
            assert m.masses.sum() == pytest.approx(1.0)
        assert corr[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert np.array_equal(np.diag(corr), [1.0, 1.0])

    def test_anti_correlated_pairs(self):
        t = np.linspace(0.1, 0.9, 9)
        pts = np.column_stack([t, 1.0 - t])
        _, corr, _ = marginals_and_correlations(pts)
        assert corr[0, 1] == pytest.approx(-1.0)

    def test_degenerate_dimension_flagged_not_nan(self):
        pts = np.column_stack([np.full(6, 0.4), np.linspace(0, 1, 6)])
        marg, corr, degenerate = marginals_and_correlations(pts)
        assert degenerate
        assert marg[0].sd == 0.0
        assert np.all(np.isfinite(corr))
        assert corr[0, 1] == 0.0 and corr[0, 0] == 1.0

    def test_default_bin_count(self):
        pts = np.random.default_rng(0).random((26, 2))
        marg, _, _ = marginals_and_correlations(pts)
        assert len(marg[0].masses) == 6  # ceil(sqrt(26))

    def test_explicit_bins_and_mass_conservation(self):
        pts = np.random.default_rng(1).random((40, 3))
        marg, _, _ = marginals_and_correlations(pts, bins=10)
        for m in marg:
            assert len(m.masses) == 10
            assert m.masses.sum() == pytest.approx(1.0)

    def test_single_dimension_correlation(self):
        _, corr, _ = marginals_and_correlations(np.random.default_rng(2).random((8, 1)))
        assert corr.shape == (1, 1) and corr[0, 0] == 1.0


# ---------------------------------------------------------------- full report


class TestReport:
    def test_report_assembles_and_serializes(self):
        rng = np.random.default_rng(6)
        d = design_of(rng.random((15, 2)), rng.normal(size=15))
        rep = diagnostics_report(d, bins=5)
        assert rep.cl2 >= 0.0
        doc = rep.to_dict()
        assert set(doc) >= {
            "psi_log",
            "cl2",
            "marginals",
            "correlation",
            "balance_spread",
        }
        assert len(doc["marginals"][0]["masses"]) == 5
        import json

        json.dumps(doc)  # must be JSON-clean
