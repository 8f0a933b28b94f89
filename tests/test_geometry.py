"""Distance and criterion tests, including property-based checks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medsampler import geometry
from medsampler.errors import ConfigError
from medsampler.geometry import (
    S_ZERO_THRESHOLD,
    CriterionValue,
    dim_sum_block,
    dist_s,
    identity_spec,
    log_dist_block,
    log_dist_bound,
    pair_term_log,
    pair_term_matrix,
    psi_log,
    spec_from_sigma,
)


def log_dist_reference(a, b, s):
    """The (m, j, p) tensor formula ``log_dist_block`` must match bit for bit.

    ``log_dist_block`` builds this tensor a block of rows at a time; every
    block must give the same bits as the whole tensor.
    """
    diff = np.abs(a[:, None, :] - b[None, :, :])
    with np.errstate(divide="ignore"):
        if s < S_ZERO_THRESHOLD:
            return np.log(diff).mean(axis=2)
        return np.log((diff**s).mean(axis=2)) / s


# a spread of dimensions, small to above 256
KERNEL_DIMS = [*range(1, 18), 31, 64, 127, 128, 129, 200, 257]
KERNEL_EXPONENTS = [0.0, 1e-9, 0.7, 2.0 - 4.5e-12, 2.0, 3.0]


def exhaustive_min_pair(points, logf, gamma, spec):
    """Independent O(n^2) scan used as the oracle for psi_log."""
    n = len(points)
    best = np.inf
    best_pair = None
    for i in range(n):
        for j in range(i + 1, n):
            t = pair_term_log(logf[i], logf[j], points[i], points[j], len(points[0]), gamma, spec)
            if t < best:
                best = t
                best_pair = (i, j)
    return best, best_pair


class TestDistS:
    def test_euclidean_hand_value(self):
        spec = identity_spec(2, s=2.0)
        d = dist_s(np.array([0.0, 0.0]), np.array([3.0, 4.0]), spec)
        assert d == pytest.approx(np.sqrt(12.5), rel=1e-12)

    def test_product_form_hand_value(self):
        spec = identity_spec(2, s=0.0)
        d = dist_s(np.array([0.0, 0.0]), np.array([1.0, 4.0]), spec)
        assert d == pytest.approx(2.0, rel=1e-12)

    def test_mean_absolute_hand_value(self):
        spec = identity_spec(2, s=1.0)
        d = dist_s(np.array([0.0, 0.0]), np.array([2.0, 4.0]), spec)
        assert d == pytest.approx(3.0, rel=1e-12)

    def test_product_form_zero_on_shared_coordinate(self):
        spec = identity_spec(2, s=0.0)
        assert dist_s(np.array([0.3, 0.1]), np.array([0.3, 0.9]), spec) == 0.0

    def test_tiny_s_is_treated_as_product_form(self):
        spec = identity_spec(3, s=1e-9)
        assert spec.is_product_form
        u, v = np.array([0.0, 0.0, 0.0]), np.array([1.0, 2.0, 4.0])
        assert dist_s(u, v, spec) == pytest.approx(2.0, rel=1e-12)

    @given(
        u=st.lists(st.floats(-10, 10), min_size=2, max_size=5),
        shift=st.lists(st.floats(0.1, 5), min_size=2, max_size=5),
    )
    def test_power_mean_monotone_in_s(self, u, shift):
        p = min(len(u), len(shift))
        a = np.array(u[:p])
        b = a + np.array(shift[:p])
        vals = [dist_s(a, b, identity_spec(p, s=s)) for s in (0.0, 0.5, 1.0, 2.0)]
        for lo, hi in zip(vals, vals[1:]):
            assert lo <= hi * (1 + 1e-9)

    @given(shift=st.lists(st.floats(0.1, 5), min_size=2, max_size=5))
    def test_small_s_approaches_geometric_mean(self, shift):
        p = len(shift)
        a = np.zeros(p)
        b = np.array(shift)
        geo = dist_s(a, b, identity_spec(p, s=0.0))
        near = dist_s(a, b, identity_spec(p, s=1e-6))
        assert near == pytest.approx(geo, rel=1e-4)


class TestLogDistBlock:
    @pytest.mark.parametrize("s", KERNEL_EXPONENTS)
    def test_bit_identical_to_tensor_formula(self, s):
        for p in KERNEL_DIMS:
            rng = np.random.default_rng(p)
            a = rng.standard_normal((9, p))
            b = rng.standard_normal((6, p))
            a[0] = b[0]
            a[1, p - 1] = b[2, p - 1]
            got = log_dist_block(a, b, s)
            assert np.array_equal(got, log_dist_reference(a, b, s)), f"p={p}"

    @pytest.mark.parametrize("s", KERNEL_EXPONENTS)
    def test_single_column_shape(self, s):
        # greedy_select scores every candidate against one chosen point
        for p in KERNEL_DIMS:
            rng = np.random.default_rng(100 + p)
            pts = rng.uniform(size=(11, p))
            got = log_dist_block(pts, pts[4:5], s)
            assert got.shape == (11, 1)
            assert np.array_equal(got, log_dist_reference(pts, pts[4:5], s)), f"p={p}"

    def test_coincident_rows_give_neg_inf(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(size=(3, 10))
        for s in KERNEL_EXPONENTS:
            got = log_dist_block(a, a, s)
            assert np.all(np.isneginf(np.diag(got)))
            assert np.all(np.isfinite(got[~np.eye(3, dtype=bool)]))

    def test_shared_coordinate_at_s_zero_gives_neg_inf(self):
        a = np.array([[0.1, 0.2, 0.3]])
        b = np.array([[0.5, 0.2, 0.9], [0.5, 0.6, 0.9]])
        got = log_dist_block(a, b, 0.0)
        assert np.isneginf(got[0, 0])
        assert np.isfinite(got[0, 1])
        assert np.array_equal(got, log_dist_reference(a, b, 0.0))

    def test_result_does_not_depend_on_memory_layout(self):
        # the pairwise sum runs over a contiguous axis only in a C-ordered
        # tensor; the kernel builds one for every input layout
        rng = np.random.default_rng(6)
        a = rng.uniform(size=(7, 12))
        b = rng.uniform(size=(5, 12))
        for s in KERNEL_EXPONENTS:
            got = log_dist_block(np.asfortranarray(a), np.asfortranarray(b), s)
            assert np.array_equal(got, log_dist_reference(a, b, s))

    @pytest.mark.parametrize("s", KERNEL_EXPONENTS)
    def test_row_blocks_match_the_whole_tensor(self, monkeypatch, s):
        # element budgets below one row (j * p over it), of one row, and of
        # 2 and 3 rows, which split m = 7 into uneven blocks
        for p in (1, 2, 10, 30, 129):
            rng = np.random.default_rng(200 + p)
            a = rng.standard_normal((7, p))
            b = rng.standard_normal((5, p))
            a[3] = b[1]
            want = log_dist_reference(a, b, s)
            for budget in (1, 5 * p, 10 * p, 15 * p):
                monkeypatch.setattr(geometry, "BLOCK_ELEMENTS", budget)
                got = log_dist_block(a, b, s)
                assert np.array_equal(got, want), f"p={p} budget={budget}"

    def test_memory_stays_near_the_result(self):
        # the unblocked (n, n, p) tensor would take 320 MB
        n, p = 2000, 10
        pts = np.random.default_rng(8).uniform(size=(n, p))
        tracemalloc.start()
        try:
            log_dist_block(pts, pts, 2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * (n * n + geometry.BLOCK_ELEMENTS)

    def test_dim_sum_is_the_unscaled_sum(self):
        rng = np.random.default_rng(7)
        a, b = rng.uniform(size=(4, 9)), rng.uniform(size=(3, 9))
        diff = np.abs(a[:, None, :] - b[None, :, :])
        assert np.array_equal(dim_sum_block(a, b, 2.0), (diff**2.0).sum(axis=2))
        assert np.array_equal(dim_sum_block(a, b, 0.0), np.log(diff).sum(axis=2))


BOUND_EXPONENTS = [0.0, 1e-9, 1e-8, 1e-3, 0.7, 1.5, 2.0 - 4.5e-12, 2.0, 2.5, 3.0, 7.0]


def bound_cases(rng, p):
    """Blocks where the bound is tight or the kernel rounds badly: random
    pairs, equal gaps on every axis (every power mean equal), one dominant
    axis, gaps near underflow, and a coincident pair."""
    b = rng.random((6, p))
    near = b[rng.integers(6, size=12)]
    step = rng.random((12, 1)) * 10.0 ** rng.uniform(-12, 0, (12, 1))
    diagonal = near + rng.choice([-1.0, 1.0], (12, p)) * step
    dominant = near.copy()
    dominant[:, rng.integers(p)] += rng.normal(size=12)
    tiny = near + 10.0 ** rng.uniform(-320, -150, (12, 1)) * rng.normal(size=(12, p))
    a = np.vstack([rng.random((12, p)), diagonal, dominant, tiny, b[:1]])
    return a, b


class TestLogDistBound:
    """``log_dist_bound`` must sit above the kernel's computed values, since
    pass 1 prunes by it."""

    @pytest.mark.parametrize("s", BOUND_EXPONENTS)
    @pytest.mark.parametrize("p", [1, 2, 3, 10, 30, 64])
    def test_bounds_the_kernel(self, p, s):
        for trial in range(20):
            a, b = bound_cases(np.random.default_rng(1000 * p + trial), p)
            with np.errstate(under="ignore"):
                exact = log_dist_block(a, b, s)
            bound = log_dist_bound(a, b, s)
            assert not np.isnan(bound).any()
            assert np.all(exact <= bound), f"trial {trial}"

    def test_tight_at_the_matching_exponent(self):
        rng = np.random.default_rng(3)
        a, b = rng.random((20, 10)), rng.random((7, 10))
        gap = log_dist_bound(a, b, 2.0) - log_dist_block(a, b, 2.0)
        assert np.all((gap >= 0.0) & (gap < 1e-12))

    def test_coincident_points_stay_finite(self):
        a = np.array([[0.25, 0.5], [0.75, 0.5]])
        for s in BOUND_EXPONENTS:
            bound = log_dist_bound(a, a, s)
            assert np.all(np.isfinite(bound))
            assert np.all(np.isneginf(np.diag(log_dist_block(a, a, s))))


class TestWhitening:
    def test_identity_sigma_matches_unwhitened(self):
        rng = np.random.default_rng(0)
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        plain = dist_s(u, v, identity_spec(3, s=2.0))
        white = dist_s(u, v, spec_from_sigma(np.eye(3), s=2.0))
        assert white == pytest.approx(plain, rel=1e-12)

    def test_whitener_inverts_sigma(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4))
        sigma = a @ a.T + 4 * np.eye(4)
        spec = spec_from_sigma(sigma)
        np.testing.assert_allclose(spec.whitener @ sigma @ spec.whitener.T, np.eye(4), atol=1e-8)
        assert np.allclose(np.triu(spec.whitener, k=1), 0.0)

    def test_whitened_distance_is_mahalanobis(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 3))
        sigma = a @ a.T + 3 * np.eye(3)
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        spec = spec_from_sigma(sigma, s=2.0)
        d = dist_s(u, v, spec)
        quad = (u - v) @ np.linalg.solve(sigma, u - v)
        assert d**2 * 3 == pytest.approx(quad, rel=1e-10)

    def test_non_spd_sigma_rejected(self):
        with pytest.raises(ConfigError):
            spec_from_sigma(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestPairTerm:
    def test_coincident_points_give_neg_inf(self):
        spec = identity_spec(2)
        x = np.array([0.4, 0.6])
        assert pair_term_log(0.0, 0.0, x, x.copy(), 2, 1.0, spec) == -np.inf

    def test_gamma_zero_ignores_density(self):
        spec = identity_spec(2)
        xi, xj = np.array([0.0, 0.0]), np.array([1.0, 0.0])
        t_flat = pair_term_log(0.0, 0.0, xi, xj, 2, 0.0, spec)
        t_steep = pair_term_log(-50.0, 3.0, xi, xj, 2, 0.0, spec)
        assert t_flat == pytest.approx(t_steep, rel=1e-12)

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(3)
        spec = spec_from_sigma(np.diag([1.0, 2.0, 0.5]), s=1.3)
        a = rng.uniform(size=(4, 3))
        b = rng.uniform(size=(5, 3))
        alf = rng.standard_normal(4)
        blf = rng.standard_normal(5)
        mat = pair_term_matrix(a, alf, b, blf, 0.7, spec)
        for i in range(4):
            for j in range(5):
                want = pair_term_log(alf[i], blf[j], a[i], b[j], 3, 0.7, spec)
                assert mat[i, j] == pytest.approx(want, rel=1e-10)

    def test_matrix_neg_inf_on_coincident_rows(self):
        spec = identity_spec(2, s=0.0)
        pts = np.array([[0.2, 0.2], [0.2, 0.2]])
        mat = pair_term_matrix(pts, np.zeros(2), pts, np.zeros(2), 1.0, spec)
        assert np.all(np.isneginf(mat))


class TestPsiLog:
    def test_requires_two_points(self):
        with pytest.raises(ConfigError):
            psi_log(np.array([[0.5, 0.5]]), np.zeros(1), 1.0, identity_spec(2))

    def test_grid_oracle(self):
        # 5x5 regular grid on [0, 1]^2, uniform density.  Nearest neighbors
        # sit 0.25 apart on one axis, so d_2 = 0.25 / sqrt(2).
        g = np.linspace(0.0, 1.0, 5)
        pts = np.array([[a, b] for a in g for b in g])
        logf = np.zeros(len(pts))
        spec = identity_spec(2, s=2.0)
        got = psi_log(pts, logf, 1.0, spec)
        want = 4.0 * np.log(0.25 / np.sqrt(2.0))
        assert got.value == pytest.approx(want, rel=1e-12)
        oracle_val, oracle_pair = exhaustive_min_pair(pts, logf, 1.0, spec)
        assert got.value == pytest.approx(oracle_val, rel=1e-12)
        assert got.pair == oracle_pair

    def test_matches_exhaustive_oracle_random(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(size=(12, 3))
        logf = rng.standard_normal(12)
        spec = spec_from_sigma(np.diag([1.0, 0.5, 2.0]), s=1.0)
        got = psi_log(pts, logf, 0.6, spec)
        want_val, want_pair = exhaustive_min_pair(pts, logf, 0.6, spec)
        assert got.value == pytest.approx(want_val, rel=1e-10)
        assert got.pair == want_pair

    def test_tie_breaks_to_lexicographic_pair(self):
        # Symmetric square: all four sides tie at the min distance.
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        got = psi_log(pts, np.zeros(4), 1.0, identity_spec(2))
        assert got.pair == (0, 1)

    @settings(max_examples=30)
    @given(
        c=st.floats(-5, 5),
        seed=st.integers(0, 1000),
    )
    def test_constant_logf_shift_moves_value_not_pair(self, c, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(size=(6, 2))
        logf = rng.standard_normal(6)
        spec = identity_spec(2)
        base = psi_log(pts, logf, 1.0, spec)
        shifted = psi_log(pts, logf + c, 1.0, spec)
        assert shifted.value == pytest.approx(base.value + 2.0 * c, abs=1e-9)
        assert shifted.pair == base.pair

    @settings(max_examples=30)
    @given(
        t=st.floats(0.1, 10),
        seed=st.integers(0, 1000),
    )
    def test_scaling_points_shifts_log_criterion(self, t, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(size=(5, 3))
        logf = rng.standard_normal(5)
        spec = identity_spec(3, s=2.0)
        base = psi_log(pts, logf, 0.0, spec)
        scaled = psi_log(t * pts, logf, 0.0, spec)
        assert scaled.value == pytest.approx(base.value + 6.0 * np.log(t), abs=1e-8)
        assert scaled.pair == base.pair

    def test_criterion_value_is_plain_record(self):
        cv = CriterionValue(value=-1.5, pair=(0, 3))
        assert cv.value == -1.5 and cv.pair == (0, 3)
