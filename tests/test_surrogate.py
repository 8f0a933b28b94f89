"""Limit-kriging surrogate tests."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.spatial.distance import cdist

import medsampler.surrogate as sg
from medsampler.errors import ConfigError, SurrogateFitError
from medsampler.surrogate import default_theta, fit, predict, theta_sensitivity


class TestFit:
    def test_single_point_predicts_its_value_everywhere(self):
        m = fit(np.array([[0.5, 0.5]]), np.array([3.2]), theta=1.0)
        for q in ([0.5, 0.5], [0.4, 0.6], [0.0, 1.0]):
            assert predict(m, np.array(q)) == pytest.approx(3.2, abs=1e-8)

    def test_constant_values_reproduced(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(8, 3))
        m = fit(x, np.full(8, -1.7), theta=2.0)
        queries = rng.uniform(size=(20, 3))
        np.testing.assert_allclose(predict(m, queries), -1.7, atol=1e-8)

    def test_interpolates_training_points(self):
        x = np.array([[0.1, 0.1], [0.5, 0.9], [0.9, 0.3]])
        y = np.array([1.0, -2.0, 0.5])
        m = fit(x, y, theta=3.0)
        for xi, yi in zip(x, y):
            assert predict(m, xi) == pytest.approx(yi, abs=1e-6)

    def test_interpolation_invariant_larger_set(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(size=(25, 4))
        y = rng.standard_normal(25)
        m = fit(x, y, theta=default_theta(x))
        err = np.abs(np.atleast_1d(predict(m, x)) - y)
        assert err.max() < 1e-6

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigError):
            fit(np.zeros((0, 2)), np.zeros(0), 1.0)
        with pytest.raises(ConfigError):
            fit(np.zeros((2, 2)), np.array([1.0, np.inf]), 1.0)
        with pytest.raises(ConfigError):
            fit(np.zeros((2, 2)), np.zeros(2), -1.0)
        for theta in (np.nan, np.inf):
            with pytest.raises(ConfigError):
                fit(np.zeros((2, 2)), np.zeros(2), theta)
        with pytest.raises(ConfigError):
            fit(np.zeros((3, 2)), np.zeros(2), 1.0)

    def test_accepts_large_training_sets(self):
        # the follow-up fit trains on every ledger point, so no size cap here;
        # callers that want locality truncate before calling
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(201, 2))
        y = np.sin(x[:, 0] * 3.0) + x[:, 1]
        m = fit(x, y, theta=default_theta(x))
        err = np.abs(np.atleast_1d(predict(m, x[:7])) - y[:7])
        assert err.max() < 1e-6

    def test_factorization_failure_names_closest_pair(self, monkeypatch):
        def always_fail(mat, **kwargs):
            return mat, 1

        monkeypatch.setattr(sg, "_POTRF", always_fail)
        x = np.array([[0.1, 0.1], [0.9, 0.9], [0.1, 0.1 + 1e-9], [0.5, 0.5]])
        with pytest.raises(SurrogateFitError, match=r"\(0, 2\)"):
            fit(x, np.zeros(4), theta=1.0)

    def test_jitter_escalates_before_failing(self, monkeypatch):
        calls = []
        real = sg._POTRF

        def flaky(mat, **kwargs):
            calls.append(1)
            if len(calls) < 3:
                return mat, 1
            return real(mat, **kwargs)

        monkeypatch.setattr(sg, "_POTRF", flaky)
        m = fit(np.array([[0.2], [0.8]]), np.array([0.0, 1.0]), theta=1.0)
        assert m.jitter == pytest.approx(1e-6)


def reference_fit(x, y, theta, jitter_start=sg.JITTER_START):
    """The fit as a formula: exp(-theta * d2) + jitter * I, two solves."""
    k = len(x)
    corr = np.exp(-theta * cdist(x, x, "sqeuclidean"))
    jitter = jitter_start
    while True:
        try:
            factor = cho_factor(corr + jitter * np.eye(k), lower=True)
            break
        except LinAlgError:
            jitter *= 10.0
    rinv_y = cho_solve(factor, y)
    rinv_one = cho_solve(factor, np.ones(k))
    return rinv_y, rinv_one, float(rinv_y.sum() / rinv_one.sum()), jitter


FIT_FIELDS = ("rinv_y", "rinv_one", "gls_mean", "theta", "jitter")


class TestFitConstruction:
    """The in-place, two-right-hand-side fit keeps the formula's bits."""

    @pytest.mark.parametrize("k, p", [(1, 2), (2, 1), (17, 3), (120, 10), (200, 30)])
    def test_default_theta_is_applied_inside(self, k, p):
        rng = np.random.default_rng(k + p)
        x = rng.random((k, p))
        y = rng.normal(size=k)
        a = fit(x, y)
        b = fit(x, y, default_theta(x))
        for name in FIT_FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    @pytest.mark.parametrize("k, p", [(1, 1), (9, 2), (64, 5), (200, 30)])
    def test_matches_the_formula(self, k, p):
        rng = np.random.default_rng(10 * k + p)
        x = rng.random((k, p))
        y = rng.normal(size=k) * 40.0
        theta = default_theta(x)
        model = fit(x, y, theta)
        got = (model.rinv_y, model.rinv_one, model.gls_mean, model.jitter)
        for mine, ref in zip(got, reference_fit(x, y, theta)):
            assert np.array_equal(mine, ref)

    def test_duplicates_force_escalation_with_the_same_bits(self):
        rng = np.random.default_rng(7)
        x = rng.random((40, 3))
        x[20:] = x[:20]
        y = rng.normal(size=40)
        theta = default_theta(rng.random((40, 3)))
        model = fit(x, y, theta, jitter_start=1e-16)
        ref = reference_fit(x, y, theta, jitter_start=1e-16)
        assert model.jitter > 1e-16
        got = (model.rinv_y, model.rinv_one, model.gls_mean, model.jitter)
        for mine, want in zip(got, ref):
            assert np.array_equal(mine, want)

    def test_peak_memory_is_one_matrix(self):
        """R lives in the squared-distance matrix and is factored in place, so
        the peak is that matrix and _gaussian's boolean mask: 1.125 matrices
        here, where a factor copy peaks at 2.0 and the
        exp(-theta * d2) + jitter * I formula at 3.0."""
        k = 1200
        rng = np.random.default_rng(8)
        x = rng.random((k, 30))
        y = rng.normal(size=k)
        tracemalloc.start()
        try:
            fit(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * k * k * 8


class TestGaussian:
    """``_gaussian`` skips ``exp``'s underflow path without changing a bit."""

    @staticmethod
    def assert_bits(d2, theta):
        want = np.exp(-theta * d2)
        got = sg._gaussian(d2.copy(), theta)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("theta", [1.0, 0.37, 13436.0])
    def test_grid_across_the_cutoff_and_the_subnormal_band(self, theta):
        # exponents from -760 to -700 in steps of 3e-4, plus the neighbours
        # of the cutoff and of exp's last nonzero result
        exponents = np.concatenate(
            [
                np.linspace(-760.0, -700.0, 200_001),
                [np.nextafter(sg.EXP_ZERO_BELOW, -np.inf), sg.EXP_ZERO_BELOW],
                [np.nextafter(sg.EXP_ZERO_BELOW, 0.0), -745.1332, -745.13321910194122],
                [0.0, -1.0, -np.inf],
            ]
        )
        self.assert_bits((-exponents / theta)[None, :], theta)

    def test_all_underflow_block(self):
        rng = np.random.default_rng(4)
        self.assert_bits(800.0 + rng.random((50, 40)) * 1e6, 1.0)
        self.assert_bits(np.full((3, 5), np.inf), 2.0)

    @pytest.mark.parametrize("share", [0.0, 1e-3, sg.EXP_MASK_SHARE, 0.5])
    def test_blocks_on_both_sides_of_the_mask_share(self, share):
        # exponents in (-760, 0), the first `share` of them below the cutoff
        rng = np.random.default_rng(5)
        d2 = rng.random(4096) * 740.0
        k = int(share * d2.size)
        d2[:k] = 746.0 + rng.random(k) * 14.0
        self.assert_bits(rng.permutation(d2).reshape(64, 64), 1.0)

    def test_nan_entries_pass_through(self):
        d2 = np.array([[np.nan, 0.5, 1e9], [2.0, np.nan, 746.5]])
        self.assert_bits(d2, 1.0)
        # a NaN least exponent in an otherwise normal block
        self.assert_bits(np.array([[np.nan, 0.5], [2.0, 740.0]]), 1.0)

    @pytest.mark.parametrize("shape", [(0,), (0, 5), (3, 0)])
    def test_empty_block(self, shape):
        self.assert_bits(np.empty(shape), 1.0)

    def test_least_exponent_on_either_side_of_the_cutoff(self):
        # the plain route takes a block whose least exponent is the cutoff
        # itself, the masked route one a step below it
        base = np.linspace(0.0, 700.0, 64)
        for least in (-sg.EXP_ZERO_BELOW, np.nextafter(-sg.EXP_ZERO_BELOW, np.inf)):
            self.assert_bits(np.append(base, least).reshape(5, 13), 1.0)


class TestRatio:
    """``_ratio`` divides, and takes the GLS mean below the denominator floor."""

    MODEL = fit(np.array([[0.2, 0.3], [0.6, 0.5]]), np.array([1.0, 4.0]), theta=2.0)

    def test_no_small_denominator_has_the_bits_of_the_quotient(self):
        rng = np.random.default_rng(8)
        num = rng.normal(size=200)
        den = rng.uniform(1e-12, 3.0, size=200) * rng.choice([-1.0, 1.0], size=200)
        den[:3] = [sg.DENOMINATOR_FLOOR, -sg.DENOMINATOR_FLOOR, np.nan]
        got = sg._ratio(self.MODEL, num, den)
        assert np.array_equal((num / den).view(np.uint64), got.view(np.uint64))

    def test_small_denominators_take_the_gls_mean(self):
        num = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        small = np.nextafter(sg.DENOMINATOR_FLOOR, 0.0)
        den = np.array([0.5, small, 0.0, -small, 2.0])
        got = sg._ratio(self.MODEL, num, den)
        mean = self.MODEL.gls_mean
        assert np.array_equal(got, [2.0, mean, mean, mean, 2.5])

    def test_empty_block(self):
        assert sg._ratio(self.MODEL, np.empty(0), np.empty(0)).shape == (0,)


class TestPredict:
    def test_midpoint_of_symmetric_pair(self):
        x = np.array([[0.3, 0.5], [0.7, 0.5]])
        m0 = fit(x, np.array([0.0, 0.0]), theta=2.0)
        assert predict(m0, np.array([0.5, 0.5])) == pytest.approx(0.0, abs=1e-10)
        m1 = fit(x, np.array([-1.0, 1.0]), theta=2.0)
        assert predict(m1, np.array([0.5, 0.5])) == pytest.approx(0.0, abs=1e-10)

    def test_far_query_falls_back_to_gls_mean(self):
        x = np.array([[0.0, 0.0], [0.05, 0.0], [0.0, 0.05]])
        y = np.array([1.0, 2.0, 3.0])
        theta = 40.0
        m = fit(x, y, theta)
        corr = np.exp(-theta * ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
        corr += m.jitter * np.eye(3)
        ones = np.ones(3)
        want = (ones @ np.linalg.solve(corr, y)) / (ones @ np.linalg.solve(corr, ones))
        got = predict(m, np.array([1.0, 1.0]))
        assert got == pytest.approx(want, rel=1e-10)

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0.2, 0.4, size=(10, 3))
        y = rng.standard_normal(10)
        q = rng.uniform(0.2, 0.4, size=(5, 3))
        shift = np.array([0.3, -0.1, 0.25])
        base = predict(fit(x, y, 5.0), q)
        moved = predict(fit(x + shift, y, 5.0), q + shift)
        np.testing.assert_allclose(moved, base, atol=1e-10)

    def test_block_matches_scalar_queries(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(12, 2))
        y = rng.standard_normal(12)
        m = fit(x, y, default_theta(x))
        q = rng.uniform(size=(7, 2))
        block = predict(m, q)
        singles = np.array([predict(m, qi) for qi in q])
        np.testing.assert_allclose(block, singles, rtol=1e-12)


    def test_peak_memory_is_one_block(self):
        """The (m, k) correlation block is built in place, so the peak is
        that block plus m-sized vectors; ``exp(-theta * cdist(...))`` held
        two blocks at once."""
        m, k = 2000, 654
        rng = np.random.default_rng(9)
        model = fit(rng.random((k, 2)), rng.normal(size=k))
        x = rng.random((m, 2))
        tracemalloc.start()
        try:
            predict(model, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * m * k

    def test_rows_match_one_point_predictions(self):
        """A block gives every row the bits of its own one-point ``predict``
        call, including a row far enough away to take the GLS mean.  The
        shapes are pass-1 pools against capped training sets at p = 10, 2
        and 30."""
        rng = np.random.default_rng(11)
        for m, k, p in [(505, 149, 10), (105, 109, 2), (1505, 200, 30)]:
            model = fit(rng.random((k, p)), rng.normal(size=k) * 30.0)
            q = np.vstack([rng.random((m - 1, p)), np.full((1, p), 40.0)])
            rows = predict(model, q)
            assert rows[-1] == model.gls_mean
            assert np.array_equal(rows, [predict(model, qi) for qi in q])


class TestTheta:
    def test_default_theta_two_points(self):
        x = np.array([[0.0, 0.0], [0.3, 0.4]])
        # NN distance is 0.5, so theta = log 2 / 0.25.
        assert default_theta(x) == pytest.approx(np.log(2.0) / 0.25)

    def test_default_theta_single_point(self):
        assert default_theta(np.array([[0.5]])) == pytest.approx(np.log(2.0))

    def test_correlation_at_median_distance_is_half(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(size=(30, 2))
        theta = default_theta(x)
        d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        d_med2 = np.median(d2.min(axis=1))
        assert np.exp(-theta * d_med2) == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 9, 10, 48, 49])
    def test_rule_has_the_bits_of_the_median_formula(self, k):
        # a dyadic grid ties many nearest-neighbour distances; jittered
        # copies give distinct ones
        rng = np.random.default_rng(k)
        grid = np.array([[i / 8, j / 8] for i in range(8) for j in range(8)])[:k]
        for x in (grid, grid + rng.uniform(-1e-3, 1e-3, size=grid.shape)):
            d2 = cdist(x, x, "sqeuclidean")
            nn = d2.copy()
            np.fill_diagonal(nn, np.inf)
            want = np.log(2.0) / float(np.median(nn.min(axis=1)))
            assert sg._theta_rule(d2) == want

    def test_rule_leaves_the_distance_matrix_unchanged(self):
        # fit builds R in this matrix, so a left-over +inf diagonal would
        # reach _gaussian
        x = np.random.default_rng(6).random((12, 3))
        d2 = cdist(x, x, "sqeuclidean")
        before = d2.copy()
        sg._theta_rule(d2)
        assert np.array_equal(d2, before)

    def test_rule_gives_nan_for_nan_distances(self):
        x = np.random.default_rng(3).random((7, 2))
        x[4, 1] = np.nan
        assert np.isnan(default_theta(x))

    def test_sensitivity_metric_is_small_for_smooth_target(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.3, 0.7, size=(20, 2))
        y = np.array([-0.5 * ((80 * a - 40) ** 2) / 100.0 for a, _ in x])
        probes = rng.uniform(0.3, 0.7, size=(50, 2))
        rel = theta_sensitivity(x, y, default_theta(x), probes)
        assert 0.0 <= rel < 0.5
