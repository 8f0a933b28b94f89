"""Limit-kriging surrogate tests."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.spatial.distance import cdist

import medsampler.surrogate as sg
from medsampler.errors import ConfigError, SurrogateFitError
from medsampler.surrogate import default_theta, fit, predict, predict_rows, theta_sensitivity


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
        def always_fail(*args, **kwargs):
            raise LinAlgError("forced")

        monkeypatch.setattr(sg, "cho_factor", always_fail)
        x = np.array([[0.1, 0.1], [0.9, 0.9], [0.1, 0.1 + 1e-9], [0.5, 0.5]])
        with pytest.raises(SurrogateFitError, match=r"\(0, 2\)"):
            fit(x, np.zeros(4), theta=1.0)

    def test_jitter_escalates_before_failing(self, monkeypatch):
        calls = []
        real = sg.cho_factor

        def flaky(mat, **kwargs):
            calls.append(1)
            if len(calls) < 3:
                raise LinAlgError("forced")
            return real(mat, **kwargs)

        monkeypatch.setattr(sg, "cho_factor", flaky)
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

    def test_peak_memory_is_two_matrices(self):
        """R lives in the squared-distance matrix, so the peak is that matrix
        plus the factor's copy: 2.0 matrices here, where the
        exp(-theta * d2) + jitter * I formula peaks at 3.0."""
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
        assert peak <= 2.5 * k * k * 8


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
        """``predict_rows`` gives every row the bits of its own ``predict``
        call, including rows far enough away to take the GLS mean."""
        rng = np.random.default_rng(11)
        x = rng.random((300, 3))
        y = rng.normal(size=300) * 30.0
        model = fit(x, y)
        q = np.vstack([rng.random((97, 3)), [[40.0, 40.0, 40.0]]])
        rows = predict_rows(model, q)
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

    def test_sensitivity_metric_is_small_for_smooth_target(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.3, 0.7, size=(20, 2))
        y = np.array([-0.5 * ((80 * a - 40) ** 2) / 100.0 for a, _ in x])
        probes = rng.uniform(0.3, 0.7, size=(50, 2))
        rel = theta_sensitivity(x, y, default_theta(x), probes)
        assert 0.0 <= rel < 0.5
