"""Density model tests, including the external JSON-lines evaluator."""

import sys
import textwrap
import threading
import time

import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular, toeplitz

from medsampler.diagnostics import cl2_discrepancy
from medsampler.density import (
    DensityModel,
    EvaluationLedger,
    eval_batch,
    eval_logf,
    make_ar1_normal,
    make_banana,
    make_external,
    make_piecewise_prior,
    make_product_prior,
    make_uniform,
)
from medsampler.errors import ConfigError, DensityProtocolError
from medsampler.fileio import ledger_digest
from medsampler.geometry import LOGF_FLOOR


def builtin(p, fn, name="custom"):
    return DensityModel(
        p=p,
        box=np.column_stack([np.zeros(p), np.ones(p)]),
        kind="builtin",
        name=name,
        logf_original=fn,
    )


def to_unit(model, x):
    """Original-scale points back to the unit cube: the inverse of ``to_original``."""
    lo, hi = model.box[:, 0], model.box[:, 1]
    return (np.asarray(x, dtype=float) - lo) / (hi - lo)


class TestBanana:
    def test_mode_value(self):
        m = make_banana()
        assert m.logf_original(np.array([0.0, 3.0])) == 0.0

    def test_hand_values(self):
        m = make_banana()
        assert m.logf_original(np.array([10.0, 0.0])) == pytest.approx(-0.5)
        assert m.logf_original(np.array([0.0, 0.0])) == pytest.approx(-4.5)

    def test_unit_point_maps_to_mode(self):
        m = make_banana()
        np.testing.assert_allclose(m.to_original(np.array([0.5, 0.8])), [0.0, 3.0])
        ledger = EvaluationLedger()
        assert eval_logf(m, np.array([0.5, 0.8]), ledger) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry_in_first_coordinate(self):
        m = make_banana()
        rng = np.random.default_rng(0)
        for _ in range(20):
            x1, x2 = rng.uniform(-40, 40), rng.uniform(-25, 10)
            a = m.logf_original(np.array([x1, x2]))
            b = m.logf_original(np.array([-x1, x2]))
            assert a == pytest.approx(b, rel=1e-12)

    def test_round_trip_box_mapping(self):
        m = make_banana()
        u = np.array([0.12, 0.77])
        np.testing.assert_allclose(to_unit(m, m.to_original(u)), u, atol=1e-14)


class TestEvalLogf:
    def test_purity_and_ledger_growth(self):
        m = make_banana()
        ledger = EvaluationLedger()
        x = np.array([0.3, 0.7])
        a = eval_logf(m, x, ledger)
        b = eval_logf(m, x, ledger)
        assert a == b
        assert ledger.count == 2
        assert [r.seq for r in ledger.records] == [0, 1]

    def test_out_of_cube_points_are_clipped(self):
        m = make_uniform(2)
        ledger = EvaluationLedger()
        eval_logf(m, np.array([-0.5, 1.5]), ledger)
        np.testing.assert_array_equal(ledger.records[0].x, [0.0, 1.0])

    def test_neg_inf_clamped_to_floor(self):
        m = builtin(1, lambda x: float("-inf"))
        ledger = EvaluationLedger()
        assert eval_logf(m, np.array([0.5]), ledger) == LOGF_FLOOR

    def test_nan_aborts(self):
        # +inf aborts like NaN, and neither value reaches the ledger
        for bad in ("nan", "inf"):
            m = builtin(1, lambda x: float(bad))
            ledger = EvaluationLedger()
            with pytest.raises(DensityProtocolError, match=r"at point \[0\.5\]"):
                eval_logf(m, np.array([0.5]), ledger)
            assert ledger.count == 0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            eval_logf(make_banana(), np.array([0.5]), EvaluationLedger())

    def test_stage_stamping(self):
        m = make_uniform(1)
        ledger = EvaluationLedger()
        eval_logf(m, np.array([0.1]), ledger)
        ledger.begin_stage(4)
        eval_logf(m, np.array([0.2]), ledger)
        assert [r.stage for r in ledger.records] == [1, 4]


class TestAr1Normal:
    def test_mode_is_zero(self):
        m = make_ar1_normal(10, 0.0, 1 / 8)
        assert m.logf_original(np.full(10, 0.5)) == pytest.approx(0.0, abs=1e-14)

    def test_one_sd_from_mean(self):
        m = make_ar1_normal(1, 0.0, 1 / 8)
        assert m.logf_original(np.array([0.625])) == pytest.approx(-0.5)

    def test_inverse_off_diagonal_closed_form(self):
        sigma = 1 / 8
        rho = 0.9
        cov = sigma**2 * np.array([[1.0, rho], [rho, 1.0]])
        prec = np.linalg.inv(cov)
        assert prec[0, 1] == pytest.approx(-rho / (sigma**2 * (1 - rho**2)), rel=1e-12)
        m = make_ar1_normal(2, rho, sigma)
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.uniform(size=2)
            want = -0.5 * (x - 0.5) @ prec @ (x - 0.5)
            assert m.logf_original(x) == pytest.approx(want, abs=1e-10)

    def test_cholesky_matches_direct_quadratic_form(self):
        from scipy.linalg import toeplitz

        for p, rho in [(3, 0.5), (10, 0.9)]:
            sigma = 1 / 8
            m = make_ar1_normal(p, rho, sigma)
            prec = np.linalg.inv(sigma**2 * toeplitz(rho ** np.arange(p)))
            rng = np.random.default_rng(p)
            for _ in range(5):
                x = rng.uniform(size=p)
                want = -0.5 * (x - 0.5) @ prec @ (x - 0.5)
                assert m.logf_original(x) == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("p", [1, 3, 10, 30])
    def test_log_density_has_the_bits_of_solve_triangular(self, p):
        sigma, rho = 1 / 8, 0.9
        chol = cholesky(sigma**2 * toeplitz(rho ** np.arange(p)), lower=True)
        m = make_ar1_normal(p, rho, sigma)
        for x in np.random.default_rng(p).uniform(size=(1000, p)):
            z = solve_triangular(chol, x - 0.5, lower=True)
            assert m.logf_original(x) == -0.5 * float(z @ z)

    def test_nan_point_is_rejected_before_recording(self):
        m = make_ar1_normal(3, 0.5, 1 / 8)
        ledger = EvaluationLedger()
        with pytest.raises(DensityProtocolError, match="NaN"):
            eval_logf(m, np.array([0.5, np.nan, 0.5]), ledger)
        assert ledger.count == 0

    def test_rho_one_is_singular(self):
        # a singular covariance is a configuration error like any rho outside [0, 1)
        with pytest.raises(ConfigError, match="rho"):
            make_ar1_normal(5, 1.0, 1 / 8)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_sigma_is_config_error(self, sigma):
        with pytest.raises(ConfigError, match="sigma"):
            make_ar1_normal(3, 0.5, sigma)

    def test_invalid_arguments(self):
        with pytest.raises(ConfigError):
            make_ar1_normal(5, -0.2, 1 / 8)
        with pytest.raises(ConfigError):
            make_ar1_normal(5, 0.5, 0.0)


class TestPiecewisePrior:
    def test_interior_is_flat(self):
        f = make_piecewise_prior(0.5, 1.0, 10.0, 10.0)
        assert f.log_pdf(0.75) == 0.0

    def test_left_tail(self):
        f = make_piecewise_prior(0.5, 1.0, 10.0, 10.0)
        assert f.log_pdf(0.4) == pytest.approx(-1.0)

    def test_right_tail_with_larger_rate(self):
        f = make_piecewise_prior(0.5, 1.0, 10.0, 100.0)
        assert f.log_pdf(1.01) == pytest.approx(-1.0)

    def test_continuity_at_knots(self):
        f = make_piecewise_prior(0.3, 0.8, 7.0, 3.0)
        for knot in (0.3, 0.8):
            assert f.log_pdf(knot - 1e-12) == pytest.approx(0.0, abs=1e-10)
            assert f.log_pdf(knot) == 0.0
            assert f.log_pdf(knot + 1e-12) == pytest.approx(0.0, abs=1e-10)

    def test_factors_compose_by_summation(self):
        f1 = make_piecewise_prior(0.5, 1.0, 10.0, 10.0)
        f2 = make_piecewise_prior(0.0, 0.2, 5.0, 2.0)
        m = make_product_prior([f1, f2])
        x = np.array([0.4, 0.3])
        assert m.logf_original(x) == pytest.approx(f1.log_pdf(0.4) + f2.log_pdf(0.3))

    def test_invalid_interval(self):
        with pytest.raises(ConfigError):
            make_piecewise_prior(1.0, 0.5, 1.0, 1.0)

    def test_nan_tail_rate_is_config_error(self):
        with pytest.raises(ConfigError):
            make_piecewise_prior(0.0, 1.0, float("nan"), 1.0)

    @pytest.mark.parametrize("hi", [float("inf"), float("nan")])
    def test_non_finite_box_is_config_error(self, hi):
        factor = make_piecewise_prior(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ConfigError, match="box"):
            make_product_prior([factor], box=np.array([[0.0, hi]]))


def child_script(tmp_path, body, name="child.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return f"{sys.executable} {path}"


ECHO_CHILD = """
    import json, os, sys
    p = int(os.environ["MED_DENSITY_DIM"])
    for line in sys.stdin:
        req = json.loads(line)
        assert len(req["x"]) == p
        val = -sum(v * v for v in req["x"])
        print(json.dumps({"id": req["id"], "logf": val}), flush=True)
"""

SLOW_FIRST_CHILD = """
    import json, sys, time
    for line in sys.stdin:
        req = json.loads(line)
        x = req["x"][0]
        if x < 0.1:
            time.sleep(0.2)
        print(json.dumps({"id": req["id"], "logf": -x * x}), flush=True)
"""


class TestExternal:
    def test_round_trip(self, tmp_path):
        cmd = child_script(tmp_path, ECHO_CHILD)
        with make_external(cmd, timeout=10.0, max_concurrency=1, p=2) as m:
            ledger = EvaluationLedger()
            got = eval_logf(m, np.array([0.5, 0.8]), ledger)
            assert got == pytest.approx(-(0.25 + 0.64))
            assert ledger.count == 1
            assert ledger.records[0].duration_ms > 0.0

    def test_child_sees_dimension_env(self, tmp_path):
        body = """
            import json, os, sys
            for line in sys.stdin:
                req = json.loads(line)
                print(json.dumps({"id": req["id"],
                                  "logf": float(os.environ["MED_DENSITY_DIM"])}),
                      flush=True)
        """
        cmd = child_script(tmp_path, body)
        with make_external(cmd, timeout=10.0, max_concurrency=1, p=7) as m:
            assert eval_logf(m, np.full(7, 0.5), EvaluationLedger()) == 7.0

    def test_box_adds_original_scale_coordinates(self, tmp_path):
        body = """
            import json, sys
            for line in sys.stdin:
                req = json.loads(line)
                print(json.dumps({"id": req["id"], "logf": req["x_orig"][0]}),
                      flush=True)
        """
        cmd = child_script(tmp_path, body)
        box = np.array([[-40.0, 40.0], [-25.0, 10.0]])
        with make_external(cmd, timeout=10.0, max_concurrency=1, p=2, box=box) as m:
            got = eval_logf(m, np.array([0.75, 0.5]), EvaluationLedger())
            assert got == pytest.approx(20.0)

    def test_nan_response_aborts(self, tmp_path):
        for bad in ("nan", "inf"):
            body = f"""
                import json, sys
                for line in sys.stdin:
                    req = json.loads(line)
                    print(json.dumps({{"id": req["id"], "logf": "{bad}"}}), flush=True)
            """
            cmd = child_script(tmp_path, body, name=f"child_{bad}.py")
            with make_external(cmd, timeout=10.0, max_concurrency=1, p=1) as m:
                ledger = EvaluationLedger()
                with pytest.raises(DensityProtocolError):
                    eval_logf(m, np.array([0.5]), ledger)
                assert ledger.count == 0

    def test_malformed_response_aborts(self, tmp_path):
        # undecodable lines and JSON values that are not objects alike
        for i, reply in enumerate(["not json", "42", "[1]"]):
            body = f"""
                import sys
                for line in sys.stdin:
                    print({reply!r}, flush=True)
            """
            cmd = child_script(tmp_path, body, name=f"child_{i}.py")
            with make_external(cmd, timeout=10.0, max_concurrency=1, p=1) as m:
                with pytest.raises(DensityProtocolError, match="malformed"):
                    eval_logf(m, np.array([0.5]), EvaluationLedger())
                assert m.pool.workers[0].proc.poll() is not None

    def test_id_mismatch_aborts(self, tmp_path):
        # a JSON object with the wrong id, or without a logf, leaves the
        # child out of step with its requests: it is killed
        for i, reply in enumerate(['{"id": 999, "logf": 0.0}', '{"id": 0}']):
            body = f"""
                import sys
                for line in sys.stdin:
                    print({reply!r}, flush=True)
            """
            cmd = child_script(tmp_path, body, name=f"child_{i}.py")
            with make_external(cmd, timeout=10.0, max_concurrency=1, p=1) as m:
                with pytest.raises(DensityProtocolError):
                    eval_logf(m, np.array([0.5]), EvaluationLedger())
                assert m.pool.workers[0].proc.poll() is not None

    def test_dead_child_restarts_once(self, tmp_path):
        # The child answers a single request and exits; the second request
        # must transparently restart it.
        body = """
            import json, sys
            line = sys.stdin.readline()
            req = json.loads(line)
            print(json.dumps({"id": req["id"], "logf": 1.0}), flush=True)
        """
        cmd = child_script(tmp_path, body)
        with make_external(cmd, timeout=10.0, max_concurrency=1, p=1) as m:
            ledger = EvaluationLedger()
            assert eval_logf(m, np.array([0.1]), ledger) == 1.0
            assert eval_logf(m, np.array([0.2]), ledger) == 1.0
            assert ledger.count == 2

    def test_nan_timeout_is_config_error(self, tmp_path):
        cmd = child_script(tmp_path, ECHO_CHILD)
        with pytest.raises(ConfigError, match="timeout"):
            make_external(cmd, timeout=float("nan"), max_concurrency=1, p=1).close()

    def test_timeout_then_abort(self, tmp_path):
        body = """
            import time
            time.sleep(60)
        """
        cmd = child_script(tmp_path, body)
        with make_external(cmd, timeout=0.3, max_concurrency=1, p=1) as m:
            with pytest.raises(DensityProtocolError):
                eval_logf(m, np.array([0.5]), EvaluationLedger())

    def test_batch_concurrency_preserves_order(self, tmp_path):
        # the first request is the slowest, so completion order differs
        # from request order on every run
        cmd = child_script(tmp_path, SLOW_FIRST_CHILD)
        pts = np.linspace(0.05, 0.95, 10)[:, None]
        with make_external(cmd, timeout=10.0, max_concurrency=3, p=1) as m:
            digests = set()
            for _ in range(3):
                ledger = EvaluationLedger()
                got = eval_batch(m, pts, ledger)
                np.testing.assert_allclose(got, -pts[:, 0] ** 2)
                assert ledger.count == 10
                np.testing.assert_array_equal(ledger.points(), pts)
                digests.add(ledger_digest(ledger))
            assert len(digests) == 1

    def test_batch_failure_keeps_completed_records_in_order(self, tmp_path):
        body = """
            import json, math, sys
            for line in sys.stdin:
                req = json.loads(line)
                x = req["x"][0]
                val = math.nan if x > 0.9 else -x * x
                print(json.dumps({"id": req["id"], "logf": val}), flush=True)
        """
        cmd = child_script(tmp_path, body)
        pts = np.linspace(0.05, 0.95, 10)[:, None]
        with make_external(cmd, timeout=10.0, max_concurrency=3, p=1) as m:
            ledger = EvaluationLedger()
            with pytest.raises(DensityProtocolError):
                eval_batch(m, pts, ledger)
            # the worker that hit the last point had finished its earlier
            # ones; the other workers finished theirs
            np.testing.assert_array_equal(ledger.points(), pts[:9])

    def test_interrupt_keeps_completed_records_in_order(self):
        # worker 0 is interrupted at its third request; worker 1 stops after
        # its request in flight, and every completed request is recorded
        class Pool:
            workers = [None, None]

            def __init__(self):
                self.completed = []
                self.calls = 0

            def eval_on(self, idx, u, x_orig):
                if idx == 0:
                    self.calls += 1
                    if self.calls == 3:
                        raise KeyboardInterrupt
                time.sleep(0.01)
                self.completed.append(round(float(u[0]) * 19))
                return -float(u[0])

        pool = Pool()
        model = DensityModel(
            p=1, box=np.array([[0.0, 1.0]]), kind="external", name="fake", pool=pool
        )
        pts = np.linspace(0.0, 1.0, 20)[:, None]
        ledger = EvaluationLedger()
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            eval_batch(model, pts, ledger)
        assert threading.active_count() == before
        # worker 0 finished two requests; worker 1 stopped short of its ten
        assert sum(i % 2 == 0 for i in pool.completed) == 2
        assert sum(i % 2 == 1 for i in pool.completed) < 10
        np.testing.assert_array_equal(ledger.points(), pts[sorted(pool.completed)])
        np.testing.assert_array_equal(ledger.logf_values(), -pts[sorted(pool.completed), 0])

    def test_threaded_batch_rejects_wrong_dimension(self, tmp_path):
        cmd = child_script(tmp_path, ECHO_CHILD)
        with make_external(cmd, timeout=10.0, max_concurrency=2, p=2) as m:
            ledger = EvaluationLedger()
            with pytest.raises(ConfigError):
                eval_batch(m, np.full((3, 3), 0.5), ledger)
            assert ledger.count == 0


class TestEvalBatchBuiltin:
    def test_matches_scalar_path(self):
        m = make_banana()
        pts = np.random.default_rng(2).uniform(size=(6, 2))
        a = eval_batch(m, pts, EvaluationLedger())
        b = np.array([eval_logf(m, x, EvaluationLedger()) for x in pts])
        np.testing.assert_array_equal(a, b)

    def test_nan_keeps_the_completed_prefix(self):
        m = builtin(1, lambda x: float("nan") if x[0] > 0.5 else -x[0])
        ledger = EvaluationLedger()
        pts = np.array([[0.1], [0.2], [0.9], [0.3]])
        with pytest.raises(DensityProtocolError):
            eval_batch(m, pts, ledger)
        np.testing.assert_array_equal(ledger.points(), pts[:2])
        np.testing.assert_array_equal(ledger.logf_values(), [-0.1, -0.2])




def ar1_draw(p, rho, sigma):
    chol = cholesky(sigma**2 * toeplitz(rho ** np.arange(p)), lower=True)
    return lambda model, rng, n: 0.5 + rng.standard_normal((n, p)) @ chol.T


def box_rejection_draw(model, rng, n):
    """Points uniform on the box, kept with probability f = exp(log f) <= 1."""
    x = model.to_original(rng.random((n, model.p)))
    return x[np.log(rng.random(n)) < [model.logf_original(row) for row in x]]


def exact_sample(model, draw, n, rng):
    """n unit-scale points of ``draw`` (original scale), rejected to the box."""
    u = np.empty((0, model.p))
    while len(u) < n:
        v = to_unit(model, draw(model, rng, n))
        u = np.concatenate([u, v[np.all((v >= 0.0) & (v <= 1.0), axis=1)]])
    return u[:n]


TWO_FACTOR_PRIOR = make_product_prior(
    [make_piecewise_prior(0.2, 0.5, 10.0, 20.0), make_piecewise_prior(1.0, 2.0, 3.0, 5.0)],
    box=np.array([[0.0, 1.0], [0.0, 4.0]]),
)


@pytest.mark.parametrize(
    "model, draw",
    [
        (make_banana(), box_rejection_draw),
        (make_ar1_normal(10, 0.0, 0.125), ar1_draw(10, 0.0, 0.125)),
        (make_ar1_normal(10, 0.9, 0.125), ar1_draw(10, 0.9, 0.125)),
        (make_uniform(3), box_rejection_draw),
        (TWO_FACTOR_PRIOR, box_rejection_draw),
    ],
    ids=["banana", "ar1-rho0", "ar1-rho0.9", "uniform", "prior"],
)
def test_truth_transform_makes_exact_samples_uniform(model, draw):
    # the Rosenblatt map sends an exact sample to an iid uniform one, whose
    # expected CL2^2 is ((5/4)^p - (13/12)^p) / n.  a map of marginal CDFs,
    # which keeps the dependence, reads about 2.5x (banana) and 9.5x (ar1
    # rho 0.9) that value on these samples
    n = 1000
    samples = [exact_sample(model, draw, n, np.random.default_rng(seed)) for seed in range(8)]
    cl2 = [cl2_discrepancy(model.truth_transform(x)) for x in samples]
    iid = np.sqrt((1.25**model.p - (13.0 / 12.0) ** model.p) / n)
    assert np.sqrt(np.mean(np.square(cl2))) == pytest.approx(iid, rel=0.3)
