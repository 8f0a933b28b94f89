"""Tests for the Metropolis baseline and the surrogate follow-up sampler."""

import math

import numpy as np
import pytest

from medsampler.baselines import (
    TARGET_ACCEPT,
    ChainSpec,
    adaptive_metropolis,
    chain_lengths,
    followup_mcmc,
)
from medsampler.density import (
    EvaluationLedger,
    eval_logf,
    make_ar1_normal,
    make_banana,
    make_uniform,
)
from medsampler.engine import Design
from medsampler.errors import ConfigError
from medsampler.surrogate import default_theta, fit, predict


def run_chain(model, start, length, scale=None, seed=0, budget=None):
    ledger = EvaluationLedger()
    spec = ChainSpec(start=np.asarray(start, dtype=float), length=length, scale=scale, seed=seed)
    result = adaptive_metropolis(model, spec, ledger, eval_budget=budget)
    return result, ledger


class TestChainSpecValidation:
    def test_zero_length_rejected(self):
        model = make_uniform(2)
        with pytest.raises(ConfigError):
            run_chain(model, [0.5, 0.5], 0)

    def test_singular_scale_rejected(self):
        model = make_uniform(2)
        with pytest.raises(ConfigError):
            run_chain(model, [0.5, 0.5], 10, scale=np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_start_outside_cube_rejected(self):
        model = make_uniform(2)
        with pytest.raises(ConfigError):
            run_chain(model, [0.5, 1.5], 10)

    def test_start_shape_mismatch_rejected(self):
        model = make_uniform(2)
        with pytest.raises(ConfigError):
            run_chain(model, [0.5, 0.5, 0.5], 10)

    def test_bad_budget_rejected(self):
        model = make_uniform(2)
        with pytest.raises(ConfigError):
            run_chain(model, [0.5, 0.5], 10, budget=0)

    def test_negative_seed_rejected(self):
        model = make_uniform(2)
        with pytest.raises(ConfigError):
            run_chain(model, [0.5, 0.5], 10, seed=-1)


class TestAdaptiveMetropolis:
    def test_flat_density_accepts_every_interior_proposal(self):
        # scale small enough that adaptation cannot push proposals out of the
        # cube within 60 steps, so the flat density accepts every one of them
        model = make_uniform(2)
        result, _ = run_chain(model, [0.5, 0.5], 60, scale=1e-4 * np.eye(2))
        assert result.accept_rate == 1.0

    def test_vanishing_scale_accepts_almost_surely(self):
        model = make_banana()
        result, _ = run_chain(model, [0.5, 0.6], 200, scale=1e-7 * np.eye(2))
        assert result.accept_rate > 0.99

    def test_banana_acceptance_in_working_range(self):
        model = make_banana()
        result, _ = run_chain(model, [0.5, 0.6], 1000, seed=2)
        assert 0.1 <= result.accept_rate <= 0.5

    def test_out_of_cube_proposals_spend_no_evaluations(self):
        model = make_uniform(2)
        steps = 400
        result, ledger = run_chain(model, [0.05, 0.05], steps, scale=0.3 * np.eye(2), seed=1)
        assert ledger.count == result.evaluations
        assert result.evaluations < steps + 1
        assert result.accept_rate < 1.0
        assert result.chain.shape == (steps, 2)

    def test_budget_mode_spends_exactly_the_budget(self):
        model = make_banana()
        result, ledger = run_chain(model, [0.5, 0.6], 1, seed=4, budget=57)
        assert result.evaluations == 57
        assert ledger.count == 57
        assert len(result.chain) >= 56

    def test_budget_of_one_yields_empty_chain(self):
        model = make_banana()
        result, ledger = run_chain(model, [0.5, 0.6], 5, budget=1)
        assert ledger.count == 1
        assert result.chain.shape == (0, 2)
        assert result.accept_rate == 0.0

    def test_chain_stays_inside_cube(self):
        model = make_banana()
        result, _ = run_chain(model, [0.5, 0.6], 500, seed=7)
        assert np.all(result.chain >= 0.0)
        assert np.all(result.chain <= 1.0)

    def test_deterministic_for_fixed_seed(self):
        model = make_banana()
        a, _ = run_chain(model, [0.5, 0.6], 300, seed=11)
        b, _ = run_chain(model, [0.5, 0.6], 300, seed=11)
        c, _ = run_chain(model, [0.5, 0.6], 300, seed=12)
        np.testing.assert_array_equal(a.chain, b.chain)
        assert not np.array_equal(a.chain, c.chain)

    def test_long_chain_matches_quadrature_truth(self):
        """Total variation against the 1-d truncated normal stays under 0.05."""
        sigma = 0.12
        model = make_ar1_normal(1, 0.0, sigma)
        result, _ = run_chain(model, [0.5], 100_000, seed=5)

        edges = np.linspace(0.0, 1.0, 21)
        masses = np.empty(20)
        for b in range(20):
            xs = np.linspace(edges[b], edges[b + 1], 401)
            masses[b] = np.trapezoid(np.exp(-0.5 * (xs - 0.5) ** 2 / sigma**2), xs)
        masses /= masses.sum()

        counts, _ = np.histogram(result.chain[:, 0], bins=edges)
        tv = 0.5 * np.abs(counts / len(result.chain) - masses).sum()
        assert tv < 0.05


class TestChainLengths:
    def test_hundred_equal_points_split_evenly(self):
        lengths, weights = chain_lengths(np.zeros(100), 10_000)
        assert np.all(lengths == 100)
        np.testing.assert_allclose(weights, 0.01)

    def test_ceiling_rounds_up(self):
        lengths, _ = chain_lengths(np.zeros(109), 10_000)
        assert np.all(lengths == 92)

    def test_total_between_n_and_n_plus_chains(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            logf = rng.normal(size=rng.integers(2, 40))
            N = int(rng.integers(50, 5000))
            lengths, weights = chain_lengths(logf, N)
            assert N <= lengths.sum() <= N + len(logf)
            assert np.all(lengths >= 1)
            assert abs(weights.sum() - 1.0) < 1e-12

    def test_shift_invariance(self):
        logf = np.array([-3.0, -1.0, 0.0, 2.5])
        la, wa = chain_lengths(logf, 500)
        lb, wb = chain_lengths(logf + 1000.0, 500)
        np.testing.assert_array_equal(la, lb)
        np.testing.assert_allclose(wa, wb)

    def test_zero_budget_rejected(self):
        with pytest.raises(ConfigError):
            chain_lengths(np.zeros(3), 0)


def make_followup_inputs():
    g = np.linspace(0.2, 0.8, 5)
    xx, yy = np.meshgrid(g, g)
    points = np.column_stack([xx.ravel(), yy.ravel()])
    logf = -np.sum((points - 0.5) ** 2, axis=1) * 8.0
    surrogate = fit(points, logf, default_theta(points))
    med = Design(points=points, logf=logf, stage=1, gamma=1.0)
    return med, surrogate


class TestFollowup:
    def test_pooled_shape_and_chain_bookkeeping(self):
        med, surrogate = make_followup_inputs()
        result = followup_mcmc(med, surrogate, N=300, seed=1)
        assert result.samples.shape == (result.lengths.sum(), 2)
        np.testing.assert_array_equal(
            result.chain_ids, np.repeat(np.arange(25), result.lengths)
        )
        assert 300 <= result.lengths.sum() <= 325
        assert np.all(result.samples >= 0.0)
        assert np.all(result.samples <= 1.0)

    def test_no_exact_evaluations_spent(self):
        med, surrogate = make_followup_inputs()
        ledger = EvaluationLedger()
        followup_mcmc(med, surrogate, N=200, seed=0)
        assert ledger.count == 0

    def test_deterministic_for_fixed_seed(self):
        med, surrogate = make_followup_inputs()
        a = followup_mcmc(med, surrogate, N=200, seed=9)
        b = followup_mcmc(med, surrogate, N=200, seed=9)
        c = followup_mcmc(med, surrogate, N=200, seed=10)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_weight_shift_leaves_chains_unchanged(self):
        med, surrogate = make_followup_inputs()
        shifted = Design(
            points=med.points, logf=med.logf + 500.0, stage=med.stage, gamma=med.gamma
        )
        a = followup_mcmc(med, surrogate, N=200, seed=3)
        b = followup_mcmc(shifted, surrogate, N=200, seed=3)
        np.testing.assert_array_equal(a.samples, b.samples)
        np.testing.assert_array_equal(a.lengths, b.lengths)

    def test_chains_concentrate_near_the_mode(self):
        # the surrogate target peaks at the cube center, the pooled draws should too
        med, surrogate = make_followup_inputs()
        result = followup_mcmc(med, surrogate, N=2000, seed=6)
        center_dist = np.linalg.norm(result.samples - 0.5, axis=1)
        assert np.median(center_dist) < 0.35

    def test_singular_scale_rejected(self):
        med, surrogate = make_followup_inputs()
        with pytest.raises(ConfigError):
            followup_mcmc(med, surrogate, N=100, scale=np.zeros((2, 2)))


BAD_SCALES = {
    "wrong-shape": 0.1 * np.eye(3),
    "zero-diagonal": np.diag([0.1, 0.0]),
    "nan-diagonal": np.diag([np.nan, 0.1]),
    "nan-below-diagonal": np.array([[0.1, 0.0], [np.nan, 0.1]]),
    "inf-below-diagonal": np.array([[0.1, 0.0], [np.inf, 0.1]]),
}


@pytest.mark.parametrize("name", list(BAD_SCALES))
@pytest.mark.parametrize("entry", ["adaptive_metropolis", "followup_mcmc"])
def test_bad_proposal_scale_rejected(entry, name):
    # p = 2 at both entry points; a NaN factor would leave every chain at its start
    with pytest.raises(ConfigError):
        if entry == "adaptive_metropolis":
            run_chain(make_uniform(2), [0.5, 0.5], 10, scale=BAD_SCALES[name])
        else:
            med, surrogate = make_followup_inputs()
            followup_mcmc(med, surrogate, N=100, scale=BAD_SCALES[name])


def reference_adapt(S, u, alpha, step, target):
    """One chain's rank-1 proposal-factor update, one matrix at a time."""
    norm2 = float(u @ u)
    if norm2 <= 0.0:
        return S
    eta = step ** (-2.0 / 3.0)
    c = eta * (alpha - target) / norm2
    v = S @ u
    return np.linalg.cholesky(S @ S.T + c * np.outer(v, v))


def reference_followup(med, surrogate, N, seed=0, scale=None, with_logf=False):
    """The follow-up run one chain after another, one ``predict`` per step.

    This is the oracle ``followup_mcmc``'s lockstep rounds must match bit for
    bit: every chain's stream, proposals, values and factor updates.  It
    returns samples, chain ids and lengths, and with ``with_logf`` also each
    stored state's ``current`` value (``test_digests`` unpacks the three).
    """
    points = np.atleast_2d(np.asarray(med.points, dtype=float))
    n, p = points.shape
    lengths, _ = chain_lengths(med.logf, N)
    S0 = 0.1 * np.eye(p) if scale is None else np.tril(np.asarray(scale, dtype=float))
    pooled, values, ids = [], [], []
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        x = points[i].copy()
        current = float(predict(surrogate, x))
        S = S0.copy()
        rows = np.empty((lengths[i], p))
        currents = np.empty(lengths[i])
        for step in range(1, lengths[i] + 1):
            u = rng.standard_normal(p)
            proposal = x + S @ u
            if np.all((proposal >= 0.0) & (proposal <= 1.0)):
                value = float(predict(surrogate, proposal))
                alpha = min(1.0, math.exp(min(value - current, 0.0)))
            else:
                alpha = 0.0
            if alpha > 0.0 and rng.random() < alpha:
                x = proposal
                current = value
            S = reference_adapt(S, u, alpha, step, TARGET_ACCEPT)
            rows[step - 1] = x
            currents[step - 1] = current
        pooled.append(rows)
        values.append(currents)
        ids.append(np.full(lengths[i], i, dtype=int))
    out = np.vstack(pooled), np.concatenate(ids), lengths
    return out + (np.concatenate(values),) if with_logf else out


def assert_matches_reference(med, surrogate, N, seed=0, scale=None):
    got = followup_mcmc(med, surrogate, N=N, seed=seed, scale=scale)
    samples, chain_ids, lengths, logf = reference_followup(
        med, surrogate, N, seed, scale, with_logf=True
    )
    assert np.array_equal(got.samples, samples)
    assert np.array_equal(got.chain_ids, chain_ids)
    assert np.array_equal(got.lengths, lengths)
    assert np.array_equal(got.logf, logf)


def oracle_inputs(p, starts):
    """A surrogate on 12p training points and a design of 7 of them.

    ``starts`` is "interior", "faces" (every start on a face or a corner of
    the cube) or "zero-length" (two chains whose weight underflows to 0).
    """
    rng = np.random.default_rng(100 + p)
    x = rng.random((12 * p, p))
    if starts == "faces":
        x[np.arange(7), rng.integers(p, size=7)] = rng.integers(2, size=7).astype(float)
        x[0] = 1.0
    y = -0.5 * np.sum(((x - 0.5) / 0.2) ** 2, axis=1)
    logf = y[:7].copy()
    if starts == "zero-length":
        logf[[2, 5]] = logf.max() - 1000.0
    med = Design(points=x[:7], logf=logf, stage=1, gamma=1.0)
    return med, fit(x, y)


def custom_scale(p):
    return 0.05 * np.eye(p) + 0.02 * np.tril(np.ones((p, p)), -1)


class TestLockstepMatchesReference:
    """``followup_mcmc`` against the one-chain-at-a-time oracle, with ``array_equal``."""

    @pytest.mark.parametrize("N", [1, 37, 2000])
    @pytest.mark.parametrize("starts", ["interior", "faces", "zero-length"])
    @pytest.mark.parametrize("custom", [False, True], ids=["default-scale", "custom-scale"])
    @pytest.mark.parametrize("p", [1, 2, 3, 10])
    def test_grid(self, p, custom, starts, N):
        med, surrogate = oracle_inputs(p, starts)
        if starts == "zero-length":
            assert np.count_nonzero(chain_lengths(med.logf, N)[0] == 0) == 2
        scale = custom_scale(p) if custom else None
        assert_matches_reference(med, surrogate, N, seed=p + N, scale=scale)

    def test_square_grid_design(self):
        med, surrogate = make_followup_inputs()
        assert_matches_reference(med, surrogate, 500, seed=4)


def reference_metropolis(model, start, seed, length=None, budget=None):
    """The baseline one scalar step at a time: (chain, accept rate, ledger).

    It runs ``length`` steps, or with ``budget`` until its ledger holds that
    many records.
    """
    rng = np.random.default_rng(seed)
    x = np.asarray(start, dtype=float)
    ledger = EvaluationLedger()
    current = eval_logf(model, x, ledger)
    S = 0.1 * np.eye(model.p)
    chain, accepted, step = [], 0, 0
    while step < length if budget is None else ledger.count < budget:
        step += 1
        u = rng.standard_normal(model.p)
        proposal = x + S @ u
        alpha = 0.0
        if np.all((proposal >= 0.0) & (proposal <= 1.0)):
            value = eval_logf(model, proposal, ledger)
            alpha = min(1.0, math.exp(min(value - current, 0.0)))
        if alpha > 0.0 and rng.random() < alpha:
            x, current = proposal, value
            accepted += 1
        S = reference_adapt(S, u, alpha, step, TARGET_ACCEPT)
        chain.append(x)
    return np.array(chain).reshape(step, model.p), accepted / step if step else 0.0, ledger


class TestAdaptiveMetropolisMatchesReference:
    """The baseline's one-chain ``_step`` rounds against the scalar oracle, bit for bit."""

    def assert_matches(self, result, ledger, reference):
        chain, accept_rate, ref_ledger = reference
        assert np.array_equal(result.chain, chain)
        assert result.accept_rate == accept_rate
        assert result.evaluations == ledger.count == ref_ledger.count
        assert np.array_equal(ledger.points(), ref_ledger.points())
        assert np.array_equal(ledger.logf_values(), ref_ledger.logf_values())

    def test_chain_bits(self):
        model = make_banana()
        result, ledger = run_chain(model, [0.5, 0.6], 400, seed=3)
        self.assert_matches(result, ledger, reference_metropolis(model, [0.5, 0.6], 3, length=400))

    def test_budget_bits(self):
        # started near a corner, so some steps propose outside the cube and
        # spend no evaluation of the budget
        model = make_banana()
        result, ledger = run_chain(model, [0.02, 0.98], 1, seed=4, budget=57)
        assert len(result.chain) > 56
        reference = reference_metropolis(model, [0.02, 0.98], 4, budget=57)
        self.assert_matches(result, ledger, reference)
