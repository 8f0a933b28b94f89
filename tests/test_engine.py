"""Tests for the annealed construction engine."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import medsampler.engine as engine
from medsampler.density import (
    EvaluationLedger,
    eval_batch,
    make_ar1_normal,
    make_banana,
    make_uniform,
)
from medsampler.engine import (
    AnnealSchedule,
    Design,
    RunConfig,
    StageState,
    _argmax_min_term,
    _nearest,
    adaptive_s,
    default_K,
    default_n,
    greedy_select,
    propose_new_points,
    run,
    update_sigma,
)
from medsampler.errors import CandidatePoolError, ConfigError, DensityProtocolError
from medsampler.geometry import (
    LOGF_FLOOR,
    identity_spec,
    log_dist_block,
    log_dist_bound,
    psi_log,
    spec_from_sigma,
)
from medsampler.qmc import DELTA_SEPARATION, local_candidates


# ---------------------------------------------------------------- defaults


class TestDefaults:
    @pytest.mark.parametrize("p,expected", [(2, 109), (10, 149), (30, 241)])
    def test_design_size_rule(self, p, expected):
        assert default_n(p) == expected

    def test_design_size_is_strictly_below_limit(self):
        # limit 100 + 5*2 = 110; 109 is prime, 110 is not counted even if prime-adjacent
        assert default_n(2) < 110

    @pytest.mark.parametrize("p,expected", [(2, 6), (3, 7), (10, 13), (30, 22)])
    def test_stage_count_rule(self, p, expected):
        assert default_K(p) == expected

    def test_bad_dimension_rejected(self):
        with pytest.raises(ConfigError):
            default_n(0)
        with pytest.raises(ConfigError):
            default_K(0)


# ---------------------------------------------------------------- schedule


class TestAnnealSchedule:
    def test_six_stage_levels(self):
        sched = AnnealSchedule.of(6)
        assert np.allclose(sched.gammas, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0])

    def test_endpoints_and_monotone(self):
        for K in (2, 5, 22):
            g = AnnealSchedule.of(K).gammas
            assert g[0] == 0.0 and g[-1] == 1.0
            assert np.all(np.diff(g) > 0)

    def test_too_few_stages(self):
        with pytest.raises(ConfigError):
            AnnealSchedule.of(1)


# ---------------------------------------------------------------- adaptive s


class TestAdaptiveS:
    def test_equal_extremes_give_zero(self):
        assert adaptive_s(-3.0, -3.0, 0.7) == 0.0

    def test_zero_gamma_gives_zero(self):
        assert adaptive_s(-50.0, -1.0, 0.0) == 0.0

    def test_huge_ratio_tends_to_two(self):
        # min/max ratio e^-100 at full strength
        s = adaptive_s(-100.0, 0.0, 1.0)
        assert s == pytest.approx(2.0 * (1.0 - math.exp(-100.0)))
        assert s == pytest.approx(2.0, abs=1e-10)

    def test_monotone_in_gamma_and_bounded(self):
        prev = -1.0
        for gamma in np.linspace(0.0, 1.0, 11):
            s = adaptive_s(-4.0, -1.0, gamma)
            assert 0.0 <= s < 2.0
            assert s >= prev
            prev = s

    def test_ordering_precondition(self):
        with pytest.raises(ConfigError):
            adaptive_s(1.0, 0.0, 0.5)


# ---------------------------------------------------------------- sigma update


class TestUpdateSigma:
    def test_scaling_of_sample_covariance(self):
        rng = np.random.default_rng(3)
        pts = rng.random((60, 3))
        out = update_sigma(pts, 0.5, 1.0, whitening=True)
        assert np.allclose(out, 0.5 * np.cov(pts, rowvar=False))

    def test_whitening_off_gives_identity(self):
        pts = np.random.default_rng(0).random((40, 4))
        assert np.array_equal(update_sigma(pts, 0.5, 1.0, whitening=False), np.eye(4))

    def test_degenerate_design_falls_back_to_uniform_variance(self):
        pts = np.tile([0.3, 0.7], (10, 1))
        assert np.allclose(update_sigma(pts, 0.5, 1.0, True), np.eye(2) / 12.0)

    def test_first_stage_uses_uniform_variance(self):
        pts = np.random.default_rng(1).random((30, 2))
        assert np.allclose(update_sigma(pts, 0.0, 0.2, True), np.eye(2) / 12.0)

    def test_zero_target_gamma_rejected(self):
        with pytest.raises(ConfigError):
            update_sigma(np.random.random((10, 2)), 0.0, 0.0, True)

    def test_ill_conditioned_covariance_is_shrunk(self):
        rng = np.random.default_rng(7)
        base = rng.random(80)
        # second coordinate nearly a copy of the first: raw cov is near-singular
        pts = np.column_stack([base, base + 1e-9 * rng.random(80), rng.random(80)])
        out = update_sigma(pts, 1.0, 1.0, whitening=True)
        raw = np.cov(pts, rowvar=False)
        assert np.linalg.cond(out) <= 1e6
        assert np.allclose(np.diag(out), np.diag(raw))


# ---------------------------------------------------------------- greedy pass


class TestGreedySelect:
    def test_two_points_ordered_by_logf(self):
        pts = np.array([[0.2, 0.2], [0.8, 0.8]])
        logf = np.array([-5.0, -1.0])
        d = greedy_select(pts, logf, 2, 1.0, identity_spec(2))
        assert np.array_equal(d.points[0], [0.8, 0.8])
        assert np.array_equal(d.points[1], [0.2, 0.2])

    def test_first_point_tie_breaks_to_lowest_index(self):
        pts = np.array([[0.1], [0.5], [0.9]])
        logf = np.array([-1.0, -1.0, -1.0])
        d = greedy_select(pts, logf, 2, 1.0, identity_spec(1))
        assert d.points[0, 0] == 0.1

    def test_uniform_logf_reduces_to_maximin(self):
        rng = np.random.default_rng(11)
        pts = rng.random((30, 2))
        logf = np.zeros(30)
        d = greedy_select(pts, logf, 8, 1.0, identity_spec(2, s=2.0))

        # independent maximin replay: nearest-selected distance, max over rest
        chosen = [0]
        for _ in range(7):
            best_i, best_d = -1, -np.inf
            for i in range(30):
                if i in chosen:
                    continue
                dmin = min(np.sqrt(((pts[i] - pts[c]) ** 2).mean()) for c in chosen)
                if dmin > best_d:
                    best_i, best_d = i, dmin
            chosen.append(best_i)
        assert np.array_equal(d.points, pts[chosen])

    def test_matches_exhaustive_greedy_replay_in_1d(self):
        pts = np.array([[0.05], [0.3], [0.45], [0.7], [0.95]])
        logf = np.array([-2.0, -0.5, -3.0, -0.1, -1.5])
        gamma = 0.8
        spec = identity_spec(1, s=2.0)
        d = greedy_select(pts, logf, 4, gamma, spec)

        def term(i, j):
            dist = abs(pts[i, 0] - pts[j, 0])
            return gamma * (logf[i] + logf[j]) + 2.0 * np.log(dist)

        chosen = [int(np.argmax(logf))]
        for _ in range(3):
            scores = {
                i: min(term(i, c) for c in chosen)
                for i in range(5)
                if i not in chosen
            }
            chosen.append(max(scores, key=lambda i: (scores[i], -i)))
        assert np.array_equal(d.points, pts[chosen])
        assert np.array_equal(d.logf, logf[chosen])

    def test_selecting_more_than_available_fails(self):
        with pytest.raises(ConfigError):
            greedy_select(np.random.random((3, 2)), np.zeros(3), 4, 1.0, identity_spec(2))


# ---------------------------------------------------------------- scoring core


def brute_force_best(cand, cand_part, cond, cond_part, s):
    """Independent replay of the pass-1 rule: max over candidates of the
    min pairwise term, first occurrence on ties."""
    p = cand.shape[1]
    best_i, best_v = 0, -np.inf
    for i in range(len(cand)):
        worst = np.inf
        for j in range(len(cond)):
            diff = np.abs(cand[i] - cond[j])
            if np.all(diff > 0):
                if s < 1e-8:
                    logd = np.log(diff).mean()
                else:
                    logd = np.log((diff**s).mean()) / s
            else:
                logd = -np.inf
            worst = min(worst, cand_part[i] + cond_part[j] + 2.0 * p * logd)
        if worst > best_v:
            best_i, best_v = i, worst
    return best_i, best_v


def center_ordered_argmax(cand, cand_part, cond, cond_part, s, center):
    """The pass-1 scan as it was before the proxy order: conditioning points
    nearest-to-center first, in chunks of 32 then 128.  Same pruning, same
    kernel, so its ``(best, score)`` is the bit-exact reference."""
    m, p = cand.shape
    two_p = 2.0 * p
    order = np.argsort(((cond - center[None, :]) ** 2).sum(axis=1), kind="stable")
    cond = cond[order]
    cond_part = cond_part[order]
    total = len(cond)
    ub = np.full(m, np.inf)
    alive = np.ones(m, dtype=bool)
    level = -np.inf
    pos = 0
    while pos < total:
        stop = min(pos + (32 if pos == 0 else 128), total)
        idx = np.nonzero(alive)[0]
        terms = np.add(cand_part[idx][:, None], cond_part[None, pos:stop])
        logd = log_dist_block(cand[idx], cond[pos:stop], s)
        logd *= two_p
        terms += logd
        ub[idx] = np.minimum(ub[idx], terms.min(axis=1))
        pos = stop
        if level == -np.inf and pos < total:
            star = idx[int(np.argmax(ub[idx]))]
            tail = (
                cand_part[star]
                + cond_part[pos:]
                + two_p * log_dist_block(cand[star : star + 1], cond[pos:], s)[0]
            )
            ub[star] = min(ub[star], float(tail.min()))
            level = ub[star]
        if level > -np.inf:
            alive &= ub >= level
    scores = np.where(alive, ub, -np.inf)
    best = int(np.argmax(scores))
    return best, float(scores[best])


def pass1_inputs(rng, p, m, n_cond, gamma):
    """Pass-1-shaped scoring inputs: the center is a conditioning point, the
    candidates fill a box around it, and the parts are gamma times a peaked
    log density (the candidates' with surrogate-like noise)."""
    cond = rng.random((n_cond, p))
    center = cond[rng.integers(n_cond)]
    lo = np.clip(center - 0.15, 0.0, 1.0)
    hi = np.clip(center + 0.15, 0.0, 1.0)
    cand = lo + rng.random((m, p)) * (hi - lo)

    def logf(x):
        return -((x - 0.5) ** 2).sum(axis=1) / (2 * 0.125**2)

    cand_part = gamma * (logf(cand) + 0.1 * rng.normal(size=m))
    return cand, cand_part, cond, gamma * logf(cond), center


SCAN_EXPONENTS = [0.0, 1e-9, 0.7, 2.0 - 4.5e-12, 2.0, 3.0]


class KernelCounts:
    """Exact ``log_dist_block`` work done through ``medsampler.engine``.

    ``pairs`` and ``pair_dims`` are keyed by pass: 1 inside a pass-1 scan
    (``engine._argmax_min_term``), 2 outside it.  ``possible_pairs`` sums
    candidates x conditioning points over the pass-1 scans, and
    ``pass1_calls`` lists the (rows, columns) of each pass-1 kernel call.
    """

    def __init__(self):
        self.pairs = {1: 0, 2: 0}
        self.pair_dims = {1: 0, 2: 0}
        self.possible_pairs = 0
        self.pass1_calls = []
        self.in_scan = False


@pytest.fixture
def kernel_counts(monkeypatch):
    """Count the engine's exact kernel work, split by pass (``KernelCounts``)."""
    counts = KernelCounts()

    def counting_kernel(a, b, s):
        pass_no = 1 if counts.in_scan else 2
        counts.pairs[pass_no] += len(a) * len(b)
        counts.pair_dims[pass_no] += len(a) * len(b) * a.shape[1]
        if counts.in_scan:
            counts.pass1_calls.append((len(a), len(b)))
        return log_dist_block(a, b, s)

    def counting_scan(cand, cand_part, cond, cond_part, s, center):
        counts.possible_pairs += len(cand) * len(cond)
        counts.in_scan = True
        try:
            return _argmax_min_term(cand, cand_part, cond, cond_part, s, center)
        finally:
            counts.in_scan = False

    monkeypatch.setattr("medsampler.engine.log_dist_block", counting_kernel)
    monkeypatch.setattr("medsampler.engine._argmax_min_term", counting_scan)
    return counts


def decoy_inputs(rng, p, m, n_cond, gamma, k=6):
    """``pass1_inputs`` with ``k`` decoys: candidates 0..k-1 get the highest
    parts, so they lead the bound, but each has a conditioning point 1e-5
    away per axis that the proxy orders last, so they lose and many
    candidates survive the bound."""
    cand, cand_part, cond, cond_part, center = pass1_inputs(rng, p, m, n_cond, gamma)
    cand_part[:k] += 5.0
    near = cand[:k] + 1e-5 * rng.choice([-1.0, 1.0], size=(k, p))
    cond = np.vstack([cond, near])
    cond_part = np.append(cond_part, np.full(k, cond_part.max() + 5.0))
    return cand, cand_part, cond, cond_part, center


class TestArgmaxMinTerm:
    @pytest.mark.parametrize("s", [0.0, 0.7, 2.0])
    @pytest.mark.parametrize("trial", range(4))
    def test_matches_brute_force(self, s, trial):
        rng = np.random.default_rng(100 * trial + int(10 * s))
        cand = rng.random((45, 3))
        cond = rng.random((23, 3))
        cand_part = rng.normal(size=45)
        cond_part = rng.normal(size=23)
        center = cond[0]
        got_i, got_v = _argmax_min_term(cand, cand_part, cond, cond_part, s, center)
        exp_i, exp_v = brute_force_best(cand, cand_part, cond, cond_part, s)
        assert got_i == exp_i
        assert got_v == pytest.approx(exp_v, rel=1e-12)

    def test_tie_takes_first_candidate(self):
        # 0.25 and 0.75 keep the gaps to 0.5 exactly representable
        cand = np.array([[0.25, 0.25], [0.75, 0.75], [0.25, 0.25]])
        cond = np.array([[0.5, 0.5]])
        parts = np.zeros(3)
        i, _ = _argmax_min_term(cand, parts, cond, np.zeros(1), 2.0, cond[0])
        assert i == 0

    def test_pruning_handles_large_pools(self):
        rng = np.random.default_rng(9)
        cand = rng.random((400, 4))
        cond = rng.random((120, 4))
        cand_part = rng.normal(size=400)
        cond_part = rng.normal(size=120)
        got = _argmax_min_term(cand, cand_part, cond, cond_part, 2.0, cond[3])
        exp = brute_force_best(cand, cand_part, cond, cond_part, 2.0)
        assert got[0] == exp[0] and got[1] == pytest.approx(exp[1], rel=1e-12)


class TestScanOrder:
    """The proxy scan order and the bound screen must give the center-ordered
    scan's result bit for bit: they only change which pairs are scored,
    never a score."""

    @pytest.mark.parametrize("s", SCAN_EXPONENTS)
    @pytest.mark.parametrize("p", [1, 2, 3, 10, 30])
    def test_matches_center_ordered_scan(self, p, s):
        rng = np.random.default_rng(1000 * p + int(100 * s))
        for m, n_cond in [(min(50 * p, 400), 150), (60, 300), (37, 9)]:
            args = pass1_inputs(rng, p, m, n_cond, gamma=rng.uniform(0.1, 1.0))
            assert _argmax_min_term(*args[:4], s, args[4]) == center_ordered_argmax(
                *args[:4], s, args[4]
            )

    @pytest.mark.parametrize("s", SCAN_EXPONENTS)
    def test_zero_gamma_parts(self, s):
        rng = np.random.default_rng(5)
        cand, _, cond, _, center = pass1_inputs(rng, 3, 150, 200, gamma=0.0)
        zeros_m, zeros_c = np.zeros(len(cand)), np.zeros(len(cond))
        got = _argmax_min_term(cand, zeros_m, cond, zeros_c, s, center)
        assert got == center_ordered_argmax(cand, zeros_m, cond, zeros_c, s, center)

    @pytest.mark.parametrize("s", SCAN_EXPONENTS)
    def test_parts_at_the_floor(self, s):
        rng = np.random.default_rng(6)
        gamma = 0.4
        cand, cand_part, cond, cond_part, center = pass1_inputs(rng, 4, 200, 180, gamma)
        cond_part[rng.random(len(cond)) < 0.3] = gamma * LOGF_FLOOR
        cand_part[rng.random(len(cand)) < 0.3] = gamma * LOGF_FLOOR
        got = _argmax_min_term(cand, cand_part, cond, cond_part, s, center)
        assert got == center_ordered_argmax(cand, cand_part, cond, cond_part, s, center)

    def test_shared_coordinate_at_zero_exponent(self):
        rng = np.random.default_rng(7)
        cand, cand_part, cond, cond_part, center = pass1_inputs(rng, 3, 120, 160, 0.5)
        # half the candidates share a coordinate with some conditioning point,
        # so their product-metric terms are -inf
        hits = rng.integers(len(cond), size=60)
        cand[:60, 1] = cond[hits, 1]
        got = _argmax_min_term(cand, cand_part, cond, cond_part, 0.0, center)
        assert got == center_ordered_argmax(cand, cand_part, cond, cond_part, 0.0, center)
        assert got[0] >= 60 and np.isfinite(got[1])
        everyone = np.zeros(len(cand))
        cand[:, 1] = cond[0, 1]
        got = _argmax_min_term(cand, everyone, cond, cond_part, 0.0, center)
        assert got == (0, -np.inf)

    @pytest.mark.parametrize("s", SCAN_EXPONENTS)
    @pytest.mark.parametrize("n_cond", [1, 3, 7, 8])
    def test_fewer_conditioning_points_than_a_chunk(self, n_cond, s):
        rng = np.random.default_rng(n_cond)
        args = pass1_inputs(rng, 3, 90, n_cond, gamma=0.7)
        assert _argmax_min_term(*args[:4], s, args[4]) == center_ordered_argmax(
            *args[:4], s, args[4]
        )

    @pytest.mark.parametrize("s", SCAN_EXPONENTS)
    def test_single_candidate(self, s):
        rng = np.random.default_rng(8)
        args = pass1_inputs(rng, 5, 1, 140, gamma=0.9)
        got = _argmax_min_term(*args[:4], s, args[4])
        assert got[0] == 0
        assert got == center_ordered_argmax(*args[:4], s, args[4])

    @pytest.mark.parametrize("s", SCAN_EXPONENTS)
    def test_candidate_on_a_conditioning_point(self, s):
        rng = np.random.default_rng(9)
        cand, cand_part, cond, cond_part, center = pass1_inputs(rng, 4, 120, 150, 0.6)
        cand[5] = cond[17]
        got = _argmax_min_term(cand, cand_part, cond, cond_part, s, center)
        assert got == center_ordered_argmax(cand, cand_part, cond, cond_part, s, center)
        assert got[0] != 5

    @pytest.mark.parametrize("s", SCAN_EXPONENTS)
    def test_front_runner_at_minus_infinity(self, s):
        # candidate 0 leads every bound, but it sits on a conditioning point
        # that the proxy puts last, outside the bounded first chunk
        rng = np.random.default_rng(10)
        cand, cand_part, cond, cond_part, center = pass1_inputs(rng, 3, 100, 60, 0.5)
        cand_part[0] = 50.0
        cond[-1] = cand[0]
        cond_part[-1] = 1e6
        got = _argmax_min_term(cand, cand_part, cond, cond_part, s, center)
        assert got == center_ordered_argmax(cand, cand_part, cond, cond_part, s, center)
        assert got[0] != 0 and np.isfinite(got[1])

    def test_unpruned_scan_memory_stays_small(self):
        """Every candidate sits on a conditioning point, so every score is
        -inf, the level stays at -inf and nothing is pruned: each chunk
        scores all of the about 500 open candidates, and a (500, 128, 10)
        pair tensor is 4.9 MiB.  The kernel builds it in blocks of at most
        geometry.BLOCK_ELEMENTS values: the traced peak is 1.88 MiB with
        512 KB blocks (6.36 MiB with 8 MB ones, measured when a -inf
        front-runner alone kept the level at -inf)."""
        rng = np.random.default_rng(13)
        cand, cand_part, cond, cond_part, center = pass1_inputs(rng, 10, 505, 298, 0.5)
        cand = cond[rng.integers(len(cond), size=len(cand))]
        tracemalloc.start()
        try:
            got = _argmax_min_term(cand, cand_part, cond, cond_part, 2.0, center)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == center_ordered_argmax(cand, cand_part, cond, cond_part, 2.0, center)
        assert got == (0, -np.inf)
        assert peak <= 3 * 1024 * 1024

    @pytest.mark.parametrize("s", SCAN_EXPONENTS)
    def test_all_candidates_at_minus_infinity(self, s):
        rng = np.random.default_rng(11)
        cand, cand_part, cond, cond_part, center = pass1_inputs(rng, 3, 40, 30, 0.5)
        cand = cond[rng.integers(len(cond), size=len(cand))]
        got = _argmax_min_term(cand, cand_part, cond, cond_part, s, center)
        assert got == center_ordered_argmax(cand, cand_part, cond, cond_part, s, center)
        assert got == (0, -np.inf)

    @pytest.mark.parametrize("s", SCAN_EXPONENTS)
    def test_every_part_at_the_floor(self, s):
        rng = np.random.default_rng(12)
        gamma = 0.8
        cand, _, cond, _, center = pass1_inputs(rng, 5, 150, 120, gamma)
        cand_part = np.full(len(cand), gamma * LOGF_FLOOR)
        cond_part = np.full(len(cond), gamma * LOGF_FLOOR)
        got = _argmax_min_term(cand, cand_part, cond, cond_part, s, center)
        assert got == center_ordered_argmax(cand, cand_part, cond, cond_part, s, center)

    @pytest.mark.parametrize("s", SCAN_EXPONENTS)
    @pytest.mark.parametrize("p", [2, 3, 10])
    def test_many_survivors_where_the_front_runner_loses(self, p, s, kernel_counts):
        rng = np.random.default_rng(p)
        args = decoy_inputs(rng, p, min(50 * p, 300), 150, gamma=0.6)
        got = engine._argmax_min_term(*args[:4], s, args[4])
        assert got == center_ordered_argmax(*args[:4], s, args[4])
        assert got[0] >= 6
        total = len(args[2])
        completions = kernel_counts.pass1_calls.count((1, total))
        widest_chunk = max(cols for rows, cols in kernel_counts.pass1_calls if rows > 1)
        assert completions >= 2 and widest_chunk >= 90

    @pytest.mark.parametrize("s", SCAN_EXPONENTS)
    def test_tie_between_a_completed_survivor_and_a_lower_index(self, s):
        """Candidates 3 and 7 mirror each other about x = 0.5 on a grid of
        1/64ths, so every gap, and so their scores, are bit-equal.  The 8th
        conditioning point in proxy order lies near 3, its mirror image,
        9th, near 7: the bound makes 7 the front-runner and completes it,
        and 3 must still win the tie."""
        axis = np.column_stack([np.full(7, 0.5), np.arange(1, 8) / 16 + 1 / 64])
        pairs = np.array([[0.3046875, 0.6953125], [0.125, 0.25], [0.375, 0.9375]])
        mirrored = np.column_stack([1.0 - pairs[:, 0], pairs[:, 1]])
        cond = np.vstack([axis, np.stack([pairs, mirrored], axis=1).reshape(-1, 2)])
        cond_part = np.concatenate([np.full(7, -50.0), np.repeat([-40.0, -30.0, -30.0], 2)])
        rng = np.random.default_rng(14)
        cand = rng.integers(1, 31, size=(12, 2)) / 64
        cand[3] = [0.3125, 0.6875]
        cand[7] = [0.6875, 0.6875]
        cand_part = np.full(12, -100.0)
        cand_part[[3, 7]] = 0.0
        center = np.array([0.5, 0.5])
        got = _argmax_min_term(cand, cand_part, cond, cond_part, s, center)
        assert got == center_ordered_argmax(cand, cand_part, cond, cond_part, s, center)
        assert got[0] == 3
        assert _argmax_min_term(cand[[7]], cand_part[[7]], cond, cond_part, s, center)[1] == got[1]
        # the first 8 rows in proxy order are the axis points and their
        # nearest pair's first point, as they are here
        bound = cond_part[:8, None] + cand_part[None, :] + 4.0 * log_dist_bound(cond[:8], cand, s)
        assert int(np.argmax(bound.min(axis=0))) == 7

    @pytest.mark.parametrize("s", SCAN_EXPONENTS)
    def test_minus_infinity_front_runner_still_prunes(self, s, kernel_counts):
        """A front-runner at -inf sets no level, but the first chunk's
        leader is completed and the level rises, so most pairs are never
        scored; the scan that completed only the front-runner scored all."""
        rng = np.random.default_rng(10)
        cand, cand_part, cond, cond_part, center = pass1_inputs(rng, 3, 100, 60, 0.5)
        cand_part[0] = 50.0
        cond[-1] = cand[0]
        cond_part[-1] = 1e6
        got = engine._argmax_min_term(cand, cand_part, cond, cond_part, s, center)
        assert got == center_ordered_argmax(cand, cand_part, cond, cond_part, s, center)
        assert got[0] != 0 and np.isfinite(got[1])
        assert kernel_counts.pairs[1] <= 0.5 * len(cand) * len(cond)

    def test_bound_screen_cuts_exact_pair_dims(self, kernel_counts):
        """Candidates whose power-mean bound falls short of the level never
        reach the exact kernel.  Exact ``log_dist_block`` pair-dims over a
        K=3 ar1 p=10 run (both passes): 14,423,200 when every candidate's
        first chunk is scored exactly, 2,027,980 with the bound screen, and
        1,903,290 with the best-first scan."""
        run(make_ar1_normal(10, 0.9, 0.125), RunConfig(seed=0, K=3))
        total = kernel_counts.pair_dims[1] + kernel_counts.pair_dims[2]
        assert 0 < total <= 14_423_200 // 2

    def test_pass1_scores_few_of_the_pairs(self, kernel_counts):
        """The proxy order exists to prune early: on the ar1 p=10 reference
        the center-ordered scan scored 73 % of the candidate x conditioning
        pairs in pass 1, the proxy order about 4 %."""
        run(make_ar1_normal(10, 0.9, 0.125), RunConfig(seed=0, K=3))
        assert kernel_counts.possible_pairs > 0
        assert kernel_counts.pairs[1] / kernel_counts.possible_pairs <= 0.2

    def test_pass1_pair_dims_on_the_reference_run(self, kernel_counts):
        """The best-first scan on the full ar1 p=10 rho 0.9 sigma 0.125
        seed-0 run: pass 1 scored 39,971,500 exact pair-dims when only the
        bound's argmax was completed, and 11,737,940 with every chunk's
        leader completed.  Pass 2 does not prune and stays at 19,846,800."""
        run(make_ar1_normal(10, 0.9, 0.125), RunConfig(seed=0))
        assert 0 < kernel_counts.pair_dims[1] <= 15_000_000
        assert kernel_counts.pair_dims[2] == 19_846_800


# ---------------------------------------------------------------- pass 1


def make_state(
    model, ledger, pts, logf, s=2.0, stage_next=2, m=30, config=None, spec=None
):
    """StageState over an explicit evaluated set, identity whitening unless ``spec``."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    p = pts.shape[1]
    cap = len(pts) + 512
    state = StageState(
        model=model, config=config or RunConfig(), ledger=ledger, m=m,
        pts=np.empty((cap, p)), logf=np.empty(cap),
    )
    state.extend(pts, logf)
    state.begin(stage_next, spec or identity_spec(p, s))
    return state


def fixed_pool(points):
    return np.atleast_2d(np.asarray(points, dtype=float))


class TestNearest:
    """Pass 1's region is the first n of a stable argsort of the distances."""

    @pytest.mark.parametrize(
        "d2",
        [
            np.array([3.0, 1.0, 2.0, 1.0, 2.0, 2.0, 0.0, 2.0]),
            np.full(9, 0.25),
            np.random.default_rng(0).integers(0, 4, 200).astype(float),
            np.random.default_rng(1).random(1937),
        ],
        ids=["ties", "all-equal", "coarse-grid", "distinct"],
    )
    def test_equals_the_stable_argsort(self, d2):
        want = np.argsort(d2, kind="stable")
        for k in sorted({1, 2, 3, len(d2) // 2, len(d2) - 1, len(d2), len(d2) + 5}):
            assert np.array_equal(_nearest(d2, k), want[:k]), f"k={k}"

    def test_ties_at_the_kth_value_keep_index_order(self):
        d2 = np.array([5.0, 1.0, 1.0, 0.0, 1.0, 1.0])
        assert _nearest(d2, 3).tolist() == [3, 1, 2]


class TestProposeNewPoints:
    def test_surrogate_value_dominates_at_equal_distance(self, monkeypatch):
        model = make_uniform(2)
        ledger = EvaluationLedger()
        design = Design(
            points=np.array([[0.5, 0.5]]), logf=np.array([0.0]), stage=1, gamma=0.0
        )
        state = make_state(model, ledger, design.points, design.logf)
        # two candidates equidistant from the single design point
        pool = fixed_pool([[0.3, 0.5], [0.7, 0.5]])
        monkeypatch.setattr(
            "medsampler.engine.local_candidates", lambda *a, **k: pool
        )
        monkeypatch.setattr(
            "medsampler.engine.predict", lambda sm, x: np.array([-5.0, 0.0])
        )
        new_pts, _ = propose_new_points(design, state, gamma_next=1.0)
        assert np.array_equal(new_pts[0], [0.7, 0.5])
        assert ledger.count == 1

    def test_zero_gamma_reduces_to_distance_only(self, monkeypatch):
        model = make_uniform(1)
        ledger = EvaluationLedger()
        design = Design(
            points=np.array([[0.1]]), logf=np.array([0.0]), stage=1, gamma=0.0
        )
        state = make_state(model, ledger, design.points, design.logf)
        pool = fixed_pool([[0.2], [0.4], [0.9]])
        monkeypatch.setattr("medsampler.engine.local_candidates", lambda *a, **k: pool)
        # surrogate favors the nearest point, but gamma_next = 0 ignores it
        monkeypatch.setattr(
            "medsampler.engine.predict", lambda sm, x: np.array([100.0, 0.0, -100.0])
        )
        new_pts, _ = propose_new_points(design, state, gamma_next=0.0)
        assert new_pts[0, 0] == 0.9

    def test_collinear_candidates_prefer_the_farthest(self, monkeypatch):
        model = make_uniform(2)
        ledger = EvaluationLedger()
        design = Design(
            points=np.array([[0.1, 0.1]]), logf=np.array([0.0]), stage=1, gamma=0.0
        )
        state = make_state(model, ledger, design.points, design.logf)
        pool = fixed_pool([[0.2, 0.2], [0.5, 0.5], [0.8, 0.8]])
        monkeypatch.setattr("medsampler.engine.local_candidates", lambda *a, **k: pool)
        monkeypatch.setattr(
            "medsampler.engine.predict", lambda sm, x: np.zeros(len(x))
        )
        new_pts, _ = propose_new_points(design, state, gamma_next=1.0)
        assert np.array_equal(new_pts[0], [0.8, 0.8])

    def test_new_points_repel_each_other(self, monkeypatch):
        # both regions get the same two candidates; once A is taken by j=0,
        # its pair term for j=1 is -inf, so B must win there
        model = make_uniform(2)
        ledger = EvaluationLedger()
        design = Design(
            points=np.array([[0.4, 0.4], [0.6, 0.6]]),
            logf=np.array([0.0, 0.0]),
            stage=1,
            gamma=0.0,
        )
        state = make_state(model, ledger, design.points, design.logf)
        a, b = [0.5, 0.1], [0.5, 0.9]
        monkeypatch.setattr(
            "medsampler.engine.local_candidates", lambda *a_, **k: fixed_pool([a, b])
        )
        # surrogate strongly favors A for everyone
        monkeypatch.setattr(
            "medsampler.engine.predict", lambda sm, x: np.array([50.0, 0.0])
        )
        new_pts, _ = propose_new_points(design, state, gamma_next=1.0)
        assert np.array_equal(new_pts[0], a)
        assert np.array_equal(new_pts[1], b)
        assert ledger.count == 2

    @pytest.mark.parametrize("swap", [False, True], ids=["a-first", "b-first"])
    def test_repeated_pool_rows_leave_the_same_ledger(self, monkeypatch, swap):
        # pools are not deduplicated: copies of a row share its coordinates,
        # so each design point evaluates what the pool without them gives
        model = make_banana()
        a, b = [0.3, 0.62], [0.7, 0.45]
        if swap:
            a, b = b, a
        points = np.array([[0.45, 0.5], [0.55, 0.55]])
        logf = eval_batch(model, points, EvaluationLedger())
        design = Design(points=points, logf=logf, stage=1, gamma=0.0)

        def evaluated(pool):
            ledger = EvaluationLedger()
            state = make_state(model, ledger, points, logf)
            monkeypatch.setattr(
                "medsampler.engine.local_candidates", lambda *a_, **k: fixed_pool(pool)
            )
            propose_new_points(design, state, gamma_next=1.0)
            return ledger.points(), ledger.logf_values()

        want_x, want_logf = evaluated([a, b])
        # the two design points take the two distinct rows
        assert {tuple(x) for x in want_x} == {tuple(a), tuple(b)}
        for pool in ([a, b, a], [a, a, b]):
            got_x, got_logf = evaluated(pool)
            assert np.array_equal(got_x, want_x)
            assert np.array_equal(got_logf, want_logf)

    def test_regions_are_the_nearest_by_unit_distance(self, monkeypatch):
        # a 7 x 7 dyadic grid has exact distance ties; the stage metric
        # stretches the second axis 100-fold, which pass 1 must not use
        grid = np.array([[i / 8, j / 8] for i in range(1, 8) for j in range(1, 8)])
        logf = np.zeros(len(grid))
        design = Design(points=grid[::5], logf=logf[::5], stage=1, gamma=0.0)
        ledger = EvaluationLedger()
        spec = spec_from_sigma(np.diag([1.0, 1e-4]))
        state = make_state(make_uniform(2), ledger, grid, logf, spec=spec)
        seen = []

        def recording(center, region, m, n_combos, rng):
            seen.append((center.copy(), region.copy()))
            return local_candidates(center, region, m, n_combos, rng)

        monkeypatch.setattr("medsampler.engine.local_candidates", recording)
        propose_new_points(design, state, gamma_next=1.0)
        assert len(seen) == len(design)
        # design point i chooses among the grid and the i winners before it
        evaluated = state.all_points()
        for i, (center, region) in enumerate(seen):
            rows = evaluated[: len(grid) + i]
            d2 = ((rows - center[None, :]) ** 2).sum(axis=1)
            nearest = np.argsort(d2, kind="stable")[: len(design)]
            assert np.array_equal(region, rows[nearest])
        assert "white" not in {f.name for f in dataclasses.fields(StageState)}

    def test_winner_near_an_evaluated_point_gives_way_to_the_next_best(self, monkeypatch):
        # the evaluated point near A is outside the conditioning set (the
        # design), so the scan ranks A first; the separation check drops it
        model = make_uniform(2)
        ledger = EvaluationLedger()
        design = Design(
            points=np.array([[0.2, 0.2]]), logf=np.array([0.0]), stage=1, gamma=0.0
        )
        a, b, c = [0.9, 0.9], [0.6, 0.6], [0.5, 0.5]
        evaluated = np.array([[0.2, 0.2], [0.9, 0.9 + 0.5e-6]])
        state = make_state(model, ledger, evaluated, np.zeros(2))
        monkeypatch.setattr(
            "medsampler.engine.local_candidates", lambda *a_, **k: fixed_pool([c, a, b])
        )
        monkeypatch.setattr(
            "medsampler.engine.predict", lambda sm, x: np.zeros(len(x))
        )
        new_pts, _ = propose_new_points(design, state, gamma_next=1.0)
        assert np.array_equal(new_pts[0], b)
        assert np.array_equal(ledger.points(), [b])

    def test_pool_wholly_within_the_separation_raises(self, monkeypatch):
        model = make_uniform(2)
        ledger = EvaluationLedger()
        design = Design(
            points=np.array([[0.5, 0.5]]), logf=np.array([0.0]), stage=1, gamma=0.0
        )
        evaluated = np.array([[0.5, 0.5], [0.8, 0.3]])
        state = make_state(model, ledger, evaluated, np.zeros(2))
        pool = evaluated + np.array([[0.5e-6, 0.0], [0.0, -0.9e-6]])
        monkeypatch.setattr("medsampler.engine.local_candidates", lambda *a_, **k: pool)
        with pytest.raises(CandidatePoolError):
            propose_new_points(design, state, gamma_next=1.0)
        assert ledger.count == 0

    def test_empty_pool_leaves_after_one_call(self, monkeypatch):
        model = make_uniform(2)
        ledger = EvaluationLedger()
        design = Design(
            points=np.array([[0.5, 0.5]]), logf=np.array([0.0]), stage=1, gamma=0.0
        )
        calls = []

        def failing(*args, **kwargs):
            calls.append(args)
            raise CandidatePoolError("no room")

        monkeypatch.setattr("medsampler.engine.local_candidates", failing)
        state = make_state(model, ledger, design.points, design.logf)
        with pytest.raises(CandidatePoolError):
            propose_new_points(design, state, gamma_next=1.0)
        assert len(calls) == 1
        assert ledger.count == 0


# ---------------------------------------------------------------- full runs


@pytest.mark.parametrize("fixture", ["banana_default", "p10_correlated"])
def test_no_two_evaluations_lie_within_the_separation(request, fixture):
    _, report, _ = request.getfixturevalue(fixture)
    x = report.ledger.points()
    gaps = cdist(x, x, "chebyshev")
    np.fill_diagonal(gaps, np.inf)
    assert gaps.min() >= DELTA_SEPARATION


@pytest.fixture(scope="module")
def banana_run():
    model = make_banana()
    design, report = run(model, RunConfig(seed=0))
    return design, report


class TestRunBanana:
    def test_exact_evaluation_budget(self, banana_run):
        design, report = banana_run
        assert report.n == 109 and report.K == 6
        assert report.ledger.count == 654
        assert report.budget == 654

    def test_stage_counts_show_pass_two_purity(self, banana_run):
        _, report = banana_run
        stages = [r.stage for r in report.ledger.records]
        for k in range(1, 7):
            assert stages.count(k) == 109

    def test_candidate_set_grows_by_n_per_stage(self, banana_run):
        _, report = banana_run
        stages = np.array([r.stage for r in report.ledger.records])
        for k in range(1, 7):
            assert int(np.sum(stages <= k)) == 109 * k

    def test_first_point_is_global_argmax(self, banana_run):
        design, report = banana_run
        all_logf = np.array([r.logf for r in report.ledger.records])
        assert design.logf[0] == all_logf.max()

    def test_final_stage_at_full_strength(self, banana_run):
        design, report = banana_run
        assert design.gamma == 1.0
        assert report.stages[-1].gamma == 1.0
        assert report.gammas == pytest.approx([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])

    def test_design_points_distinct_and_ledger_backed(self, banana_run):
        design, report = banana_run
        n = len(design.points)
        for i in range(n):
            gaps = np.abs(design.points - design.points[i]).max(axis=1)
            gaps[i] = np.inf
            assert gaps.min() > 1e-12
        evaluated = np.array([r.x for r in report.ledger.records])
        for x in design.points:
            assert np.any(np.all(evaluated == x, axis=1))

    def test_report_structure(self, banana_run):
        _, report = banana_run
        assert len(report.stages) == 6
        assert report.config["n"] == 109 and report.config["K"] == 6
        assert all(r.seconds >= 0 for r in report.stages)
        assert all(np.isfinite(r.psi_log) for r in report.stages)
        assert all(np.isfinite(r.sigma_cond) for r in report.stages)
        assert set(report.notes) >= {"lattice", "selection_gamma", "adaptive_s_gamma"}

    def test_deterministic_for_fixed_seed(self, banana_run):
        design, _ = banana_run
        again, _ = run(make_banana(), RunConfig(seed=0))
        assert np.array_equal(design.points, again.points)
        assert np.array_equal(design.logf, again.logf)

    def test_seed_changes_the_design(self, banana_run):
        design, _ = banana_run
        other, _ = run(make_banana(), RunConfig(seed=12345))
        assert not np.array_equal(design.points, other.points)


class TestRunProperties:
    def test_maximin_reduction_on_uniform(self):
        # flat density, fixed s=2, no whitening: the selection is a maximin
        # design over the evaluated set and should beat typical subsets
        cfg = RunConfig(seed=2, n=20, K=3, s_mode="fixed", s_value=2.0, whitening=False)
        design, report = run(make_uniform(2), cfg)
        spec = identity_spec(2, s=2.0)
        pts = np.array([r.x for r in report.ledger.records])
        logf = np.array([r.logf for r in report.ledger.records])
        psi_design = psi_log(design.points, design.logf, 1.0, spec).value
        rng = np.random.default_rng(0)
        subset_psis = []
        for _ in range(100):
            idx = rng.choice(len(pts), size=20, replace=False)
            subset_psis.append(psi_log(pts[idx], logf[idx], 1.0, spec).value)
        assert psi_design >= np.median(subset_psis)

    def test_flat_density_projects_to_distinct_coordinates(self):
        # adaptive s stays 0 on a flat density, so the product metric keeps
        # every 1-d projection collision-free, lattice-style
        design, report = run(make_uniform(2), RunConfig(seed=4, n=25, K=3))
        assert all(r.s == 0.0 for r in report.stages)
        for axis in (0, 1):
            assert len(np.unique(design.points[:, axis])) == 25

    def test_budget_for_small_custom_run(self):
        design, report = run(make_banana(), RunConfig(seed=1, n=13, K=3))
        assert report.ledger.count == 39
        assert len(design.points) == 13

    def test_caller_ledger_with_records_gives_the_same_design(self):
        cfg = RunConfig(seed=1, n=13, K=3)
        fresh, _ = run(make_banana(), cfg)
        ledger = EvaluationLedger()
        for i in range(50):
            ledger.append(np.full(2, i / 50), 0.0, 0.0)
        design, report = run(make_banana(), cfg, ledger=ledger)
        assert ledger.count == 50 + 39
        assert report.budget == 39
        assert np.array_equal(design.points, fresh.points)

    def test_caller_ledger_survives_mid_run_failure(self):
        calls = {"n": 0}

        def flaky(x):
            calls["n"] += 1
            if calls["n"] > 30:
                return float("nan")
            return 0.0

        model = dataclasses.replace(make_uniform(2), logf_original=flaky, name="flaky")
        ledger = EvaluationLedger()
        with pytest.raises(DensityProtocolError):
            run(model, RunConfig(seed=0, n=20, K=3), ledger=ledger)
        assert ledger.count == 30

    def test_run_memory_stays_small(self):
        """Peak traced allocation of a K=3 ar1 p=10 run: 2.39 MiB with 8 MB
        kernel blocks, 1.19 MiB with 512 KB ones."""
        tracemalloc.start()
        try:
            run(make_ar1_normal(10, 0.9, 0.125), RunConfig(seed=0, K=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * 1024 * 1024

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            run(make_uniform(2), RunConfig(n=1))
        with pytest.raises(ConfigError):
            run(make_uniform(2), RunConfig(K=1))
        with pytest.raises(ConfigError):
            run(make_uniform(2), RunConfig(s_mode="weird"))

    # each would otherwise fail deep in a stage (quantile above 1), blame the
    # density range (quantile above 0.5), or run silently on a wrong metric
    # (negative or NaN s, NaN theta)
    @pytest.mark.parametrize(
        "bad",
        [
            {"s_quantile": 1.5},
            {"s_quantile": float("nan")},
            {"s_quantile": 0.7},
            {"s_quantile": -0.1},
            {"s_mode": "fixed", "s_value": -1.0},
            {"s_value": float("nan")},
            {"s_value": float("inf")},
            {"theta": float("nan")},
            {"theta": float("inf")},
            {"theta": 0.0},
            {"seed": -1},
        ],
    )
    def test_invalid_exponent_or_theta_rejected_before_any_call(self, bad):
        ledger = EvaluationLedger()
        with pytest.raises(ConfigError):
            run(make_uniform(2), RunConfig(n=10, K=2, **bad), ledger=ledger)
        assert ledger.count == 0

    @pytest.mark.parametrize(
        "edge", [{"s_quantile": 0.0}, {"s_quantile": 0.5}, {"s_mode": "fixed", "s_value": 0.0}]
    )
    def test_edge_exponent_settings_run(self, edge):
        design, report = run(make_uniform(2), RunConfig(n=10, K=2, **edge))
        assert report.ledger.count == 20
