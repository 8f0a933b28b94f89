"""Lattice, Hammersley, and candidate-pool tests."""

import numpy as np
import pytest

import medsampler.qmc as qmc
from medsampler.errors import CandidatePoolError, ConfigError
from medsampler.qmc import (
    DELTA_SEPARATION,
    LatticeRule,
    _cbc_vector,
    _too_close,
    cbc_lattice,
    halton_block,
    hammersley,
    is_prime,
    largest_prime_below,
    local_candidates,
    nth_prime,
    radical_inverse,
)


def brute_force_error(n, zs):
    """Full criterion evaluated from scratch; independent of the CBC code path."""
    k = np.arange(n)
    total = np.ones(n)
    for l, z in enumerate(zs, start=1):
        x = np.mod(k * z, n) / n
        total *= 1.0 + (1.0 / l**2) * (x * x - x + 1.0 / 6.0)
    return -1.0 + total.mean()


class TestPrimes:
    def test_is_prime_small(self):
        assert [m for m in range(20) if is_prime(m)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_largest_prime_below(self):
        assert largest_prime_below(110) == 109
        assert largest_prime_below(250) == 241
        assert largest_prime_below(3) == 2

    def test_nth_prime(self):
        assert [nth_prime(k) for k in (1, 2, 3, 10, 60)] == [2, 3, 5, 29, 281]


class TestCbcLattice:
    def test_one_dimensional_lattice_is_equispaced(self):
        rule = cbc_lattice(5, 1)
        assert rule.shift is None
        np.testing.assert_allclose(np.sort(rule.points()[:, 0]), [0, 0.2, 0.4, 0.6, 0.8])

    def test_first_component_is_one(self):
        assert cbc_lattice(13, 4).z[0] == 1

    @pytest.mark.parametrize("n", [5, 7, 11, 13])
    def test_matches_exhaustive_search_p2(self, n):
        rule = cbc_lattice(n, 2)
        best = min(brute_force_error(n, [1, c]) for c in range(1, n))
        got = brute_force_error(n, rule.z)
        assert got == pytest.approx(best, rel=1e-12)

    def test_109_by_2_projections_distinct(self):
        pts = cbc_lattice(109, 2).points()
        assert pts.shape == (109, 2)
        for col in pts.T:
            assert len(np.unique(col)) == 109

    @pytest.mark.parametrize("n,p", [(7, 3), (31, 5), (109, 4)])
    def test_projection_gap_is_one_over_n(self, n, p):
        pts = cbc_lattice(n, p).points()
        for col in pts.T:
            srt = np.sort(col)
            np.testing.assert_allclose(np.diff(srt), 1.0 / n, atol=1e-12)

    def test_composite_n_uses_coprime_components(self):
        z = _cbc_vector(25, 3)
        assert all(np.gcd(int(c), 25) == 1 for c in z)
        pts = LatticeRule(n=25, z=z).points()
        for col in pts.T:
            assert len(np.unique(col)) == 25

    def test_shift_is_seeded_and_in_unit_cube(self):
        a = cbc_lattice(11, 3, seed=7)
        b = cbc_lattice(11, 3, seed=7)
        c = cbc_lattice(11, 3, seed=8)
        np.testing.assert_array_equal(a.shift, b.shift)
        assert not np.array_equal(a.shift, c.shift)
        assert np.all((a.shift >= 0) & (a.shift < 1))
        assert np.all((a.points() >= 0) & (a.points() < 1))

    def test_accepts_composite_n_rejects_below_two(self):
        rule = cbc_lattice(25, 3)
        want = LatticeRule(25, _cbc_vector(25, 3))
        np.testing.assert_array_equal(rule.z, want.z)
        np.testing.assert_array_equal(rule.points(), want.points())
        with pytest.raises(ConfigError):
            cbc_lattice(1, 2)

    def test_deterministic(self):
        np.testing.assert_array_equal(cbc_lattice(31, 6).z, cbc_lattice(31, 6).z)

    def test_vector_is_cached_and_read_only(self):
        # every run of one (n, p) shares the search's result, so no caller
        # may change it
        first = cbc_lattice(29, 4).z
        again = cbc_lattice(29, 4, seed=3).z
        np.testing.assert_array_equal(first, again)
        assert _cbc_vector(29, 4) is first
        with pytest.raises(ValueError):
            first[1] = 2


class TestHammersley:
    def test_radical_inverse_hand_values(self):
        assert radical_inverse(np.array([1]), 2)[0] == 0.5
        assert radical_inverse(np.array([3]), 2)[0] == 0.75
        assert radical_inverse(np.array([2]), 3)[0] == pytest.approx(2.0 / 3.0)

    def test_first_coordinate_is_i_over_n(self):
        pts = hammersley(8, 3)
        np.testing.assert_allclose(pts[:, 0], np.arange(8) / 8)

    def test_second_coordinate_is_base2_inverse(self):
        pts = hammersley(4, 2)
        np.testing.assert_allclose(pts[:, 1], [0.0, 0.5, 0.25, 0.75])

    def test_depends_only_on_n_and_p(self):
        np.testing.assert_array_equal(hammersley(50, 5), hammersley(50, 5))

    def test_in_unit_cube(self):
        pts = hammersley(100, 12)
        assert pts.shape == (100, 12)
        assert np.all((pts >= 0) & (pts < 1))

    def test_halton_block_is_extensible(self):
        whole = halton_block(0, 30, 4)
        head = halton_block(0, 10, 4)
        tail = halton_block(10, 20, 4)
        np.testing.assert_array_equal(whole, np.vstack([head, tail]))


class TestLocalCandidates:
    def region(self):
        return np.array(
            [[0.4, 0.4], [0.5, 0.5], [0.6, 0.4], [0.45, 0.6], [0.55, 0.35]]
        )

    def test_fill_count_and_box(self):
        region = self.region()
        pool = local_candidates(
            center=region[1],
            region=region,
            m=40,
            n_combos=0,
            existing=region,
            rng=np.random.default_rng(0),
        )
        assert pool.shape == (40, 2)
        lo, hi = region.min(axis=0), region.max(axis=0)
        assert np.all(pool >= lo - 1e-12) and np.all(pool <= hi + 1e-12)

    def test_fills_come_first(self):
        # the fills take the rng's first draw, so a pool without combos is
        # the fill block of one with them
        region = self.region()
        m = 30
        pool = local_candidates(region[1], region, m, 5, region, np.random.default_rng(9))
        fills = local_candidates(region[1], region, m, 0, region, np.random.default_rng(9))
        assert len(pool) > m
        np.testing.assert_array_equal(pool[:m], fills)

    def test_separation_from_existing(self):
        region = self.region()
        rng = np.random.default_rng(1)
        existing = np.vstack([region, rng.uniform(0.4, 0.6, size=(50, 2))])
        pool = local_candidates(region[1], region, 60, 5, existing, np.random.default_rng(2))
        gaps = np.abs(pool[:, None, :] - existing[None, :, :]).max(axis=2)
        assert gaps.min() >= DELTA_SEPARATION

    def test_combos_replay_rng(self):
        # Replaying the generator's draws reconstructs the combo points exactly.
        region = self.region()
        center = region[1]
        pool = local_candidates(center, region, 10, 4, region, np.random.default_rng(3))
        replay = np.random.default_rng(3)
        replay.random(2)  # fill shift drawn first
        w = replay.uniform(-0.5, 1.5, size=4)
        others = region[[0, 2, 3, 4]]
        order = np.argsort(np.sum((others - center) ** 2, axis=1))
        a, b = others[order[0]], others[order[1]]
        want = np.clip(w[:, None] * a + (1 - w)[:, None] * b, 0.0, 1.0)
        combos = pool[10:]
        kept = [
            row for row in want
            if np.abs(row - region).max(axis=1).min() >= DELTA_SEPARATION
        ]
        np.testing.assert_allclose(combos, np.array(kept), atol=1e-15)

    def test_combo_midpoint_and_clipping(self):
        # Force a diagonal pair so the combo line is w*(0,0) + (1-w)*(1,1).
        region = np.array([[0.0, 0.0], [1.0, 1.0], [0.02, 0.01]])
        center = region[2]
        pool = local_candidates(center, region, 5, 50, region, np.random.default_rng(4))
        combos = pool[5:]
        # All combos sit on the clipped diagonal segment.
        np.testing.assert_allclose(combos[:, 0], combos[:, 1], atol=1e-12)
        assert np.all((combos >= 0.0) & (combos <= 1.0))

    def test_degenerate_region_is_inflated(self):
        region = np.array([[0.5, 0.5]])
        pool = local_candidates(
            region[0], region, 8, 0, np.zeros((0, 2)), np.random.default_rng(5)
        )
        assert len(pool) == 8
        assert np.all(np.abs(pool - 0.5) <= DELTA_SEPARATION + 1e-15)

    def test_deterministic_given_seed(self):
        region = self.region()
        a = local_candidates(region[1], region, 20, 3, region, np.random.default_rng(6))
        b = local_candidates(region[1], region, 20, 3, region, np.random.default_rng(6))
        np.testing.assert_array_equal(a, b)

    def test_pool_does_not_depend_on_the_order_of_existing(self):
        # a run passes its evaluated points sorted by first coordinate, and
        # any other order is sorted inside, to the same pool
        region = self.region()
        rng = np.random.default_rng(8)
        existing = np.vstack([region, rng.uniform(0.35, 0.65, size=(300, 2))])
        existing[-40:, 0] = existing[:40, 0]
        srt = existing[np.argsort(existing[:, 0], kind="stable")]
        want = local_candidates(region[1], region, 60, 5, srt, np.random.default_rng(2))
        for rows in (existing, srt[::-1], rng.permutation(existing)):
            got = local_candidates(region[1], region, 60, 5, rows, np.random.default_rng(2))
            np.testing.assert_array_equal(got, want)

    def test_unplaceable_pool_raises(self):
        region = np.array([[0.5]])
        existing = np.array([[0.5]])
        with pytest.raises(CandidatePoolError):
            local_candidates(region[0], region, 5, 0, existing, np.random.default_rng(7))


def tensor_too_close(points, reference, delta):
    """The separation screen as the whole (points, reference, p) tensor."""
    if len(reference) == 0 or len(points) == 0:
        return np.zeros(len(points), dtype=bool)
    gaps = np.abs(points[:, None, :] - reference[None, :, :]).max(axis=2)
    return gaps.min(axis=1) < delta


def sorted_by_first(reference):
    return reference[np.argsort(reference[:, 0], kind="stable")]


class TestTooClose:
    """The sorted-window screen must give the whole tensor's mask exactly."""

    DELTA = 1e-3

    def check(self, points, reference, delta=DELTA):
        got = _too_close(points, sorted_by_first(reference), delta)
        np.testing.assert_array_equal(got, tensor_too_close(points, reference, delta))
        return got

    @pytest.mark.parametrize("factor", [1.0, 1.0 - 1e-12, 1.0 + 1e-12])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_gaps_at_the_threshold(self, factor, axis):
        rng = np.random.default_rng(axis)
        reference = rng.uniform(0.2, 0.8, size=(40, 3))
        points = reference.copy()
        points[:, axis] += self.DELTA * factor * rng.choice([-1.0, 1.0], size=40)
        got = self.check(points, reference)
        if factor < 1.0:
            assert got.all()

    def test_shared_first_coordinates(self):
        rng = np.random.default_rng(3)
        reference = rng.random((60, 4))
        reference[:, 0] = rng.choice([0.25, 0.5, 0.75], size=60)
        points = rng.random((200, 4))
        points[:, 0] = rng.choice([0.25, 0.5, 0.75, 0.5 + 0.5e-3], size=200)
        points[:20] = reference[:20] + 0.4e-3
        got = self.check(points, reference)
        assert got[:20].all()

    def test_empty_reference(self):
        points = np.random.default_rng(4).random((5, 2))
        got = self.check(points, np.zeros((0, 2)))
        assert not got.any()

    @pytest.mark.parametrize("count", [0, 1, 70])
    def test_no_window_reaches_a_reference_row(self, count):
        # every first coordinate lies more than 2 delta below or above the
        # reference's, so each window ends before a row or starts past the last
        rng = np.random.default_rng(count)
        reference = rng.random((30, 3))
        reference[:, 0] = rng.uniform(0.25, 0.5, size=30)
        points = rng.random((count, 3))
        gap = 3 * self.DELTA
        below = rng.uniform(0.0, 0.25 - gap, size=count)
        above = rng.uniform(0.5 + gap, 1.0, size=count)
        points[:, 0] = np.where(rng.random(count) < 0.5, below, above)
        got = self.check(points, reference)
        assert got.dtype == bool and got.shape == (count,) and not got.any()

    def test_one_point(self):
        reference = np.array([[0.5, 0.5]])
        points = np.array([[0.5, 0.5], [0.5 + 0.9e-3, 0.5 - 0.9e-3], [0.5, 0.5 + 1e-3]])
        got = self.check(points, reference)
        assert list(got) == [True, True, False]
        assert list(self.check(points[:1], reference)) == [True]

    def test_dense_random_pairs(self):
        rng = np.random.default_rng(5)
        reference = rng.random((500, 2))
        points = np.vstack([
            rng.random((300, 2)),
            reference[:100] + rng.uniform(-1.5e-3, 1.5e-3, size=(100, 2)),
        ])
        self.check(points, reference)

    def test_windows_past_either_end(self):
        # windows that start before the first reference row, end after the
        # last, or lie wholly outside the reference
        rng = np.random.default_rng(6)
        reference = rng.uniform(0.3, 0.7, size=(50, 3))
        # first coordinates 8 delta apart, so each window near an end holds
        # only the end row
        reference[:, 0] = rng.permutation(np.linspace(0.3, 0.7, 50))
        srt = sorted_by_first(reference)
        first, last = srt[0], srt[-1]
        offsets = self.DELTA * np.array([-3.0, -2.0, -1.5, -0.5, 0.0, 0.5, 1.5, 2.0, 3.0])
        points = np.vstack([
            first + offsets[:, None] * np.array([1.0, 0.0, 0.0]),
            last + offsets[:, None] * np.array([1.0, 0.0, 0.0]),
            [[0.0, 0.5, 0.5], [1.0, 0.5, 0.5]],
        ])
        got = self.check(points, reference)
        assert got[[3, 4, 5, 12, 13, 14]].all()
        assert not got[-2:].any()

    def test_runs_of_equal_first_coordinates(self):
        # windows that start, end or lie inside long runs of one first
        # coordinate, and ones that just miss a run
        rng = np.random.default_rng(7)
        values = np.array([0.2, 0.2 + 3e-3, 0.5, 0.8])
        reference = rng.random((160, 3))
        reference[:, 0] = np.repeat(values, 40)
        points = rng.random((400, 3))
        points[:, 0] = rng.choice(values, size=400) + rng.choice(
            self.DELTA * np.array([-2.5, -2.0, -1.0, 0.0, 1.0, 2.0, 2.5]), size=400
        )
        points[:40] = reference[::4] + 0.5 * self.DELTA
        got = self.check(points, reference)
        assert got[:40].all()

    def test_pool_matches_the_tensor_screen(self, monkeypatch):
        """Evaluated points within 0.5 delta of the fill stream must reject
        those fills and ones 1.5 delta away must not, as the whole tensor
        screens them."""
        delta = 1e-3
        region = np.array([[0.3, 0.3, 0.3], [0.6, 0.5, 0.7], [0.4, 0.6, 0.5]])
        center, m, seed = region[2], 80, 11
        # the fill stream local_candidates will draw: the shift comes first
        shift = np.random.default_rng(seed).random(3)
        lo, hi = region.min(axis=0), region.max(axis=0)
        block = np.mod(halton_block(0, m + 64, 3) + shift, 1.0)
        stream = lo + block * (hi - lo)
        rng = np.random.default_rng(12)
        step = rng.choice([-1.0, 1.0], size=(60, 3))
        existing = np.vstack([
            region,
            stream[:30] + 0.5 * delta * step[:30],
            stream[30:60] + 1.5 * delta * step[30:],
            rng.random((200, 3)),
        ])
        pools = []
        for screen in (qmc._too_close, tensor_too_close):
            monkeypatch.setattr(qmc, "_too_close", screen)
            pools.append(
                local_candidates(
                    center, region, m, 5, existing, np.random.default_rng(seed), delta=delta
                )
            )
        np.testing.assert_array_equal(pools[0], pools[1])
        fills = pools[0][:m]
        kept = (np.abs(fills[:, None] - stream[None, :60]).max(axis=2) == 0).any(axis=0)
        assert not kept[:30].any() and kept[30:].all()
