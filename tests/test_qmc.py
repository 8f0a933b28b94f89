"""Lattice, Hammersley, and candidate-pool tests."""

import numpy as np
import pytest

from medsampler.errors import ConfigError
from medsampler.qmc import (
    DELTA_SEPARATION,
    LatticeRule,
    _cbc_vector,
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
        pool = local_candidates(region[1], region, m, 5, np.random.default_rng(9))
        fills = local_candidates(region[1], region, m, 0, np.random.default_rng(9))
        assert len(pool) > m
        np.testing.assert_array_equal(pool[:m], fills)

    def test_combos_replay_rng(self):
        # Replaying the generator's draws reconstructs the combo points exactly.
        region = self.region()
        center = region[1]
        pool = local_candidates(center, region, 10, 4, np.random.default_rng(3))
        replay = np.random.default_rng(3)
        replay.random(2)  # fill shift drawn first
        w = replay.uniform(-0.5, 1.5, size=4)
        others = region[[0, 2, 3, 4]]
        order = np.argsort(np.sum((others - center) ** 2, axis=1))
        a, b = others[order[0]], others[order[1]]
        want = np.clip(w[:, None] * a + (1 - w)[:, None] * b, 0.0, 1.0)
        np.testing.assert_allclose(pool[10:], want, atol=1e-15)

    def test_combo_midpoint_and_clipping(self):
        # Force a diagonal pair so the combo line is w*(0,0) + (1-w)*(1,1).
        region = np.array([[0.0, 0.0], [1.0, 1.0], [0.02, 0.01]])
        center = region[2]
        pool = local_candidates(center, region, 5, 50, np.random.default_rng(4))
        combos = pool[5:]
        # All combos sit on the clipped diagonal segment.
        np.testing.assert_allclose(combos[:, 0], combos[:, 1], atol=1e-12)
        assert np.all((combos >= 0.0) & (combos <= 1.0))

    def test_degenerate_region_is_inflated(self):
        region = np.array([[0.5, 0.5]])
        pool = local_candidates(
            region[0], region, 8, 0, np.random.default_rng(5)
        )
        assert len(pool) == 8
        assert np.all(np.abs(pool - 0.5) <= DELTA_SEPARATION + 1e-15)

    def test_deterministic_given_seed(self):
        region = self.region()
        a = local_candidates(region[1], region, 20, 3, np.random.default_rng(6))
        b = local_candidates(region[1], region, 20, 3, np.random.default_rng(6))
        np.testing.assert_array_equal(a, b)

    def test_fills_are_the_first_m_of_the_stream(self):
        # the fills are the first m points of the shifted Halton stream,
        # scaled into the box, whatever has been evaluated: the pool screens
        # nothing, so no fill is replaced by a later draw
        region = np.array([[0.3, 0.3, 0.3], [0.6, 0.5, 0.7], [0.4, 0.6, 0.5]])
        center, m, seed = region[2], 80, 11
        shift = np.random.default_rng(seed).random(3)
        lo, hi = region.min(axis=0), region.max(axis=0)
        stream = lo + np.mod(halton_block(0, m, 3) + shift, 1.0) * (hi - lo)
        pool = local_candidates(center, region, m, 0, np.random.default_rng(seed))
        np.testing.assert_array_equal(pool, stream)
