"""Low-discrepancy point sets: rank-1 lattices, Hammersley, local candidate pools.

The component-by-component lattice construction minimizes the squared
shift-invariant worst-case error

    e2(z) = -1 + (1/n) * sum_k prod_l (1 + g_l * B2(frac(k z_l / n))),

with B2(x) = x^2 - x + 1/6 and product weights g_l = 1/l^2.  At desk scale
(n <= a few hundred) the naive O(n^2 p) search is instant, so no fast
transform is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError

# Minimum max-norm separation between a newly evaluated point and every earlier one.
DELTA_SEPARATION = 1e-6

# Linear-combination candidates per local pool.
N_COMBOS = 5


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def largest_prime_below(limit: int) -> int:
    """Largest prime strictly less than ``limit``."""
    for n in range(limit - 1, 1, -1):
        if is_prime(n):
            return n
    raise ConfigError(f"no prime below {limit}")


def nth_prime(k: int) -> int:
    """k-th prime, 1-indexed (1 -> 2, 2 -> 3, ...)."""
    n, count = 1, 0
    while count < k:
        n += 1
        if is_prime(n):
            count += 1
    return n


@dataclass(frozen=True)
class LatticeRule:
    """Rank-1 lattice: points are frac(i * z / n + shift), i = 0..n-1."""

    n: int
    z: np.ndarray
    shift: np.ndarray | None = None

    def points(self) -> np.ndarray:
        i = np.arange(self.n)[:, None]
        pts = (i * self.z[None, :].astype(float)) / self.n
        if self.shift is not None:
            pts = pts + self.shift[None, :]
        return np.mod(pts, 1.0)


def _bernoulli2(x: np.ndarray) -> np.ndarray:
    return x * x - x + 1.0 / 6.0


@lru_cache(maxsize=8)
def _cbc_vector(n: int, p: int) -> np.ndarray:
    """Component-by-component generating vector; works for any n >= 2.

    Candidates are restricted to residues coprime with n so every 1-d
    projection has n distinct values even for composite n.  Ties go to the
    smallest candidate.  The search is cached per (n, p) and the vector
    returned read-only, since every run of a dimension asks for the same one.
    """
    z = np.ones(p, dtype=int)
    k = np.arange(n)
    # Running product over already-chosen components, one entry per lattice index.
    prod = 1.0 + 1.0 * _bernoulli2(np.mod(k * z[0], n) / n)
    candidates = [c for c in range(1, n) if math.gcd(c, n) == 1]
    for l in range(1, p):
        weight = 1.0 / (l + 1) ** 2
        best_err = np.inf
        best_c = candidates[0]
        best_col = None
        for c in candidates:
            col = 1.0 + weight * _bernoulli2(np.mod(k * c, n) / n)
            err = -1.0 + float(np.mean(prod * col))
            if err < best_err:
                best_err = err
                best_c = c
                best_col = col
        z[l] = best_c
        prod = prod * best_col
    z.setflags(write=False)
    return z


def cbc_lattice(n: int, p: int, seed: int | None = None) -> LatticeRule:
    """Rank-1 lattice rule with a component-by-component generating vector.

    ``n`` may be any integer >= 2; for composite ``n`` the components are
    searched among the residues coprime with ``n`` (see ``_cbc_vector``).
    When ``seed`` is given, a random shift in [0,1)^p is applied
    (Cranley-Patterson style); otherwise the lattice is unshifted.
    Deterministic given (n, p, seed).
    """
    if n < 2:
        raise ConfigError(f"lattice size must be >= 2, got {n}")
    if p < 1:
        raise ConfigError(f"dimension must be >= 1, got {p}")
    z = _cbc_vector(n, p)
    shift = None
    if seed is not None:
        shift = np.random.default_rng(seed).random(p)
    return LatticeRule(n=n, z=z, shift=shift)


def radical_inverse(indices: np.ndarray, base: int) -> np.ndarray:
    """Van der Corput radical inverse of integer indices in the given base."""
    idx = np.asarray(indices, dtype=np.int64).copy()
    out = np.zeros(idx.shape, dtype=float)
    inv = 1.0 / base
    while np.any(idx > 0):
        out += (idx % base) * inv
        idx //= base
        inv /= base
    return out


def hammersley(n: int, p: int) -> np.ndarray:
    """Hammersley point set: point i is (i/n, phi_2(i), phi_3(i), ...)."""
    if n < 1 or p < 1:
        raise ConfigError(f"need n >= 1 and p >= 1, got n={n}, p={p}")
    i = np.arange(n)
    cols = [i / n]
    for l in range(p - 1):
        cols.append(radical_inverse(i, nth_prime(l + 1)))
    return np.column_stack(cols)


def halton_block(start: int, count: int, p: int) -> np.ndarray:
    """Rows ``start .. start+count-1`` of the p-dimensional Halton sequence."""
    i = np.arange(start, start + count)
    return np.column_stack([radical_inverse(i, nth_prime(l + 1)) for l in range(p)])


@lru_cache(maxsize=8)
def _halton_cached(count: int, p: int) -> np.ndarray:
    block = halton_block(0, count, p)
    block.setflags(write=False)
    return block


def local_candidates(
    center: np.ndarray,
    region: np.ndarray,
    m: int,
    n_combos: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Candidate pool for one local region: the (m + combos, p) array of ``m``
    fills followed by the combos.

    ``region`` is the neighborhood point set whose bounding box is filled with
    the first ``m`` points of a randomly shifted Halton stream.  Degenerate
    box dimensions are inflated by ``DELTA_SEPARATION`` first.

    ``n_combos`` extra points are linear combinations w*a + (1-w)*b of the two
    region points nearest the center (the center itself excluded), with w
    uniform on [-0.5, 1.5] and the result clipped to the unit cube.  The rng
    draws the fill shift first, then w.

    No row is screened against the evaluated points: pass 1 checks the
    separation of the one candidate it evaluates (``engine.propose_new_points``).
    Rows are not deduplicated either: copies of one row share its coordinates,
    so whichever copy wins, the stage evaluates the same point.
    """
    center = np.asarray(center, dtype=float)
    region = np.atleast_2d(np.asarray(region, dtype=float))
    p = center.shape[0]
    if m < 1:
        raise ConfigError(f"need m >= 1 fill points, got {m}")

    lo = region.min(axis=0)
    hi = region.max(axis=0)
    flat = hi - lo <= 0.0
    lo[flat] -= DELTA_SEPARATION
    hi[flat] += DELTA_SEPARATION
    np.clip(lo, 0.0, 1.0, out=lo)
    np.clip(hi, 0.0, 1.0, out=hi)
    span = np.maximum(hi - lo, DELTA_SEPARATION)

    shift = rng.random(p)
    # the sum lies in [0, 2), so one exact subtraction is the mod 1
    block = _halton_cached(m, p) + shift[None, :]
    block -= block >= 1.0
    fill_pts = lo[None, :] + block * span[None, :]

    combo_pts = np.zeros((0, p))
    not_center = region[np.max(np.abs(region - center[None, :]), axis=1) > 0.0]
    if len(not_center) >= 2 and n_combos > 0:
        order = np.argsort(np.sum((not_center - center[None, :]) ** 2, axis=1))
        a, b = not_center[order[0]], not_center[order[1]]
        w = rng.uniform(-0.5, 1.5, size=n_combos)
        combo_pts = np.clip(w[:, None] * a[None, :] + (1.0 - w)[:, None] * b[None, :], 0.0, 1.0)

    return np.vstack([fill_pts, combo_pts])
