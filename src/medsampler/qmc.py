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

from .errors import CandidatePoolError, ConfigError

# Minimum max-norm separation between a fresh candidate and any evaluated point.
DELTA_SEPARATION = 1e-6

# Pool-internal dedup threshold (max-norm): closer pairs count as the same point.
DEDUP_TOLERANCE = 1e-12


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


def _cbc_vector(n: int, p: int) -> np.ndarray:
    """Component-by-component generating vector; works for any n >= 2.

    Candidates are restricted to residues coprime with n so every 1-d
    projection has n distinct values even for composite n.  Ties go to the
    smallest candidate.
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
    return z


def cbc_lattice(n: int, p: int, seed: int | None = None) -> LatticeRule:
    """Rank-1 lattice rule with a component-by-component generating vector.

    ``n`` must be prime.  When ``seed`` is given, a random shift in [0,1)^p
    is applied (Cranley-Patterson style); otherwise the lattice is unshifted.
    Deterministic given (n, p, seed).
    """
    if not is_prime(n):
        raise ConfigError(f"lattice size must be prime, got {n}")
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
def _halton_cached(start: int, count: int, p: int) -> np.ndarray:
    block = halton_block(start, count, p)
    block.setflags(write=False)
    return block


@dataclass(frozen=True)
class CandidatePool:
    """Deduplicated unit-cube candidates with a provenance tag per point.

    Tags are "local-fill" or "linear-combination".
    """

    points: np.ndarray
    provenance: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.provenance)


def _dedup_keep_first(points: np.ndarray) -> np.ndarray:
    """Indices to keep so no two survivors are within DEDUP_TOLERANCE (max-norm).

    Sorting on the first coordinate confines the pairwise check to points that
    nearly share it, which is the common case's fast exit: distinct stream
    points never collide, only exact duplicates from clipping do.
    """
    n = len(points)
    order = np.argsort(points[:, 0], kind="stable")
    x0 = points[order, 0]
    if np.all(np.diff(x0) >= DEDUP_TOLERANCE):
        return np.arange(n)
    pairs = []
    for a in range(n - 1):
        b = a + 1
        while b < n and x0[b] - x0[a] < DEDUP_TOLERANCE:
            i, j = order[a], order[b]
            if np.max(np.abs(points[i] - points[j])) < DEDUP_TOLERANCE:
                pairs.append((min(i, j), max(i, j)))
            b += 1
    dropped: set[int] = set()
    for i, j in sorted(pairs):
        if i not in dropped:
            dropped.add(j)
    return np.array([i for i in range(n) if i not in dropped], dtype=int)


def _too_close(points: np.ndarray, reference: np.ndarray, delta: float) -> np.ndarray:
    """Boolean mask of rows of ``points`` within max-norm ``delta`` of ``reference``."""
    if reference.size == 0 or points.size == 0:
        return np.zeros(len(points), dtype=bool)
    if len(points) * len(reference) <= 4096:
        gaps = np.abs(points[:, None, :] - reference[None, :, :]).max(axis=2)
        return gaps.min(axis=1) < delta
    # A max-norm hit needs |x0 - r0| < delta, so a sorted window on the first
    # coordinate screens almost everything before the exact check.
    order = np.argsort(reference[:, 0], kind="stable")
    ref_sorted = reference[order]
    r0 = ref_sorted[:, 0]
    lo = np.searchsorted(r0, points[:, 0] - delta, side="left")
    hi = np.searchsorted(r0, points[:, 0] + delta, side="right")
    mask = np.zeros(len(points), dtype=bool)
    for i in np.nonzero(hi > lo)[0]:
        window = ref_sorted[lo[i] : hi[i]]
        mask[i] = bool(np.abs(window - points[i]).max(axis=1).min() < delta)
    return mask


def local_candidates(
    center: np.ndarray,
    region: np.ndarray,
    m: int,
    n_combos: int,
    existing: np.ndarray,
    rng: np.random.Generator,
    delta: float = DELTA_SEPARATION,
) -> CandidatePool:
    """Candidate set for one local region: space-filling fill plus combos.

    ``region`` is the neighborhood point set whose bounding box is filled with
    ``m`` points from a randomly shifted Halton stream, keeping only points at
    max-norm distance >= DELTA_SEPARATION from every row of ``existing``.
    Degenerate box dimensions are inflated by the same threshold first.

    ``n_combos`` extra points are linear combinations w*a + (1-w)*b of the two
    region points nearest the center (the center itself excluded), with w
    uniform on [-0.5, 1.5] and the result clipped to the unit cube.  Combos
    too close to an evaluated point are dropped, and the pool is deduplicated.
    """
    center = np.asarray(center, dtype=float)
    region = np.atleast_2d(np.asarray(region, dtype=float))
    existing = np.atleast_2d(np.asarray(existing, dtype=float))
    if existing.size == 0:
        existing = existing.reshape(0, center.shape[0])
    p = center.shape[0]
    if m < 1:
        raise ConfigError(f"need m >= 1 fill points, got {m}")

    lo = region.min(axis=0)
    hi = region.max(axis=0)
    flat = hi - lo <= 0.0
    lo[flat] -= delta
    hi[flat] += delta
    np.clip(lo, 0.0, 1.0, out=lo)
    np.clip(hi, 0.0, 1.0, out=hi)
    span = np.maximum(hi - lo, delta)

    # Only evaluated points near the fill box can reject a fill point; combos
    # can extrapolate up to half a span outside it.
    near = existing[
        np.all((existing >= lo - delta) & (existing <= hi + delta), axis=1)
    ]
    margin = 0.5 * span + delta
    near_wide = existing[
        np.all((existing >= lo - margin) & (existing <= hi + margin), axis=1)
    ]

    shift = rng.random(p)
    blocks: list[np.ndarray] = []
    filled = 0
    start = 0
    max_draws = 200 * m
    while filled < m and start < max_draws:
        count = min(m + 64, max_draws - start)
        block = np.mod(_halton_cached(start, count, p) + shift[None, :], 1.0)
        start += count
        pts = lo[None, :] + block * span[None, :]
        pts = pts[~_too_close(pts, near, delta)]
        blocks.append(pts)
        filled += len(pts)
    if filled < m:
        raise CandidatePoolError(
            f"could not place {m} candidates at separation {delta} "
            f"inside box of span {span.min():.3g}..{span.max():.3g}"
        )
    fill_pts = np.concatenate(blocks)[:m]

    combo_pts = np.zeros((0, p))
    not_center = region[np.max(np.abs(region - center[None, :]), axis=1) > 0.0]
    if len(not_center) >= 2 and n_combos > 0:
        order = np.argsort(np.sum((not_center - center[None, :]) ** 2, axis=1))
        a, b = not_center[order[0]], not_center[order[1]]
        w = rng.uniform(-0.5, 1.5, size=n_combos)
        raw = np.clip(w[:, None] * a[None, :] + (1.0 - w)[:, None] * b[None, :], 0.0, 1.0)
        combo_pts = raw[~_too_close(raw, near_wide, delta)]

    points = np.vstack([fill_pts, combo_pts])
    keep = _dedup_keep_first(points)
    # keep is ascending, so the kept fills come first
    fills_kept = int(np.searchsorted(keep, m))
    return CandidatePool(
        points=points[keep],
        provenance=("local-fill",) * fills_kept
        + ("linear-combination",) * (len(keep) - fills_kept),
    )
