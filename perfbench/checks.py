"""Output checks; each returns the list of problems found (empty means passed).

A benchmark operation whose check list is non-empty, or that raised, counts
as a failed operation.
"""

from __future__ import annotations

import math

import numpy as np


def check_design(points: np.ndarray, records, n: int, K: int) -> list[str]:
    """The ledger holds exactly K*n records; the design has n points in the
    unit cube, each of them a ledger point."""
    problems = []
    if len(records) != K * n:
        problems.append(f"ledger has {len(records)} records, expected K*n = {K * n}")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if len(points) != n:
        problems.append(f"design has {len(points)} points, expected n = {n}")
    if not np.all((points >= 0.0) & (points <= 1.0)):
        problems.append("design point outside [0,1]^p")
    evaluated = {np.asarray(r.x, dtype=float).tobytes() for r in records}
    missing = sum(1 for row in points if row.tobytes() not in evaluated)
    if missing:
        problems.append(f"{missing} design points are not in the ledger")
    return problems


def check_finite(**values: float) -> list[str]:
    return [f"{name} is not finite: {v!r}" for name, v in values.items() if not math.isfinite(v)]


def check_equal(name: str, got, expected) -> list[str]:
    return [] if got == expected else [f"{name}: got {got!r}, expected {expected!r}"]


def check_identical_designs(a: np.ndarray, b: np.ndarray) -> list[str]:
    """Bit-identical point arrays (same shape, same float64 bytes)."""
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    if a.shape != b.shape or a.tobytes() != b.tobytes():
        return ["design differs from the builtin banana design for the same seed"]
    return []
