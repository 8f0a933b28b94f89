"""CSV and JSON serialization with bit-exact round trips.

Floats are written with Python's shortest round-trip representation, so
parsing a file back reproduces the original values bit for bit.  All writers
go through a temp-file-plus-rename so readers never see a partial file.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .density import EvaluationLedger, LedgerRecord
from .errors import FileFormatError


def fmt(value: float) -> str:
    """Shortest decimal string that round-trips the float exactly."""
    return repr(float(value))


def atomic_write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def write_json(path: str | Path, obj) -> None:
    """Stable JSON: sorted keys, two-space indent, trailing newline."""
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _coord_names(p: int) -> list[str]:
    return [f"x{l}" for l in range(1, p + 1)]


@dataclass(frozen=True)
class DesignFile:
    points: np.ndarray
    logf: np.ndarray
    stages: np.ndarray


def _write_table(
    path: str | Path, points: np.ndarray, logf: np.ndarray, tags: np.ndarray, tag: str
) -> None:
    """CSV of x1..xp, logf and one integer column named ``tag``.

    ``repr`` of a Python float is ``fmt``'s string, so whole rows are
    formatted at once from ``tolist()``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    table = np.column_stack([points, np.asarray(logf, dtype=float)]).tolist()
    tags = np.asarray(tags).astype(int).tolist()
    lines = [",".join(_coord_names(points.shape[1]) + ["logf", tag])]
    lines += [f"{','.join(map(repr, row))},{t}" for row, t in zip(table, tags)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_design(
    path: str | Path, points: np.ndarray, logf: np.ndarray, stages: np.ndarray
) -> None:
    _write_table(path, points, logf, stages, "stage")


def write_samples(
    path: str | Path, samples: np.ndarray, logf: np.ndarray, chain_ids: np.ndarray
) -> None:
    _write_table(path, samples, logf, chain_ids, "chain")


def write_ledger(path: str | Path, ledger: EvaluationLedger) -> None:
    if ledger.count == 0:
        raise FileFormatError("refusing to write an empty ledger")
    p = len(ledger.records[0].x)
    lines = [",".join(["seq", "stage"] + _coord_names(p) + ["logf", "duration_ms"])]
    for rec in ledger.records:
        values = rec.x.tolist() + [float(rec.logf), float(rec.duration_ms)]
        lines.append(f"{rec.seq},{rec.stage},{','.join(map(repr, values))}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def _parse_rows(
    path: Path, head: list[str], tail: list[str]
) -> tuple[list[str], list[list[str]]]:
    """Read a CSV whose header is ``head``, then x1..xp, then ``tail``."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    rows = list(csv.reader(text.splitlines()))
    if not rows:
        raise FileFormatError(f"{path}: empty file")
    header = rows[0]
    if (
        header[: len(head)] != head
        or header[-len(tail):] != tail
        or len(header) <= len(head) + len(tail)
    ):
        raise FileFormatError(
            f"{path}: expected header {','.join(head + ['x1..xp'] + tail)}, got {','.join(header)}"
        )
    body = rows[1:]
    if not body:
        raise FileFormatError(f"{path}: no data rows")
    for i, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise FileFormatError(
                f"{path} line {i}: expected {len(header)} fields, got {len(row)}"
            )
    return header, body


def _cell(path: Path, header: list[str], lineno: int, col: int, cell: str, kind: type = float):
    """Parse one cell as ``kind`` (float or int); an error names its line and column."""
    try:
        return kind(cell)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise FileFormatError(
            f"{path} line {lineno} column '{header[col]}': not {what}: {cell!r}"
        ) from None


def _read_table(path: str | Path, tag: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read what ``_write_table`` writes: (points, logf, integer tags)."""
    path = Path(path)
    header, body = _parse_rows(path, [], ["logf", tag])
    p = len(header) - 2
    points = np.empty((len(body), p))
    logf = np.empty(len(body))
    tags = np.empty(len(body), dtype=int)
    for i, row in enumerate(body):
        lineno = i + 2
        for l in range(p):
            points[i, l] = _cell(path, header, lineno, l, row[l])
        logf[i] = _cell(path, header, lineno, p, row[p])
        tags[i] = _cell(path, header, lineno, p + 1, row[p + 1], int)
    return points, logf, tags


def read_design(path: str | Path) -> DesignFile:
    return DesignFile(*_read_table(path, "stage"))


def read_samples(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return _read_table(path, "chain")


def read_ledger(path: str | Path) -> EvaluationLedger:
    path = Path(path)
    header, body = _parse_rows(path, ["seq", "stage"], ["logf", "duration_ms"])
    p = len(header) - 4
    ledger = EvaluationLedger()
    for i, row in enumerate(body):
        lineno = i + 2
        seq = _cell(path, header, lineno, 0, row[0], int)
        if seq != i:
            raise FileFormatError(f"{path} line {lineno}: sequence {seq} out of order")
        stage = _cell(path, header, lineno, 1, row[1], int)
        x = np.array([_cell(path, header, lineno, 2 + l, row[2 + l]) for l in range(p)])
        logf = _cell(path, header, lineno, 2 + p, row[2 + p])
        duration = _cell(path, header, lineno, 3 + p, row[3 + p])
        ledger.records.append(
            LedgerRecord(seq=seq, stage=stage, x=x, logf=logf, duration_ms=duration)
        )
    return ledger


def ledger_digest(ledger: EvaluationLedger) -> str:
    """Order-sensitive SHA-256 over the evaluated points and their values."""
    lines = []
    for rec in ledger.records:
        lines.append(",".join([fmt(c) for c in rec.x] + [fmt(rec.logf)]))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def point_stages(points: np.ndarray, ledger: EvaluationLedger) -> np.ndarray:
    """Stage at which each design point was first evaluated (exact match)."""
    keys = {}
    for rec in ledger.records:
        keys.setdefault(rec.x.tobytes(), rec.stage)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    stages = np.empty(len(points), dtype=int)
    for i, row in enumerate(points):
        stage = keys.get(row.tobytes())
        if stage is None:
            raise FileFormatError(f"design point {i} not found in the ledger")
        stages[i] = stage
    return stages
