"""Self-tests of the benchmark itself; run with src/ on PYTHONPATH.

    PYTHONPATH=src python3 perfbench/selftest.py

Exits 0 when every test passes.  ``run.py`` runs them before each workload.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

import medsampler
import medsampler.cli

import checks
import tracer as tr
from workload import HERE, Workload, check_generate


def test_truncated_ledger_is_a_failed_operation() -> None:
    tmp = Path(tempfile.mkdtemp(dir=HERE / "out"))
    try:
        run_dir = tmp / "run"
        argv = ["generate", "--density", "banana", "--n", "7", "--K", "2", "--out", str(run_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert medsampler.cli.main(argv) == 0
        wl = Workload(tmp)
        assert wl.op("generate", check_generate(run_dir, 7, 2)["problems"])
        ledger = run_dir / "ledger.csv"
        lines = ledger.read_text().splitlines()
        ledger.write_text("\n".join(lines[:-1]) + "\n")
        info = check_generate(run_dir, 7, 2)
        assert any("records" in p for p in info["problems"]), info["problems"]
        assert not wl.op("generate", info["problems"])
        assert (wl.attempted, len(wl.failures)) == (2, 1)
    finally:
        shutil.rmtree(tmp)


def test_check_design_flags_foreign_and_outside_points() -> None:
    design, report = medsampler.engine.run(medsampler.make_banana(), medsampler.RunConfig(n=5, K=2))
    records = report.ledger.records
    assert checks.check_design(design.points, records, 5, 2) == []
    moved = design.points.copy()
    moved[0, 0] = 1.5
    problems = checks.check_design(moved, records, 5, 2)
    assert any("outside" in p for p in problems) and any("not in the ledger" in p for p in problems)


def test_self_time_arithmetic_on_nested_calls() -> None:
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    t = tr.Tracer(clock=lambda: next(ticks))
    inner = t.wrap("b.inner", lambda: None)

    def body():
        inner()
        inner()

    t.wrap("a.outer", body)()
    assert t.self_times() == [5.0, 2.0, 3.0]
    assert t.layer_self_times(0) == {"a": 5.0, "b": 5.0}
    assert sum(t.layer_self_times(0).values()) == t.spans[0].duration


def test_install_restores_every_binding() -> None:
    def bindings():
        return [getattr(importlib.import_module(m), a) for m, a, _, _ in tr.CALL_SITES]

    before = bindings()
    restore = tr.install(tr.Tracer())
    wrapped = bindings()
    restore()
    after = bindings()
    assert all(w is not b for w, b in zip(wrapped, before))
    assert all(a is b for a, b in zip(after, before))


def main() -> int:
    if not __debug__:
        print("FAIL the self-tests use assert; run them without -O")
        return 1
    (HERE / "out").mkdir(exist_ok=True)
    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok   {name}")
            except Exception as exc:  # report every test, then fail
                failed += 1
                print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
