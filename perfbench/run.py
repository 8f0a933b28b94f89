"""medsampler benchmark: end-to-end and per-layer metrics of three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload banana-cli --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Workloads (one closed-loop client each, in a process of its own):

    banana-cli       generate, diagnose --truth and followup --N 10000 through
                     medsampler.cli.main, into a scratch directory
    ar1-p10          run() on ar1 p=10 rho=0.9 sigma=0.125 (n=149, K=13), then a
                     budget-matched adaptive Metropolis chain and two CL2 values
    external-banana  run() on banana evaluated by two external processes that
                     sleep 5 ms per call (perfbench/banana_eval.py)

BENCHMARK.json lists banana-cli and ar1-p10 only, with 45-s runs.  On a
shared 2-vCPU Xeon VM the CPU speed drifts by 10-40 % over minutes; the
quartile spread of banana-cli's design_s medians over eight interleaved runs
there was 0.27 of the median with 15-s runs and 0.13 with 40-s runs.  Three
workloads of that length would not fit the time allowed for all runs.
external-banana is run by hand: its sleep-bound design time is steady at any
run length.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json; set-up
is measured in three fresh processes and its median reported.  ``--trace 1``
reports the per-layer metrics from a separate run whose spans are recorded
around the package's call sites (perfbench/tracer.py).  The last stdout line
is one JSON object with the keys correct, attempted, failed and metrics;
the lines before it print every metric with its unit and sample count, the
machine note and the ledger digest check.  Full results and spans are written
to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("banana-cli", "ar1-p10", "external-banana")
SETUP_RUNS = 3
DEADLINE_S = 170.0
BLAS_THREADS = "1"

# End-to-end metrics printed per workload; BENCHMARK.json names the ones
# every workload has and that do not depend on the design seed.
E2E_REPORTED = (
    "setup_s",
    "design_s",
    "iteration_s",
    "followup_s",
    "compare_s",
    "peak_rss_mb",
    "cl2_truth",
    "cl2_chain",
    "psi_tilde_log",
    "ops_failed_frac",
)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "call_ms" in name:
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if "bytes" in name:
        return "bytes"
    if name.endswith("ns_per_pair_dim"):
        return "ns"
    if name.endswith(("fraction", "_frac", "efficiency")):
        return "ratio"
    if name in ("cl2_truth", "cl2_chain", "psi_tilde_log"):
        return "1"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(args: list[str], deadline: float) -> tuple[int, float | None, dict | None]:
    """Run one child to its end; returns exit code, set-up seconds and result."""
    cmd = [sys.executable, str(HERE / "workload.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    setup_s, result = None, None
    try:
        for line in proc.stdout:
            if line.startswith("@@ready"):
                setup_s = time.perf_counter() - t0
            elif line.startswith("@@result "):
                result = json.loads(line[len("@@result "):])
    finally:
        proc.stdout.close()
        proc.wait()
        timer.cancel()
    return proc.returncode, setup_s, result


def self_tests(deadline: float) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "selftest.py")],
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=ROOT,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        return [line for line in (proc.stdout + proc.stderr).splitlines() if line.strip()][-5:]
    return []


def _values(records: list[dict], key: str) -> list[float]:
    return [r[key] for r in records if key in r]


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """Everything measured for one workload, ready to print."""
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    base += ["--trace", str(trace), "--workdir", str(OUT)]
    problems = self_tests(deadline)
    runs = []
    for r in range(1 if trace else SETUP_RUNS):
        setup_only = not trace and r < SETUP_RUNS - 1
        runs.append(spawn(base + (["--setup-only"] if setup_only else []), deadline))
    for rc, setup_s, result in runs:
        if rc != 0 or setup_s is None or result is None:
            problems.append(f"workload process ended with code {rc} before reporting")
    main = runs[-1][2] or {}
    attempted = sum(r[2]["attempted"] for r in runs if r[2])
    failures = [f for r in runs if r[2] for f in r[2]["failures"]]
    records = main.get("iterations", [])

    values: dict[str, tuple[float, int]] = {}
    if trace:
        for key, v in main.get("layers", {}).items():
            values[key] = (v, len(records))
    else:
        setups = [r[1] for r in runs if r[1] is not None]
        if setups:
            values["setup_s"] = (statistics.median(setups), len(setups))
        for key in ("design_s", "iteration_s", "followup_s", "compare_s"):
            xs = _values(records, key)
            if xs:
                values[key] = (statistics.median(xs), len(xs))
        for key in ("cl2_truth", "cl2_chain", "psi_tilde_log"):
            xs = _values(records, key)
            if xs:
                values[key] = (statistics.fmean(xs), len(xs))
        if "peak_rss_mb" in main:
            values["peak_rss_mb"] = (main["peak_rss_mb"], 1)
        values["ops_failed_frac"] = (len(failures) / max(attempted, 1), attempted)

    digests = json.loads((HERE / "digests.json").read_text())
    key = main.get("digest_key", "banana")
    summary = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "machine": main.get("machine", {}),
        "values": values,
        "attempted": max(attempted, 1),
        "failed": len(failures) + (0 if attempted else 1),
        "failures": failures,
        "problems": problems,
        "digest": {
            "reference": key,
            "expected": digests[key],
            "warmup": main.get("warmup_digest", ""),
            "changed": main.get("warmup_digest", "") != digests[key],
        },
        "design_split_s": main.get("design_split_s", {}),
        "spans_file": main.get("spans_file"),
        "iterations": records,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(summary, indent=1))
    return summary


def print_report(s: dict, units: dict[str, str]) -> None:
    m = s["machine"]
    print(
        f"machine: cpu={m.get('cpu')!r} nproc={m.get('nproc')} python={m.get('python')} "
        f"numpy={m.get('numpy')} scipy={m.get('scipy')} blas={m.get('blas')} "
        f"blas_threads={m.get('blas_threads')}"
    )
    print(f"workload {s['workload']} seed {s['seed']} trace {s['trace']}")
    names = list(units) if s["trace"] else [n for n in E2E_REPORTED if n in s["values"]]
    extra = [n for n in sorted(s["values"]) if n not in names]
    for name in names + extra:
        if name in s["values"]:
            v, count = s["values"][name]
            print(f"  {name:<44} {v:>16.6g} {units.get(name) or unit_of(name):<6} n={count}")
        else:
            print(f"  {name:<44} {'missing':>16}")
    for layer, sec in s["design_split_s"].items():
        print(f"  design_s self time in {layer:<21} {sec:>16.6g} s")
    d = s["digest"]
    print(
        f"  digest_changed={str(d['changed']).lower()} warm-up seed 0 {d['warmup'][:12]} "
        f"reference {d['reference']} {d['expected'][:12]}"
    )
    print(f"  ops attempted={s['attempted']} failed={s['failed']}")
    for f in s["failures"][:10]:
        print(f"  failed {f['op']}: {'; '.join(f['problems'])}")
    for p in s["problems"]:
        print(f"  benchmark problem: {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="medsampler benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "medsampler" / "__init__.py").is_file():
        print(f"error: no medsampler source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    wanted = list(units)

    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        s = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        print_report(s, units)
        missing = [n for n in wanted if n not in s["values"]]
        bad = [n for n in wanted if n in s["values"] and not math.isfinite(s["values"][n][0])]
        correct = not (s["failed"] or s["problems"] or missing or bad)
        prefix = "" if len(names) == 1 else name + "/"
        combined["correct"] = combined["correct"] and correct
        combined["attempted"] += s["attempted"]
        combined["failed"] += s["failed"]
        for n in wanted:
            if n in s["values"] and n not in bad:
                combined["metrics"][prefix + n] = {"value": s["values"][n][0], "unit": units[n]}
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
