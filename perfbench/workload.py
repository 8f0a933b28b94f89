"""One benchmark workload in its own process: set-up, then a timed closed loop.

Started by ``perfbench/run.py`` with ``src/`` on PYTHONPATH and the BLAS
thread count fixed in the environment.  It reports on stdout in lines that
start with ``@@``; everything else on stdout is ignored:

    @@ready           set-up is finished (the parent times set-up up to here)
    @@result {...}    every measurement of this process, as JSON

Set-up is the imports, the model (and for ``external-banana`` its two
evaluator processes) and one warm-up iteration with design seed 0, so lazy
caches such as the Halton block cache are filled before timing.  The ar1-p10
and external-banana warm-ups stop after K=2 stages: that runs every code
path of a full run at a fraction of its cost.  The warm-up's ledger digest is
compared with the reference in ``digests.json``.

The loop is one client: iteration i builds the design for seed
``1000 * seed + i + 1`` and waits for it, then does the workload's follow-on
work.  With ``--trace 1`` each iteration runs twice on the same design seed,
untraced and then traced, so the difference of their design times is the
tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy
from scipy.special import ndtr

import medsampler
import medsampler.cli
from medsampler import (
    ChainSpec,
    EvaluationLedger,
    RunConfig,
    fileio,
    make_ar1_normal,
    make_banana,
    make_external,
)

import checks
from tracer import Tracer, install, layer_metrics

HERE = Path(__file__).resolve().parent
FOLLOWUP_N = 10000
ACCOUNTING_TOLERANCE = 0.01  # share of design_s, plus 2 ms


def design_seed(seed: int, i: int) -> int:
    return 1000 * seed + i + 1


class Workload:
    """Operation accounting shared by the workloads.

    An operation is one call whose output is checked: a CLI command, a run,
    a comparison.  It fails when it raises or when a check finds a problem.
    """

    name = ""
    digest_key = ""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failures: list[dict] = []
        self.digest = ""

    def op(self, name: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append({"op": name, "problems": problems})
        return not problems

    def attempt(self, name: str, fn):
        """Run ``fn``; an exception counts as a failed operation and gives None."""
        try:
            return fn()
        except Exception as exc:  # the loop goes on; the failure is counted
            self.op(name, [f"raised {type(exc).__name__}: {exc}"])
            return None

    def design_root(self) -> int | None:
        """Index the next span will get: the root of the design call's subtree."""
        return len(self.tracer.spans) if self.tracer is not None else None

    def setup(self) -> None:
        pass

    def warm_up(self) -> None:
        raise NotImplementedError

    def iteration(self, seed: int) -> dict:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need untimed work after the loop."""

    def close(self) -> None:
        pass


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def banana_truth(box: np.ndarray):
    """Truth-transform for banana: per-axis marginal CDFs from a 400x400 grid."""
    g1 = np.linspace(box[0, 0], box[0, 1], 400)
    g2 = np.linspace(box[1, 0], box[1, 1], 400)
    xx, yy = np.meshgrid(g1, g2, indexing="ij")
    dens = np.exp(-0.5 * xx**2 / 100.0 - 0.5 * (yy + 0.03 * xx**2 - 3.0) ** 2)
    tables = []
    for axis, grid in ((1, g1), (0, g2)):
        marg = np.trapezoid(dens, axis=axis)
        cum = np.concatenate([[0.0], np.cumsum((marg[1:] + marg[:-1]) / 2.0 * np.diff(grid))])
        tables.append((grid, cum / cum[-1]))

    def transform(u: np.ndarray) -> np.ndarray:
        cols = [
            np.interp(grid[0] + u[:, l] * (grid[-1] - grid[0]), grid, cum)
            for l, (grid, cum) in enumerate(tables)
        ]
        return np.column_stack(cols)

    return transform


def ar1_truth(sigma: float):
    """Truth-transform for the ar1 normal: truncated N(0.5, sigma^2) marginals."""
    lo, hi = ndtr(-0.5 / sigma), ndtr(0.5 / sigma)
    return lambda u: (ndtr((u - 0.5) / sigma) - lo) / (hi - lo)


class BananaCli(Workload):
    """generate, diagnose --truth and followup through ``medsampler.cli.main``."""

    name = "banana-cli"
    digest_key = "banana"

    def cli(self, argv: list[str]) -> tuple[int, float]:
        with contextlib.redirect_stdout(io.StringIO()):
            return _timed(lambda: medsampler.cli.main(argv))

    def warm_up(self) -> None:
        self.digest = self.iteration(0).get("digest", "")

    def iteration(self, seed: int) -> dict:
        rec: dict = {"seed": seed}
        tmp = Path(tempfile.mkdtemp(dir=self.workdir))
        try:
            self._flow(seed, tmp, rec)
        finally:
            shutil.rmtree(tmp)
        return rec

    def _flow(self, seed: int, tmp: Path, rec: dict) -> None:
        run_dir, diag_dir = tmp / "run", tmp / "diag"
        rec["design_root"] = self.design_root()
        gen = self.attempt(
            "generate",
            lambda: self.cli(
                ["generate", "--density", "banana", "--seed", str(seed), "--out", str(run_dir)]
            ),
        )
        if gen is None:
            return
        rc, rec["design_s"] = gen
        n, K = medsampler.default_n(2), medsampler.default_K(2)
        info = self.attempt("generate", lambda: check_generate(run_dir, n, K))
        if info is None:
            return
        problems = checks.check_equal("generate exit code", rc, 0) + info["problems"]
        if not self.op("generate", problems):
            return
        rec["digest"] = info["digest"]
        rec["psi_tilde_log"] = info["psi_tilde_log"]

        diag = self.attempt(
            "diagnose",
            lambda: self.cli(
                [
                    "diagnose",
                    "--design", str(run_dir / "design.csv"),
                    "--out", str(diag_dir),
                    "--density", "banana",
                    "--truth",
                ]
            ),
        )
        if diag is None:
            return
        rc, diagnose_s = diag
        problems = checks.check_equal("diagnose exit code", rc, 0)
        if rc == 0:
            report = json.loads((diag_dir / "report.json").read_text())
            rec["cl2_truth"] = report["truth"]["cl2_transformed"]
            problems += checks.check_finite(cl2_truth=rec["cl2_truth"])
        if not self.op("diagnose", problems):
            return

        fol = self.attempt(
            "followup",
            lambda: self.cli(
                ["followup", "--run", str(run_dir), "--N", str(FOLLOWUP_N), "--seed", str(seed)]
            ),
        )
        if fol is None:
            return
        rc, rec["followup_s"] = fol
        problems = checks.check_equal("followup exit code", rc, 0)
        if rc == 0:
            after = fileio.ledger_digest(fileio.read_ledger(run_dir / "ledger.csv"))
            problems += checks.check_equal("ledger digest after followup", after, info["digest"])
            samples, values, _ = fileio.read_samples(run_dir / "samples.csv")
            if len(samples) < FOLLOWUP_N:
                problems.append(f"followup gave {len(samples)} samples, asked for {FOLLOWUP_N}")
            problems += checks.check_finite(samples_logf_sum=float(np.sum(values)))
        if self.op("followup", problems):
            rec["iteration_s"] = rec["design_s"] + diagnose_s + rec["followup_s"]


def check_generate(run_dir: Path, n: int, K: int) -> dict:
    """Read a run directory back and check the design against its ledger.

    ``n`` and ``K`` are the expected sizes, so a report that agrees with a
    short ledger still fails.
    """
    report = json.loads((run_dir / "report.json").read_text())
    manifest = json.loads((run_dir / "manifest.json").read_text())
    ledger = fileio.read_ledger(run_dir / "ledger.csv")
    design = fileio.read_design(run_dir / "design.csv")
    digest = fileio.ledger_digest(ledger)
    psi = report["stages"][-1]["psi_tilde_log"]
    problems = checks.check_design(design.points, ledger.records, n, K)
    problems += checks.check_equal("report budget", report["budget"], K * n)
    problems += checks.check_equal("manifest ledger digest", manifest["ledger_digest"], digest)
    problems += checks.check_finite(psi_tilde_log=psi)
    return {"digest": digest, "psi_tilde_log": psi, "problems": problems}


class RunWorkload(Workload):
    """A workload whose design comes from ``medsampler.run`` on a fixed model."""

    model = None

    def run_design(self, seed: int, rec: dict, K: int | None = None):
        rec["design_root"] = self.design_root()
        config = RunConfig(seed=seed, K=K)
        res = self.attempt("run", lambda: _timed(lambda: medsampler.run(self.model, config)))
        if res is None:
            return None
        (design, report), rec["design_s"] = res
        rec["psi_tilde_log"] = report.stages[-1].psi_tilde_log
        rec["digest"] = fileio.ledger_digest(report.ledger)
        n = medsampler.default_n(self.model.p)
        K = K if K is not None else medsampler.default_K(self.model.p)
        problems = checks.check_design(design.points, report.ledger.records, n, K)
        problems += checks.check_equal("report budget", report.budget, K * n)
        problems += checks.check_finite(psi_tilde_log=rec["psi_tilde_log"])
        return (design, report) if self.op("run", problems) else None


class Ar1P10(RunWorkload):
    """ROADMAP reference ar1 p=10 plus the budget-matched Metropolis comparison."""

    name = "ar1-p10"
    digest_key = "ar1-p10-warmup-K2"
    P, RHO, SIGMA = 10, 0.9, 0.125

    def setup(self) -> None:
        self.model = make_ar1_normal(self.P, self.RHO, self.SIGMA)
        self.truth = ar1_truth(self.SIGMA)

    def warm_up(self) -> None:
        self.digest = self.iteration(0, K=2).get("digest", "")

    def iteration(self, seed: int, K: int | None = None) -> dict:
        rec: dict = {"seed": seed}
        res = self.run_design(seed, rec, K)
        if res is None:
            return rec
        design, report = res
        out = self.attempt("compare", lambda: _timed(lambda: self._compare(design, report, seed)))
        if out is None:
            return rec
        (mres, chain_records, cl2_design, cl2_chain), rec["compare_s"] = out
        rec["cl2_truth"], rec["cl2_chain"] = cl2_design, cl2_chain
        problems = checks.check_equal("metropolis evaluations", mres.evaluations, report.budget)
        problems += checks.check_equal("metropolis ledger records", chain_records, report.budget)
        problems += checks.check_finite(cl2_truth=cl2_design, cl2_chain=cl2_chain)
        if self.op("compare", problems):
            rec["iteration_s"] = rec["design_s"] + rec["compare_s"]
        return rec

    def _compare(self, design, report, seed: int):
        ledger = EvaluationLedger()
        spec = ChainSpec(start=np.full(self.P, 0.5), length=1, seed=seed)
        mres = medsampler.adaptive_metropolis(self.model, spec, ledger, eval_budget=report.budget)
        cl2_design = medsampler.cl2_discrepancy(self.truth(design.points))
        cl2_chain = medsampler.cl2_discrepancy(self.truth(mres.chain))
        return mres, ledger.count, cl2_design, cl2_chain


class ExternalBanana(RunWorkload):
    """Banana through two external evaluator processes (5 ms per call)."""

    name = "external-banana"
    digest_key = "banana-warmup-K2"

    def setup(self) -> None:
        box = make_banana().box
        self.model = make_external(
            [sys.executable, str(HERE / "banana_eval.py")],
            timeout=30.0,
            max_concurrency=2,
            p=2,
            box=box,
        )
        self.truth = banana_truth(box)
        self.designs: list[tuple[int, int | None, np.ndarray]] = []

    def warm_up(self) -> None:
        self.digest = self.iteration(0, K=2).get("digest", "")

    def iteration(self, seed: int, K: int | None = None) -> dict:
        rec: dict = {"seed": seed}
        res = self.run_design(seed, rec, K)
        if res is None:
            return rec
        design, _ = res
        self.designs.append((seed, K, design.points))
        cl2, cl2_s = _timed(lambda: medsampler.cl2_discrepancy(self.truth(design.points)))
        rec["cl2_truth"] = cl2
        if self.op("truth", checks.check_finite(cl2_truth=cl2)):
            rec["iteration_s"] = rec["design_s"] + cl2_s
        return rec

    def finish(self) -> None:
        """Each external design must equal the builtin banana design bit for bit."""
        builtin = make_banana()
        refs: dict[tuple, np.ndarray] = {}
        for seed, K, points in self.designs:
            if (seed, K) not in refs:
                config = RunConfig(seed=seed, K=K)
                ref = self.attempt("identical", lambda: medsampler.engine.run(builtin, config))
                if ref is None:
                    continue
                refs[seed, K] = ref[0].points
            self.op("identical", checks.check_identical_designs(points, refs[seed, K]))

    def close(self) -> None:
        if self.model is not None:
            self.model.close()


WORKLOADS = {w.name: w for w in (BananaCli, Ar1P10, ExternalBanana)}


def machine_note() -> dict:
    """CPU, cores, library versions and the BLAS thread setting of this process."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    blas = {}
    for mod in (np, scipy):
        try:
            cfg = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas[mod.__name__] = f"{cfg.get('name')} {cfg.get('version')}"
        except (TypeError, KeyError, AttributeError):
            blas[mod.__name__] = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def _accounting(tracer: Tracer, rec: dict) -> tuple[dict, list[str]]:
    """Per-layer self times under the design call, and whether they sum to design_s."""
    split = tracer.layer_self_times(rec["design_root"])
    total = sum(split.values())
    if abs(total - rec["design_s"]) > ACCOUNTING_TOLERANCE * rec["design_s"] + 0.002:
        design_s = rec["design_s"]
        return split, [f"layer self times sum to {total:.4f} s, design_s is {design_s:.4f} s"]
    return split, []


def timed_loop(seconds: float, step) -> tuple[int, float]:
    """Call ``step(i)`` for i = 0, 1, ... while one more call of the median
    length so far still ends within ``seconds``; always at least once.

    Returns the number of calls and the seconds they took.  No iteration is
    started that is expected to overrun, so a run measures about ``seconds``
    and an ar1-p10 iteration longer than half the run is not followed by a
    second one: every run's length stays bounded.
    """
    durations: list[float] = []
    t_start = time.perf_counter()
    while not durations or (
        time.perf_counter() - t_start + statistics.median(durations) <= seconds
    ):
        t0 = time.perf_counter()
        step(len(durations))
        durations.append(time.perf_counter() - t0)
    return len(durations), time.perf_counter() - t_start


def traced_loop(wl: Workload, seed: int, seconds: float) -> dict:
    """Pairs of untraced and traced iterations on the same design seeds."""
    tracer = Tracer()
    plain, traced = [], []

    def pair(i: int) -> None:
        s = design_seed(seed, i)
        plain.append(wl.iteration(s))
        wl.tracer = tracer
        tracer.iteration = i
        restore = install(tracer)
        try:
            traced.append(wl.iteration(s))
        finally:
            restore()
            wl.tracer = None

    i, _ = timed_loop(seconds, pair)
    splits = []
    for rec in traced:
        if "design_s" in rec:
            split, problems = _accounting(tracer, rec)
            wl.op("trace-accounting", problems)
            splits.append(split)
    out_path = wl.workdir / f"spans-{wl.name}-seed{seed}.jsonl"
    tracer.write(str(out_path))
    layers = layer_metrics(tracer, list(range(i)))
    plain_s = _median(plain, "design_s")
    traced_s = _median(traced, "design_s")
    layers["tracing.overhead_s"] = traced_s - plain_s
    layers["tracing.overhead_frac"] = (traced_s - plain_s) / plain_s if plain_s else 0.0
    layer_names = sorted({k for s in splits for k in s})
    split = {k: statistics.fmean(s.get(k, 0.0) for s in splits) for k in layer_names}
    return {
        "iterations": traced,
        "plain_iterations": plain,
        "layers": layers,
        "design_split_s": split,
        "spans_file": str(out_path.relative_to(HERE.parent)),
        "span_count": len(tracer.spans),
    }


def _median(records: list[dict], key: str) -> float:
    values = [r[key] for r in records if key in r]
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload](Path(args.workdir))
    result: dict = {"workload": wl.name}
    try:
        wl.setup()
        wl.warm_up()
        print("@@ready", flush=True)
        result["warmup_digest"] = wl.digest
        result["digest_key"] = wl.digest_key
        if not args.setup_only:
            if args.trace:
                result.update(traced_loop(wl, args.seed, args.seconds))
            else:
                records = []
                _, result["loop_s"] = timed_loop(
                    args.seconds, lambda i: records.append(wl.iteration(design_seed(args.seed, i)))
                )
                result["iterations"] = records
            wl.finish()
    finally:
        wl.close()
    result["machine"] = machine_note()
    result["attempted"] = wl.attempted
    result["failures"] = wl.failures
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("@@result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
