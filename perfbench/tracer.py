"""Span tracing of medsampler from outside the package.

Every traced call site is a module attribute that the caller looks up at call
time (``medsampler.engine.log_dist_block``, ``medsampler.cli.run``, ...).
``from .x import y`` copies a binding into the importing module, so a function
is wrapped in each namespace its callers read it from, never only where it is
defined.  ``install`` swaps the wrappers in and returns a function that puts
the original bindings back.

Spans are kept in memory as ``Span`` objects: name, start, end, parent index,
iteration id and a small dict of counts taken from the call's arguments and
result.  A span's self time is its duration minus the durations of its direct
children; only the calling thread opens spans, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
from medsampler.surrogate import JITTER_START


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    iteration: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; ``wrap`` turns a function into a traced one."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.iteration = -1

    def wrap(self, name: str, fn, measure=None):
        """Traced version of ``fn``; ``measure(args, kwargs, result)`` gives counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.iteration)
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.end = self.clock()
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                self.stack.pop()
            span.end = self.clock()
            if measure is not None:
                span.attrs.update(measure(args, kwargs, result))
            return result

        return traced

    def self_times(self) -> list[float]:
        """Duration minus direct children, per span, in span order."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out

    def ancestors(self, idx: int):
        parent = self.spans[idx].parent
        while parent >= 0:
            yield self.spans[parent]
            parent = self.spans[parent].parent

    def phase(self, idx: int) -> str:
        """Which engine pass, or the follow-up, a span ran under."""
        for anc in self.ancestors(idx):
            if anc.name == "engine.pass1":
                return "pass1"
            if anc.name == "engine.pass2":
                return "pass2"
            if anc.name == "baselines.followup_mcmc":
                return "followup"
        return "other"

    def layer_self_times(self, root: int) -> dict[str, float]:
        """Self time per layer over ``root`` and every span below it.

        Spans are opened by one thread, so the subtree is the run of spans
        after ``root`` that started before it ended.
        """
        selfs = self.self_times()
        end = self.spans[root].end
        out: dict[str, float] = {}
        i = root
        while i < len(self.spans) and (i == root or self.spans[i].start < end):
            layer = self.spans[i].name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + selfs[i]
            i += 1
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "iteration": s.iteration,
                            "attrs": s.attrs,
                        }
                    )
                    + "\n"
                )


def _shape_counts(args, kwargs, result):
    a, b = args[0], args[1]
    return {"m": a.shape[0], "j": b.shape[0], "p": a.shape[1]}


def _pass1_counts(args, kwargs, result):
    return {"n": len(args[0])}


def _pool_counts(args, kwargs, result):
    return {"points": len(result)}


def _fit_counts(args, kwargs, result):
    start = kwargs.get("jitter_start", args[3] if len(args) > 3 else JITTER_START)
    return {
        "train_points": len(result.x_train),
        "jitter_escalations": round(math.log10(result.jitter / start)),
    }


def _predict_counts(args, kwargs, result):
    x = args[1]
    return {"points": 1 if getattr(x, "ndim", 1) == 1 else len(x)}


def _run_counts(args, kwargs, result):
    design, report = result
    return {
        "n": len(design),
        "records": report.ledger.count,
        "duration_ms": [r.duration_ms for r in report.ledger.records],
    }


def _followup_counts(args, kwargs, result):
    return {"states": len(result.samples)}


def _metropolis_counts(args, kwargs, result):
    return {"evals": result.evaluations}


def _cl2_counts(args, kwargs, result):
    pts = args[0]
    n, p = (len(pts), len(pts[0])) if len(pts) else (0, 0)
    return {"points": n, "bytes_computed": n * n * p * 8}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(args[1].encode())}


def _wrap_eval_batch(tracer: Tracer, fn):
    """eval_batch plus the request order, the ledger slice it appended and workers."""

    def measured(model, points, ledger):
        before = ledger.count
        t0 = time.perf_counter()
        out = fn(model, points, ledger)
        wall = time.perf_counter() - t0
        added = ledger.records[before:]
        units = np.clip(np.atleast_2d(np.asarray(points, dtype=float)), 0.0, 1.0)
        out_of_order = sum(
            1 for i, rec in enumerate(added) if not np.array_equal(rec.x, units[i])
        )
        workers = 1
        if model.kind != "builtin" and model.pool is not None:
            workers = len(model.pool.workers)
        tracer.spans[tracer.stack[-1]].attrs.update(
            {
                "points": len(units),
                "out_of_order": out_of_order,
                "busy_ms": sum(r.duration_ms for r in added),
                "wall_s": wall,
                "workers": workers,
            }
        )
        return out

    return measured


# (module, attribute, span name, counts taken from the call) per traced call site
CALL_SITES = [
    # the benchmark's own calls go through the package namespace
    ("medsampler", "run", "engine.run", _run_counts),
    ("medsampler", "adaptive_metropolis", "baselines.adaptive_metropolis", _metropolis_counts),
    ("medsampler", "cl2_discrepancy", "diagnostics.cl2", _cl2_counts),
    # engine internals
    ("medsampler.engine", "propose_new_points", "engine.pass1", _pass1_counts),
    ("medsampler.engine", "greedy_select", "engine.pass2", None),
    ("medsampler.engine", "log_dist_block", "geometry.log_dist_block", _shape_counts),
    ("medsampler.engine", "psi_log", "geometry.psi_log", None),
    ("medsampler.engine", "local_candidates", "qmc.local_candidates", _pool_counts),
    ("medsampler.engine", "cbc_lattice", "qmc.cbc_lattice", None),
    ("medsampler.engine", "default_theta", "surrogate.default_theta", None),
    ("medsampler.engine", "fit", "surrogate.fit", _fit_counts),
    ("medsampler.engine", "predict", "surrogate.predict", _predict_counts),
    ("medsampler.engine", "theta_sensitivity", "surrogate.theta_sensitivity", None),
    ("medsampler.engine", "eval_logf", "density.eval_logf", None),
    ("medsampler.engine", "eval_batch", "density.eval_batch", None),
    # follow-up sampler
    ("medsampler.baselines", "predict", "surrogate.predict", _predict_counts),
    # diagnostics report computes its own CL2
    ("medsampler.diagnostics", "cl2_discrepancy", "diagnostics.cl2", _cl2_counts),
    # command line
    ("medsampler.cli", "main", "cli.main", None),
    ("medsampler.cli", "run", "engine.run", _run_counts),
    ("medsampler.cli", "followup_mcmc", "baselines.followup_mcmc", _followup_counts),
    ("medsampler.cli", "default_theta", "surrogate.default_theta", None),
    ("medsampler.cli", "fit", "surrogate.fit", _fit_counts),
    ("medsampler.cli", "predict", "surrogate.predict", _predict_counts),
    ("medsampler.cli", "cl2_discrepancy", "diagnostics.cl2", _cl2_counts),
    ("medsampler.cli", "diagnostics_report", "diagnostics.report", None),
    ("medsampler.cli", "write_design", "fileio.write", _file_bytes),
    ("medsampler.cli", "write_ledger", "fileio.write", _file_bytes),
    ("medsampler.cli", "write_json", "fileio.write", _file_bytes),
    ("medsampler.cli", "write_samples", "fileio.write", _file_bytes),
    ("medsampler.cli", "atomic_write_text", "fileio.write", _text_bytes),
    ("medsampler.cli", "read_design", "fileio.read", None),
    ("medsampler.cli", "read_ledger", "fileio.read", None),
    ("medsampler.cli", "ledger_digest", "fileio.ledger_digest", None),
    ("medsampler.cli", "point_stages", "fileio.point_stages", None),
]


def install(tracer: Tracer):
    """Wrap every call site; returns a function restoring the original bindings."""
    saved = []
    for module_name, attr, span_name, measure in CALL_SITES:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        fn = _wrap_eval_batch(tracer, original) if attr == "eval_batch" else original
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(span_name, fn, measure))

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return restore


# Sums reported per iteration even when no span contributed to them.
LAYER_COUNTS = (
    "engine.pass1.self_s",
    "engine.pass2_s",
    "engine.stage.self_s",
    "engine.select.pairs_scored",
    "geometry.log_dist_block.pass1_s",
    "geometry.log_dist_block.pass2_s",
    "geometry.log_dist_block.calls",
    "geometry.log_dist_block.pair_dims",
    "geometry.log_dist_block.bytes_computed",
    "geometry.psi_log_s",
    "qmc.local_candidates_s",
    "qmc.points",
    "qmc.failed",
    "qmc.cbc_lattice_s",
    "surrogate.fit.pass1_s",
    "surrogate.fit.calls",
    "surrogate.fit.train_points",
    "surrogate.fit.jitter_escalations",
    "surrogate.fit.other_s",
    "surrogate.default_theta_s",
    "surrogate.predict.pass1_s",
    "surrogate.predict.followup_s",
    "surrogate.predict.calls",
    "surrogate.predict.points",
    "surrogate.predict.other_s",
    "density.calls",
    "density.eval_s",
    "density.failed",
    "density.ledger_out_of_order",
    "baselines.followup_mcmc.self_s",
    "baselines.followup_mcmc.states",
    "baselines.adaptive_metropolis_s",
    "baselines.adaptive_metropolis.evals",
    "diagnostics.cl2_s",
    "diagnostics.cl2.points",
    "diagnostics.cl2.bytes_computed",
    "diagnostics.report_s",
    "fileio.write_s",
    "fileio.read_s",
    "fileio.ledger_digest_s",
    "fileio.point_stages_s",
    "fileio.bytes_written",
    "cli.self_s",
)


def layer_metrics(tracer: Tracer, iterations: list[int]) -> dict[str, float]:
    """Per-layer metrics as means per measured iteration.

    Times are seconds, counts are per iteration; ``iterations`` selects the
    measured iterations (the warm-up is left out).
    """
    keep = set(iterations)
    count = max(len(keep), 1)
    selfs = tracer.self_times()
    acc = dict.fromkeys(LAYER_COUNTS, 0.0)
    call_ms: list[float] = []
    pass1_pool_pairs = 0.0

    def add(key: str, value: float) -> None:
        acc[key] = acc.get(key, 0.0) + value

    pass1_n = pass1_j = 0
    for i, s in enumerate(tracer.spans):
        if s.iteration not in keep:
            continue
        name, dur, a = s.name, s.duration, s.attrs
        phase = tracer.phase(i)
        if name == "engine.run":
            add("engine.stage.self_s", selfs[i])
            call_ms.extend(a.get("duration_ms", []))
        elif name == "engine.pass1":
            add("engine.pass1.self_s", selfs[i])
            pass1_n, pass1_j = a["n"], 0
        elif name == "engine.pass2":
            add("engine.pass2_s", dur)
        elif name == "geometry.log_dist_block":
            if phase in ("pass1", "pass2"):
                add(f"geometry.log_dist_block.{phase}_s", dur)
                add("geometry.log_dist_block.calls", 1)
                pair_dims = a["m"] * a["j"] * a["p"]
                add("geometry.log_dist_block.pair_dims", pair_dims)
                add("geometry.log_dist_block.bytes_computed", 8 * pair_dims)
                if phase == "pass1":
                    add("engine.select.pairs_scored", a["m"] * a["j"])
        elif name == "geometry.psi_log":
            add("geometry.psi_log_s", dur)
        elif name == "qmc.local_candidates":
            add("qmc.local_candidates_s", dur)
            if "error" in a:
                add("qmc.failed", 1)
            else:
                add("qmc.points", a["points"])
                if phase == "pass1":
                    pass1_pool_pairs += a["points"] * (pass1_n + pass1_j)
                    pass1_j += 1
        elif name == "qmc.cbc_lattice":
            add("qmc.cbc_lattice_s", dur)
        elif name == "surrogate.default_theta":
            add("surrogate.default_theta_s", dur)
        elif name == "surrogate.fit":
            if phase == "pass1":
                add("surrogate.fit.pass1_s", dur)
                add("surrogate.fit.calls", 1)
                add("surrogate.fit.train_points", a.get("train_points", 0))
            else:
                add("surrogate.fit.other_s", dur)
            add("surrogate.fit.jitter_escalations", a.get("jitter_escalations", 0))
        elif name == "surrogate.predict":
            if phase == "pass1":
                add("surrogate.predict.pass1_s", dur)
            elif phase == "followup":
                add("surrogate.predict.followup_s", dur)
                add("surrogate.predict.calls", 1)
                add("surrogate.predict.points", a.get("points", 0))
            else:
                add("surrogate.predict.other_s", dur)
        elif name in ("density.eval_logf", "density.eval_batch"):
            add("density.eval_s", dur)
            add("density.calls", a.get("points", 1))
            if "error" in a:
                add("density.failed", 1)
            if name == "density.eval_batch":
                add("density.ledger_out_of_order", a.get("out_of_order", 0))
                add("_batch_busy_ms", a.get("busy_ms", 0.0))
                add("_batch_capacity_ms", 1e3 * a.get("wall_s", 0.0) * a.get("workers", 1))
        elif name == "baselines.followup_mcmc":
            add("baselines.followup_mcmc.self_s", selfs[i])
            add("baselines.followup_mcmc.states", a.get("states", 0))
        elif name == "baselines.adaptive_metropolis":
            add("baselines.adaptive_metropolis_s", dur)
            add("baselines.adaptive_metropolis.evals", a.get("evals", 0))
        elif name == "diagnostics.cl2":
            add("diagnostics.cl2_s", dur)
            add("diagnostics.cl2.points", a.get("points", 0))
            add("diagnostics.cl2.bytes_computed", a.get("bytes_computed", 0))
        elif name == "diagnostics.report":
            add("diagnostics.report_s", dur)
        elif name == "fileio.write":
            add("fileio.write_s", dur)
            add("fileio.bytes_written", a.get("bytes", 0))
        elif name == "fileio.read":
            add("fileio.read_s", dur)
        elif name == "fileio.ledger_digest":
            add("fileio.ledger_digest_s", dur)
        elif name == "fileio.point_stages":
            add("fileio.point_stages_s", dur)
        elif name == "cli.main":
            add("cli.self_s", selfs[i])

    out = {k: v / count for k, v in acc.items() if not k.startswith("_")}
    pairs = acc["engine.select.pairs_scored"]
    out["engine.select.pair_fraction"] = pairs / pass1_pool_pairs if pass1_pool_pairs else 0.0
    pair_dims = acc["geometry.log_dist_block.pair_dims"]
    kernel_s = acc["geometry.log_dist_block.pass1_s"] + acc["geometry.log_dist_block.pass2_s"]
    ns = 1e9 * kernel_s / pair_dims if pair_dims else 0.0
    out["geometry.log_dist_block.ns_per_pair_dim"] = ns
    deciles = statistics.quantiles(call_ms, n=10, method="inclusive") if len(call_ms) > 1 else [0.0]
    out["density.call_ms.p50"] = statistics.median(call_ms) if call_ms else 0.0
    out["density.call_ms.p90"] = deciles[-1]
    capacity = acc.get("_batch_capacity_ms", 0.0)
    out["density.batch_efficiency"] = acc.get("_batch_busy_ms", 0.0) / capacity if capacity else 0.0
    return out

