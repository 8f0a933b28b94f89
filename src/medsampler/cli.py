"""Command-line front end: generate, diagnose, followup, bench.

Exit codes: 0 success, 2 bad usage or configuration, 3 runtime failure.
All output files are bit-stable for a fixed config and seed; wall-clock
timings go to manifest.json only, never to report.json.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import ChainSpec, adaptive_metropolis, followup_mcmc
from .density import (
    DensityModel,
    EvaluationLedger,
    make_ar1_normal,
    make_banana,
    make_external,
    make_piecewise_prior,
    make_product_prior,
    make_uniform,
)
from .diagnostics import cl2_discrepancy, diagnostics_report
from .engine import Design, RunConfig, RunReport, run
from .errors import ConfigError, FileFormatError, MedError
from .fileio import (
    atomic_write_text,
    fmt,
    ledger_digest,
    point_stages,
    read_design,
    read_ledger,
    write_design,
    write_json,
    write_ledger,
    write_samples,
)
from .qmc import hammersley
# perfbench/tracer.py wraps cli.default_theta and cli.predict; keep them importable.
from .surrogate import default_theta, fit, predict  # noqa: F401

BUILTIN_DENSITIES = ("banana", "uniform", "ar1", "prior", "external")


def _parse_box(text: str, p: int) -> np.ndarray:
    pairs = [part for part in text.split(";") if part.strip()]
    if len(pairs) != p:
        raise ConfigError(f"--box needs {p} lo,hi pairs separated by ';', got {len(pairs)}")
    box = np.empty((p, 2))
    for l, pair in enumerate(pairs):
        fields = pair.split(",")
        if len(fields) != 2:
            raise ConfigError(f"--box entry {l + 1} must be 'lo,hi', got {pair!r}")
        box[l] = [float(fields[0]), float(fields[1])]
    return box


def _parse_prior(text: str):
    factors = []
    for part in text.split(";"):
        if not part.strip():
            continue
        fields = part.split(",")
        if len(fields) != 4:
            raise ConfigError(
                f"--prior factors are 'a,b,rate_lo,rate_hi' quadruples, got {part!r}"
            )
        a, b, la, lb = (float(f) for f in fields)
        factors.append(make_piecewise_prior(a, b, la, lb))
    if not factors:
        raise ConfigError("--prior is empty")
    return factors


def _build_density(args) -> DensityModel:
    name = args.density
    if name is None:
        raise ConfigError("--density is required")
    if name == "banana":
        return make_banana()
    if name == "uniform":
        if args.p is None:
            raise ConfigError("--density uniform needs --p")
        return make_uniform(args.p)
    if name == "ar1":
        if args.p is None or args.rho is None or args.sigma is None:
            raise ConfigError("--density ar1 needs --p, --rho and --sigma")
        return make_ar1_normal(args.p, args.rho, args.sigma)
    if name == "prior":
        if args.prior is None:
            raise ConfigError("--density prior needs --prior factor quadruples")
        factors = _parse_prior(args.prior)
        box = _parse_box(args.box, len(factors)) if args.box else None
        return make_product_prior(factors, box=box)
    if name == "external":
        if args.cmd is None or args.p is None:
            raise ConfigError("--density external needs --cmd and --p")
        threads = args.threads
        if threads is None:
            raw = os.environ.get("MED_THREADS", "1")
            try:
                threads = int(raw)
            except ValueError:
                raise ConfigError(f"MED_THREADS must be an integer, got {raw!r}") from None
        box = _parse_box(args.box, args.p) if args.box else None
        return make_external(args.cmd, timeout=args.timeout, max_concurrency=threads, p=args.p, box=box)
    raise ConfigError(f"unknown density {name!r}")


def _density_echo(args, model: DensityModel) -> dict:
    echo = {"name": args.density, "p": model.p}
    if args.density == "ar1":
        echo["rho"] = args.rho
        echo["sigma"] = args.sigma
    if args.density == "prior":
        echo["prior"] = args.prior
    if args.density == "external":
        echo["cmd"] = args.cmd
        echo["timeout"] = args.timeout
    if args.box:
        echo["box"] = args.box
    return echo


def _load_config_file(path: str) -> dict:
    import json

    try:
        obj = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config file must hold a JSON object")
    return obj


def _merge_config(args, sub_argv: list[str]) -> None:
    """Fill every flag not given in ``sub_argv`` from the JSON config file.

    A flag on the command line wins, even when it repeats its default.  Each
    non-null value is read as if it were the flag's text: ``str(value)`` goes
    through the flag's type and then its choices.
    """
    file_cfg = _load_config_file(args.config)
    flags = {a.dest: a for a in args.parser._actions if hasattr(args, a.dest)}
    # argparse sets no default on a name the namespace already holds, so only
    # the flags on the command line replace the marker
    unset = object()
    given = args.parser.parse_args(sub_argv, argparse.Namespace(**dict.fromkeys(flags, unset)))
    for key, value in file_cfg.items():
        flag = flags.get(key.replace("-", "_"))
        if flag is None:
            raise ConfigError(f"config file key {key!r} does not match any flag")
        if value is None or getattr(given, flag.dest) is not unset:
            continue
        try:
            parsed = str(value) if flag.type is None else flag.type(str(value))
        except ValueError as exc:
            raise ConfigError(f"config file key {key!r}: {exc}") from exc
        if flag.choices is not None and parsed not in flag.choices:
            raise ConfigError(
                f"config file key {key!r} must be one of {list(flag.choices)}, got {value!r}"
            )
        setattr(args, flag.dest, parsed)


def _run_config(args) -> RunConfig:
    names = ("seed", "n", "K", "m", "theta", "s_mode", "s_value", "s_quantile", "whitening")
    given = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    if "whitening" in given:
        given["whitening"] = given["whitening"] == "on"
    return RunConfig(**given)


def _report_dict(report: RunReport) -> dict:
    """report.json content: everything deterministic, nothing timed."""
    return {
        "model": report.model_name,
        "p": report.p,
        "n": report.n,
        "K": report.K,
        "seed": report.seed,
        "budget": report.budget,
        "evaluations": report.ledger.count,
        "config": report.config,
        "gammas": report.gammas,
        "stages": [
            {
                "stage": st.stage,
                "gamma": st.gamma,
                "s": st.s,
                "sigma_cond": st.sigma_cond,
                "psi_log": st.psi_log,
                "psi_tilde_log": st.psi_tilde_log,
            }
            for st in report.stages
        ],
        "theta_sensitivity": report.theta_sensitivity,
        "notes": report.notes,
    }


def _utcnow() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def cmd_generate(args) -> int:
    out = Path(args.out)
    model = _build_density(args)
    config = _run_config(args)
    started = _utcnow()
    with model:
        design, report = run(model, config)
    finished = _utcnow()

    out.mkdir(parents=True, exist_ok=True)
    stages = point_stages(design.points, report.ledger)
    write_design(out / "design.csv", design.points, design.logf, stages)
    write_ledger(out / "ledger.csv", report.ledger)
    write_json(out / "report.json", _report_dict(report))
    write_json(
        out / "manifest.json",
        {
            "version": __version__,
            "seed": report.seed,
            "config": {"density": _density_echo(args, model), "run": report.config},
            "started": started,
            "finished": finished,
            "total_seconds": report.total_seconds,
            "stage_seconds": [st.seconds for st in report.stages],
            "ledger_digest": ledger_digest(report.ledger),
        },
    )
    print(f"n={report.n} K={report.K} evaluations={report.budget} -> {out}")
    return 0


def _require_truth(args, model: DensityModel) -> None:
    """A truth comparison needs the density's truth map; without one it is a usage error."""
    if model.truth_transform is None:
        raise ConfigError(f"no closed truth for density {args.density!r}")


def _ks_uniform(u: np.ndarray) -> float:
    """Kolmogorov distance of each column to Uniform(0,1); worst dimension."""
    n = len(u)
    worst = 0.0
    for l in range(u.shape[1]):
        s = np.sort(u[:, l])
        grid = np.arange(1, n + 1) / n
        worst = max(worst, float(np.max(np.maximum(grid - s, s - (grid - 1.0 / n)))))
    return worst


def cmd_diagnose(args) -> int:
    df = read_design(args.design)
    design = Design(
        points=df.points,
        logf=df.logf,
        stage=int(df.stages.max()),
        gamma=1.0,
    )
    report = diagnostics_report(design, bins=args.bins)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = report.to_dict()

    truth_rows = None
    if args.truth:
        with _build_density(args) as model:
            _require_truth(args, model)
            if model.p != df.points.shape[1]:
                raise ConfigError(
                    f"design has {df.points.shape[1]} dimensions, density has {model.p}"
                )
            truth_rows = model.truth_transform(df.points)
        payload["truth"] = {
            "cl2_transformed": cl2_discrepancy(truth_rows),
            "marginal_max_error": _ks_uniform(truth_rows),
        }

    write_json(out / "report.json", payload)

    lines = ["dim,bin,lo,hi,mass"]
    for marg in report.marginals:
        for b in range(len(marg.masses)):
            lines.append(
                ",".join(
                    [
                        str(marg.dim),
                        str(b),
                        fmt(marg.bin_edges[b]),
                        fmt(marg.bin_edges[b + 1]),
                        fmt(marg.masses[b]),
                    ]
                )
            )
    atomic_write_text(out / "marginals.csv", "\n".join(lines) + "\n")

    lines = ["dim_i,dim_j,r"]
    p = len(report.marginals)
    for i in range(p):
        for j in range(p):
            lines.append(f"{i},{j},{fmt(report.correlation[i][j])}")
    atomic_write_text(out / "correlation.csv", "\n".join(lines) + "\n")

    if truth_rows is not None:
        lines = ["dim,point,u"]
        for l in range(truth_rows.shape[1]):
            for i in range(truth_rows.shape[0]):
                lines.append(f"{l},{i},{fmt(truth_rows[i, l])}")
        atomic_write_text(out / "truth_transform.csv", "\n".join(lines) + "\n")

    print(f"diagnostics for {len(df.points)} points -> {out}")
    return 0


def cmd_followup(args) -> int:
    run_dir = Path(args.run)
    design_path = run_dir / "design.csv"
    ledger_path = run_dir / "ledger.csv"
    if not ledger_path.exists():
        raise FileFormatError(f"no ledger at {ledger_path}; run generate first")
    df = read_design(design_path)
    ledger = read_ledger(ledger_path)
    digest_before = ledger_digest(ledger)

    manifest_path = run_dir / "manifest.json"
    if manifest_path.exists():
        import json

        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, ValueError) as exc:
            raise FileFormatError(f"cannot read {manifest_path} as JSON: {exc}") from exc
        if not isinstance(manifest, dict):
            raise FileFormatError(f"{manifest_path} must hold a JSON object")
        recorded = manifest.get("ledger_digest")
        if recorded is not None and recorded != digest_before:
            raise FileFormatError("ledger.csv does not match the digest in manifest.json")

    x = ledger.points()
    y = ledger.logf_values()
    surrogate = fit(x, y)
    design = Design(points=df.points, logf=df.logf, stage=int(df.stages.max()), gamma=1.0)
    result = followup_mcmc(design, surrogate, N=args.N, seed=args.seed)

    out_path = Path(args.out) if args.out else run_dir / "samples.csv"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_samples(out_path, result.samples, result.logf, result.chain_ids)

    if ledger_digest(read_ledger(ledger_path)) != digest_before:
        raise MedError("ledger changed during follow-up; zero-evaluation contract broken")
    print(f"{len(result.samples)} samples from {len(result.lengths)} chains -> {out_path}")
    return 0


def _bench_one(args, model: DensityModel, seeds: list[int]) -> dict:
    entry = {
        "density": args.density,
        "p": model.p,
        "med": {"cl2": [], "marginal_error": [], "evaluations": []},
        "metropolis": {"cl2": [], "marginal_error": [], "evaluations": [], "accept_rate": []},
        "hammersley": {},
    }
    for seed in seeds:
        config = _run_config(args)
        config.seed = seed
        design, report = run(model, config)
        entry["n"], entry["K"], entry["budget"] = report.n, report.K, report.budget
        u = model.truth_transform(design.points)
        entry["med"]["cl2"].append(cl2_discrepancy(u))
        entry["med"]["marginal_error"].append(_ks_uniform(u))
        entry["med"]["evaluations"].append(report.budget)

        chain_ledger = EvaluationLedger()
        spec = ChainSpec(start=np.full(model.p, 0.5), length=1, seed=seed)
        mres = adaptive_metropolis(model, spec, chain_ledger, eval_budget=report.budget)
        u = model.truth_transform(mres.chain)
        entry["metropolis"]["cl2"].append(cl2_discrepancy(u))
        entry["metropolis"]["marginal_error"].append(_ks_uniform(u))
        entry["metropolis"]["evaluations"].append(mres.evaluations)
        entry["metropolis"]["accept_rate"].append(mres.accept_rate)

    u = model.truth_transform(hammersley(entry["budget"], model.p))
    entry["hammersley"] = {
        "cl2": [cl2_discrepancy(u)],
        "marginal_error": [_ks_uniform(u)],
        "evaluations": [0],
    }
    return entry


def cmd_bench(args) -> int:
    seeds = list(range(args.seeds))
    ps = [int(v) for v in args.sweep.split(",") if v.strip()] if args.sweep else [args.p]
    with contextlib.ExitStack() as stack:
        models = []
        # every model is built and checked before the first run starts
        for p in ps:
            args.p = p
            model = stack.enter_context(_build_density(args))
            _require_truth(args, model)
            if args.sweep and model.p != p:
                raise ConfigError(f"--sweep varies p, but {args.density} has dimension {model.p}")
            models.append(model)
        entries = [_bench_one(args, model, seeds) for model in models]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = {"seeds": seeds, "sweep": entries} if args.sweep else {"seeds": seeds, **entries[0]}
    write_json(out / "comparison.json", payload)
    print(f"benchmark -> {out / 'comparison.json'}")
    return 0


def _add_density_flags(sub) -> None:
    sub.add_argument("--density", choices=BUILTIN_DENSITIES, required=False)
    sub.add_argument("--p", type=int)
    sub.add_argument("--rho", type=float)
    sub.add_argument("--sigma", type=float)
    sub.add_argument("--prior", help="factor quadruples a,b,rate_lo,rate_hi joined by ';'")
    sub.add_argument("--cmd", help="external evaluator command line")
    sub.add_argument("--timeout", type=float, default=30.0)
    sub.add_argument("--threads", type=int, help="external evaluator concurrency (MED_THREADS)")
    sub.add_argument("--box", help="original-scale bounds lo,hi per dimension joined by ';'")


def _add_run_flags(sub) -> None:
    sub.add_argument("--n", type=int)
    sub.add_argument("--K", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--m", type=int, help="candidate pool size per selected point")
    sub.add_argument("--theta", type=float)
    sub.add_argument("--s-mode", choices=("fixed", "adaptive"), dest="s_mode")
    sub.add_argument("--s-value", type=float, dest="s_value")
    sub.add_argument("--s-quantile", type=float, dest="s_quantile")
    sub.add_argument("--whitening", choices=("on", "off"))
    sub.add_argument("--config", help="JSON file mirroring the flags; flags win")
    sub.set_defaults(parser=sub)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medsampler",
        description="deterministic space-filling sampling of expensive densities",
    )
    parser.add_argument("--version", action="version", version=f"medsampler {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("generate", help="run the sampler and write a run directory")
    _add_density_flags(gen)
    _add_run_flags(gen)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    diag = subs.add_parser("diagnose", help="summarize an existing design file")
    diag.add_argument("--design", required=True)
    diag.add_argument("--out", required=True)
    diag.add_argument("--bins", type=int)
    diag.add_argument("--truth", action="store_true", help="add truth comparisons (builtins)")
    _add_density_flags(diag)
    diag.set_defaults(func=cmd_diagnose)

    fol = subs.add_parser("followup", help="surrogate MCMC over a finished run")
    fol.add_argument("--run", required=True, help="run directory from generate")
    fol.add_argument("--N", type=int, required=True, help="total pooled sample budget")
    fol.add_argument("--seed", type=int, default=0)
    fol.add_argument("--out", help="samples path (default RUN/samples.csv)")
    fol.set_defaults(func=cmd_followup)

    ben = subs.add_parser("bench", help="compare against Metropolis and Hammersley")
    _add_density_flags(ben)
    _add_run_flags(ben)
    ben.add_argument("--out", required=True)
    ben.add_argument("--seeds", type=int, default=1, help="number of seeds, 0..count-1")
    ben.add_argument(
        "--sweep",
        help="comma list of p values, one comparison each; the density must "
        "take its dimension from --p (ar1, uniform)",
    )
    ben.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "config", None) is not None:
            # argv[0] is the subcommand: the top-level parser has no other flag
            _merge_config(args, argv[1:])
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
