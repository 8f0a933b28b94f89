"""Command-line front end: generate, diagnose, followup, bench.

Exit codes: 0 success, 2 bad usage or configuration, 3 runtime failure.
All output files are bit-stable for a fixed config and seed; wall-clock
timings go to manifest.json only, never to report.json.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import os
import sys
from dataclasses import asdict
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
    csv_text,
    ledger_digest,
    point_stages,
    read_design,
    read_ledger,
    write_design,
    write_json,
    write_ledger,
    write_samples,
)
from .geometry import identity_spec, psi_log, spec_from_sigma
from .qmc import hammersley
# perfbench/tracer.py wraps cli.default_theta and cli.predict; keep them importable.
from .surrogate import default_theta, fit, predict  # noqa: F401

# Per density, the flags it is built from besides --density: those it needs, then
# those it may take.  Any other density flag is a usage error.  manifest.json
# echoes the needed flags with the model's p, and --box whenever it is given.
DENSITY_FLAGS = {
    "banana": ((), ()),
    "uniform": (("p",), ()),
    "ar1": (("p", "rho", "sigma"), ()),
    "prior": (("prior",), ("box",)),
    "external": (("cmd", "p", "timeout"), ("box", "threads")),
}
_ALL_DENSITY_FLAGS = tuple(
    dict.fromkeys(f for need, take in DENSITY_FLAGS.values() for f in need + take)
)
# external's --timeout when none is given; the flag has no argparse default, so
# that a --timeout given to another density is seen
EXTERNAL_TIMEOUT = 30.0


def _parse_groups(flag: str, text: str, names: tuple[str, ...], count: int | None = None):
    """``text`` as ';'-joined groups of ','-separated numbers, one per name in ``names``.

    Empty groups are skipped; ``count``, when given, is the number of groups
    required.  Any malformed group is a usage error naming ``flag``.
    """
    form = ",".join(names)
    groups = []
    for part in text.split(";"):
        if not part.strip():
            continue
        try:
            values = [float(f) for f in part.split(",")]
        except ValueError:
            values = []
        if len(values) != len(names):
            raise ConfigError(f"--{flag} takes '{form}' number groups joined by ';', got {part!r}")
        groups.append(values)
    if count is not None and len(groups) != count:
        raise ConfigError(f"--{flag} needs {count} '{form}' groups, got {len(groups)}")
    if not groups:
        raise ConfigError(f"--{flag} is empty")
    return groups


def _box(args, p: int) -> np.ndarray | None:
    return np.array(_parse_groups("box", args.box, ("lo", "hi"), p)) if args.box else None


def _build_density(args) -> DensityModel:
    name = args.density
    if name is None:
        raise ConfigError("--density is required")
    needed, optional = DENSITY_FLAGS[name]
    stray = [
        f"--{flag}"
        for flag in _ALL_DENSITY_FLAGS
        if flag not in needed + optional and getattr(args, flag) is not None
    ]
    if stray:
        raise ConfigError(f"--density {name} does not take {' or '.join(stray)}")
    if name == "external" and args.timeout is None:
        args.timeout = EXTERNAL_TIMEOUT
    missing = [f"--{flag}" for flag in needed if getattr(args, flag) is None]
    if missing:
        raise ConfigError(f"--density {name} needs {' and '.join(missing)}")
    if name == "banana":
        return make_banana()
    if name == "uniform":
        return make_uniform(args.p)
    if name == "ar1":
        return make_ar1_normal(args.p, args.rho, args.sigma)
    if name == "prior":
        quads = _parse_groups("prior", args.prior, ("a", "b", "rate_lo", "rate_hi"))
        factors = [make_piecewise_prior(*quad) for quad in quads]
        return make_product_prior(factors, box=_box(args, len(factors)))
    threads = args.threads
    if threads is None:
        raw = os.environ.get("MED_THREADS", "1")
        try:
            threads = int(raw)
        except ValueError:
            raise ConfigError(f"MED_THREADS must be an integer, got {raw!r}") from None
    return make_external(
        args.cmd, timeout=args.timeout, max_concurrency=threads, p=args.p, box=_box(args, args.p)
    )


def _density_echo(args, model: DensityModel) -> dict:
    echo = {flag: getattr(args, flag) for flag in DENSITY_FLAGS[args.density][0]}
    echo.update(name=args.density, p=model.p)
    if args.box:
        echo["box"] = args.box
    return echo


def _load_config_file(path: str) -> dict:
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
            {key: value for key, value in asdict(st).items() if key != "seconds"}
            for st in report.stages
        ],
        "notes": report.notes,
    }


def _utcnow() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def cmd_generate(args) -> int:
    out = Path(args.out)
    model = _build_density(args)
    config = _run_config(args)
    started = _utcnow()
    ledger = EvaluationLedger()
    with model:
        try:
            design, report = run(model, config, ledger)
        except BaseException:
            # a density failure or Ctrl-C keeps every evaluation made so far
            if ledger.count:
                out.mkdir(parents=True, exist_ok=True)
                write_ledger(out / "ledger.csv", ledger)
            raise
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
    s = np.sort(u, axis=0)
    grid = np.arange(1, n + 1)[:, None] / n
    return float(np.max(np.maximum(grid - s, s - (grid - 1.0 / n))))


def _tail_share(u: np.ndarray) -> float:
    """Share of coordinates below 0.01 or above 0.99; an exact sample gives 0.02."""
    return float(np.mean((u < 0.01) | (u > 0.99)))


def _covariance_error(model: DensityModel, points: np.ndarray) -> float | None:
    """||L^-1 C L^-T - I||_2 for the sample covariance C and LL' the density's; None if unknown."""
    if model.covariance is None:
        return None
    w = spec_from_sigma(model.covariance).whitener
    c = np.cov(points, rowvar=False).reshape(model.p, model.p)
    return float(np.linalg.norm(w @ c @ w.T - np.eye(model.p), 2))


def _truth_scores(
    model: DensityModel, points: np.ndarray
) -> tuple[np.ndarray, float, float, float, float | None]:
    """The points through the density's truth map: (u, CL2, worst marginal KS, tail share of u,
    covariance error or None)."""
    u = model.truth_transform(points)
    return u, cl2_discrepancy(u), _ks_uniform(u), _tail_share(u), _covariance_error(model, points)


def _design_of(path) -> Design:
    """A design file as the final-stage design it records."""
    df = read_design(path)
    return Design(points=df.points, logf=df.logf, stage=int(df.stages.max()), gamma=1.0)


def cmd_diagnose(args) -> int:
    if not args.truth:
        given = [f"--{f}" for f in ("density", *_ALL_DENSITY_FLAGS) if getattr(args, f) is not None]
        if given:
            raise ConfigError(f"diagnose reads {' and '.join(given)} only with --truth")
    design = _design_of(args.design)
    points = design.points
    # CL2 and the (0, 1) marginal histograms are defined on the unit cube only
    outside = np.flatnonzero(~np.all((points >= 0.0) & (points <= 1.0), axis=1))
    if len(outside):
        i = int(outside[0])
        raise FileFormatError(
            f"{args.design} line {i + 2}: point {points[i].tolist()} lies outside the unit cube"
        )
    report = diagnostics_report(design, bins=args.bins)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = report.to_dict()

    truth_rows = None
    if args.truth:
        with _build_density(args) as model:
            _require_truth(args, model)
            if model.p != points.shape[1]:
                raise ConfigError(f"design has {points.shape[1]} dimensions, density has {model.p}")
            truth_rows, cl2, ks, tail, cov_err = _truth_scores(model, points)
        payload["truth"] = {"cl2_transformed": cl2, "marginal_max_error": ks, "tail_share": tail}
        if cov_err is not None:
            payload["truth"]["covariance_error"] = cov_err

    write_json(out / "report.json", payload)

    marginals = (
        [m.dim, b, lo, hi, mass]
        for m in report.marginals
        for b, (lo, hi, mass) in enumerate(
            zip(m.bin_edges[:-1].tolist(), m.bin_edges[1:].tolist(), m.masses.tolist())
        )
    )
    header = ["dim", "bin", "lo", "hi", "mass"]
    atomic_write_text(out / "marginals.csv", csv_text(header, marginals))
    correlation = (
        [i, j, r] for i, row in enumerate(report.correlation.tolist()) for j, r in enumerate(row)
    )
    atomic_write_text(out / "correlation.csv", csv_text(["dim_i", "dim_j", "r"], correlation))
    if truth_rows is not None:
        columns = truth_rows.T.tolist()
        truth = ([l, i, u] for l, col in enumerate(columns) for i, u in enumerate(col))
        atomic_write_text(out / "truth_transform.csv", csv_text(["dim", "point", "u"], truth))

    print(f"diagnostics for {len(points)} points -> {out}")
    return 0


def cmd_followup(args) -> int:
    run_dir = Path(args.run)
    ledger_path = run_dir / "ledger.csv"
    if not ledger_path.exists():
        raise FileFormatError(f"no ledger at {ledger_path}; run generate first")
    design = _design_of(run_dir / "design.csv")
    ledger = read_ledger(ledger_path)
    digest_before = ledger_digest(ledger)

    manifest_path = run_dir / "manifest.json"
    if manifest_path.exists():
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
    result = followup_mcmc(design, surrogate, N=args.N, seed=args.seed)

    out_path = Path(args.out) if args.out else run_dir / "samples.csv"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_samples(out_path, result.samples, result.logf, result.chain_ids)

    if ledger_digest(read_ledger(ledger_path)) != digest_before:
        raise MedError("ledger changed during follow-up; zero-evaluation contract broken")
    print(f"{len(result.samples)} samples from {len(result.lengths)} chains -> {out_path}")
    return 0


def _bench_one(args, model: DensityModel, seeds: list[int]) -> dict:
    entry = {"density": args.density, "p": model.p, "med": {}, "metropolis": {}, "hammersley": {}}

    # psi in one metric for every run and code version: the density's own
    # covariance where it is known, the unit cube's axes otherwise
    if model.covariance is not None:
        metric = spec_from_sigma(model.covariance, s=2.0)
    else:
        metric = identity_spec(model.p)

    def score(sampler: str, points: np.ndarray, **extra) -> None:
        _, cl2, ks, tail, cov_err = _truth_scores(model, points)
        if cov_err is not None:
            extra["covariance_error"] = cov_err
        for key, value in {"cl2": cl2, "marginal_error": ks, "tail_share": tail, **extra}.items():
            entry[sampler].setdefault(key, []).append(value)

    for seed in seeds:
        config = _run_config(args)
        config.seed = seed
        design, report = run(model, config)
        entry["n"], entry["K"], entry["budget"] = report.n, report.K, report.budget
        psi = psi_log(design.points, design.logf, 1.0, metric).value
        score("med", design.points, evaluations=report.budget, psi=psi)

        spec = ChainSpec(start=np.full(model.p, 0.5), length=1, seed=seed)
        mres = adaptive_metropolis(model, spec, EvaluationLedger(), eval_budget=report.budget)
        score("metropolis", mres.chain, evaluations=mres.evaluations, accept_rate=mres.accept_rate)

    score("hammersley", hammersley(entry["budget"], model.p), evaluations=0)
    return entry


def cmd_bench(args) -> int:
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")
    if args.seed is not None:
        raise ConfigError("bench runs seeds 0..--seeds-1; drop --seed")
    seeds = list(range(args.seeds))
    sweep = args.sweep is not None
    ps = [args.p]
    if sweep:
        try:
            ps = [int(v) for v in args.sweep.split(",") if v.strip()]
        except ValueError:
            ps = []
        if not ps:
            raise ConfigError(f"--sweep takes p values joined by ',', got {args.sweep!r}")
        if args.p is not None:
            raise ConfigError("--sweep sets the dimension; drop --p")
        if args.density in DENSITY_FLAGS and "p" not in DENSITY_FLAGS[args.density][0]:
            raise ConfigError(f"--sweep varies --p, which --density {args.density} does not take")
    with contextlib.ExitStack() as stack:
        models = []
        # every model is built and checked before the first run starts
        for p in ps:
            args.p = p
            model = stack.enter_context(_build_density(args))
            _require_truth(args, model)
            models.append(model)
        entries = [_bench_one(args, model, seeds) for model in models]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = {"seeds": seeds, "sweep": entries} if sweep else {"seeds": seeds, **entries[0]}
    write_json(out / "comparison.json", payload)
    print(f"benchmark -> {out / 'comparison.json'}")
    return 0


def _add_density_flags(sub) -> None:
    sub.add_argument("--density", choices=tuple(DENSITY_FLAGS), required=False)
    sub.add_argument("--p", type=int)
    sub.add_argument("--rho", type=float)
    sub.add_argument("--sigma", type=float)
    sub.add_argument("--prior", help="factor quadruples a,b,rate_lo,rate_hi joined by ';'")
    sub.add_argument("--cmd", help="external evaluator command line")
    sub.add_argument(
        "--timeout", type=float, help=f"seconds per evaluator call (default {EXTERNAL_TIMEOUT:g})"
    )
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
