"""End-to-end tests of the command-line interface, run in-process through ``main``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import medsampler
from medsampler.cli import _ks_uniform, main
from medsampler.density import make_banana
from medsampler.fileio import fmt, read_design, read_ledger, read_samples
from medsampler.geometry import identity_spec, psi_log
from medsampler.surrogate import fit, predict


def generate(tmp_path, name="run", extra=()):
    out = tmp_path / name
    code = main(
        ["generate", "--density", "banana", "--n", "12", "--K", "3", "--seed", "7", "--out", str(out)]
        + list(extra)
    )
    assert code == 0
    return out


class TestGenerate:
    def test_writes_the_four_files(self, tmp_path):
        out = generate(tmp_path)
        for name in ("design.csv", "ledger.csv", "report.json", "manifest.json"):
            assert (out / name).exists()
        df = read_design(out / "design.csv")
        assert df.points.shape == (12, 2)
        assert read_ledger(out / "ledger.csv").count == 36

    def test_report_has_no_timings(self, tmp_path):
        out = generate(tmp_path)
        report = json.loads((out / "report.json").read_text())
        assert "total_seconds" not in report
        assert all("seconds" not in st for st in report["stages"])
        assert report["n"] == 12
        assert report["K"] == 3
        assert report["budget"] == 36

    def test_manifest_carries_digest_and_resolved_config(self, tmp_path):
        out = generate(tmp_path)
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["ledger_digest"]) == 64
        assert manifest["config"]["run"]["n"] == 12
        assert manifest["config"]["density"]["name"] == "banana"
        assert manifest["seed"] == 7
        assert "started" in manifest and "finished" in manifest

    def test_reruns_are_byte_identical(self, tmp_path):
        # ledger.csv carries wall-clock durations, so its stability claim is
        # the digest (points and values), not the raw bytes
        a = generate(tmp_path, "a")
        b = generate(tmp_path, "b")
        for name in ("design.csv", "report.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        da = json.loads((a / "manifest.json").read_text())["ledger_digest"]
        db = json.loads((b / "manifest.json").read_text())["ledger_digest"]
        assert da == db

    def test_seed_changes_the_design(self, tmp_path):
        a = generate(tmp_path, "a")
        out_b = tmp_path / "b"
        assert (
            main(
                ["generate", "--density", "banana", "--n", "12", "--K", "3", "--seed", "8", "--out", str(out_b)]
            )
            == 0
        )
        assert (a / "design.csv").read_bytes() != (out_b / "design.csv").read_bytes()

    def test_defaults_resolved_from_dimension(self, tmp_path):
        out = tmp_path / "ar1"
        code = main(
            ["generate", "--density", "ar1", "--p", "3", "--rho", "0.5", "--sigma", "0.2",
             "--n", "10", "--K", "2", "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["p"] == 3

    def test_s_quantile_keeps_adaptive_mode(self, tmp_path):
        out = tmp_path / "q"
        code = main(
            ["generate", "--density", "banana", "--K", "2", "--s-quantile", "0.1", "--out", str(out)]
        )
        assert code == 0
        config = json.loads((out / "report.json").read_text())["config"]
        assert config["s_mode"] == "adaptive"
        assert config["s_quantile"] == 0.1

    def test_s_mode_quantile_is_not_a_choice(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["generate", "--density", "banana", "--s-mode", "quantile", "--out", str(tmp_path / "x")])
        assert err.value.code == 2

    def test_missing_density_is_usage_error(self, tmp_path):
        assert main(["generate", "--out", str(tmp_path / "x")]) == 2

    def test_ar1_without_rho_is_usage_error(self, tmp_path):
        code = main(["generate", "--density", "ar1", "--p", "3", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_bad_n_is_usage_error(self, tmp_path):
        code = main(
            ["generate", "--density", "banana", "--n", "1", "--K", "3", "--out", str(tmp_path / "x")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--s-quantile", "1.5"], "s_quantile"),
            (["--s-quantile", "nan"], "s_quantile"),
            (["--s-quantile", "0.7"], "s_quantile"),
            (["--s-mode", "fixed", "--s-value", "-1"], "s_value"),
            (["--s-value", "nan"], "s_value"),
            (["--theta", "nan"], "theta"),
        ],
    )
    def test_bad_exponent_or_theta_is_usage_error(self, tmp_path, capsys, flags, name):
        code = main(["generate", "--density", "banana", *flags, "--out", str(tmp_path / "x")])
        assert code == 2
        assert name in capsys.readouterr().err

    def test_missing_out_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["generate", "--density", "banana"])
        assert err.value.code == 2

    def test_report_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # the ar1 p=10 reference config, cut to two stages; each run is a
        # fresh process, since BLAS reads its thread count when it loads
        path = [str(Path(medsampler.__file__).resolve().parents[1])]
        path += [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = {
                **os.environ,
                "PYTHONPATH": os.pathsep.join(path),
                "OPENBLAS_NUM_THREADS": threads,
                "OMP_NUM_THREADS": threads,
                "MKL_NUM_THREADS": threads,
            }
            subprocess.run(
                [sys.executable, "-m", "medsampler.cli", "generate", "--density", "ar1",
                 "--p", "10", "--rho", "0.9", "--sigma", "0.125", "--K", "2", "--seed", "0",
                 "--out", str(out)],
                env=env, check=True, capture_output=True, timeout=300,
            )
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]


def test_bad_med_threads_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MED_THREADS", "abc")
    code = main(
        ["generate", "--density", "external", "--cmd", "true", "--p", "2", "--out", str(tmp_path / "r")]
    )
    assert code == 2
    assert "MED_THREADS" in capsys.readouterr().err


EVALUATOR = """
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    x = req.get("x_orig", req["x"])
    print(json.dumps({"id": req["id"], "logf": -sum(v * v for v in x)}), flush=True)
"""


def evaluator(tmp_path):
    path = tmp_path / "evaluator.py"
    path.write_text(EVALUATOR)
    return f"{sys.executable} {path}"


class TestDensityFlags:
    """--box, --prior and the flags each density reads, echoed in manifest.json."""

    def generate(self, tmp_path, flags):
        out = tmp_path / "run"
        code = main(["generate", *flags, "--n", "6", "--K", "2", "--out", str(out)])
        assert code == 0
        return out

    def test_prior_with_box(self, tmp_path):
        prior = "0,1,2,2;-1,1,1,3"
        flags = ["--density", "prior", "--prior", prior, "--box=-0.5,1.5;-2,2"]
        out = self.generate(tmp_path, flags)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["density"] == {
            "name": "prior", "p": 2, "prior": prior, "box": "-0.5,1.5;-2,2"
        }
        points = read_design(out / "design.csv").points
        assert points.shape == (6, 2)
        assert np.all((points >= 0.0) & (points <= 1.0))

    @pytest.mark.parametrize(
        "flags, echo",
        [
            (["--density", "banana"], {"name": "banana", "p": 2}),
            (["--density", "uniform", "--p", "3"], {"name": "uniform", "p": 3}),
            (
                ["--density", "ar1", "--p", "2", "--rho", "0.5", "--sigma", "0.2"],
                {"name": "ar1", "p": 2, "rho": 0.5, "sigma": 0.2},
            ),
            (
                ["--density", "prior", "--prior", "0,1,2,2"],
                {"name": "prior", "p": 1, "prior": "0,1,2,2"},
            ),
            (
                ["--density", "external", "--p", "2", "--box=-1,2;0,5", "--threads", "2"],
                {"name": "external", "p": 2, "timeout": 30.0, "box": "-1,2;0,5"},
            ),
        ],
        ids=["banana", "uniform", "ar1", "prior", "external"],
    )
    def test_manifest_echo(self, tmp_path, flags, echo):
        if "external" in flags:
            flags = [*flags, "--cmd", evaluator(tmp_path)]
            echo = {**echo, "cmd": flags[-1]}
        out = self.generate(tmp_path, flags)
        assert json.loads((out / "manifest.json").read_text())["config"]["density"] == echo

    @pytest.mark.parametrize(
        "flags, flag",
        [
            (["--prior", "0,1,2,2;-1,1,1,3", "--box=0,1;0,x"], "--box"),
            (["--prior", "0,1,2,2;-1,1,1,3", "--box=0,1"], "--box"),
            (["--prior", "0,1,2,2;-1,1,1,3", "--box=0,1;0,1,2"], "--box"),
            (["--prior", "0,1,two,2"], "--prior"),
            (["--prior", "0,1,2"], "--prior"),
            (["--prior", ";"], "--prior"),
        ],
        ids=["box-number", "box-count", "box-width", "prior-number", "prior-width", "prior-empty"],
    )
    def test_malformed_list_is_usage_error(self, tmp_path, capsys, flags, flag):
        code = main(["generate", "--density", "prior", *flags, "--out", str(tmp_path / "x")])
        assert code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--density", "ar1", "--p", "2", "--rho", "0.5", "--sigma", "nan"],
            ["--density", "ar1", "--p", "2", "--rho", "0.5", "--sigma", "inf"],
            ["--density", "ar1", "--p", "2", "--rho", "1", "--sigma", "0.2"],
            ["--density", "prior", "--prior", "0,1,nan,1"],
            ["--density", "prior", "--prior", "0,1,1,1", "--box=0,inf"],
            ["--density", "external", "--cmd", "true", "--p", "1", "--timeout", "nan"],
        ],
        ids=["sigma-nan", "sigma-inf", "rho-one", "prior-nan-rate", "box-inf", "timeout-nan"],
    )
    def test_bad_setting_is_usage_error(self, tmp_path, flags):
        assert main(["generate", *flags, "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize(
        "flags, stray",
        [
            (["--density", "banana", "--box=0,1"], "--box"),
            (["--density", "banana", "--p", "2"], "--p"),
            (["--density", "prior", "--prior", "0,1,2,2", "--p", "1"], "--p"),
            (["--density", "uniform", "--p", "2", "--rho", "0.5"], "--rho"),
            (["--density", "uniform", "--p", "2", "--timeout", "30"], "--timeout"),
            (
                ["--density", "ar1", "--p", "2", "--rho", "0.5", "--sigma", "0.2", "--threads", "2"],
                "--threads",
            ),
        ],
        ids=["banana-box", "banana-p", "prior-p", "uniform-rho", "uniform-timeout", "ar1-threads"],
    )
    def test_flag_the_density_does_not_take_is_usage_error(self, tmp_path, capsys, flags, stray):
        out = tmp_path / "x"
        code = main(["generate", *flags, "--n", "6", "--K", "2", "--out", str(out)])
        assert code == 2
        assert stray in capsys.readouterr().err
        assert not out.exists()


class TestConfigFile:
    def test_file_fills_missing_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"density": "banana", "n": 12, "K": 3, "seed": 5}))
        out = tmp_path / "run"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 5
        assert report["n"] == 12

    def test_flags_beat_the_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"density": "banana", "n": 12, "K": 3, "seed": 5}))
        out = tmp_path / "run"
        assert main(["generate", "--config", str(cfg), "--n", "14", "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["n"] == 14

    def test_density_flag_the_density_does_not_take_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"density": "banana", "box": "0,1", "n": 6, "K": 2}))
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "--box" in capsys.readouterr().err

    def test_unknown_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"density": "banana", "frobnicate": 1}))
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("entry", [{"whitening": True}, {"n": 12.5}])
    def test_value_the_flag_would_reject_is_usage_error(self, tmp_path, capsys, entry):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"density": "banana", "K": 3, **entry}))
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert repr(next(iter(entry))) in capsys.readouterr().err

    def test_value_is_read_as_flag_text(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"density": "banana", "n": 12, "K": "3", "whitening": "off"}))
        out = tmp_path / "run"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["K"] == 3
        assert report["config"]["whitening"] is False

    def test_file_fills_flags_that_have_a_default(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"density": "uniform", "p": 2, "n": 10, "K": 2, "seeds": 2}))
        out = tmp_path / "bench"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "comparison.json").read_text())["seeds"] == [0, 1]

    def test_flag_equal_to_its_default_beats_the_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"density": "uniform", "p": 2, "n": 10, "K": 2, "seeds": 4}))
        out = tmp_path / "bench"
        assert main(["bench", "--config", str(cfg), "--seeds", "1", "--out", str(out)]) == 0
        assert json.loads((out / "comparison.json").read_text())["seeds"] == [0]


class TestDiagnose:
    def test_report_and_tidy_csvs(self, tmp_path):
        run = generate(tmp_path)
        out = tmp_path / "diag"
        code = main(["diagnose", "--design", str(run / "design.csv"), "--out", str(out), "--bins", "10"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert "psi_log" in report and "cl2" in report
        lines = (out / "marginals.csv").read_text().splitlines()
        assert lines[0] == "dim,bin,lo,hi,mass"
        assert len(lines) == 1 + 2 * 10
        corr = (out / "correlation.csv").read_text().splitlines()
        assert len(corr) == 1 + 4

    def test_csv_tables_hold_the_report_and_truth_values(self, tmp_path):
        run = generate(tmp_path)
        out = tmp_path / "diag"
        code = main(
            ["diagnose", "--design", str(run / "design.csv"), "--out", str(out),
             "--truth", "--density", "banana"]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        lines = ["dim,bin,lo,hi,mass"] + [
            f"{m['dim']},{b},{fmt(m['bin_edges'][b])},{fmt(m['bin_edges'][b + 1])},{fmt(mass)}"
            for m in report["marginals"]
            for b, mass in enumerate(m["masses"])
        ]
        assert (out / "marginals.csv").read_text() == "\n".join(lines) + "\n"
        corr = report["correlation"]
        lines = ["dim_i,dim_j,r"] + [
            f"{i},{j},{fmt(r)}" for i, row in enumerate(corr) for j, r in enumerate(row)
        ]
        assert (out / "correlation.csv").read_text() == "\n".join(lines) + "\n"
        u = make_banana().truth_transform(read_design(run / "design.csv").points)
        lines = ["dim,point,u"] + [
            f"{l},{i},{fmt(u[i, l])}" for l in range(2) for i in range(len(u))
        ]
        assert (out / "truth_transform.csv").read_text() == "\n".join(lines) + "\n"

    def test_truth_flag_adds_comparisons(self, tmp_path):
        run = generate(tmp_path)
        out = tmp_path / "diag"
        code = main(
            ["diagnose", "--design", str(run / "design.csv"), "--out", str(out),
             "--truth", "--density", "banana"]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert 0.0 <= report["truth"]["marginal_max_error"] <= 1.0
        assert report["truth"]["cl2_transformed"] > 0.0

    @pytest.mark.parametrize("truth", [False, True], ids=["plain", "truth"])
    def test_report_keys_and_psi(self, tmp_path, truth):
        run = generate(tmp_path)
        out = tmp_path / "diag"
        extra = ["--truth", "--density", "banana"] if truth else []
        assert main(["diagnose", "--design", str(run / "design.csv"), "--out", str(out)] + extra) == 0
        report = json.loads((out / "report.json").read_text())
        keys = {
            "psi_log",
            "total_energy_log",
            "cl2",
            "marginals",
            "correlation",
            "correlation_degenerate",
            "balance_log",
            "balance_spread",
            "balance_note",
        }
        assert set(report) == (keys | {"truth"} if truth else keys)
        df = read_design(run / "design.csv")
        psi = psi_log(df.points, df.logf, 1.0, identity_spec(2)).value
        assert report["psi_log"] == psi

    def test_truth_for_external_is_usage_error_and_closes_the_children(self, tmp_path):
        run = generate(tmp_path)
        closed = tmp_path / "closed"
        child = tmp_path / "child.py"
        child.write_text(f"import sys\nsys.stdin.read()\nopen({str(closed)!r}, 'w').close()\n")
        code = main(
            ["diagnose", "--design", str(run / "design.csv"), "--out", str(tmp_path / "d"),
             "--truth", "--density", "external", "--cmd", f"{sys.executable} {child}", "--p", "2"]
        )
        assert code == 2
        # the pool's close() waits for the child, which exits once its stdin closes
        assert closed.exists()

    def test_truth_without_density_is_usage_error(self, tmp_path):
        run = generate(tmp_path)
        code = main(
            ["diagnose", "--design", str(run / "design.csv"), "--out", str(tmp_path / "d"), "--truth"]
        )
        assert code == 2

    def test_malformed_cell_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2,logf,stage\n0.1,zap,0.0,1\n")
        code = main(["diagnose", "--design", str(bad), "--out", str(tmp_path / "d")])
        assert code == 3
        err = capsys.readouterr().err
        assert "line 2" in err and "x2" in err

    @staticmethod
    def strict_json(path):
        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        return json.loads(path.read_text(), parse_constant=refuse)

    def test_coincident_points_give_strict_json(self, tmp_path):
        design = tmp_path / "design.csv"
        design.write_text("x1,x2,logf,stage\n0.2,0.3,0.0,1\n0.2,0.3,0.0,1\n0.7,0.6,-1.0,1\n")
        out = tmp_path / "d"
        assert main(["diagnose", "--design", str(design), "--out", str(out)]) == 0
        report = self.strict_json(out / "report.json")
        assert report["psi_log"] is None
        assert report["total_energy_log"] is None
        assert report["balance_spread"] is None
        assert report["balance_log"][:2] == [None, None]
        assert report["cl2"] > 0.0

    @pytest.mark.parametrize("cell", ["1.0000000000000002", "-0.5", "nan"])
    def test_point_outside_the_cube_is_runtime_error(self, tmp_path, capsys, cell):
        design = tmp_path / "design.csv"
        design.write_text(f"x1,x2,logf,stage\n0.0,1.0,0.0,1\n0.5,0.5,0.0,1\n0.25,{cell},0.0,1\n")
        out = tmp_path / "d"
        assert main(["diagnose", "--design", str(design), "--out", str(out)]) == 3
        assert "line 4" in capsys.readouterr().err
        assert not (out / "report.json").exists()
        # the cube's faces are inside it
        design.write_text("x1,x2,logf,stage\n0.0,1.0,0.0,1\n0.5,0.5,0.0,1\n1.0,0.0,0.0,1\n")
        assert main(["diagnose", "--design", str(design), "--out", str(out)]) == 0
        assert self.strict_json(out / "report.json")["cl2"] > 0.0


class TestFollowup:
    def test_samples_written_with_budgeted_count(self, tmp_path):
        run = generate(tmp_path)
        code = main(["followup", "--run", str(run), "--N", "200", "--seed", "1"])
        assert code == 0
        samples, logf, ids = read_samples(run / "samples.csv")
        assert 200 <= len(samples) <= 212
        assert samples.shape[1] == 2
        assert set(ids) <= set(range(12))

    def test_ledger_untouched_and_reruns_identical(self, tmp_path):
        run = generate(tmp_path)
        ledger_bytes = (run / "ledger.csv").read_bytes()
        assert main(["followup", "--run", str(run), "--N", "150", "--seed", "3"]) == 0
        first = (run / "samples.csv").read_bytes()
        assert (run / "ledger.csv").read_bytes() == ledger_bytes
        assert main(["followup", "--run", str(run), "--N", "150", "--seed", "3"]) == 0
        assert (run / "samples.csv").read_bytes() == first

    def test_logf_is_the_one_point_prediction(self, tmp_path):
        run = generate(tmp_path)
        assert main(["followup", "--run", str(run), "--N", "150", "--seed", "2"]) == 0
        ledger = read_ledger(run / "ledger.csv")
        surrogate = fit(ledger.points(), ledger.logf_values())
        samples, logf, _ = read_samples(run / "samples.csv")
        assert len(samples) >= 150
        for row, value in zip(samples, logf):
            assert value == predict(surrogate, row)

    def test_out_into_missing_directory(self, tmp_path):
        run = generate(tmp_path)
        out = tmp_path / "new" / "dir" / "s.csv"
        assert main(["followup", "--run", str(run), "--N", "100", "--out", str(out)]) == 0
        assert len(read_samples(out)[0]) >= 100

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"], ids=["invalid", "list"])
    def test_bad_manifest_is_runtime_error(self, tmp_path, capsys, text):
        run = generate(tmp_path)
        (run / "manifest.json").write_text(text)
        assert main(["followup", "--run", str(run), "--N", "100"]) == 3
        assert "manifest.json" in capsys.readouterr().err

    def test_missing_ledger_is_runtime_error(self, tmp_path):
        run = generate(tmp_path)
        (run / "ledger.csv").unlink()
        assert main(["followup", "--run", str(run), "--N", "100"]) == 3

    def test_tampered_ledger_fails_digest_check(self, tmp_path):
        run = generate(tmp_path)
        text = (run / "ledger.csv").read_text().splitlines()
        fields = text[1].split(",")
        fields[4] = "0.123"
        text[1] = ",".join(fields)
        (run / "ledger.csv").write_text("\n".join(text) + "\n")
        assert main(["followup", "--run", str(run), "--N", "100"]) == 3


class TestBench:
    def run_bench(self, tmp_path, extra=()):
        out = tmp_path / "bench"
        code = main(
            ["bench", "--density", "uniform", "--p", "2", "--n", "10", "--K", "2",
             "--out", str(out)] + list(extra)
        )
        return code, out / "comparison.json"

    def test_three_samplers_reported(self, tmp_path):
        code, path = self.run_bench(tmp_path)
        assert code == 0
        comp = json.loads(path.read_text())
        assert comp["budget"] == 20
        for sampler in ("med", "metropolis", "hammersley"):
            assert len(comp[sampler]["cl2"]) >= 1
        assert comp["metropolis"]["evaluations"] == [20]

    def test_reruns_byte_identical(self, tmp_path):
        _, path = self.run_bench(tmp_path)
        first = path.read_bytes()
        _, path = self.run_bench(tmp_path)
        assert path.read_bytes() == first

    def test_seeds_flag_runs_each_seed(self, tmp_path):
        code, path = self.run_bench(tmp_path, ["--seeds", "3"])
        assert code == 0
        comp = json.loads(path.read_text())
        assert comp["seeds"] == [0, 1, 2]
        assert len(comp["med"]["cl2"]) == 3

    def test_external_density_rejected(self, tmp_path):
        code = main(
            ["bench", "--density", "external", "--cmd", "true", "--p", "2", "--out", str(tmp_path / "b")]
        )
        assert code == 2

    def test_sweep_help_names_every_p_density(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "ar1 only" not in text
        assert "take its dimension from --p (ar1, uniform)" in text

    def test_uniform_sweep_table(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            ["bench", "--density", "uniform", "--sweep", "1,3", "--n", "8", "--K", "2",
             "--out", str(out)]
        )
        assert code == 0
        comp = json.loads((out / "comparison.json").read_text())
        assert [entry["p"] for entry in comp["sweep"]] == [1, 3]

    @pytest.mark.parametrize(
        "flags", [["--seeds", "0"], ["--sweep", "1,a"]], ids=["seeds", "sweep"]
    )
    def test_bad_seeds_or_sweep_is_usage_error(self, tmp_path, capsys, flags):
        code, _ = self.run_bench(tmp_path, flags)
        assert code == 2
        assert flags[0] in capsys.readouterr().err

    def test_sweep_needs_ar1(self, tmp_path):
        code = main(
            ["bench", "--density", "banana", "--sweep", "1,2", "--out", str(tmp_path / "b")]
        )
        assert code == 2

    def test_ar1_sweep_table(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            ["bench", "--density", "ar1", "--rho", "0.0", "--sigma", "0.2", "--sweep", "1,2",
             "--n", "8", "--K", "2", "--out", str(out)]
        )
        assert code == 0
        comp = json.loads((out / "comparison.json").read_text())
        assert [entry["p"] for entry in comp["sweep"]] == [1, 2]


def test_ks_uniform_is_the_worst_column():
    u = np.random.default_rng(0).random((37, 3)) ** [1.0, 2.0, 0.5]
    n = len(u)
    grid = np.arange(1, n + 1) / n
    columns = []
    for l in range(3):
        s = np.sort(u[:, l])
        columns.append(float(np.max(np.maximum(grid - s, s - (grid - 1.0 / n)))))
    assert _ks_uniform(u) == max(columns)


class TestUniformTruthTransform:
    def test_identity_on_uniform(self, tmp_path):
        out = tmp_path / "run"
        assert (
            main(
                ["generate", "--density", "uniform", "--p", "2", "--n", "10", "--K", "2",
                 "--seed", "0", "--out", str(out)]
            )
            == 0
        )
        diag = tmp_path / "diag"
        assert (
            main(
                ["diagnose", "--design", str(out / "design.csv"), "--out", str(diag),
                 "--truth", "--density", "uniform", "--p", "2"]
            )
            == 0
        )
        report = json.loads((diag / "report.json").read_text())
        assert report["truth"]["cl2_transformed"] == pytest.approx(report["cl2"], rel=1e-12)


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert "medsampler" in capsys.readouterr().out
