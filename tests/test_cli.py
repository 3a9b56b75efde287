"""Tests for the command-line interface: subcommands, exit codes,
manifests, and overwrite protection."""

import csv
import importlib
import json
import logging
import math
import re

import numpy as np
import pytest

from filament.cli import main
from filament.multipliers import eval_mn, eval_mt, lowk_rft_difference


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


GOOD_CONFIG = """\
model = leps
epsilon = 1e-2
n = 32
horizon = 2e-6
dt = 1e-6
initial_curve = perturbed-circle(2,0.03)
snapshot_every = 1
"""

TINY_SWEEP = """\
epsilons = 1e-2
horizon = 1e-5
n = 32
initial_curve = perturbed-circle(2,0.03)
"""


def tiny_call(tmp_path, command):
    """argv of a tiny run of command, and the path of its manifest."""
    from filament.spectral import PeriodicCurve, write_curve_csv

    curve = tmp_path / "circle.csv"
    write_curve_csv(PeriodicCurve.circle(32), curve, epsilon=1e-2, time=0.0, model="leps")
    args = {
        "simulate": ["--config", write_config(tmp_path, GOOD_CONFIG)],
        "sweep": ["--config", write_config(tmp_path, TINY_SWEEP, name="sweep.cfg")],
        "multiplier-dump": ["--epsilon", "1e-2", "--kmax", "8"],
        "tension-check": ["--curve", str(curve), "--epsilon", "1e-2"],
        "lemma-suite": ["--epsilons", "1e-2,1e-3", "--kmax", "128"],
    }[command]
    if command in ("multiplier-dump", "tension-check"):
        out = tmp_path / "out.csv"
        return [command, *args, "--out", str(out)], tmp_path / "out.manifest.json"
    out = tmp_path / "out"
    return [command, *args, "--out", str(out)], out / "manifest.json"


class TestMultiplierDump:
    def test_dump_csv_and_sidecar(self, tmp_path):
        out = tmp_path / "mult.csv"
        code = main(["multiplier-dump", "--epsilon", "1e-2",
                     "--kmax", "32", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["k", "mt", "mn", "inv_mt", "inv_mn",
                           "lowk_diff_t", "lowk_diff_n"]
        assert len(rows) == 34  # header + k = 0..32
        # k verbatim, every other column read back as the same double
        # as the scalar evaluation at that k
        for k, row in enumerate(rows[1:]):
            mt, mn = eval_mt(1e-2, k), eval_mn(1e-2, k)
            diffs = ([lowk_rft_difference(1e-2, k, d) for d in ("tangential", "normal")]
                     if k < 1 / (2 * math.pi * 1e-2) else [math.nan] * 2)
            assert row[0] == str(k)
            np.testing.assert_array_equal([float(v) for v in row[1:]],
                                          [mt, mn, 1 / mt, 1 / mn, *diffs])
        # beyond the crossover 1/(2 pi eps) ~ 15.9 the difference
        # columns are undefined and print NaN
        assert math.isnan(float(rows[17][5]))
        assert not math.isnan(float(rows[15][5]))
        sidecar = out.with_suffix(".manifest.json").read_text()
        assert sidecar.endswith("}\n")
        assert json.loads(sidecar)["epsilon"] == 1e-2
        assert json.loads(sidecar)["kmax"] == 32

    def test_refuses_overwrite_without_force(self, tmp_path, capsys):
        out = tmp_path / "mult.csv"
        args = ["multiplier-dump", "--epsilon", "1e-2", "--kmax", "4",
                "--out", str(out)]
        assert main(args) == 0
        assert main(args) == 1
        assert "--force" in capsys.readouterr().err
        assert main(args + ["--force"]) == 0

    def test_bad_epsilon_exit_1(self, tmp_path):
        assert main(["multiplier-dump", "--epsilon", "2.0", "--kmax", "4",
                     "--out", str(tmp_path / "x.csv")]) == 1


class TestSimulate:
    def test_smoke_run(self, tmp_path):
        config = write_config(tmp_path, GOOD_CONFIG)
        out = tmp_path / "run"
        assert main(["simulate", "--config", config, "--out", str(out)]) == 0
        rows = read_csv(out / "diagnostics.csv")
        assert rows[0][0] == "step"
        assert len(rows) == 3  # header + 2 steps
        energies = [float(r[2]) for r in rows[1:]]
        assert all(b <= a * (1 + 1e-8) for a, b in zip(energies, energies[1:]))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["config"]["model"] == "leps"
        assert manifest["aborted"] is None
        curves = sorted(out.glob("curve_*.csv"))
        assert curves  # snapshots written

    def test_refuses_rerun_without_force(self, tmp_path):
        config = write_config(tmp_path, GOOD_CONFIG)
        out = tmp_path / "run"
        assert main(["simulate", "--config", config, "--out", str(out)]) == 0
        assert main(["simulate", "--config", config, "--out", str(out)]) == 1
        assert main(["simulate", "--config", config, "--out", str(out),
                     "--force"]) == 0

    def test_missing_config_exit_1(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_duplicate_key_cites_both_lines(self, tmp_path, capsys):
        config = write_config(
            tmp_path, "model = leps\nepsilon = 1e-2\nmodel = rft\n"
        )
        assert main(["simulate", "--config", config,
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err and "line 3" in err

    def test_unknown_key_exit_1(self, tmp_path, capsys):
        config = write_config(tmp_path, GOOD_CONFIG + "viscosity = 3\n")
        assert main(["simulate", "--config", config,
                     "--out", str(tmp_path / "o")]) == 1
        assert "viscosity" in capsys.readouterr().err

    def test_nan_horizon_exit_1(self, tmp_path, capsys):
        config = write_config(tmp_path, GOOD_CONFIG.replace("horizon = 2e-6", "horizon = nan"))
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "o")]) == 1
        assert "horizon" in capsys.readouterr().err

    def test_aborted_run_exit_2(self, tmp_path):
        config = write_config(tmp_path, GOOD_CONFIG + "cg_tol = 1e-30\n")
        out = tmp_path / "run"
        assert main(["simulate", "--config", config, "--out", str(out)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["aborted"]


class TestTensionCheck:
    def test_circle_tension(self, tmp_path):
        from filament.spectral import PeriodicCurve, write_curve_csv

        curve_path = tmp_path / "circle.csv"
        write_curve_csv(PeriodicCurve.circle(64), curve_path,
                        epsilon=1e-2, time=0.0, model="leps")
        out = tmp_path / "tension.csv"
        assert main(["tension-check", "--curve", str(curve_path),
                     "--epsilon", "1e-2", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["s", "tau"]
        taus = np.array([float(r[1]) for r in rows[1:]])
        assert np.max(np.abs(taus + 4 * np.pi**2)) < 1e-4
        sidecar = json.loads(out.with_suffix(".manifest.json").read_text())
        assert sidecar["mean_tau"] == pytest.approx(-4 * np.pi**2, rel=1e-6)
        assert sidecar["cg_iterations"] > 0

    def test_missing_curve_exit_1(self, tmp_path):
        assert main(["tension-check", "--curve", str(tmp_path / "no.csv"),
                     "--epsilon", "1e-2",
                     "--out", str(tmp_path / "t.csv")]) == 1

    @pytest.mark.parametrize("text", ["", "a,b,c,d\n0,1,2,3\n"], ids=["empty", "bad-header"])
    def test_bad_curve_file_exit_1(self, tmp_path, capsys, text):
        curve_path = tmp_path / "bad.csv"
        curve_path.write_text(text)
        assert main(["tension-check", "--curve", str(curve_path), "--epsilon", "1e-2",
                     "--out", str(tmp_path / "t.csv")]) == 1
        assert "bad curve file" in capsys.readouterr().err


class TestLemmaSuiteCommand:
    def test_small_suite(self, tmp_path):
        out = tmp_path / "suite"
        assert main(["lemma-suite", "--epsilons", "1e-2,1e-3",
                     "--kmax", "128", "--out", str(out)]) == 0
        report = json.loads((out / "lemma_report.json").read_text())
        assert report["passed"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["passed"]
        assert "coercivity" in manifest["fitted_constants"]

    def test_bad_epsilon_order_exit_1(self, tmp_path, capsys):
        assert main(["lemma-suite", "--epsilons", "1e-3,1e-2",
                     "--out", str(tmp_path / "s")]) == 1
        assert "decreasing" in capsys.readouterr().err


class TestSweepCommand:
    def test_tiny_sweep(self, tmp_path):
        config = write_config(tmp_path, """\
epsilons = 1e-2, 3e-3, 1e-3
horizon = 1e-4
n = 32
initial_curve = perturbed-circle(2,0.03)
snapshot_every = 5
""", name="sweep.cfg")
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        rows = read_csv(out / "summary.csv")
        assert rows[0][0] == "eps"
        assert len(rows) == 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert "compensated_band" in manifest["fitted_constants"]
        assert manifest["failed_rows"] == []
        traces = sorted(out.glob("traces_*.csv"))
        assert len(traces) == 3

    def test_jobs_leave_the_output_unchanged(self, tmp_path):
        # --jobs 2 steps the rows in two chunks, each one batch; every CSV
        # must be byte for byte that of the single batch of --jobs 1
        config = write_config(tmp_path, """\
epsilons = 1e-2, 3e-3, 1e-3
horizon = 1e-4
n = 32
initial_curve = perturbed-circle(2,0.03)
snapshot_every = 5
""", name="sweep.cfg")
        written = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["sweep", "--config", config, "--out", str(out), "--jobs", jobs]) == 0
            written[jobs] = {path.name: path.read_bytes() for path in out.glob("*.csv")}
        assert sorted(written["1"]) == ["summary.csv", "traces_eps1e-02_n32.csv",
                                        "traces_eps1e-03_n32.csv", "traces_eps3e-03_n32.csv"]
        assert written["1"] == written["2"]

    def test_one_info_line_per_row(self, tmp_path, caplog):
        ok = write_config(tmp_path, TINY_SWEEP.replace("1e-2", "1e-2, 1e-3"), name="ok.cfg")
        failing = write_config(tmp_path, TINY_SWEEP + "cg_tol = 1e-30\n", name="failing.cfg")
        with caplog.at_level(logging.INFO, logger="filament"):
            assert main(["sweep", "--config", ok, "--out", str(tmp_path / "ok")]) == 0
            assert main(["sweep", "--config", failing, "--out", str(tmp_path / "failing")]) == 2
        rows = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
        assert len(rows) == 3
        for row, eps in zip(rows, ("0.01", "0.001")):
            assert re.fullmatch(rf"sweep row eps={eps} n=32: steps=\d+ dt=\S+ flags=0 "
                                r"failure=None", row)
        assert rows[2].startswith("sweep row eps=0.01 n=32: steps=0 dt=None flags=0 "
                                  "failure=SolverError: tension CG stalled")
        caplog.clear()  # nothing at the default level
        assert main(["sweep", "--config", ok, "--out", str(tmp_path / "again")]) == 0
        assert not [r for r in caplog.records if r.levelno < logging.WARNING]

    @pytest.mark.parametrize("line", ["snapshot_every = 0", "cg_tol = -1", "horizon = nan"])
    def test_bad_config_value_exit_1(self, tmp_path, capsys, line):
        # sweep keys follow the simulate rules
        config = write_config(tmp_path, TINY_SWEEP.replace("horizon = 1e-5\n", "") + line + "\n",
                              name="sweep.cfg")
        assert main(["sweep", "--config", config, "--out", str(tmp_path / "sweep")]) == 1
        assert line.split()[0] in capsys.readouterr().err


class TestInitialCurve:
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("name", ["nope", "perturbed-circle(0,0.05)", "missing.csv"])
    def test_bad_initial_curve_exit_1(self, tmp_path, capsys, command, name):
        # checked with the config: no run, no output directory
        if name.endswith(".csv"):
            name = str(tmp_path / name)
        text = {"simulate": GOOD_CONFIG, "sweep": TINY_SWEEP}[command]
        config = write_config(tmp_path, text.replace("perturbed-circle(2,0.03)", name))
        out = tmp_path / "out"
        assert main([command, "--config", config, "--out", str(out)]) == 1
        assert "bad value for 'initial_curve'" in capsys.readouterr().err
        assert not out.exists()


class TestRunner:
    @pytest.mark.parametrize("command,module,name", [
        ("simulate", "evolution", "run"),
        ("sweep", "experiments", "convergence_study"),
        ("lemma-suite", "experiments", "lemma_suite"),
    ])
    def test_rerun_refused_before_any_work(self, tmp_path, monkeypatch, capsys,
                                           command, module, name):
        def must_not_run(*args, **kwargs):
            raise AssertionError(f"{name} ran")

        monkeypatch.setattr(importlib.import_module(f"filament.{module}"), name, must_not_run)
        argv, manifest = tiny_call(tmp_path, command)
        manifest.parent.mkdir()
        manifest.write_text("{}\n")
        assert main(argv) == 1
        assert "--force" in capsys.readouterr().err
        assert manifest.read_text() == "{}\n"

    @pytest.mark.parametrize("command,keys", [
        ("simulate", ["config", "versions", "wall_time_s", "steps", "aborted"]),
        ("sweep", ["config", "versions", "wall_time_s", "fitted_constants", "failed_rows"]),
        ("multiplier-dump", ["epsilon", "kmax", "versions"]),
        ("tension-check", ["epsilon", "model", "n", "mean_tau", "cg_iterations", "versions"]),
        ("lemma-suite", ["epsilons", "kmax", "versions", "wall_time_s", "fitted_constants",
                         "passed"]),
    ])
    def test_manifest_key_order(self, tmp_path, command, keys):
        # command, echo, versions, wall time (directory outputs only), results
        argv, manifest = tiny_call(tmp_path, command)
        assert main(argv) == 0
        assert list(json.loads(manifest.read_text())) == ["command", *keys]


class TestProgrammingErrors:
    def test_type_error_propagates(self, tmp_path, monkeypatch):
        # only solver, input and file failures become exit codes
        from filament import evolution

        def broken_run(config, initial):
            raise TypeError("broken run")

        monkeypatch.setattr(evolution, "run", broken_run)
        config = write_config(tmp_path, GOOD_CONFIG)
        with pytest.raises(TypeError, match="broken run"):
            main(["simulate", "--config", config, "--out", str(tmp_path / "run")])


class TestArgumentErrors:
    def test_unknown_subcommand_exit_1(self, capsys):
        assert main(["orbit"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("command,flag,value", [
        ("lemma-suite", "--epsilons", "1e-2,abc"),
        ("sweep", "--jobs", "0"),
        ("multiplier-dump", "--kmax", "0"),
    ])
    def test_bad_option_value_exit_1(self, tmp_path, capsys, command, flag, value):
        # argparse converts every occurrence of a flag, so the appended value
        # is checked even where argv already sets that flag
        argv, _ = tiny_call(tmp_path, command)
        assert main([*argv, flag, value]) == 1
        assert flag in capsys.readouterr().err

    def test_missing_required_arg_exit_1(self, capsys):
        assert main(["multiplier-dump", "--epsilon", "1e-2"]) == 1
        assert "--kmax" in capsys.readouterr().err
