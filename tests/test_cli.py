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
from filament.multipliers import build_table, low_band, rft_constants


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
        # as the table at that k, the differences less the RFT coefficients
        table, c = build_table(1e-2, 32), rft_constants(1e-2)
        for k, row in enumerate(rows[1:]):
            mt, mn = table.mt[k], table.mn[k]
            diffs = ([mt - c.tangential, mn - c.normal]
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

    def test_lowk_columns_zero_at_k0(self, tmp_path):
        # at 5e-3 the zero modes once differed from the RFT coefficients
        # in the last bit
        out = tmp_path / "mult.csv"
        assert main(["multiplier-dump", "--epsilon", "5e-3", "--kmax", "4",
                     "--out", str(out)]) == 0
        assert read_csv(out)[1][5:] == ["0", "0"]

    def test_bad_epsilon_exit_1(self, tmp_path):
        assert main(["multiplier-dump", "--epsilon", "2.0", "--kmax", "4",
                     "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1 / (2 * math.pi * 40)])
    def test_lowk_columns_nan_exactly_off_the_low_band(self, tmp_path, eps):
        # the last eps puts the band edge on k = 40 itself (or next to it)
        out = tmp_path / "mult.csv"
        assert main(["multiplier-dump", "--epsilon", repr(eps), "--kmax", "256",
                     "--out", str(out)]) == 0
        rows = read_csv(out)[1:]
        low = low_band(eps, np.arange(257))
        assert 0 < low.sum() < 257
        for k, row in enumerate(rows):
            assert [math.isnan(float(v)) for v in row[5:]] == [not low[k]] * 2, k


class TestFileOutputs:
    """A file output's missing parent directory is created before the work."""

    @pytest.mark.parametrize("command", ["multiplier-dump", "tension-check"])
    def test_missing_parent_directory_created(self, tmp_path, command):
        argv, _ = tiny_call(tmp_path, command)
        out = tmp_path / "nodir" / "deeper" / "out.csv"
        argv[argv.index("--out") + 1] = str(out)
        assert main(argv) == 0
        assert out.is_file() and out.with_suffix(".manifest.json").is_file()


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

    @pytest.mark.parametrize("tol", ["1e-6", "1e-3"])
    def test_snapshots_reload_as_initial_curves(self, tmp_path, tol):
        # every snapshot passes the initial-curve check under the run's own
        # tolerance: each step's curve is resampled to length 1 once its
        # speeds stray more than half the tolerance from 1
        from filament.evolution import initial_curve

        text = GOOD_CONFIG.replace("horizon = 2e-6", "horizon = 1e-5")
        config = write_config(tmp_path, text + f"inextensibility_tol = {tol}\n")
        out = tmp_path / "run"
        assert main(["simulate", "--config", config, "--out", str(out)]) == 0
        snapshots = sorted(out.glob("curve_*.csv"))
        assert len(snapshots) == 11
        for path in snapshots:
            assert initial_curve(str(path), 32, float(tol)).n == 32

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
        assert manifest["aborted"].startswith("SolverError: tension CG stalled")

    def test_info_line_every_1000_steps(self, tmp_path, caplog):
        # FILAMENT_LOG=info logs the start line and one line per 1,000
        # steps; the default level logs none, and the files are the same
        config = write_config(tmp_path, """\
model = rft
epsilon = 1e-3
n = 32
horizon = 1.0005e-5
dt = 1e-8
initial_curve = circle
snapshot_every = 1000
""")
        with caplog.at_level(logging.INFO, logger="filament"):
            assert main(["simulate", "--config", config, "--out", str(tmp_path / "info")]) == 0
        lines = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
        assert lines == ["simulate: model=rft eps=0.001 n=32 horizon=1.0005e-05",
                         "simulate step 1000: t=1e-05 dt=1e-08"]
        caplog.clear()
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "quiet")]) == 0
        assert not [r for r in caplog.records if r.levelno < logging.WARNING]
        names = sorted(p.name for p in (tmp_path / "info").glob("*.csv"))
        assert names == ["curve_000000.csv", "curve_001000.csv", "curve_001001.csv",
                         "diagnostics.csv"]
        for name in names:
            info, quiet = (tmp_path / out / name for out in ("info", "quiet"))
            assert info.read_bytes() == quiet.read_bytes()

    def test_failed_dt_policy_aborts_with_manifest(self, tmp_path):
        # no dt: the policy's tension solve stalls, an aborted run as with dt
        config = write_config(tmp_path, """\
model = leps
epsilon = 1e-3
n = 64
horizon = 1e-4
initial_curve = perturbed-circle(2,0.03)
cg_tol = 1e-30
""")
        out = tmp_path / "run"
        assert main(["simulate", "--config", config, "--out", str(out)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["steps"] == 0
        assert manifest["aborted"].startswith("SolverError: tension CG stalled")
        assert read_csv(out / "diagnostics.csv")[1:] == []
        assert [p.name for p in out.glob("curve_*.csv")] == ["curve_000000.csv"]

    def test_step_before_a_failed_resampling_is_written(self, tmp_path):
        # the scheduled resampling of step 20 fails that step and aborts
        # the run: step 19 is in the manifest, diagnostics.csv and the
        # last curve file alike
        from filament.spectral import write_curve_csv
        from test_batch import folded

        curve = tmp_path / "folded.csv"
        write_curve_csv(folded(64), curve)
        config = write_config(tmp_path, f"""\
model = rft
epsilon = 1e-3
n = 64
horizon = 1e-3
dt = 1e-8
inextensibility_tol = 10
snapshot_every = 7
initial_curve = {curve}
""")
        out = tmp_path / "run"
        assert main(["simulate", "--config", config, "--out", str(out)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["steps"] == 19
        assert manifest["aborted"].startswith("GeometryError: fold-over")
        assert [row[0] for row in read_csv(out / "diagnostics.csv")[1:]] == [
            str(step) for step in range(1, 20)]
        assert sorted(p.name for p in out.glob("curve_*.csv")) == [
            f"curve_{step:06d}.csv" for step in (0, 7, 14, 19)]


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


    def test_trailing_blank_line_accepted(self, tmp_path):
        argv, manifest = tiny_call(tmp_path, "tension-check")
        curve_path = tmp_path / "circle.csv"
        curve_path.write_text(curve_path.read_text() + "\n")
        assert main(argv) == 0
        assert json.loads(manifest.read_text())["n"] == 32

    @pytest.mark.parametrize("row,cells", [("0.5,1,2", 3), ("0.5,1,2,3,4", 5)])
    def test_row_with_wrong_cell_count_exit_1(self, tmp_path, capsys, row, cells):
        argv, _ = tiny_call(tmp_path, "tension-check")
        curve_path = tmp_path / "circle.csv"
        lines = curve_path.read_text().splitlines()
        curve_path.write_text("\n".join(lines[:5] + [row] + lines[5:]) + "\n")
        assert main(argv) == 1
        assert f"bad curve file: line 6: expected 4 columns s,x,y,z, got {cells}" in \
            capsys.readouterr().err

    def test_rows_out_of_order_exit_1(self, tmp_path, capsys):
        # row j of n must have s = j/n
        argv, manifest = tiny_call(tmp_path, "tension-check")
        curve_path = tmp_path / "circle.csv"
        lines = curve_path.read_text().splitlines()
        lines[5], lines[6] = lines[6], lines[5]
        curve_path.write_text("\n".join(lines) + "\n")
        assert main(argv) == 1
        assert ("bad curve file: line 6: s = 0.15625, expected j/n = 4/32 = 0.125"
                in capsys.readouterr().err)
        assert not manifest.exists()

    def test_overflowing_leps_solve_exit_2(self, tmp_path, capsys):
        # the trefoil scaled by 1e25 loads (its speeds are finite), but
        # the norm of its leps right-hand side overflows: a SolverError
        # before the first CG iteration, with no numpy warning; the rft
        # solve of the same curve succeeds
        from filament.spectral import PeriodicCurve, write_curve_csv

        curve_path = tmp_path / "huge.csv"
        write_curve_csv(PeriodicCurve(1e25 * PeriodicCurve.trefoil(32).samples), curve_path)
        argv = ["tension-check", "--curve", str(curve_path), "--epsilon", "1e-3"]
        assert main([*argv, "--model", "leps", "--out", str(tmp_path / "leps.csv")]) == 2
        assert ("filament: error: tension right-hand side is not finite"
                in capsys.readouterr().err)
        assert main([*argv, "--model", "rft", "--out", str(tmp_path / "rft.csv")]) == 0

    def test_curve_read_through_the_module_name(self, tmp_path, monkeypatch):
        # the --curve converter looks read_curve_csv up when it runs, so
        # a rebinding of filament.cli.read_curve_csv (the benchmark's
        # tracer makes one) sees every curve read
        import filament.cli

        argv, _ = tiny_call(tmp_path, "tension-check")
        read, reads = filament.cli.read_curve_csv, []
        monkeypatch.setattr(filament.cli, "read_curve_csv",
                            lambda path: reads.append(path) or read(path))
        assert main(argv) == 0
        assert reads == [tmp_path / "circle.csv"]


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

    def test_defaults_are_the_library_defaults(self, tmp_path, monkeypatch):
        # with neither option the command runs lemma_suite() and echoes
        # what its report says, whatever its defaults are
        from filament import experiments
        from filament.spectral import write_json

        monkeypatch.setattr(experiments.lemma_suite, "__defaults__", ((1e-2, 1e-3), 64))
        out = tmp_path / "suite"
        assert main(["lemma-suite", "--out", str(out)]) == 0
        write_json(tmp_path / "want.json", experiments.lemma_suite())
        assert (out / "lemma_report.json").read_bytes() == (tmp_path / "want.json").read_bytes()
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["epsilons"], manifest["kmax"]) == ([1e-2, 1e-3], 64)

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

    def test_manifest_rows(self, tmp_path):
        # one block per row, failed or not, from its DiscrepancyRecord; the
        # same for every --jobs
        config = write_config(tmp_path, TINY_SWEEP.replace("1e-2", "1e-2, 1e-3"), name="ok.cfg")
        blocks = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["sweep", "--config", config, "--out", str(out), "--jobs", jobs]) == 0
            blocks[jobs] = json.loads((out / "manifest.json").read_text())["rows"]
            for block, eps in zip(blocks[jobs], ("1e-02", "1e-03")):
                traces = read_csv(out / f"traces_eps{eps}_n32.csv")
                assert block["snapshots"] == len(traces) - 1
                assert float(traces[-1][0]) == pytest.approx(1e-5)
        assert blocks["1"] == blocks["2"]
        assert [list(b) for b in blocks["1"]] == [
            ["eps", "n", "steps", "dt", "flags", "snapshots", "failed", "mean_cg_iterations"]] * 2
        assert [(b["eps"], b["n"], b["flags"], b["failed"]) for b in blocks["1"]] == [
            (1e-2, 32, 0, None), (1e-3, 32, 0, None)]
        assert all(b["steps"] > 0 and 0.0 < b["dt"] <= 1e-5 / 50 for b in blocks["1"])
        # a mean over the whole-number iteration counts of every step
        for b in blocks["1"]:
            total = b["mean_cg_iterations"] * b["steps"]
            assert total == pytest.approx(round(total), abs=1e-9) and total > 0
        failing = write_config(tmp_path, TINY_SWEEP + "cg_tol = 1e-30\n", name="failing.cfg")
        out = tmp_path / "failing"
        assert main(["sweep", "--config", failing, "--out", str(out)]) == 2
        (block,) = json.loads((out / "manifest.json").read_text())["rows"]
        assert (block["eps"], block["steps"], block["dt"], block["snapshots"],
                block["mean_cg_iterations"]) == (1e-2, 0, None, 0, None)
        assert block["failed"].startswith("SolverError: tension CG stalled")

    def test_default_stride_is_echoed(self, tmp_path):
        # the manifest echoes the stride the rows take: over this horizon
        # the policy's steps are shorter than the time marks' interval, so
        # a row has fewer snapshots than steps
        rows = {}
        for name, line in (("default", ""), ("stated", "snapshot_every = 20\n")):
            config = write_config(tmp_path, TINY_SWEEP.replace("1e-5", "3e-3") + line,
                                  name=f"{name}.cfg")
            assert main(["sweep", "--config", config, "--out", str(tmp_path / name)]) == 0
            manifest = json.loads((tmp_path / name / "manifest.json").read_text())
            assert manifest["config"]["snapshot_every"] == 20
            rows[name] = manifest["rows"]
        assert rows["default"] == rows["stated"]
        (row,) = rows["default"]
        assert 0 < row["snapshots"] < row["steps"]

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

    def test_one_trace_file_per_row(self, tmp_path):
        # 0.012 and 0.01 are both 1e-02 to one digit; each row keeps its
        # own traces, under the shortest spelling that reads back as its eps
        config = write_config(tmp_path, TINY_SWEEP.replace("1e-2", "0.012, 0.01, 1e-3"),
                              name="sweep.cfg")
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        traces = {p.name: p.read_bytes() for p in out.glob("traces_*.csv")}
        assert sorted(traces) == ["traces_eps1.2e-02_n32.csv", "traces_eps1e-02_n32.csv",
                                  "traces_eps1e-03_n32.csv"]
        assert len(set(traces.values())) == 3

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

    def test_csv_initial_curve_read_once_per_grid_size(self, tmp_path, monkeypatch):
        # once when the config is loaded, once for the three rows at n = 64
        import filament.evolution
        from filament.spectral import PeriodicCurve, write_curve_csv

        curve = tmp_path / "curve.csv"
        write_curve_csv(PeriodicCurve.perturbed_circle(64, 2, 0.03), curve)
        read = filament.evolution.read_curve_csv
        reads = []
        monkeypatch.setattr(filament.evolution, "read_curve_csv",
                            lambda path: reads.append(path) or read(path))
        config = write_config(tmp_path, "epsilons = 1e-2, 3e-3, 1e-3\nhorizon = 1e-5\n"
                              f"n = 64\ninitial_curve = {curve}\n", name="sweep.cfg")
        assert main(["sweep", "--config", config, "--out", str(tmp_path / "sweep"),
                     "--jobs", "1"]) == 0
        assert len(read_csv(tmp_path / "sweep" / "summary.csv")) == 4
        assert len(reads) == 2

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


class TestInputFiles:
    @pytest.mark.parametrize("command", ["simulate", "sweep", "tension-check"])
    def test_directory_input_exit_1(self, tmp_path, capsys, command):
        # a directory given as --config or --curve is an input error
        argv, _ = tiny_call(tmp_path, command)
        (tmp_path / "adir").mkdir()
        flag = "--curve" if command == "tension-check" else "--config"
        argv[argv.index(flag) + 1] = str(tmp_path / "adir")
        assert main(argv) == 1
        assert "not found" in capsys.readouterr().err
        assert not (tmp_path / "out").exists() and not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep", "tension-check"])
    def test_curve_whose_fields_overflow_exit_1(self, tmp_path, capsys, command):
        # a finite curve file whose speeds overflow is refused on reading,
        # without numpy warnings: no solve, no output
        from filament.spectral import PeriodicCurve, write_csv

        curve = tmp_path / "huge.csv"
        write_csv(curve, ["s", "x", "y", "z"],
                  zip(np.arange(32) / 32, *(1e300 * PeriodicCurve.circle(32).samples).T))
        out = tmp_path / ("out.csv" if command == "tension-check" else "out")
        if command == "tension-check":
            argv = ["--curve", str(curve), "--epsilon", "1e-2"]
        else:
            text = {"simulate": GOOD_CONFIG, "sweep": TINY_SWEEP}[command]
            argv = ["--config", write_config(tmp_path, text.replace(
                "perturbed-circle(2,0.03)", str(curve)))]
        assert main([command, *argv, "--out", str(out)]) == 1
        assert "curve fields overflow: a speed is not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep", "tension-check"])
    @pytest.mark.parametrize("sidecar", ["not-json", "directory"])
    def test_stray_curve_sidecar_ignored(self, tmp_path, command, sidecar):
        # the JSON sidecar of a curve file is simulate output and is never
        # read back, so whatever lies at its path cannot reject the curve
        from filament.spectral import PeriodicCurve, write_curve_csv

        argv, manifest = tiny_call(tmp_path, command)
        curve = tmp_path / "curve.csv"
        write_curve_csv(PeriodicCurve.perturbed_circle(32, 2, 0.03), curve)
        stray = tmp_path / "curve.json"
        stray.unlink()
        if sidecar == "directory":
            stray.mkdir()
        else:
            stray.write_text("{not json")
        if command == "tension-check":
            argv[argv.index("--curve") + 1] = str(curve)
        else:
            config = tmp_path / ("sweep.cfg" if command == "sweep" else "run.cfg")
            config.write_text(config.read_text().replace("perturbed-circle(2,0.03)", str(curve)))
        assert main(argv) == 0
        assert manifest.exists()

    @pytest.mark.parametrize("command,case", [
        ("simulate", "bad-header"), ("simulate", "other-n"), ("simulate", "rows-swapped"),
        ("sweep", "bad-header"), ("sweep", "other-n"), ("sweep", "rows-swapped"),
        ("sweep", "confirmation"), ("simulate", "fold-over"), ("simulate", "newton-nan"),
        ("sweep", "fold-over"), ("sweep", "newton-nan"), ("simulate", "wrong-length"),
        ("sweep", "wrong-length")])
    def test_csv_initial_curve_checked_with_config(self, tmp_path, capsys, command, case):
        # every initial curve is built with the config, a CSV one read:
        # no run, no output (the sweep's confirmation row needs n = 1024)
        from filament.spectral import PeriodicCurve, write_csv, write_curve_csv

        curve = tmp_path / "curve.csv"
        write_curve_csv(PeriodicCurve.circle(64 if case == "other-n" else 32), curve,
                        epsilon=1e-2, time=0.0, model="leps")
        lines = curve.read_text().splitlines(True)
        if case == "bad-header":
            curve.write_text("s,x,y\n" + "".join(lines[1:]))
        if case == "rows-swapped":
            lines[5], lines[6] = lines[6], lines[5]
            curve.write_text("".join(lines))
        # a circle of length 1e-3, which no step could keep: the resampler
        # rescales every stepped curve to length 1
        small = PeriodicCurve(1e-3 * PeriodicCurve.circle(32).samples)
        if case == "wrong-length":
            write_csv(curve, ["s", "x", "y", "z"], zip(np.arange(32) / 32, *small.samples.T))
        # corpus curves that pass the name check but cannot be built at n = 32:
        # one folds over, the other overflows its fields
        corpus = {"fold-over": "perturbed-circle(2,5)", "newton-nan": "perturbed-circle(3,1e300)"}
        text = {"simulate": GOOD_CONFIG, "sweep": TINY_SWEEP}[command]
        text = text.replace("perturbed-circle(2,0.03)", corpus.get(case, str(curve)))
        if case == "confirmation":
            text += "confirmation = true\n"
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main([command, "--config", config, "--out", str(out)]) == 1
        want = {"bad-header": "unexpected curve CSV header",
                "other-n": "curve file has n=64, config asks n=32",
                "confirmation": "curve file has n=32, config asks n=1024",
                "rows-swapped": "line 6: s = 0.15625, expected j/n = 4/32 = 0.125",
                "fold-over": "fold-over: min |X_s| <= 0.5",
                "newton-nan": "curve fields overflow: a speed is not finite",
                "wrong-length": f"curve file has length {float(np.mean(small.speed))!r}, "
                                "not 1 to within inextensibility_tol = 1e-06"}[case]
        assert f"bad config file: {want}" in capsys.readouterr().err
        assert not out.exists()


class TestParserReuse:
    """main reuses one parser: no call sees another call's options."""

    def test_option_left_out_takes_its_default(self, tmp_path):
        argv, manifest = tiny_call(tmp_path, "tension-check")
        assert main([*argv, "--model", "rft"]) == 0
        assert json.loads(manifest.read_text())["model"] == "rft"
        assert main([*argv, "--force"]) == 0
        assert json.loads(manifest.read_text())["model"] == "leps"

    def test_suppressed_option_stays_unset(self, tmp_path, monkeypatch):
        from filament import experiments

        monkeypatch.setattr(experiments.lemma_suite, "__defaults__", ((1e-2, 1e-3), 64))
        out = tmp_path / "suite"
        assert main(["lemma-suite", "--kmax", "8", "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["kmax"] == 8
        assert main(["lemma-suite", "--out", str(out), "--force"]) == 0
        assert json.loads((out / "manifest.json").read_text())["kmax"] == 64

    def test_parse_error_between_good_calls(self, tmp_path, capsys):
        argv, manifest = tiny_call(tmp_path, "tension-check")
        out = tmp_path / "out.csv"
        assert main(argv) == 0
        first = out.read_bytes()
        bad = [*argv, "--model", "stokes", "--force"]
        assert main(bad) == 1
        assert "--model" in capsys.readouterr().err
        assert main([*argv, "--force"]) == 0
        assert out.read_bytes() == first
        assert json.loads(manifest.read_text())["model"] == "leps"


class TestRunner:
    @pytest.mark.parametrize("command,module,name", [
        ("simulate", "cli", "run"),
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
        ("sweep", ["config", "versions", "wall_time_s", "fitted_constants", "failed_rows",
                   "rows"]),
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
        import filament.cli

        def broken_run(config, initial):
            raise TypeError("broken run")

        monkeypatch.setattr(filament.cli, "run", broken_run)
        config = write_config(tmp_path, GOOD_CONFIG)
        with pytest.raises(TypeError, match="broken run"):
            main(["simulate", "--config", config, "--out", str(tmp_path / "run")])

    def test_value_error_propagates(self, tmp_path, monkeypatch):
        # input errors exit 1 while the arguments are parsed, so a
        # ValueError during the work is a bug, not an exit code
        import filament.cli

        def broken_run(config, initial):
            raise ValueError("bug")

        monkeypatch.setattr(filament.cli, "run", broken_run)
        config = write_config(tmp_path, GOOD_CONFIG)
        with pytest.raises(ValueError, match="^bug$"):
            main(["simulate", "--config", config, "--out", str(tmp_path / "run")])

    def test_geometry_error_exit_2(self, tmp_path, monkeypatch, capsys):
        import filament.cli
        from filament.spectral import GeometryError

        def folded_run(config, initial):
            raise GeometryError("fold-over")

        monkeypatch.setattr(filament.cli, "run", folded_run)
        config = write_config(tmp_path, GOOD_CONFIG)
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "run")]) == 2
        assert "filament: error: fold-over" in capsys.readouterr().err


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

    @pytest.mark.parametrize("command", ["simulate", "sweep", "multiplier-dump", "tension-check",
                                         "lemma-suite"])
    def test_epsilon_below_the_multipliers_domain_exit_1(self, tmp_path, capsys, command):
        # at eps = 1e-80 m_n overflows: every command refuses it while the
        # arguments are parsed, with no traceback and no output
        argv, manifest = tiny_call(tmp_path, command)
        if command in ("simulate", "sweep"):
            config = tmp_path / ("sweep.cfg" if command == "sweep" else "run.cfg")
            config.write_text(config.read_text().replace("1e-2", "1e-80"))
        else:
            flag = "--epsilons" if command == "lemma-suite" else "--epsilon"
            argv[argv.index(flag) + 1] = "1e-2,1e-80" if command == "lemma-suite" else "1e-80"
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "epsilon must lie in [1e-70, 0.1], got 1e-80" in err
        assert "Traceback" not in err
        assert not manifest.exists()
        assert not (tmp_path / "out").exists() and not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command", ["multiplier-dump", "tension-check"])
    def test_epsilon_takes_the_config_rule(self, tmp_path, capsys, command):
        # --epsilon accepts what the config's epsilon accepts, [1e-70, 0.1]
        argv, manifest = tiny_call(tmp_path, command)
        at = argv.index("--epsilon") + 1
        argv[at] = "0.5"
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "argument --epsilon: epsilon must lie in [1e-70, 0.1], got 0.5" in err
        assert not manifest.exists()
        argv[at] = "0.1"
        assert main(argv) == 0
        assert json.loads(manifest.read_text())["epsilon"] == 0.1
