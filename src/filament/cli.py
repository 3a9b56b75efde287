"""Command-line entry point.

Subcommands: simulate, sweep, multiplier-dump, tension-check,
lemma-suite.  Exit codes: 0 success, 1 validation error (arguments or
config), 2 runtime/solver error.  Every run writes a JSON manifest
(config echo, versions, wall time, fitted constants where applicable);
reruns refuse to overwrite an existing manifest without --force.
Logging level comes from the FILAMENT_LOG environment variable
(error | info | debug).
"""

import argparse
import csv
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, config_as_dict, parse_config, parse_sweep_config

log = logging.getLogger("filament")


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(f"{self.prog}: error: {message}\n{self.format_usage()}", 1)


def _setup_logging():
    level = os.environ.get("FILAMENT_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(
        level=levels.get(level, logging.ERROR),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )


def _fmt(x):
    return format(float(x), ".17g")


def _versions():
    import scipy

    return {
        "filament": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


def _write_manifest(directory, payload, force):
    path = Path(directory) / "manifest.json"
    if path.exists() and not force:
        raise CliError(f"{path} already exists; pass --force to overwrite", 1)
    path.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    return path


def _check_overwrite(path, force):
    if Path(path).exists() and not force:
        raise CliError(f"{path} already exists; pass --force to overwrite", 1)


def _read_config(path, parser):
    p = Path(path)
    if not p.exists():
        raise CliError(f"config file not found: {p}", 1)
    try:
        return parser(p.read_text())
    except ConfigError as exc:
        raise CliError(str(exc), 1) from exc


def _cmd_simulate(args):
    from .evolution import initial_curve, run, write_diagnostics_csv
    from .spectral import write_curve_csv

    config = _read_config(args.config, parse_config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    curve = initial_curve(config.initial_curve, config.n)
    log.info("simulate: model=%s eps=%g n=%d horizon=%g",
             config.model, config.epsilon, config.n, config.horizon)
    traj = run(config, curve)
    write_diagnostics_csv(traj.diagnostics, out / "diagnostics.csv")
    for state in traj.states:
        write_curve_csv(
            state.curve, out / f"curve_{state.diagnostics.step:06d}.csv",
            epsilon=config.epsilon, time=state.time, model=config.model,
        )
    manifest = {
        "command": "simulate",
        "config": config_as_dict(config),
        "versions": _versions(),
        "wall_time_s": time.perf_counter() - started,
        "steps": len(traj.diagnostics),
        "aborted": traj.aborted,
    }
    _write_manifest(out, manifest, args.force)
    if traj.aborted:
        raise CliError(f"run aborted: {traj.aborted}", 2)
    return 0


def _cmd_sweep(args):
    from .experiments import (
        compensated_band,
        convergence_study,
        gronwall_constants,
        write_summary_csv,
    )

    sweep = _read_config(args.config, parse_sweep_config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    records = convergence_study(sweep, jobs=args.jobs)
    write_summary_csv(records, out / "summary.csv")
    for r in records:
        if r.failed is not None:
            log.error("sweep row eps=%g failed: %s", r.eps, r.failed)
            continue
        with open(out / f"traces_eps{r.eps:.0e}_n{r.n}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", "h2", "EW", "DW", "mean_sq"])
            for row in zip(r.times, r.h2, r.ew, r.dw, r.mean_sq):
                writer.writerow([_fmt(v) for v in row])
    ok = [r for r in records if r.failed is None and r.n == sweep.n]
    fitted = {}
    if len(ok) >= 3:
        fitted = {"compensated_band": compensated_band(ok), **gronwall_constants(ok)}
    manifest = {
        "command": "sweep",
        "config": config_as_dict(sweep),
        "versions": _versions(),
        "wall_time_s": time.perf_counter() - started,
        "fitted_constants": fitted,
        "failed_rows": [r.eps for r in records if r.failed is not None],
    }
    _write_manifest(out, manifest, args.force)
    if any(r.failed is not None for r in records):
        raise CliError("one or more sweep rows failed", 2)
    return 0


def _cmd_multiplier_dump(args):
    from .multipliers import eval_mn, eval_mt, lowk_rft_difference

    if not (0.0 < args.epsilon < 1.0):
        raise CliError(f"epsilon must lie in (0, 1), got {args.epsilon}", 1)
    if args.kmax < 1:
        raise CliError(f"kmax must be >= 1, got {args.kmax}", 1)
    _check_overwrite(args.out, args.force)
    crossover = 1.0 / (2.0 * np.pi * args.epsilon)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "mt", "mn", "inv_mt", "inv_mn",
                         "lowk_diff_t", "lowk_diff_n"])
        for k in range(args.kmax + 1):
            mt = eval_mt(args.epsilon, k)
            mn = eval_mn(args.epsilon, k)
            if k < crossover:
                dt_ = lowk_rft_difference(args.epsilon, k, "tangential")
                dn_ = lowk_rft_difference(args.epsilon, k, "normal")
            else:
                dt_ = dn_ = float("nan")
            writer.writerow([k] + [_fmt(v) for v in
                                   (mt, mn, 1.0 / mt, 1.0 / mn, dt_, dn_)])
    sidecar = Path(args.out).with_suffix(".manifest.json")
    sidecar.write_text(json.dumps({
        "command": "multiplier-dump",
        "epsilon": args.epsilon,
        "kmax": args.kmax,
        "versions": _versions(),
    }, indent=2) + "\n")
    return 0


def _cmd_tension_check(args):
    from .multipliers import build_table, rft_constants
    from .spectral import read_curve_csv
    from .tension import SolverError, TensionProblem, solve_tension

    if not (0.0 < args.epsilon < 1.0):
        raise CliError(f"epsilon must lie in (0, 1), got {args.epsilon}", 1)
    path = Path(args.curve)
    if not path.exists():
        raise CliError(f"curve file not found: {path}", 1)
    _check_overwrite(args.out, args.force)
    try:
        curve, _ = read_curve_csv(path)
    except ValueError as exc:
        raise CliError(f"bad curve file: {exc}", 1) from exc
    if args.model == "leps":
        problem = TensionProblem(curve, "leps", table=build_table(args.epsilon, curve.n // 2))
    else:
        problem = TensionProblem(curve, "rft", constants=rft_constants(args.epsilon))
    try:
        tau = solve_tension(problem)
    except SolverError as exc:
        raise CliError(f"tension solve failed: {exc}", 2) from exc
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "tau"])
        for i in range(curve.n):
            writer.writerow([_fmt(i / curve.n), _fmt(tau.values[i])])
    sidecar = Path(args.out).with_suffix(".manifest.json")
    sidecar.write_text(json.dumps({
        "command": "tension-check",
        "epsilon": args.epsilon,
        "model": args.model,
        "n": curve.n,
        "mean_tau": tau.mean,
        "cg_iterations": tau.iterations,
        "versions": _versions(),
    }, indent=2) + "\n")
    return 0


def _cmd_lemma_suite(args):
    from .experiments import lemma_suite, write_report_json

    epsilons = tuple(float(p) for p in args.epsilons.split(",") if p.strip())
    if not epsilons or any(a <= b for a, b in zip(epsilons, epsilons[1:])):
        raise CliError("--epsilons must be a strictly decreasing list", 1)
    if any(not (0.0 < e < 0.1) for e in epsilons):
        raise CliError("all epsilons must lie in (0, 0.1)", 1)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    report = lemma_suite(epsilons, args.kmax)
    write_report_json(report, out / "lemma_report.json")
    manifest = {
        "command": "lemma-suite",
        "epsilons": list(epsilons),
        "kmax": args.kmax,
        "versions": _versions(),
        "wall_time_s": time.perf_counter() - started,
        "fitted_constants": {k: v["constant"] for k, v in report["suites"].items()},
        "passed": report["passed"],
    }
    _write_manifest(out, manifest, args.force)
    if not report["passed"]:
        raise CliError("lemma suite failed; see lemma_report.json", 2)
    return 0


def build_parser():
    parser = _Parser(prog="filament",
                     description="Inextensible filament dynamics toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one model from a key=value config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="eps-sweep comparison of the two models")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("multiplier-dump", help="tabulate the multipliers to CSV")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_multiplier_dump)

    p = sub.add_parser("tension-check", help="solve the tension problem on a stored curve")
    p.add_argument("--curve", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--model", choices=("leps", "rft"), default="leps")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_tension_check)

    p = sub.add_parser("lemma-suite", help="multiplier bound and coercivity suites")
    p.add_argument("--epsilons", default="1e-2,1e-3,1e-4,1e-5")
    p.add_argument("--kmax", type=int, default=4096)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_lemma_suite)

    return parser


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except Exception as exc:  # solver / runtime failures
        log.debug("unhandled error", exc_info=True)
        print(f"filament: error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
