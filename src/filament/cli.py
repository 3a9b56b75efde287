"""Command-line entry point.

Subcommands: simulate, sweep, multiplier-dump, tension-check,
lemma-suite.  Every input is checked once, while the arguments are
parsed, by the converters of `config`; a config's initial curve is
built then at each of its grid sizes.  Exit codes: 0 success, 1 a
failed input check or a refused overwrite (nothing is written), 2 a
solver, geometry or file error (after the manifest for a failed
simulate run or sweep row); any other exception propagates.  One
runner serves every subcommand: it refuses to overwrite an existing
output without --force before any work, creates the output directory
(a file output's parent), times the run and writes the JSON manifest
(command, config echo, versions, wall time for directory outputs,
results).  The argument parser holds no per-call state, so it is built
once per process and reused by every call of main.  Logging level comes
from FILAMENT_LOG (error | info | debug).
"""

import argparse
import functools
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import (aspect_ratio, aspect_ratios, config_as_dict, count, parse_config,
                     parse_sweep_config)
from .evolution import initial_curve, run, write_diagnostics_csv
from .multipliers import build_table, check_model, force_map_for, low_band, rft_constants
from .spectral import GeometryError, read_curve_csv, write_csv, write_curve_csv, write_json
from .tension import SolverError, TensionProblem, solve_tension

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


def _versions():
    return {
        "filament": __version__,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }


def _checked(convert):
    """An argparse type from a converter that raises ValueError, keeping
    the converter's message."""
    def check(raw):
        try:
            return convert(raw)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return check


def _input_file(kind, read):
    """An argparse type that loads a config or curve file with read."""
    def load(path):
        if not Path(path).is_file():
            raise ValueError(f"{kind} file not found: {path}")
        try:
            return read(Path(path))
        except (ValueError, OSError) as exc:
            raise ValueError(f"bad {kind} file: {exc}") from exc
    return _checked(load)


def _config_file(parse, sizes):
    """An argparse type: the config read by parse, and its initial curve at each n in sizes."""
    def read(path):
        config = parse(path.read_text())
        return config, [initial_curve(config.initial_curve, n, config.inextensibility_tol)
                        for n in sizes(config)]
    return _input_file("config", read)


def _run(args):
    """Refuse to overwrite, do the subcommand's work, write its manifest;
    a failure the work reports is exit 2, after the manifest."""
    out = args.out
    manifest = out / "manifest.json" if args.directory else out.with_suffix(".manifest.json")
    guarded = manifest if args.directory else out
    if guarded.exists() and not args.force:
        raise CliError(f"{guarded} already exists; pass --force to overwrite", 1)
    (out if args.directory else out.parent).mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    echo, results, failure = args.func(args)
    timing = {"wall_time_s": time.perf_counter() - started} if args.directory else {}
    write_json(manifest, {"command": args.command, **echo, "versions": _versions(),
                          **timing, **results})
    if failure:
        raise CliError(failure, 2)
    return 0


# Each _cmd_* does its subcommand's work and returns (echo, results,
# failure): the manifest keys before and after the versions, and a
# failure message or None.

def _cmd_simulate(args):
    config, (curve,) = args.config
    log.info("simulate: model=%s eps=%g n=%d horizon=%g",
             config.model, config.epsilon, config.n, config.horizon)
    traj = run(config, curve)
    write_diagnostics_csv(traj.diagnostics, args.out / "diagnostics.csv")
    for state in traj.states:
        write_curve_csv(
            state.curve, args.out / f"curve_{state.diagnostics.step:06d}.csv",
            epsilon=config.epsilon, time=state.time, model=config.model,
        )
    return ({"config": config_as_dict(config)},
            {"steps": len(traj.diagnostics), "aborted": traj.aborted},
            f"run aborted: {traj.aborted}" if traj.aborted else None)


def _eps_tag(eps):
    """The shortest %e spelling of eps that reads back as eps: distinct
    rows get distinct trace files, and 1e-2 is still 1e-02."""
    return next(tag for tag in (f"{eps:.{p}e}" for p in range(17)) if float(tag) == eps)


def _cmd_sweep(args):
    # lazy: the one module import filament.cli does not load; it pulls in concurrent.futures
    from .experiments import (
        ROW_KEYS,
        compensated_band,
        convergence_study,
        gronwall_constants,
        write_summary_csv,
        write_traces_csv,
    )

    sweep, _ = args.config  # each worker builds its rows' initial curves
    records = convergence_study(sweep, jobs=args.jobs)
    write_summary_csv(records, args.out / "summary.csv")
    for r in records:
        if r.failed is not None:
            log.error("sweep row eps=%g failed: %s", r.eps, r.failed)
            continue
        write_traces_csv(r, args.out / f"traces_eps{_eps_tag(r.eps)}_n{r.n}.csv")
    ok = [r for r in records if r.failed is None and r.n == sweep.n]
    fitted = {}
    if len(ok) >= 3:
        fitted = {"compensated_band": compensated_band(ok), **gronwall_constants(ok)}
    failed = [r.eps for r in records if r.failed is not None]
    rows = [{key: getattr(r, key) for key in ROW_KEYS} for r in records]
    return ({"config": config_as_dict(sweep)},
            {"fitted_constants": fitted, "failed_rows": failed, "rows": rows},
            "one or more sweep rows failed" if failed else None)


def _cmd_multiplier_dump(args):
    table, rft = build_table(args.epsilon, args.kmax), rft_constants(args.epsilon)
    k = np.arange(args.kmax + 1)
    mt, mn = table.mt, table.mn
    # the low-k differences, defined on the low band only
    diffs = np.where(low_band(args.epsilon, k), [mt - rft.tangential, mn - rft.normal], np.nan)
    write_csv(args.out, ["k", "mt", "mn", "inv_mt", "inv_mn", "lowk_diff_t", "lowk_diff_n"],
              zip(k, mt, mn, 1.0 / mt, 1.0 / mn, *diffs))
    return {"epsilon": args.epsilon, "kmax": args.kmax}, {}, None


def _cmd_tension_check(args):
    curve = args.curve
    tau = solve_tension(TensionProblem(curve, force_map_for(args.model, args.epsilon, curve.n)))
    write_csv(args.out, ["s", "tau"], zip(np.arange(curve.n) / curve.n, tau.values))
    # a sidecar manifest lists everything it reports ahead of the versions
    return ({"epsilon": args.epsilon, "model": args.model, "n": curve.n,
             "mean_tau": float(np.mean(tau.values)), "cg_iterations": tau.iterations}, {}, None)


def _cmd_lemma_suite(args):
    from .experiments import lemma_suite

    report = lemma_suite(**{k: v for k, v in vars(args).items() if k in ("epsilons", "kmax")})
    write_json(args.out / "lemma_report.json", report)
    return ({"epsilons": report["epsilons"], "kmax": report["kmax"]},
            {"fitted_constants": {k: v["constant"] for k, v in report["suites"].items()},
             "passed": report["passed"]},
            None if report["passed"] else "lemma suite failed; see lemma_report.json")


# name: (help, work, writes a directory, options besides --out and --force)
_COMMANDS = {
    "simulate": ("run one model from a key=value config", _cmd_simulate, True, {
        "--config": dict(required=True, type=_config_file(parse_config, lambda c: (c.n,)))}),
    "sweep": ("eps-sweep comparison of the two models", _cmd_sweep, True, {
        "--config": dict(required=True, type=_config_file(
            parse_sweep_config, lambda c: dict.fromkeys(n for _, n in c.rows()))),
        "--jobs": dict(type=_checked(count), default=1)}),
    "multiplier-dump": ("tabulate the multipliers to CSV", _cmd_multiplier_dump, False, {
        "--epsilon": dict(required=True, type=_checked(aspect_ratio)),
        "--kmax": dict(required=True, type=_checked(count))}),
    "tension-check": ("solve the tension problem on a stored curve", _cmd_tension_check, False, {
        # read_curve_csv is looked up per call, so a rebinding of the name reaches it
        "--curve": dict(required=True,
                        type=_input_file("curve", lambda path: read_curve_csv(path))),
        "--epsilon": dict(required=True, type=_checked(aspect_ratio)),
        "--model": dict(type=_checked(check_model), default="leps")}),
    "lemma-suite": ("multiplier bound and coercivity suites", _cmd_lemma_suite, True, {
        # an option left out takes lemma_suite's default
        "--epsilons": dict(type=_checked(aspect_ratios), default=argparse.SUPPRESS),
        "--kmax": dict(type=_checked(count), default=argparse.SUPPRESS)}),
}


@functools.cache
def build_parser():
    parser = _Parser(prog="filament",
                     description="Inextensible filament dynamics toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, work, directory, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, spec in options.items():
            p.add_argument(flag, **spec)
        p.add_argument("--out", type=Path, required=True)
        p.add_argument("--force", action="store_true")
        p.set_defaults(func=work, directory=directory)
    return parser


def main(argv=None):
    _setup_logging()
    try:
        return _run(build_parser().parse_args(argv))
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except (SolverError, GeometryError, OSError) as exc:  # solver, geometry and file failures
        log.debug("unhandled error", exc_info=True)
        print(f"filament: error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
