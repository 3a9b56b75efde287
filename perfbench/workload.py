"""One workload run of the filament benchmark, in its own process.

    python3 perfbench/workload.py --work DIR --seconds S --trace 0|1

DIR holds the inputs and plan.json that inputs.py wrote.  One operation
is the plan's list of CLI calls, made through the public entry
``filament.cli.main``; operations repeat in a closed loop (one client,
the next operation starts when the previous one has ended and its
outputs are checked) for about S seconds.  With --trace 1 one
more operation follows with every traced function wrapped.  The result,
with a block describing the machine, goes to DIR/result.json.

BLAS and OpenMP threads are pinned to one by the environment the parent
gives this process.  Each operation's time is normalized to a reference
machine speed by the probe of probe.py.
"""

import argparse
import csv
import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

from probe import SpeedProbe, normalize, slowdown

BENCH = Path(__file__).resolve().parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Relative tolerance on each sweep row's sup ||X - Y||_H2 against the
# seed-0 reference: wide enough for another time integrator of the same
# accuracy at this horizon, far narrower than the factor-2 corridor of
# criterion 7.
SUP_H2_RTOL = 0.05
# Tension is solved to a relative residual of 1e-10.
MEAN_TAU_RTOL = 1e-6


def _close(a, b, rtol):
    return abs(a - b) <= rtol * abs(b)


def check_sweep(plan, codes, reference):
    """An operation is one sweep row; a row fails on a failed run, a failed
    criterion-7/8 gate of the whole sweep, or a wrong sup ||X - Y||_H2."""
    epsilons = plan["epsilons"]
    out = Path("out/sweep")
    problems = []
    try:
        manifest = json.loads((out / "manifest.json").read_text())
        with open(out / "summary.csv", newline="") as fh:
            sup = {float(r["eps"]): float(r["sup_h2_err"]) for r in csv.DictReader(fh)}
    except (OSError, ValueError, KeyError) as exc:
        return len(epsilons), len(epsilons), [f"sweep: unreadable output: {exc}"]
    fitted = manifest.get("fitted_constants", {})
    gates = {"compensated_band.pass": fitted.get("compensated_band", {}).get("pass"),
             "pass_EW": fitted.get("pass_EW"), "pass_DW": fitted.get("pass_DW")}
    problems += [f"sweep: {g} is {v}" for g, v in gates.items() if v is not True]
    if codes[0] != 0:
        problems.append(f"sweep: exit code {codes[0]}")
    failed = 0
    for i, eps in enumerate(epsilons):
        got = next((v for e, v in sup.items() if _close(e, eps, 1e-12)), None)
        bad = (codes[0] != 0 or any(v is not True for v in gates.values())
               or eps in manifest.get("failed_rows", []) or got is None or not math.isfinite(got))
        if not bad and reference is not None and not _close(got, reference["sup_h2"][i], SUP_H2_RTOL):
            problems.append(f"sweep: eps={eps:g} sup_h2 {got!r}, reference {reference['sup_h2'][i]!r}")
            bad = True
        failed += bad
    return len(epsilons), failed, problems


def check_simulate(plan, codes, reference):
    """One operation, one simulate run: it must reach the horizon without
    abort or energy flag, with non-increasing bending energy, the final
    inextensibility residual within tolerance and the Fenchel floor
    int |X_ss|^2 >= 2 pi at every step."""
    out = Path("out/simulate")
    problems = []
    try:
        manifest = json.loads((out / "manifest.json").read_text())
        with open(out / "diagnostics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        config = manifest["config"]
        energy = [float(r["energy"]) for r in rows]
        final = rows[-1]
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return 1, 1, [f"simulate: unreadable output: {exc}"]
    if codes[0] != 0 or manifest.get("aborted"):
        problems.append(f"simulate: exit code {codes[0]}, aborted {manifest.get('aborted')!r}")
    if any(r["energy_flag"] != "0" for r in rows):
        problems.append("simulate: energy_flag raised")
    if any(b > a * (1.0 + 1e-12) for a, b in zip(energy, energy[1:])):
        problems.append("simulate: bending energy increased")
    if not float(final["inext_residual"]) <= config["inextensibility_tol"]:
        problems.append(f"simulate: final inextensibility residual {final['inext_residual']}")
    if not min(2.0 * e for e in energy) >= 2.0 * math.pi:
        problems.append("simulate: int |X_ss|^2 fell below 2 pi")
    if not _close(float(final["time"]), config["horizon"], 1e-9):
        problems.append(f"simulate: stopped at t={final['time']}")
    return 1, int(bool(problems)), problems


def check_tension(plan, codes, reference):
    """One operation per tension-check call: exit code 0, n finite tau
    values whose mean is the reported mean_tau, and at seed 0 the
    reference mean tau with no more CG iterations than the reference."""
    problems = []
    for call, code in zip(plan["calls"], codes):
        out = Path(call["argv"][call["argv"].index("--out") + 1])
        try:
            with open(out, newline="") as fh:
                tau = [float(r["tau"]) for r in csv.DictReader(fh)]
            meta = json.loads(out.with_suffix(".manifest.json").read_text())
            mean_tau, iterations = meta["mean_tau"], meta["cg_iterations"]
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{call['key']}: exit code {code}, unreadable output: {exc}")
            continue
        bad = []
        if code != 0:
            bad.append(f"exit code {code}")
        if len(tau) != call["n"] or not all(math.isfinite(t) for t in tau):
            bad.append("tau is not n finite values")
        elif not _close(sum(tau) / len(tau), mean_tau, 1e-9):
            bad.append(f"mean_tau {mean_tau!r} is not the mean of tau")
        if reference is not None:
            ref = reference[call["key"]]
            if not _close(mean_tau, ref["mean_tau"], MEAN_TAU_RTOL):
                bad.append(f"mean_tau {mean_tau!r}, reference {ref['mean_tau']!r}")
            if iterations > ref["cg_iterations"]:
                bad.append(f"{iterations} CG iterations, reference {ref['cg_iterations']}")
        if bad:
            problems.append(f"{call['key']}: " + "; ".join(bad))
    return len(codes), len(problems), problems


CHECKS = {"sweep": check_sweep, "simulate_n1024": check_simulate,
          "tension_check": check_tension}


def machine():
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _csv_bytes_under(path):
    """Bytes of the CSV files under path; manifests hold wall times, so
    their length varies from run to run."""
    return sum(p.stat().st_size for p in Path(path).rglob("*.csv"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.chdir(args.work)
    plan = json.loads(Path("plan.json").read_text())

    import filament.cli
    import filament.experiments  # noqa: F401  (loaded so tracing can rebind its names)

    reference = None
    if plan["seed"] == 0 and plan["size"] == "default":
        reference = json.loads((BENCH / "reference.json").read_text())[plan["workload"]]
    check = CHECKS[plan["workload"]]

    probe = SpeedProbe()

    def operation():
        shutil.rmtree("out", ignore_errors=True)
        os.mkdir("out")
        codes = []
        with probe:
            start = time.perf_counter()
            for call in plan["calls"]:
                codes.append(filament.cli.main(list(call["argv"])))
            wall = time.perf_counter() - start
        return (wall, probe.samples, *check(plan, codes, reference))

    # Closed loop: another operation starts only while it is expected to
    # end within the measuring time, so a run lasts about --seconds, or
    # one operation when that is longer.
    walls, raw_walls, slowdowns, attempted, failed, problems = [], [], [], 0, 0, []
    started = time.perf_counter()
    while True:
        wall, samples, n, bad, why = operation()
        walls.append(normalize(wall, samples))
        raw_walls.append(wall)
        slowdowns.append(slowdown(samples))
        attempted, failed, problems = attempted + n, failed + bad, problems + why
        elapsed = time.perf_counter() - started
        if elapsed * (1 + 1 / len(walls)) > args.seconds:
            break
    result = {"walls": walls, "raw_walls": raw_walls, "slowdown": statistics.fmean(slowdowns),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        wall, samples, n, bad, why = operation()
        attempted, failed, problems = attempted + n, failed + bad, problems + why
        result["per_layer"] = tracer.layer_metrics(normalize(wall, samples),
                                                   statistics.median(walls), _csv_bytes_under("out"))
        result["trace_table"] = tracer.table()
        result["absent"] = tracer.absent
    result.update(attempted=attempted, failed=failed, problems=problems, machine=machine())
    Path("result.json").write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
