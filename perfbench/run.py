"""Filament benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is sweep, simulate_n1024, tension_check, or all (the three in turn).
Run from the root of a source checkout: the program is imported from
src/ of the checkout this file sits in, never from an installed copy.

A run sets up the workload's seeded inputs five times, each in a fresh
interpreter (set-up time is their median), then measures in one child
process with BLAS and OpenMP threads pinned to one.  The last line of
standard output is a JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0 (wall_s, the
median time of one workload run; setup_s; peak_rss_mb of the child),
and the per-layer metrics of perfbench/spans.py with --trace 1.  wall_s
and setup_s are normalized to a reference machine speed by the probe of
perfbench/probe.py; the summary line gives them unnormalized too, and
failed_ops_ratio.  The line between the summary
and the result names the machine.  Exits non-zero, printing no result,
when no result can be measured.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import normalize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sweep", "simulate_n1024", "tension_check")
SETUP_REPEATS = 5
# Each workload's run must end within 180 s; sweep's traced run is the longest.
TIMEOUT_S = 170.0


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1", PYTHONNOUSERSITE="1")
    return env


def _child(argv, deadline, **kwargs):
    """Run a Python child to completion; the timeout kills and reaps it."""
    try:
        proc = subprocess.run([sys.executable, *argv], env=child_env(), stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()), **kwargs)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {' '.join(argv)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"exit code {proc.returncode}: {' '.join(argv)}")


def run_workload(workload, seed, seconds, trace, tiny):
    """Set up and measure one workload; returns the workload child's result."""
    deadline = time.monotonic() + TIMEOUT_S
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup, raw_setup = [], []
        for i in range(SETUP_REPEATS):
            out = work / f"setup{i}"
            start = time.perf_counter()
            _child([str(BENCH / "inputs.py"), "--workload", workload, "--seed", str(seed),
                    "--out", str(out)] + (["--tiny"] if tiny else []), deadline)
            raw_setup.append(time.perf_counter() - start)
            setup.append(normalize(raw_setup[-1], json.loads((out / "probe.json").read_text())))
        inputs = out
        _child([str(BENCH / "workload.py"), "--work", str(inputs), "--seconds", str(seconds),
                "--trace", str(trace)], deadline)
        result = json.loads((inputs / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    result["setup_s"] = statistics.median(setup)
    result["raw_setup_s"] = statistics.median(raw_setup)
    return result


def metrics(result, trace):
    if trace:
        return result["per_layer"]
    return {
        "wall_s": {"value": statistics.median(result["walls"]), "unit": "s"},
        "setup_s": {"value": result["setup_s"], "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def summary(workload, result):
    ratio = result["failed"] / result["attempted"]
    walls = result["walls"]
    return (f"{workload}: wall_s={statistics.median(walls):.4f} s (median of {len(walls)}), "
            f"setup_s={result['setup_s']:.4f} s (median of {SETUP_REPEATS}), "
            f"peak_rss_mb={result['peak_rss_mb']:.1f} MB, failed_ops_ratio={ratio:g} "
            f"({result['failed']}/{result['attempted']}); unnormalized: "
            f"wall {statistics.median(result['raw_walls']):.4f} s, "
            f"setup {result['raw_setup_s']:.4f} s, slowdown {result['slowdown']:.3f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test; no reference values")
    args = parser.parse_args()
    # A terminated run unwinds, so subprocess.run kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "filament" / "__init__.py").is_file():
        sys.exit(f"run.py: no filament sources under {ROOT / 'src'}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, args.tiny)
    except (BenchError, OSError, ValueError) as exc:
        sys.exit(f"run.py: {exc}")
    combined = {}
    for name, result in results.items():
        for problem in result["problems"]:
            print(f"{name}: check failed: {problem}", file=sys.stderr)
        if args.trace:
            print("\n".join(result["trace_table"]), file=sys.stderr)
            if result["absent"]:
                print(f"{name}: absent, reported as 0: {', '.join(result['absent'])}")
        print(summary(name, result))
        prefix = f"{name}." if args.workload == "all" else ""
        combined.update({prefix + k: v for k, v in metrics(result, args.trace).items()})
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print("machine: " + json.dumps(results[names[-1]]["machine"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": combined}))


if __name__ == "__main__":
    main()
