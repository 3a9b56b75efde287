"""Write every output file of the benchmark's CLI calls, for a byte-for-byte
comparison of two source checkouts.

    python3 tools/replay_outputs.py ROOT OUT

ROOT is a source checkout (its src/ and perfbench/ are used).  For each
benchmark workload at seeds 0 and 1 this writes the workload's inputs
with ROOT/perfbench/inputs.py into OUT/<workload>-seed<N>/ and replays
its plan.json through filament.cli.main, so the outputs land in out/
next to the inputs.  The seed-0 sweep is replayed a second time with
--jobs 2 into OUT/sweep-seed0-jobs2/, which covers the sweep split over
worker processes.  It then runs `lemma-suite` at its defaults into
OUT/lemma-suite/ and `multiplier-dump --epsilon 1e-3 --kmax 4096` into
OUT/multiplier-dump/.  Each replay runs in a fresh interpreter with
BLAS and OpenMP pinned to one thread, as in the benchmark.  The
wall_time_s of each directory manifest (manifest.json) is dropped, so
two replays compare whole, manifests included, with

    diff -r OUT_A OUT_B
"""

import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sweep", "simulate_n1024", "tension_check")
SEEDS = (0, 1)
EXTRA_CALLS = {
    "lemma-suite": ["lemma-suite", "--out", "out"],
    "multiplier-dump": ["multiplier-dump", "--epsilon", "1e-3", "--kmax", "4096",
                        "--out", "out/multipliers.csv"],
}

# Run in the child, inside the replay directory: argv[1] is a workload
# name, argv[2] its seed and argv[3], if given, the --jobs value of its
# calls; or argv[1] is "-" and argv[2] one CLI call as JSON.
CHILD = """
import json, os, sys
from pathlib import Path
import filament.cli
if sys.argv[1] == "-":
    calls = [json.loads(sys.argv[2])]
else:
    from inputs import write_inputs
    write_inputs(sys.argv[1], int(sys.argv[2]), ".")
    calls = [c["argv"] for c in json.loads(Path("plan.json").read_text())["calls"]]
    if len(sys.argv) > 3:
        for argv in calls:
            argv[argv.index("--jobs") + 1] = sys.argv[3]
os.makedirs("out", exist_ok=True)
codes = [filament.cli.main(list(argv)) for argv in calls]
sys.exit(max(codes))
"""


def replay(root, directory, args):
    directory.mkdir(parents=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1", PYTHONNOUSERSITE="1",
               PYTHONPATH=f"{root / 'src'}{os.pathsep}{root / 'perfbench'}")
    proc = subprocess.run([sys.executable, "-c", CHILD, *args], cwd=directory, env=env)
    print(f"{directory.name}: exit code {proc.returncode}")
    for path in directory.rglob("manifest.json"):
        manifest = json.loads(path.read_text())
        manifest.pop("wall_time_s", None)
        path.write_text(json.dumps(manifest, indent=2) + "\n")
    return proc.returncode


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    root, out = Path(sys.argv[1]).resolve(), Path(sys.argv[2]).resolve()
    if out.exists():
        sys.exit(f"replay_outputs.py: {out} already exists")
    codes = [replay(root, out / f"{workload}-seed{seed}", [workload, str(seed)])
             for workload in WORKLOADS for seed in SEEDS]
    codes.append(replay(root, out / "sweep-seed0-jobs2", ["sweep", "0", "2"]))
    codes += [replay(root, out / name, ["-", json.dumps(argv)])
              for name, argv in EXTRA_CALLS.items()]
    sys.exit(1 if any(codes) else 0)


if __name__ == "__main__":
    main()
