"""Write every output file of the benchmark's CLI calls, to compare two
source checkouts.

    python3 tools/replay_outputs.py ROOT OUT

ROOT is a source checkout (its src/ and perfbench/ are used).  For each
benchmark workload at seeds 0 and 1 this writes the workload's inputs
with ROOT/perfbench/inputs.py into OUT/<workload>-seed<N>/ and replays
its plan.json through filament.cli.main, so the outputs land in out/
next to the inputs.  The seed-0 sweep is replayed a second time with
--jobs 2 into OUT/sweep-seed0-jobs2/, which covers the sweep split over
worker processes.  It then runs `lemma-suite` at its defaults into
OUT/lemma-suite/, `multiplier-dump --epsilon 1e-3 --kmax 4096` into
OUT/multiplier-dump/, and three `simulate` calls at n = 32, each with
the config it writes first: the rft model with the dt policy into
OUT/simulate-rft-n32/, the leps model with a fixed dt into
OUT/simulate-leps-n32-dt/, and the same with cg_tol = 1e-30, whose
first tension solve stalls, into OUT/simulate-leps-n32-stall/.  Then
a `sweep` at n = 64 with `confirmation = true` (eps = 1e-2, 1e-3, 1e-4
and the n = 1024 row, a second grid size and a second batch) goes into
OUT/sweep-confirmation/.  Then `tension-check` on a curve file written
as a person might write it (HAND_CURVE), which covers the reader's edge
cases, goes into OUT/tension-check-hand/.  Last, a `simulate` of the rft
model at n = 64 from a folded-over curve (FOLDED_CURVE) with
inextensibility_tol = 10, whose scheduled resampling of step 20 finds
the fold-over and fails that step, goes into
OUT/simulate-rft-n64-foldover/.  A call
must exit with its code in EXIT_CODES (0 if it has none); the script
exits 1 if any does not.  Each replay runs in a fresh interpreter with
BLAS and OpenMP pinned to one thread, as in the benchmark.  The
wall_time_s of each directory manifest (manifest.json) is dropped, so
two replays compare whole, manifests included.

A change that alters no arithmetic replays byte for byte:

    diff -r OUT_A OUT_B

is empty.  A change that moves roundoff replays with the same file set
and identical step, time and dt columns (the dt policy rounds to a fixed
grid, so roundoff does not reach dt), and every other number within a
scaled difference that the change states, read from

    python3 tools/compare_outputs.py OUT_A OUT_B

Exempt from that tolerance, because they read roundoff itself: the
cg_iterations, cg_residual and inext_residual columns of
diagnostics.csv, the mean_sq trace of a sweep (the squared mean of
W = X - Y, ~1e-36), and in the manifests mean_cg_iterations and the
iteration count and residual of a stall (the cg_tol = 1e-30 run stops at
its 10 n iteration cap).
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sweep", "simulate_n1024", "tension_check")
SEEDS = (0, 1)
# The circle of length 1 at n = 32 as a curve file a person might write:
# LF line endings, spaces around the cells, signed cells and one blank line.
HAND_CURVE = "s , x , y , z\n" + "".join(
    f" {j / 32} , {math.cos(math.pi * j / 16) / (2 * math.pi):+.6f} ,"
    f" {math.sin(math.pi * j / 16) / (2 * math.pi):+.6f} , 0\n" + "\n" * (j == 15)
    for j in range(32))
# A circle traversed at speed 1 + 0.6 cos(2 pi s) on n = 64 points:
# min |X_s| = 0.4, a fold-over to the resampler.
FOLDED_CURVE = "s,x,y,z\n" + "".join(
    f"{j / 64!r},{math.cos(phase) / (2 * math.pi)!r},{math.sin(phase) / (2 * math.pi)!r},"
    f"{0.06 * math.sin(2 * phase) / (2 * math.pi)!r}\n"
    for j, phase in ((j, 2 * math.pi * j / 64 + 0.6 * math.sin(2 * math.pi * j / 64))
                     for j in range(64)))
# name: (CLI call, {input file: its text})
EXTRA_CALLS = {
    "lemma-suite": (["lemma-suite", "--out", "out"], {}),
    "multiplier-dump": (["multiplier-dump", "--epsilon", "1e-3", "--kmax", "4096",
                         "--out", "out/multipliers.csv"], {}),
    "simulate-rft-n32": (["simulate", "--config", "rft.cfg", "--out", "out/simulate"], {
        "rft.cfg": "model = rft\nepsilon = 1e-3\nn = 32\nhorizon = 2e-5\n"
                   "initial_curve = perturbed-circle(3,0.05)\n"}),
    "simulate-leps-n32-dt": (["simulate", "--config", "leps.cfg", "--out", "out/simulate"], {
        "leps.cfg": "model = leps\nepsilon = 1e-3\nn = 32\nhorizon = 2e-5\ndt = 2e-7\n"
                    "initial_curve = perturbed-circle(3,0.05)\n"}),
    "simulate-leps-n32-stall": (["simulate", "--config", "stall.cfg", "--out", "out/simulate"], {
        "stall.cfg": "model = leps\nepsilon = 1e-3\nn = 32\nhorizon = 2e-5\ndt = 2e-7\n"
                     "cg_tol = 1e-30\ninitial_curve = perturbed-circle(3,0.05)\n"}),
    "sweep-confirmation": (["sweep", "--config", "confirm.cfg", "--out", "out/sweep"], {
        "confirm.cfg": "epsilons = 1e-2, 1e-3, 1e-4\nn = 64\nhorizon = 2e-4\n"
                       "confirmation = true\n"}),
    "tension-check-hand": (["tension-check", "--curve", "hand.csv", "--epsilon", "1e-3",
                            "--out", "out/tau.csv"], {"hand.csv": HAND_CURVE}),
    "simulate-rft-n64-foldover": (["simulate", "--config", "folded.cfg", "--out",
                                   "out/simulate"], {
        "folded.cfg": "model = rft\nepsilon = 1e-3\nn = 64\nhorizon = 1e-3\ndt = 1e-8\n"
                      "inextensibility_tol = 10\nsnapshot_every = 7\n"
                      "initial_curve = folded.csv\n",
        "folded.csv": FOLDED_CURVE}),
}
# replay name: its declared exit code, for the calls that must fail
EXIT_CODES = {"simulate-leps-n32-stall": 2, "simulate-rft-n64-foldover": 2}

# Run in the child, inside the replay directory: argv[1] is a workload
# name, argv[2] its seed and argv[3], if given, the --jobs value of its
# calls; or argv[1] is "-", argv[2] one CLI call as JSON and argv[3] its
# input files as JSON, {name: text}.
CHILD = """
import json, os, sys
from pathlib import Path
import filament.cli
if sys.argv[1] == "-":
    calls = [json.loads(sys.argv[2])]
    for name, text in json.loads(sys.argv[3]).items():
        Path(name).write_text(text)
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
    replays = {f"{workload}-seed{seed}": [workload, str(seed)]
               for workload in WORKLOADS for seed in SEEDS}
    replays["sweep-seed0-jobs2"] = ["sweep", "0", "2"]
    replays.update((name, ["-", json.dumps(argv), json.dumps(files)])
                   for name, (argv, files) in EXTRA_CALLS.items())
    wrong = [name for name, args in replays.items()
             if replay(root, out / name, args) != EXIT_CODES.get(name, 0)]
    if wrong:
        sys.exit(f"replay_outputs.py: unexpected exit code from {', '.join(wrong)}")


if __name__ == "__main__":
    main()
