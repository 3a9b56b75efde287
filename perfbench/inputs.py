"""Seeded inputs of the filament benchmark workloads.

Run as a script, this is the benchmark's set-up: a fresh interpreter
imports filament and writes every input file of one workload (curve
CSVs, config files and the list of CLI calls that make up one
operation) into a directory, with the samples of the speed probe of
probe.py that normalize the set-up time.  The program under test only
ever sees these files.

    python3 perfbench/inputs.py --workload sweep --seed 0 --out DIR [--tiny]

Seed 0 reproduces the named curves of the acceptance corpus, bit for
bit when BLAS runs on one thread as in the benchmark.  Any other seed
puts the named curve's low-mode out-of-plane perturbation, with its
amplitude, at a random phase on the same base curve.  The seeds thus
ask for the same work, which a benchmark needs: breaking the curve's
m-fold symmetry raises the CG iterations of the tension solves by 40%,
and 5% more amplitude changes the number of steps by up to 10%.
"""

import argparse
import json
import math
from pathlib import Path

import numpy as np

from probe import SpeedProbe

# One size per workload; "tiny" only serves the smoke test.
SIZES = {
    "default": {
        "sweep": {"n": 256, "horizon": 0.01,
                  "epsilons": (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)},
        "simulate_n1024": {"n": 1024, "horizon": 1e-3, "epsilon": 1e-3},
        "tension_check": {"ns": (256, 1024),
                          "epsilons": (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)},
    },
    "tiny": {
        "sweep": {"n": 64, "horizon": 2e-4, "epsilons": (1e-2, 1e-3, 1e-4)},
        "simulate_n1024": {"n": 64, "horizon": 1e-4, "epsilon": 1e-3},
        "tension_check": {"ns": (64,), "epsilons": (1e-2, 1e-4)},
    },
}

STEPPED_CURVE = "perturbed-circle(3,0.05)"
TENSION_CORPUS = ("perturbed-circle(2,0.04)", "perturbed-circle(3,0.05)", "trefoil")
MODELS = ("leps", "rft")
# Out-of-plane perturbation put on the trefoil for seeds other than 0:
# mode (the trefoil's 3-fold symmetry) and amplitude relative to the
# unit-length circle's radius.
TREFOIL_PERTURBATION = (3, 0.02)


def _base_and_mode(name, n):
    """Base curve and (mode, amplitude) of its out-of-plane perturbation."""
    from filament.spectral import PeriodicCurve

    if name == "trefoil":
        return PeriodicCurve.trefoil(n), TREFOIL_PERTURBATION
    inner = name[len("perturbed-circle("):-1]
    mode, amp = inner.split(",")
    return PeriodicCurve.circle(n), (int(mode), float(amp))


def seeded_curve(name, n, rng):
    """The named corpus curve when rng is None, else its perturbation at
    a random phase."""
    from filament.evolution import initial_curve
    from filament.spectral import PeriodicCurve, reparameterize_arclength

    if rng is None:
        return initial_curve(name, n)
    base, (mode, amp) = _base_and_mode(name, n)
    s = np.arange(n) / n
    z = amp * np.sin(2 * math.pi * mode * s + rng.uniform(0, 2 * math.pi))
    samples = base.samples.copy()
    samples[:, 2] += z / (2 * math.pi)
    return reparameterize_arclength(PeriodicCurve(samples), passes=2)


def _label(name):
    return name.replace("perturbed-circle(", "pc").replace(",", "_").replace(")", "")


def write_inputs(workload, seed, out, size="default"):
    """Write the inputs and plan.json of one workload run into out."""
    from filament.spectral import write_curve_csv

    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    rng = None if seed == 0 else np.random.default_rng(seed)
    spec = SIZES[size][workload]
    plan = {"workload": workload, "seed": seed, "size": size, "calls": []}
    if workload == "sweep":
        write_curve_csv(seeded_curve(STEPPED_CURVE, spec["n"], rng), out / "curve.csv")
        (out / "sweep.cfg").write_text(
            f"epsilons = {', '.join(format(e, 'g') for e in spec['epsilons'])}\n"
            f"horizon = {spec['horizon']!r}\n"
            f"n = {spec['n']}\n"
            "initial_curve = curve.csv\n"
        )
        plan["epsilons"] = list(spec["epsilons"])
        plan["calls"].append({"argv": ["sweep", "--config", "sweep.cfg", "--out", "out/sweep",
                                       "--jobs", "1", "--force"]})
    elif workload == "simulate_n1024":
        write_curve_csv(seeded_curve(STEPPED_CURVE, spec["n"], rng), out / "curve.csv")
        (out / "simulate.cfg").write_text(
            "model = leps\n"
            f"epsilon = {spec['epsilon']!r}\n"
            f"n = {spec['n']}\n"
            f"horizon = {spec['horizon']!r}\n"
            "rescaled_time = true\n"
            "initial_curve = curve.csv\n"
        )
        plan["calls"].append({"argv": ["simulate", "--config", "simulate.cfg",
                                       "--out", "out/simulate", "--force"]})
    elif workload == "tension_check":
        for name in TENSION_CORPUS:
            for n in spec["ns"]:
                path = f"{_label(name)}_n{n}.csv"
                write_curve_csv(seeded_curve(name, n, rng), out / path)
                for eps in spec["epsilons"]:
                    for model in MODELS:
                        i = len(plan["calls"])
                        plan["calls"].append({
                            "key": f"{_label(name)}/n{n}/eps{eps:g}/{model}",
                            "n": n,
                            "argv": ["tension-check", "--curve", path, "--epsilon", repr(eps),
                                     "--model", model, "--out", f"out/tau_{i:02d}.csv", "--force"],
                        })
    (out / "plan.json").write_text(json.dumps(plan, indent=1) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=SIZES["default"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    with SpeedProbe() as probe:
        write_inputs(args.workload, args.seed, args.out, "tiny" if args.tiny else "default")
    (Path(args.out) / "probe.json").write_text(json.dumps(probe.samples) + "\n")


if __name__ == "__main__":
    main()
