"""Property tests of the input rules, run derandomized with a fixed
example budget so that the suite stays deterministic.

Every eps the config accepts gives finite positive multipliers; any
config text and option values give exit code 0, 1 or 2 from the CLI,
never a traceback, with no output on exit 1 and a manifest on a
simulate or sweep exit 2; a curve CSV reads back bit for bit.
"""

import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from filament.cli import main
from filament.config import RunConfig, SweepConfig, aspect_ratio
from filament.multipliers import eval_mn, eval_mt
from filament.spectral import PeriodicCurve, read_curve_csv, write_curve_csv


def budget(examples):
    """The settings of a property test: derandomized, a fixed number of
    examples, no deadline and no example database."""
    return settings(derandomize=True, max_examples=examples, deadline=None, database=None)


@budget(150)
@given(st.one_of(st.floats(min_value=-90.0, max_value=0.0).map(lambda p: 10.0 ** p),
                 st.floats(min_value=0.0, max_value=0.2)))
@example(1e-70)
@example(1e-80)
@example(0.1)
@example(5e-324)
def test_accepted_epsilon_gives_finite_positive_multipliers(eps):
    try:
        eps = aspect_ratio(repr(eps))
    except ValueError:
        return
    k = np.arange(4097)
    for m in (eval_mt(eps, k), eval_mn(eps, k)):
        assert np.all(np.isfinite(m)) and np.all(m > 0.0)


# Values of each config key: ones its rule accepts, at n <= 64 and a
# short horizon (cg_tol = 1e-30 stalls CG, so the run fails; the last two
# curves pass the name rule but cannot be built), and ones it refuses.
# {csv} is a circle at n = 32.
ACCEPTED = {
    "model": ["leps", "rft"],
    "epsilon": ["1e-2", "1e-70", "0.1"],
    "epsilons": ["1e-2", "1e-2, 1e-3", "0.1, 1e-70"],
    "n": ["32", "64"],
    "horizon": ["2e-6", "1e-5"],
    "dt": ["5e-7", "1e-6"],
    "rescaled_time": ["true", "false"],
    "initial_curve": ["circle", "trefoil", "perturbed-circle(2,0.03)", "{csv}",
                      "perturbed-circle(2,5)", "perturbed-circle(3,1e300)"],
    "inextensibility_tol": ["1e-6", "1e-3"],
    "cg_tol": ["1e-10", "1e-30"],
    "energy_tol": ["1e-8", "1e-30"],
    "snapshot_every": ["1", "20"],
    "confirmation": ["false"],  # true adds a row at n = 1024
}
REFUSED = {
    "model": ["stokes"],
    "epsilon": ["1e-80", "0.5", "nan"],
    "epsilons": ["1e-3, 1e-2", "1e-2, 1e-80", ""],
    "n": ["48", "16"],
    "horizon": ["0", "inf"],
    "dt": ["0", "nan"],
    "rescaled_time": ["maybe"],
    "initial_curve": ["perturbed-circle(0,1)", "nope", "missing.csv"],
    "inextensibility_tol": ["-1"],
    "cg_tol": ["0"],
    "energy_tol": ["-1"],
    "snapshot_every": ["0"],
    "confirmation": ["maybe"],
}
REQUIRED = {RunConfig: ("model", "epsilon", "n", "horizon"), SweepConfig: ("horizon", "n")}
JUNK = ["no equals sign", "viscosity = 2", "n = 32"]


@st.composite
def config_text(draw, cls):
    """Lines for the keys of cls (the required ones always, the others
    maybe) in any order, with accepted values; in half the texts one key
    has a refused value or a junk line is added."""
    keys = [f.name for f in fields(cls)]
    refused = draw(st.sampled_from([None] * (len(keys) + 1) + keys + ["junk"]))
    lines = [f"{key} = {draw(st.sampled_from((REFUSED if key == refused else ACCEPTED)[key]))}"
             for key in keys if key in REQUIRED[cls] or key == refused or draw(st.booleans())]
    if refused == "junk":
        lines.append(draw(st.sampled_from(JUNK)))
    return "\n".join(draw(st.permutations(lines))) + "\n"


def check_cli(argv, tmp, directory):
    """main's exit code is 0, 1 or 2 (any exception fails the test); exit
    1 leaves no output, a directory command's exit 0 or 2 a manifest."""
    out = tmp / "out"
    code = main([*argv, "--out", str(out)])
    assert code in (0, 1, 2)
    if code == 1:
        assert not out.exists()
    elif directory:
        assert (out / "manifest.json").is_file()
    return code


def with_curve_file(tmp, text):
    csv = tmp / "circle32.csv"
    write_curve_csv(PeriodicCurve.circle(32), csv)
    return text.replace("{csv}", str(csv))


@budget(60)
@given(config_text(RunConfig))
def test_simulate_config_gives_a_clean_exit(text):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "run.cfg").write_text(with_curve_file(tmp, text))
        check_cli(["simulate", "--config", str(tmp / "run.cfg")], tmp, True)


@budget(40)
@given(config_text(SweepConfig), st.sampled_from(["1", "1", "1", "0"]))
def test_sweep_config_gives_a_clean_exit(text, jobs):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "sweep.cfg").write_text(with_curve_file(tmp, text))
        check_cli(["sweep", "--config", str(tmp / "sweep.cfg"), "--jobs", jobs], tmp, True)


@budget(40)
@given(st.sampled_from(["multiplier-dump", "tension-check", "lemma-suite"]),
       *(st.sampled_from(ACCEPTED[key] + REFUSED[key]) for key in ("epsilon", "epsilons")),
       st.sampled_from(["1", "8", "0", "x"]), st.sampled_from(["leps", "rft", "stokes"]))
def test_option_values_give_a_clean_exit(command, eps, epsilons, kmax, model):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = {"multiplier-dump": ["--epsilon", eps, "--kmax", kmax],
                "tension-check": ["--curve", with_curve_file(tmp, "{csv}"), "--epsilon", eps,
                                  "--model", model],
                "lemma-suite": ["--epsilons", epsilons, "--kmax", kmax]}[command]
        check_cli([command, *argv], tmp, command == "lemma-suite")


@budget(50)
@given(st.sampled_from([32, 64]).flatmap(lambda n: arrays(
    np.float64, (n, 3), elements=st.floats(min_value=-1e150, max_value=1e150))))
def test_curve_csv_round_trip_is_bit_exact(samples):
    curve = PeriodicCurve(samples)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "curve.csv"
        write_curve_csv(curve, path)
        back = read_curve_csv(path)
    assert back.samples.tobytes() == curve.samples.tobytes()
