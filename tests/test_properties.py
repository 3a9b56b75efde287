"""Property tests of the input rules, run derandomized with a fixed
example budget so that the suite stays deterministic.

Every eps the config accepts gives finite positive multipliers; any
config text and option values give exit code 0, 1 or 2 from the CLI,
never a traceback, with no output on exit 1 and a manifest on a
simulate or sweep exit 2; a curve CSV reads back bit for bit, and the
CSV writer and reader give the bytes, bits and messages of the per-row
writer and the np.array reader they replaced.  On
random band-limited curves, a batch of members (both models, any
accepted eps, cold and warm starts) gets the bits of each member's solo
tension solve and step, and a step gives finite samples or raises
SolverError or GeometryError.
"""

import csv
import tempfile
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from filament.cli import main
from filament.config import CG_TOL, RunConfig, SweepConfig, aspect_ratio
from filament.evolution import EvolutionState, StepOptions, _advance, _step
from filament.multipliers import ForceMapStack, build_table, force_map_for
from filament.spectral import (CurveBatch, GeometryError, PeriodicCurve, _cell_format,
                               read_curve_csv, write_csv, write_curve_csv)
from filament.tension import SolverError, TensionField, TensionProblem, solve_tensions


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
    table = build_table(eps, 4096)
    for m in (table.mt, table.mn):
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


def write_csv_per_row(path, header, rows):
    """The per-row CSV writer that write_csv replaced: the reference of its bytes."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for row in rows:
            fh.write(",".join(map(_cell_format, row)) % tuple(row) + "\r\n")


def read_curve_csv_np_array(path):
    """The curve reader that read_curve_csv replaced, converting the cells
    with one np.array call: the reference of its bits and messages."""
    rows, lines = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if [h.strip() for h in header] != ["s", "x", "y", "z"]:
            raise ValueError(f"unexpected curve CSV header: {header}")
        for row in reader:
            if not row:
                continue
            if len(row) != 4:
                raise ValueError(f"line {reader.line_num}: expected 4 columns s,x,y,z, "
                                 f"got {len(row)}")
            rows.append(row)
            lines.append(reader.line_num)
    try:
        table = np.array(rows, dtype=float).reshape(-1, 4)
    except ValueError:
        for row, line in zip(rows, lines):
            try:
                list(map(float, row))
            except ValueError as exc:
                raise ValueError(f"line {line}: {exc}") from None
        raise
    n = len(table)
    off = np.flatnonzero(~(np.abs(table[:, 0] - np.arange(n) / n) <= 1e-9)).tolist()
    if off:
        j = off[0]
        raise ValueError(f"line {lines[j]}: s = {float(table[j, 0])!r}, "
                         f"expected j/n = {j}/{n} = {j / n!r}")
    return PeriodicCurve(table[:, 1:])


NUMBER = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
CELL = st.one_of(st.integers(-2 ** 70, 2 ** 70), st.booleans(),
                 st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), NUMBER,
                 NUMBER.map(np.float64))


@budget(150)
@given(st.lists(st.lists(CELL, max_size=6).flatmap(lambda row: st.sampled_from([row, tuple(row)])),
                max_size=12))
@example([[7, np.int64(-3)], (True, False), [float("nan"), -np.inf, 5e-324, np.float64(-1e-310)],
          [], [1.0]])
def test_csv_writer_equals_per_row_writer(rows):
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        write_csv(got, ["a", "b"], rows)
        write_csv_per_row(want, ["a", "b"], rows)
        assert got.read_bytes() == want.read_bytes()


DIGITS = [str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669"),
          str.maketrans("0123456789", "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19")]
SPACES = ["", " ", "\t", "  ", "\u2003"]
SPECIAL = ["nan", "inf", "-inf", "+Infinity", "abc", "", "1.0.0", "1__0", "0x1p-2", ' "0.5"']


def spelled(value, style):
    """value as a cell spelled by the bits of style: repr or %.17g, a +
    sign, an underscore between two digits, non-ASCII digits, spaces
    around and quotes around those."""
    text = repr(value) if style & 1 else "%.17g" % value
    if style & 2 and not text.startswith("-"):
        text = "+" + text
    if style & 4:
        at = [i for i in range(1, len(text)) if text[i - 1].isdigit() and text[i].isdigit()]
        if at:
            i = at[(style >> 9) % len(at)]
            text = text[:i] + "_" + text[i:]
    if style & 8:
        text = text.translate(DIGITS[(style >> 4) & 1])
    text = SPACES[(style >> 6) % 5] + text + SPACES[(style >> 9) % 5]
    return f'"{text}"' if style & 32 else text


@st.composite
def curve_file_text(draw):
    """The text of a 32-point circle's curve file with random cell
    spellings, blank lines, line endings, and maybe a ragged row or a
    cell that is no number."""
    n = 32
    table = np.column_stack([np.arange(n) / n, PeriodicCurve.circle(n).samples]).tolist()
    styles = draw(st.lists(st.integers(0, 2 ** 12 - 1), min_size=4 * n, max_size=4 * n))
    lines = [",".join(spelled(v, styles[4 * j + i]) for i, v in enumerate(row))
             for j, row in enumerate(table)]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    edit = draw(st.sampled_from([None, None, "ragged", "special"]))
    if edit is not None:
        j = draw(st.integers(0, len(lines) - 1))
        cells = lines[j].split(",")
        if edit == "ragged":
            cells = cells[:-1] if draw(st.booleans()) else cells + ["0"]
        else:
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(SPECIAL))
        lines[j] = ",".join(cells)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join([draw(st.sampled_from(["s,x,y,z", " s , x , y , z"])), *lines]) + eol


def read_outcome(read, path):
    """The samples' bytes read from path, or the type and message of the refusal."""
    try:
        return read(path).samples.tobytes()
    except ValueError as exc:
        return type(exc), str(exc)


@budget(150)
@given(curve_file_text())
def test_curve_reader_equals_np_array_reader(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "curve.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert read_outcome(read_curve_csv, path) == read_outcome(read_curve_csv_np_array, path)


N = 32  # grid size of the stepping properties


@st.composite
def band_limited_curve(draw):
    """The unit-length circle plus random modes 1..4 in each coordinate
    (amplitude up to 0.01/k, 0.03/k or 0.1/k), as PeriodicCurve takes it:
    near arclength or far from it, and some folding over."""
    size = draw(st.sampled_from([0.01, 0.03, 0.1]))
    modes = size * draw(arrays(np.float64, (4, 2, 3), elements=st.floats(-1.0, 1.0)))
    phase = 2 * np.pi * np.arange(N) / N
    samples = PeriodicCurve.circle(N).samples.copy()
    for k, (a, b) in enumerate(modes, start=1):
        samples += (np.cos(k * phase)[:, None] * a + np.sin(k * phase)[:, None] * b) / k
    return PeriodicCurve(samples)


@st.composite
def member(draw):
    """(curve, force map, warm start or None, dt, StepOptions) of one
    batch member: either model, eps in the accepted domain [1e-70, 0.1],
    a cold or warm start, native or rescaled time, and a CG tolerance
    that is met or one that stalls (1e-30)."""
    force_map = force_map_for(draw(st.sampled_from(["leps", "rft"])),
                              10.0 ** draw(st.floats(-70.0, -1.0)), N)
    warm = draw(st.none() | arrays(np.float64, N, elements=st.floats(-50.0, 10.0)))
    rescaled = draw(st.booleans())
    options = StepOptions(cg_tol=draw(st.sampled_from([CG_TOL] * 4 + [1e-30])),
                          time_scale=1.0 / force_map.log_eps if rescaled else 1.0)
    dt = 10.0 ** draw(st.floats(-8.0, -5.0))
    return draw(band_limited_curve()), force_map, warm, dt, options


def start(curve, warm):
    """The state of curve at t = 0, warm (if not None) its lagged tension."""
    return EvolutionState(curve, 0.0, None if warm is None else TensionField.from_values(warm))


def outcomes(function, calls):
    """function's result on each call, or the SolverError or GeometryError
    it raised."""
    results = []
    for args in calls:
        try:
            results.append(function(*args))
        except (SolverError, GeometryError) as exc:
            results.append(exc)
    return results


@budget(30)
@given(st.lists(member(), min_size=1, max_size=4))
def test_batched_tension_solve_equals_solo(members):
    members.sort(key=lambda m: m[1].model != "leps")  # a batch takes leps members first
    curves, maps, warm, _, options = zip(*members)
    tols = [o.cg_tol for o in options]
    solo = outcomes(solve_tensions, [(TensionProblem(c, m, cg_tol=tol), [w])
                                     for c, m, w, tol in zip(curves, maps, warm, tols)])
    batch = TensionProblem(CurveBatch.of(curves), ForceMapStack(maps, N // 2 + 1), cg_tol=tols)
    failures = [str(r) for r in solo if isinstance(r, SolverError)]
    if failures:  # the batch raises a failing member's error
        with pytest.raises(SolverError) as err:
            solve_tensions(batch, warm)
        assert str(err.value) in failures
        return
    tensions, velocities = solve_tensions(batch, warm)
    for got, velocity, ((want,), (want_velocity,)) in zip(tensions, velocities, solo):
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(velocity, want_velocity)
        assert (got.iterations, got.residual) == (want.iterations, want.residual)


@budget(30)
@given(st.lists(member(), min_size=1, max_size=4))
def test_batched_step_equals_solo(members):
    members.sort(key=lambda m: m[1].model != "leps")
    curves, maps, warm, dts, options = zip(*members)
    states = list(map(start, curves, warm))
    solo = outcomes(lambda state, dt, m, o: _step(state, dt, m, **asdict(o)),
                    zip(states, dts, maps, options))
    failures = [repr(r) for r in solo if isinstance(r, Exception)]
    if failures:  # the batch raises a failing member's error
        with pytest.raises((SolverError, GeometryError)) as err:
            _advance(states, maps, dts, options)
        assert repr(err.value) in failures
        return
    for got, want in zip(_advance(states, maps, dts, options), solo):
        assert np.array_equal(got.curve.samples, want.curve.samples)
        assert np.array_equal(got.tension.values, want.tension.values)
        assert np.array_equal(astuple(got.diagnostics), astuple(want.diagnostics))


@budget(40)
@given(member())
def test_step_gives_finite_samples_or_raises(one):
    curve, force_map, warm, dt, options = one
    try:
        new = _step(start(curve, warm), dt, force_map, **asdict(options))
    except (SolverError, GeometryError):
        return
    assert np.all(np.isfinite(new.curve.samples))
