"""Plain key=value run configuration with exhaustive validation.

Config files are UTF-8 text, one `key = value` per line, `#` comments.
Parsing reports every problem at once (unknown keys, bad or out-of-range
values, duplicates), each tagged with its line number.

Each input rule is one converter from the raw text to the value,
raising ValueError; eps, grid size and model take the rules of the
modules whose arithmetic needs them.  A field's annotation is its
converter, so keys of the same name in `simulate` and `sweep` follow
one rule, which the command line's options use too.
"""

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .multipliers import check_epsilon, check_model
from .spectral import check_grid_size

ENERGY_TOL = 1e-8    # a step raising the energy by more than this times E(0) is flagged
CG_TOL = 1e-10       # relative residual at which the tension CG stops
INEXT_TOL = 1e-6     # a step's curve is resampled when max ||X_s| - 1| > INEXT_TOL / 2
SNAPSHOT_EVERY = 20  # steps between the snapshots of a run or a sweep row


class ConfigError(ValueError):
    """Carries the full list of validation errors."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.errors))


def positive(raw):
    value = float(raw)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"must be positive and finite, got {value!r}")
    return value


def fraction(raw):
    """A relative tolerance, in (0, 1): a zero solution meets one of 1."""
    value = float(raw)
    if not 0.0 < value < 1.0:
        raise ValueError(f"must lie in (0, 1), got {value!r}")
    return value


def count(raw):
    value = int(raw)
    if value < 1:
        raise ValueError(f"must be >= 1, got {value!r}")
    return value


def aspect_ratio(raw):
    """eps where the multipliers are defined, capped at 0.1: a slender filament."""
    return check_epsilon(float(raw), cap=0.1)


def strictly_decreasing(values):
    """values as a tuple, if each is below the one before it."""
    if any(a <= b for a, b in zip(values, values[1:])):
        raise ValueError(f"must be strictly decreasing, got {tuple(values)}")
    return tuple(values)


def aspect_ratios(raw):
    """A strictly decreasing comma-separated list of aspect ratios."""
    values = tuple(aspect_ratio(p) for p in raw.split(",") if p.strip())
    if not values:
        raise ValueError("must be a nonempty comma-separated list")
    return strictly_decreasing(values)


def curve_spec(raw):
    """The initial curve a name asks for: ("circle",), ("trefoil",),
    ("perturbed-circle", mode, amplitude) or ("csv", path)."""
    name = raw.strip()
    if name in ("circle", "trefoil"):
        return (name,)
    if name.startswith("perturbed-circle(") and name.endswith(")"):
        parts = [p.strip() for p in name[len("perturbed-circle("):-1].split(",")]
        if len(parts) != 2:
            raise ValueError(f"perturbed-circle takes (mode, amplitude), got {name!r}")
        mode, amplitude = int(parts[0]), float(parts[1])
        if mode < 1 or not math.isfinite(amplitude):
            raise ValueError(f"perturbed-circle needs a mode >= 1 and a finite amplitude, "
                             f"got {name!r}")
        return ("perturbed-circle", mode, amplitude)
    if name.endswith(".csv"):
        return ("csv", name)
    raise ValueError(f"unknown initial curve {name!r}")


def curve_name(raw):
    """A corpus curve name with valid arguments, or an existing .csv file."""
    kind, *args = curve_spec(raw)
    if kind == "csv" and not Path(args[0]).is_file():
        raise ValueError(f"curve file not found: {args[0]}")
    return raw.strip()


def boolean(raw):
    low = raw.lower()
    if low in ("true", "on", "yes", "1"):
        return True
    if low in ("false", "off", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


@dataclass
class RunConfig:
    model: check_model = None
    epsilon: aspect_ratio = None
    n: check_grid_size = None
    horizon: positive = None
    dt: positive = None
    rescaled_time: boolean = False
    initial_curve: curve_name = "circle"
    inextensibility_tol: positive = INEXT_TOL
    cg_tol: fraction = CG_TOL
    energy_tol: positive = ENERGY_TOL
    snapshot_every: count = SNAPSHOT_EVERY


@dataclass
class SweepConfig:
    epsilons: aspect_ratios = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    horizon: positive = 0.5
    n: check_grid_size = 256
    initial_curve: curve_name = "perturbed-circle(3,0.05)"
    snapshot_every: count = SNAPSHOT_EVERY
    cg_tol: fraction = CG_TOL
    inextensibility_tol: positive = INEXT_TOL
    confirmation: boolean = False  # extra n=1024 run at eps=1e-4

    def rows(self):
        """The (eps, n) of each row: every eps at n, then the confirmation's if new."""
        rows = [(eps, self.n) for eps in self.epsilons] + [(1e-4, 1024)] * self.confirmation
        return list(dict.fromkeys(rows))


def _parse(text, cls, required):
    """A cls from key=value text, each value converted by its field's
    annotation; raises ConfigError listing every problem."""
    rules = {f.name: f.type for f in fields(cls)}
    errors, values, first_line = [], {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            errors.append(f"line {lineno}: expected 'key = value', got {body!r}")
            continue
        key, raw = (part.strip() for part in body.split("=", 1))
        if key in first_line:
            errors.append(
                f"line {lineno}: duplicate key {key!r} (first set on line {first_line[key]})"
            )
            continue
        first_line[key] = lineno
        if key not in rules:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        try:
            values[key] = rules[key](raw)
        except ValueError as exc:
            errors.append(f"line {lineno}: bad value for {key!r}: {exc}")
    errors += [f"missing required key {key!r}" for key in required if key not in first_line]
    if errors:
        raise ConfigError(errors)
    return cls(**values)


def parse_config(text):
    """Parse and validate a RunConfig; raises ConfigError listing all problems."""
    return _parse(text, RunConfig, ("model", "epsilon", "n", "horizon"))


def parse_sweep_config(text):
    """Parse and validate a SweepConfig from key=value text."""
    return _parse(text, SweepConfig, ())


def config_as_dict(config):
    return {f.name: getattr(config, f.name) for f in fields(config)}
