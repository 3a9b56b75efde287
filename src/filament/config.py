"""Plain key=value run configuration with exhaustive validation.

Config files are UTF-8 text, one `key = value` per line, `#` comments.
Parsing reports every problem at once (unknown keys, type errors,
range violations, duplicates), each tagged with its line number.
"""

from dataclasses import dataclass, field, fields


class ConfigError(ValueError):
    """Carries the full list of validation errors."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.errors))


@dataclass
class RunConfig:
    model: str = None
    epsilon: float = None
    n: int = None
    horizon: float = None
    dt: float = None
    rescaled_time: bool = False
    initial_curve: str = "circle"
    inextensibility_tol: float = 1e-6
    cg_tol: float = 1e-10
    energy_tol: float = 1e-8
    snapshot_every: int = 20


@dataclass
class SweepConfig:
    epsilons: tuple = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    horizon: float = 0.5
    n: int = 256
    initial_curve: str = "perturbed-circle(3,0.05)"
    snapshot_every: int = field(default=None)
    cg_tol: float = 1e-10
    inextensibility_tol: float = 1e-6
    confirmation: bool = False  # extra n=1024 run at eps=1e-4


_REQUIRED = ("model", "epsilon", "n", "horizon")


def _parse_bool(raw):
    low = raw.lower()
    if low in ("true", "on", "yes", "1"):
        return True
    if low in ("false", "off", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_lines(text, errors):
    """key -> (value string, line number); duplicate keys are errors."""
    seen = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            errors.append(f"line {lineno}: expected 'key = value', got {body!r}")
            continue
        key, raw = (part.strip() for part in body.split("=", 1))
        if key in seen:
            errors.append(
                f"line {lineno}: duplicate key {key!r} (first set on line {seen[key][1]})"
            )
            continue
        seen[key] = (raw, lineno)
    return seen


def _convert(seen, cls, errors, **special):
    """Values for the fields of config class cls, each converted by its
    field's type (bool by _parse_bool) unless `special` names another."""
    spec = {f.name: special.get(f.name, _parse_bool if f.type is bool else f.type)
            for f in fields(cls)}
    out = {}
    for key, (raw, lineno) in seen.items():
        if key not in spec:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        try:
            out[key] = spec[key](raw)
        except (ValueError, TypeError) as exc:
            errors.append(f"line {lineno}: bad value for {key!r}: {exc}")
    return out


def parse_config(text):
    """Parse and validate a RunConfig; raises ConfigError listing all problems."""
    errors = []
    seen = _parse_lines(text, errors)
    values = _convert(seen, RunConfig, errors)
    for key in _REQUIRED:
        if key not in seen:
            errors.append(f"missing required key {key!r}")
    config = RunConfig(**values)
    _line = {k: v[1] for k, v in seen.items()}

    def complain(key, message):
        prefix = f"line {_line[key]}: " if key in _line else ""
        errors.append(f"{prefix}{message}")

    if config.model is not None and config.model not in ("leps", "rft"):
        complain("model", f"model must be 'leps' or 'rft', got {config.model!r}")
    if config.epsilon is not None and not (0.0 < config.epsilon <= 0.1):
        complain("epsilon", f"epsilon must lie in (0, 0.1], got {config.epsilon!r}")
    if config.n is not None and (config.n < 32 or config.n & (config.n - 1)):
        complain("n", f"n must be a power of two >= 32, got {config.n!r}")
    if config.horizon is not None and config.horizon <= 0:
        complain("horizon", f"horizon must be positive, got {config.horizon!r}")
    if config.dt is not None and config.dt <= 0:
        complain("dt", f"dt must be positive, got {config.dt!r}")
    for key in ("inextensibility_tol", "cg_tol", "energy_tol"):
        val = getattr(config, key)
        if not val > 0:
            complain(key, f"{key} must be positive, got {val!r}")
    if config.snapshot_every < 1:
        complain("snapshot_every", f"snapshot_every must be >= 1, got {config.snapshot_every!r}")
    if errors:
        raise ConfigError(errors)
    return config


def parse_sweep_config(text):
    """Parse and validate a SweepConfig from key=value text."""
    errors = []
    seen = _parse_lines(text, errors)

    def _epsilons(raw):
        return tuple(float(p) for p in raw.split(",") if p.strip())

    values = _convert(seen, SweepConfig, errors, epsilons=_epsilons)
    config = SweepConfig(**values)
    eps = config.epsilons
    if not eps:
        errors.append("epsilons must be a nonempty comma-separated list")
    else:
        if any(not (0.0 < e < 0.1) for e in eps):
            errors.append(f"all epsilons must lie in (0, 0.1), got {eps}")
        if any(a <= b for a, b in zip(eps, eps[1:])):
            errors.append(f"epsilons must be strictly decreasing, got {eps}")
    if config.n < 32 or config.n & (config.n - 1):
        errors.append(f"n must be a power of two >= 32, got {config.n!r}")
    if config.horizon <= 0:
        errors.append(f"horizon must be positive, got {config.horizon!r}")
    if errors:
        raise ConfigError(errors)
    return config


def config_as_dict(config):
    return {f.name: getattr(config, f.name) for f in fields(config)}
