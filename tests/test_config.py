"""Tests for key=value config parsing and validation."""

import inspect

import pytest

from filament.config import (
    CG_TOL,
    INEXT_TOL,
    SNAPSHOT_EVERY,
    ConfigError,
    RunConfig,
    SweepConfig,
    config_as_dict,
    parse_config,
    parse_sweep_config,
)
from filament.evolution import StepOptions, choose_dt, initial_curve
from filament.multipliers import build_table
from filament.tension import TensionProblem

MINIMAL = "model = leps\nepsilon = 1e-3\nn = 64\nhorizon = 0.1\n"


class TestRunConfig:
    def test_minimal(self):
        config = parse_config(MINIMAL)
        assert config.model == "leps"
        assert config.epsilon == 1e-3
        assert config.n == 64
        assert config.horizon == 0.1
        assert config.dt is None  # policy default
        assert config.rescaled_time is False
        assert config.initial_curve == "circle"

    def test_comments_and_blank_lines(self):
        config = parse_config("# a comment\n\n" + MINIMAL + "dt = 1e-6  # inline\n")
        assert config.dt == 1e-6

    def test_booleans(self):
        for raw, expected in (("true", True), ("off", False), ("1", True)):
            config = parse_config(MINIMAL + f"rescaled_time = {raw}\n")
            assert config.rescaled_time is expected
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "rescaled_time = maybe\n")

    def test_missing_required_keys_all_reported(self):
        with pytest.raises(ConfigError) as err:
            parse_config("model = leps\n")
        message = str(err.value)
        for key in ("epsilon", "n", "horizon"):
            assert key in message

    def test_duplicate_key_cites_both_lines(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "model = rft\n")
        assert "line 5" in str(err.value) and "line 1" in str(err.value)

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "viscosity = 2\n")
        assert "line 5" in str(err.value) and "viscosity" in str(err.value)

    def test_seed_is_not_a_key(self):
        # the run is deterministic; there is no seed to set
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "seed = 0\n")
        assert "line 5: unknown key 'seed'" in str(err.value)

    def test_type_error_with_line_number(self):
        with pytest.raises(ConfigError) as err:
            parse_config("model = leps\nepsilon = tiny\nn = 64\nhorizon = 0.1\n")
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize("override,fragment", [
        ("model = stokes", "model"),
        ("epsilon = 0.5", "epsilon"),
        ("epsilon = 1e-80", "epsilon must lie in [1e-70, 0.1], got 1e-80"),
        ("epsilon = 0", "epsilon must lie in [1e-70, 0.1], got 0.0"),
        ("n = 48", "power of two"),
        ("n = 16", "power of two"),
        ("horizon = -1", "horizon"),
        ("horizon = nan", "horizon"),
        ("dt = 0", "dt"),
        ("cg_tol = -1e-10", "cg_tol"),
        ("snapshot_every = 0", "snapshot_every"),
    ])
    def test_range_violations(self, override, fragment):
        key = override.split("=")[0].strip()
        lines = [l for l in MINIMAL.splitlines() if not l.startswith(key)]
        text = "\n".join(lines) + "\n" + override + "\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert fragment in str(err.value)

    @pytest.mark.parametrize("value", ["1", "1.5", "inf", "0", "nan"])
    def test_cg_tol_is_a_fraction(self, value):
        # a relative residual of 1 is met by tau = 0 at iteration 0: at
        # cg_tol >= 1 the run would step without its constraint
        for parse, text in ((parse_config, MINIMAL), (parse_sweep_config, "")):
            with pytest.raises(ConfigError) as err:
                parse(text + f"cg_tol = {value}\n")
            assert f"bad value for 'cg_tol': must lie in (0, 1), got {float(value)!r}" in str(err.value)
        assert parse_config(MINIMAL + "cg_tol = 0.5\n").cg_tol == 0.5

    def test_line_without_equals_sign(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "rescaled_time\n")
        assert "line 5: expected 'key = value', got 'rescaled_time'" in str(err.value)

    def test_all_errors_reported_at_once(self):
        with pytest.raises(ConfigError) as err:
            parse_config("model = stokes\nepsilon = 0.5\nn = 48\nhorizon = -1\n")
        assert len(err.value.errors) == 4

    def test_as_dict_round_trip(self):
        config = parse_config(MINIMAL)
        assert RunConfig(**config_as_dict(config)) == config


class TestSweepConfig:
    def test_defaults(self):
        config = parse_sweep_config("")
        assert config.epsilons == (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
        assert config.n == 256
        assert config.horizon == 0.5
        assert config.confirmation is False

    def test_epsilon_list_parsed(self):
        config = parse_sweep_config("epsilons = 1e-2, 1e-3\n")
        assert config.epsilons == (1e-2, 1e-3)

    def test_epsilons_must_decrease(self):
        with pytest.raises(ConfigError) as err:
            parse_sweep_config("epsilons = 1e-3, 1e-2\n")
        assert "decreasing" in str(err.value)

    @pytest.mark.parametrize("line", [
        "snapshot_every = 0", "cg_tol = -1", "inextensibility_tol = 0", "horizon = nan",
        "n = 48", "epsilons = ",
    ])
    def test_keys_follow_the_simulate_rules(self, line):
        with pytest.raises(ConfigError) as err:
            parse_sweep_config(line + "\n")
        assert f"line 1: bad value for '{line.split()[0]}'" in str(err.value)

    def test_epsilons_range(self):
        with pytest.raises(ConfigError):
            parse_sweep_config("epsilons = 0.5, 1e-3\n")

    def test_epsilons_follow_the_epsilon_rule(self):
        # each entry in [1e-70, 0.1], as `epsilon` of a simulate config
        assert parse_sweep_config("epsilons = 0.1, 0.01, 0.001\n").epsilons == (0.1, 0.01, 0.001)
        with pytest.raises(ConfigError) as err:
            parse_sweep_config("epsilons = 0.2, 0.01\n")
        assert ("line 1: bad value for 'epsilons': epsilon must lie in [1e-70, 0.1], got 0.2"
                in str(err.value))

    def test_rows(self):
        # every eps at n, then the confirmation row eps = 1e-4 at n = 1024
        config = parse_sweep_config("epsilons = 1e-2, 1e-3\nn = 64\n")
        assert config.rows() == [(1e-2, 64), (1e-3, 64)]
        config = parse_sweep_config("epsilons = 1e-2\nconfirmation = true\n")
        assert config.rows() == [(1e-2, 256), (1e-4, 1024)]

    def test_confirmation_row_among_the_rows(self):
        # at n = 1024 with eps = 1e-4 the confirmation row is already a
        # row: it is computed and written once
        config = parse_sweep_config("epsilons = 1e-2, 1e-3, 1e-4\nn = 1024\n"
                                    "confirmation = true\n")
        assert config.rows() == [(1e-2, 1024), (1e-3, 1024), (1e-4, 1024)]

    def test_as_dict_round_trip(self):
        config = parse_sweep_config("n = 64\nhorizon = 0.25\n")
        assert SweepConfig(**config_as_dict(config)) == config


class TestInitialCurve:
    @pytest.mark.parametrize("name", ["circle", "trefoil", " perturbed-circle(3, 0.05) "])
    def test_corpus_names(self, name):
        assert parse_sweep_config(f"initial_curve = {name}\n").initial_curve == name.strip()

    def test_existing_csv(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("s,x,y,z\n")
        assert parse_config(MINIMAL + f"initial_curve = {path}\n").initial_curve == str(path)

    @pytest.mark.parametrize("name,fragment", [
        ("nope", "unknown initial curve"),
        ("perturbed-circle(3)", "(mode, amplitude)"),
        ("perturbed-circle(0,0.05)", "mode >= 1"),
        ("perturbed-circle(2.5,0.05)", "invalid literal"),
        ("perturbed-circle(3,nan)", "finite amplitude"),
        ("missing.csv", "curve file not found"),
    ])
    def test_rejected_when_parsed(self, name, fragment):
        for parse, text in ((parse_config, MINIMAL), (parse_sweep_config, "")):
            with pytest.raises(ConfigError) as err:
                parse(text + f"initial_curve = {name}\n")
            assert "bad value for 'initial_curve'" in str(err.value)
            assert fragment in str(err.value)


def test_each_default_has_one_home():
    # every holder of a tolerance or stride default takes the one constant
    assert (CG_TOL, INEXT_TOL, SNAPSHOT_EVERY) == (1e-10, 1e-6, 20)
    for config in (RunConfig(), SweepConfig()):
        assert config.cg_tol is CG_TOL and config.inextensibility_tol is INEXT_TOL
        assert config.snapshot_every == SNAPSHOT_EVERY
    assert StepOptions().cg_tol is CG_TOL and StepOptions().inext_tol is INEXT_TOL
    assert inspect.signature(choose_dt).parameters["cg_tol"].default is CG_TOL
    problem = TensionProblem(initial_curve("circle", 32), build_table(1e-2, 16))
    assert problem.cg_tol.tolist() == [CG_TOL]
