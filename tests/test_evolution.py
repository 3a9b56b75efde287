"""Tests for the IMEX time stepping, energy bookkeeping, and run driver."""

import math

import numpy as np
import pytest

from filament.config import INEXT_TOL, RunConfig
from filament.evolution import (
    DT_GRID,
    DiagnosticsRecord,
    EvolutionState,
    Trajectory,
    choose_dt,
    dissipation,
    dissipation_rate,
    energy,
    implicit_symbol,
    initial_curve,
    run,
    step_leps,
    step_rft,
    write_diagnostics_csv,
)
from filament.multipliers import ForceMapStack, build_table, rft_constants
from filament.spectral import CurveBatch, Grid, PeriodicCurve, SobolevIndex, sobolev_norm
from filament.tension import TensionProblem, solve_tension
from test_batch import folded
from test_tension import velocity


def fresh_state(curve):
    return EvolutionState(curve, 0.0)


def make_problem(curve, model, eps):
    if model == "leps":
        return TensionProblem(curve, "leps", table=build_table(eps, curve.n // 2))
    return TensionProblem(curve, "rft", constants=rft_constants(eps))


class TestEnergyFunctionals:
    def test_circle_energy(self):
        # E = 1/2 int |X_ss|^2 = 1/2 (2 pi)^2 = 2 pi^2 for the unit-length circle
        assert energy(PeriodicCurve.circle(128)) == pytest.approx(
            2.0 * math.pi**2, rel=1e-12
        )

    def test_circle_dissipation_zero(self):
        # Z = X_sss - tau X_s vanishes on the circle with tau = -4 pi^2
        curve = PeriodicCurve.circle(128)
        problem = make_problem(curve, "leps", 1e-3)
        tau = solve_tension(problem)
        assert dissipation(CurveBatch.of([curve]), tau.values[None])[0] < 1e-12
        assert np.max(np.abs(velocity(problem, tau))) < 1e-6

    def test_dissipation_positive_off_equilibrium(self):
        curve = PeriodicCurve.perturbed_circle(128, 3, 0.05)
        problem = make_problem(curve, "leps", 1e-3)
        tau = solve_tension(problem)
        assert dissipation(CurveBatch.of([curve]), tau.values[None])[0] > 1e-3
        assert dissipation_rate(problem, tau) > 0.0


class TestSymbols:
    def test_implicit_symbol_leps(self):
        grid = Grid.of_size(64)
        table = build_table(1e-3, 32)
        (lam,) = implicit_symbol(grid, ForceMapStack([table], 33))
        k = 5
        assert lam[k] == pytest.approx(table.mn[k] * (2 * np.pi * k) ** 4, rel=1e-14)
        assert lam[-1] == 0.0

    def test_implicit_symbol_rft(self):
        grid = Grid.of_size(64)
        c = rft_constants(1e-3)
        (lam,) = implicit_symbol(grid, ForceMapStack([c], 33))
        assert lam[3] == pytest.approx(c.tangential * (6 * np.pi) ** 4, rel=1e-14)


class TestSingleSteps:
    @pytest.mark.parametrize("model", ["leps", "rft"])
    def test_circle_is_stationary(self, model):
        curve = PeriodicCurve.circle(128)
        state = fresh_state(curve)
        if model == "leps":
            state = step_leps(state, 1e-5, build_table(1e-3, 64))
        else:
            state = step_rft(state, 1e-5, rft_constants(1e-3))
        drift = sobolev_norm(state.curve.samples - curve.samples, SobolevIndex(2.0))
        assert drift < 1e-9

    def test_energy_decreases_from_perturbation(self):
        curve = PeriodicCurve.perturbed_circle(128, 3, 0.05)
        table = build_table(1e-3, 64)
        state = fresh_state(curve)
        energies = [energy(curve)]
        for _ in range(10):
            state = step_leps(state, 2e-6, table, time_scale=1.0 / abs(np.log(1e-3)))
            energies.append(state.diagnostics.energy)
        assert all(b < a for a, b in zip(energies, energies[1:]))

    def test_energy_floor(self):
        # int |X_ss|^2 >= 2 pi for closed unit-length curves, i.e. E >= pi
        curve = PeriodicCurve.perturbed_circle(128, 3, 0.05)
        table = build_table(1e-3, 64)
        state = fresh_state(curve)
        for _ in range(20):
            state = step_leps(state, 2e-6, table, time_scale=1.0 / abs(np.log(1e-3)))
            assert 2.0 * state.diagnostics.energy >= 2.0 * math.pi * 0.99

    def test_finite_difference_energy_rate(self):
        # dE/dt = -int Z_s . L[Z_s] at first order in dt
        eps = 1e-3
        log_eps = abs(math.log(eps))
        curve = PeriodicCurve.perturbed_circle(128, 3, 0.05)
        table = build_table(eps, 64)
        problem = make_problem(curve, "leps", eps)
        rate = dissipation_rate(problem, solve_tension(problem))
        dt = 1e-7 / log_eps
        state = step_leps(fresh_state(curve), dt, table)
        fd = (energy(curve) - state.diagnostics.energy) / dt
        assert fd == pytest.approx(rate, rel=5e-2)

    def test_step_type_checks(self):
        state = fresh_state(PeriodicCurve.circle(32))
        with pytest.raises(TypeError):
            step_leps(state, 1e-6, rft_constants(1e-3))
        with pytest.raises(TypeError):
            step_rft(state, 1e-6, build_table(1e-3, 16))
        with pytest.raises(ValueError):
            step_leps(state, 0.0, build_table(1e-3, 16))

    def test_richardson_first_order_in_dt(self):
        # backward-difference convergence: error(dt)/error(dt/2) ~ 2
        eps = 1e-3
        table = build_table(eps, 64)
        curve = PeriodicCurve.perturbed_circle(128, 3, 0.05)
        horizon = 4e-6

        def integrate(dt):
            state = fresh_state(curve)
            for _ in range(round(horizon / dt)):
                state = step_leps(state, dt, table)
            return state.curve.samples

        fine = integrate(horizon / 16)
        e1 = np.max(np.abs(integrate(horizon / 2) - fine))
        e2 = np.max(np.abs(integrate(horizon / 4) - fine))
        assert 1.5 < e1 / e2 < 2.5


class TestResampling:
    @pytest.mark.parametrize("inext_tol, scheduled, passes", [
        (1e-14, True, 1),      # over inext_tol / 2 and scheduled
        (INEXT_TOL, True, 1),  # scheduled only
        (1e-14, False, 1),     # over inext_tol / 2 only
        (INEXT_TOL, False, 0),
    ])
    def test_one_pass_per_member_per_step(self, monkeypatch, inext_tol, scheduled, passes):
        # a step resamples a member at most once, before its record: this
        # step leaves a residual of ~1.6e-8, the resampling ~6e-14
        from filament import evolution

        members, real = [], evolution.reparameterize_each
        monkeypatch.setattr(evolution, "reparameterize_each",
                            lambda curves: members.extend(curves) or real(curves))
        state = fresh_state(initial_curve("perturbed-circle(3,0.05)", 64))
        (new,) = evolution._advance([state], [rft_constants(1e-3)], [1e-9],
                                    [evolution.StepOptions(inext_tol=inext_tol)], [scheduled])
        assert len(members) == passes
        assert (new.curve.inext_residual < 1e-12) == (passes == 1)
        assert new.diagnostics.energy == energy(new.curve)
        assert new.diagnostics.inext_residual == new.curve.inext_residual

    def test_each_record_describes_its_state_curve(self):
        # every state of this 62-step run is a snapshot; steps 20, 40 and
        # 60 are scheduled resamplings
        config = RunConfig(model="rft", epsilon=1e-3, n=32, horizon=2e-5, snapshot_every=1,
                           initial_curve="perturbed-circle(3,0.05)")
        traj = run(config, initial_curve(config.initial_curve, config.n))
        assert traj.aborted is None and len(traj.states) == 63
        for state in traj.states[1:]:
            assert state.diagnostics.energy == energy(state.curve)
            assert state.diagnostics.inext_residual == state.curve.inext_residual


class TestRescaledTime:
    def test_rescaled_equals_native(self):
        # dt-bar in rescaled time is exactly dt-bar/|log eps| natively
        eps = 1e-3
        log_eps = abs(math.log(eps))
        table = build_table(eps, 64)
        curve = PeriodicCurve.perturbed_circle(128, 3, 0.05)
        a = step_leps(fresh_state(curve), 1e-5, table, time_scale=1.0 / log_eps)
        b = step_leps(fresh_state(curve), 1e-5 / log_eps, table)
        assert np.max(np.abs(a.curve.samples - b.curve.samples)) < 1e-15
        assert a.time == pytest.approx(1e-5)
        assert b.time == pytest.approx(1e-5 / log_eps)


class TestDtPolicy:
    def test_choose_dt_positive_and_deterministic(self):
        curve = PeriodicCurve.perturbed_circle(128, 3, 0.05)
        table = build_table(1e-3, 64)
        dt1 = choose_dt(curve, table)
        dt2 = choose_dt(curve, table)
        assert dt1 == dt2 > 0.0

    def test_rescaled_policy_scales_by_log_eps(self):
        # each dt is rounded down to the grid on its own, in its own time
        # units: the ratio is |log eps| to within one grid step
        curve = PeriodicCurve.perturbed_circle(128, 3, 0.05)
        table = build_table(1e-3, 64)
        ratio = (choose_dt(curve, table, rescaled=True)
                 / (choose_dt(curve, table) * abs(math.log(1e-3))))
        assert 2.0 ** (-1 / DT_GRID) <= ratio <= 2.0 ** (1 / DT_GRID)

    @pytest.mark.parametrize("model,rescaled", [("leps", False), ("leps", True), ("rft", True)])
    def test_policy_dt_on_the_grid(self, model, rescaled):
        for curve in (PeriodicCurve.perturbed_circle(64, 3, 0.05), PeriodicCurve.trefoil(64)):
            problem = make_problem(curve, model, 1e-3)
            dt = choose_dt(curve, problem.force_map.maps[0], rescaled=rescaled)
            j = round(DT_GRID * math.log2(dt))
            assert dt == np.exp2(j / DT_GRID)

    def test_roundoff_of_the_curve_stays_off_dt(self):
        # the policy's bound comes from a tension solved to cg_tol, so
        # 3e-16 noise on the samples moves it ~1e8 times as much; on the
        # grid every dt stays the same and the energies move at roundoff
        curve = PeriodicCurve.perturbed_circle(64, 3, 0.05)
        noise = 3e-16 * np.random.default_rng(0).standard_normal(curve.samples.shape)
        config = RunConfig(model="leps", epsilon=1e-3, n=64, horizon=1e-3)
        runs = [run(config, c) for c in (curve, PeriodicCurve(curve.samples + noise))]
        dts = [[r.dt for r in traj.diagnostics] for traj in runs]
        assert len(dts[0]) > 100
        assert dts[0] == dts[1]
        energies = np.array([[r.energy for r in traj.diagnostics] for traj in runs])
        assert np.max(np.abs(energies[0] - energies[1])) <= 1e-10 * np.max(energies)


class TestInitialCurveParsing:
    def test_corpus_names(self):
        assert initial_curve("circle", 64).n == 64
        assert initial_curve("trefoil", 128).n == 128
        c = initial_curve("perturbed-circle(3, 0.05)", 128)
        assert c.inext_residual < 1e-8

    def test_csv_round_trip(self, tmp_path):
        from filament.spectral import write_curve_csv

        path = tmp_path / "c.csv"
        write_curve_csv(PeriodicCurve.circle(64), path,
                        epsilon=1e-3, time=0.0, model="leps")
        assert initial_curve(str(path), 64).n == 64
        with pytest.raises(ValueError):
            initial_curve(str(path), 128)

    @pytest.mark.parametrize("scale,tol,accepted", [
        (1 + 4e-7, 1e-6, True), (1 + 2e-6, 1e-6, False), (1 - 2e-6, 1e-6, False),
        (1 + 2e-6, 1e-5, True), (1e-3, 1e-6, False)])
    def test_csv_length_within_tolerance(self, tmp_path, scale, tol, accepted):
        # a file's curve has length 1 to within the tolerance, the length
        # to which resampling rescales every stepped curve
        from filament.spectral import write_csv

        path = tmp_path / "c.csv"
        write_csv(path, ["s", "x", "y", "z"],
                  zip(np.arange(64) / 64, *(scale * PeriodicCurve.circle(64).samples).T))
        if accepted:
            assert initial_curve(str(path), 64, tol).n == 64
        else:
            with pytest.raises(ValueError, match=r"^curve file has length [0-9.e-]+, not 1 "
                                                 rf"to within inextensibility_tol = {tol!r}$"):
                initial_curve(str(path), 64, tol)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            initial_curve("helix", 64)
        with pytest.raises(ValueError):
            initial_curve("perturbed-circle(3)", 64)


class TestRunDriver:
    def test_zero_horizon_single_state(self):
        config = RunConfig(model="rft", epsilon=1e-3, n=32, horizon=0.0, dt=1e-6)
        traj = run(config, PeriodicCurve.circle(32))
        assert len(traj.states) == 1
        assert traj.diagnostics == []
        assert traj.aborted is None

    def test_short_run_diagnostics_and_snapshots(self):
        config = RunConfig(model="leps", epsilon=1e-3, n=64, horizon=1e-5,
                           dt=1e-6, rescaled_time=True, snapshot_every=4,
                           initial_curve="perturbed-circle(2,0.03)")
        curve = initial_curve(config.initial_curve, config.n)
        traj = run(config, curve)
        assert traj.aborted is None
        assert len(traj.diagnostics) == 10
        assert traj.states[0].time == 0.0
        assert traj.states[-1].time == pytest.approx(1e-5)
        steps = [s.diagnostics.step for s in traj.states[1:]]
        assert steps == [4, 8, 10]
        energies = [d.energy for d in traj.diagnostics]
        assert all(b <= a for a, b in zip(energies, energies[1:]))
        assert all(d.inext_residual < 1e-6 for d in traj.diagnostics)

    def test_final_partial_step_hits_horizon(self):
        config = RunConfig(model="rft", epsilon=1e-3, n=32, horizon=2.5e-6, dt=1e-6)
        traj = run(config, PeriodicCurve.circle(32))
        assert traj.states[-1].time == pytest.approx(2.5e-6)
        assert traj.diagnostics[-1].dt == pytest.approx(0.5e-6)

    def test_determinism(self):
        config = RunConfig(model="leps", epsilon=1e-2, n=64, horizon=5e-6,
                           dt=1e-6, initial_curve="perturbed-circle(3,0.05)")
        curve = initial_curve(config.initial_curve, config.n)
        a = run(config, curve)
        b = run(config, curve)
        assert np.array_equal(a.states[-1].curve.samples, b.states[-1].curve.samples)

    def test_energy_flag_halves_dt(self):
        # an impossibly tight energy tolerance flags every step
        config = RunConfig(model="leps", epsilon=1e-3, n=64, horizon=4e-6,
                           dt=1e-6, energy_tol=-1.0,
                           initial_curve="perturbed-circle(2,0.03)")
        curve = initial_curve(config.initial_curve, config.n)
        traj = run(config, curve)
        assert traj.diagnostics[1].dt == pytest.approx(0.5 * traj.diagnostics[0].dt)

    def test_policy_dt_is_re_evaluated(self):
        # no dt: the policy's dt grows at the re-evaluation after step 25,
        # stays under the cap horizon/50 and lands the run on the horizon
        config = RunConfig(model="leps", epsilon=1e-2, n=64, horizon=2e-3,
                           rescaled_time=True, initial_curve="perturbed-circle(3,0.05)")
        traj = run(config, initial_curve(config.initial_curve, config.n))
        dts = [d.dt for d in traj.diagnostics]
        assert traj.aborted is None and len(dts) > 25
        assert dts[25] > dts[0]
        assert max(dts) <= config.horizon / 50
        assert traj.states[-1].time == pytest.approx(config.horizon, rel=1e-12)
        assert not any(d.energy_flag for d in traj.diagnostics)

    def test_policy_runs_before_the_steps_it_times(self, monkeypatch):
        # the policy's cap horizon/50 sets 50 steps: the policy is
        # evaluated at t = 0 and before step 26, not after the last step
        from filament import evolution

        calls, real = [], evolution._policy_dts
        monkeypatch.setattr(evolution, "_policy_dts",
                            lambda *args: calls.append(args) or real(*args))
        config = RunConfig(model="rft", epsilon=1e-3, n=32, horizon=1e-6,
                           initial_curve="perturbed-circle(3,0.05)")
        traj = run(config, initial_curve(config.initial_curve, config.n))
        assert traj.aborted is None and len(traj.diagnostics) == 2 * evolution.POLICY_EVERY
        assert len(calls) == len(traj.diagnostics) // evolution.POLICY_EVERY

    def test_given_dt_is_kept(self):
        # the dt given is kept past the re-evaluation a policy-timed run
        # makes before step 26, though it exceeds the policy's cap
        config = RunConfig(model="leps", epsilon=1e-2, n=64, horizon=4.05e-4, dt=1e-5,
                           rescaled_time=True, initial_curve="perturbed-circle(3,0.05)")
        traj = run(config, initial_curve(config.initial_curve, config.n))
        dts = [d.dt for d in traj.diagnostics]
        assert traj.aborted is None and len(dts) == 41
        assert dts[:-1] == [1e-5] * 40
        assert dts[-1] == pytest.approx(0.5e-5)

    def test_abort_keeps_partial_trajectory(self):
        # an unsolvable CG budget aborts the run but preserves state
        config = RunConfig(model="leps", epsilon=1e-3, n=64, horizon=1e-5,
                           dt=1e-6, cg_tol=1e-30,
                           initial_curve="perturbed-circle(3,0.05)")
        curve = initial_curve(config.initial_curve, config.n)
        traj = run(config, curve)
        assert traj.aborted is not None
        assert traj.states[0].curve is curve

    def test_step_before_a_failed_resampling_is_reported(self):
        # the scheduled resampling of step 20 finds the fold-over and
        # fails that step: the run aborts with step 19 both its last
        # diagnostics row and its last state
        config = RunConfig(model="rft", epsilon=1e-3, n=64, horizon=1e-3, dt=1e-8,
                           inextensibility_tol=10.0, snapshot_every=7)
        traj = run(config, folded(64))
        assert traj.aborted.startswith("GeometryError: fold-over")
        assert [r.step for r in traj.diagnostics] == list(range(1, 20))
        assert [s.diagnostics.step for s in traj.states] == [0, 7, 14, 19]
        assert traj.states[-1].diagnostics is traj.diagnostics[-1]

    def test_programming_error_propagates(self, monkeypatch):
        # only solver and geometry failures abort a run
        from filament import evolution

        def broken_step(*args, **kwargs):
            raise TypeError("broken step")

        monkeypatch.setattr(evolution, "_advance", broken_step)
        config = RunConfig(model="rft", epsilon=1e-3, n=32, horizon=2e-6, dt=1e-6)
        with pytest.raises(TypeError, match="broken step"):
            run(config, PeriodicCurve.perturbed_circle(32, 2, 0.03))

    def test_cg_telemetry_in_diagnostics(self, tmp_path):
        config = RunConfig(model="leps", epsilon=1e-3, n=64, horizon=3e-6, dt=1e-6,
                           snapshot_every=1, initial_curve="perturbed-circle(3,0.05)")
        traj = run(config, initial_curve(config.initial_curve, config.n))
        assert traj.aborted is None and len(traj.diagnostics) == 3
        for state in traj.states[1:]:
            assert state.diagnostics.cg_iterations == state.tension.iterations > 0
            assert state.diagnostics.cg_residual == state.tension.residual > 0.0
        path = tmp_path / "diag.csv"
        write_diagnostics_csv(traj.diagnostics, path)
        import csv

        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "time", "energy", "dissipation", "inext_residual",
                           "tension_h12", "energy_flag", "cg_iterations", "cg_residual", "dt"]
        for row, state in zip(rows[1:], traj.states[1:]):
            assert int(row[7]) == state.tension.iterations
            assert float(row[8]) == state.tension.residual
            assert float(row[9]) == state.diagnostics.dt == 1e-6

    def test_diagnostics_csv(self, tmp_path):
        records = [DiagnosticsRecord(1, 1e-6, 20.0, 3.0, 1e-9, 40.0, False),
                   DiagnosticsRecord(2, 2e-6, 21.0, 0.1, 1e-9, 40.0, True, 12, 3e-11, 1e-6)]
        path = tmp_path / "diag.csv"
        write_diagnostics_csv(records, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("step,time,energy")
        assert lines[1:] == ["1,9.9999999999999995e-07,20,3,1.0000000000000001e-09,40,0,0,0,0",
                             "2,1.9999999999999999e-06,21,0.10000000000000001,"
                             "1.0000000000000001e-09,40,1,12,3e-11,9.9999999999999995e-07"]
