"""Tests for the verification studies: bound suites, coercivity,
pairwise model comparison, and the fitted-constant protocols."""

import dataclasses
import math
import os

import numpy as np
import pytest

from filament.config import SweepConfig
from filament.evolution import EvolutionState, initial_curve, lockstep
from filament.experiments import (
    DiscrepancyRecord,
    _pair,
    coercivity_ratios,
    compensated_band,
    convergence_study,
    discrepancy_energy_trace,
    gronwall_constants,
    lemma_suite,
    write_summary_csv,
    write_traces_csv,
)
from filament.multipliers import (ForceMapStack, MultiplierTable, abs_log, build_table,
                                  rft_constants)
from filament.spectral import (PeriodicCurve, SobolevIndex, dealias, from_coeffs, mean_inner,
                               sobolev_norm_coeffs, to_coeffs, write_json)


def run_pair(eps, n, horizon, initial_name, *, dt, table=None):
    """The DiscrepancyRecord of one eps row stepped alone with the fixed
    step dt, under the sweep defaults but for n, the horizon and the
    initial curve; table, when given, stands for the row's multipliers."""
    sweep = SweepConfig(epsilons=(eps,), horizon=horizon, n=n, initial_curve=initial_name)
    start = EvolutionState(initial_curve(initial_name, n), 0.0)
    if table is None:
        table = build_table(eps, n // 2)
    group, finish = _pair(table, start, rft_constants(eps), sweep)
    group.dt = dt
    lockstep([group])
    return finish(group)


class TestLemmaSuite:
    def test_small_suite_passes(self):
        report = lemma_suite((1e-2, 1e-3, 1e-4), kmax=512)
        assert report["passed"]
        assert all(s["pass"] for s in report["suites"].values())
        # sandwich constants near the asymptotic slopes 8 pi^2 and 6 pi^2
        # (kmax=512 truncates the high-k range, widening the tolerance)
        assert report["suites"]["mt_sandwich"]["constant"] == pytest.approx(
            8 * math.pi**2, rel=0.12
        )
        assert report["suites"]["mn_sandwich"]["constant"] == pytest.approx(
            6 * math.pi**2, rel=0.12
        )
        # the low-k upper family is attained at the zero mode exactly
        assert report["suites"]["mt_low_over_log"]["constant"] == pytest.approx(
            1.0 / (2 * math.pi), rel=1e-12
        )
        assert report["suites"]["mn_low_over_log"]["constant"] == pytest.approx(
            1.0 / (4 * math.pi), rel=1e-12
        )

    def test_epsilons_must_decrease(self):
        # the rule of the config's and the command line's epsilon lists
        with pytest.raises(ValueError) as err:
            lemma_suite((1e-3, 1e-2), kmax=64)
        assert str(err.value) == "must be strictly decreasing, got (0.001, 0.01)"

    def test_report_serializes(self, tmp_path):
        report = lemma_suite((1e-2, 1e-3), kmax=64)
        path = tmp_path / "report.json"
        write_json(path, report)
        import json

        loaded = json.loads(path.read_text())
        assert loaded["passed"] == report["passed"]


class TestCoercivity:
    def test_ratios_positive_and_order_one(self):
        ratios = coercivity_ratios(1e-3, grid_n=64, n_fields=20)
        assert np.all(ratios > 0.0)
        assert np.min(ratios) > 1e-3

    def test_deterministic_given_seed(self):
        a = coercivity_ratios(1e-3, grid_n=64, n_fields=5, seed=3)
        b = coercivity_ratios(1e-3, grid_n=64, n_fields=5, seed=3)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("eps", [1e-2, 1e-5])
    def test_batch_has_the_bits_of_the_loop_over_fields(self, eps, seed):
        # the fields are the members of one batch; here each goes alone
        # through the stack of one, whose member axis [0] drops: without
        # it the ratios come out three times too small, and criterion 2
        # still passes
        grid_n, n_fields = 256, 50
        curve = PeriodicCurve.circle(grid_n)
        stack = ForceMapStack([build_table(eps, grid_n // 2)], grid_n // 2 + 1)
        rng = np.random.default_rng(seed)
        want = []
        for _ in range(n_fields):
            f = dealias(np.ascontiguousarray(rng.standard_normal((grid_n, 3)).T), axis=-1)
            f /= sobolev_norm_coeffs(to_coeffs(f, axis=-1), SobolevIndex(-0.5))
            lf = stack.apply(curve, to_coeffs(f, axis=-1))[0]
            want.append(mean_inner(f, from_coeffs(lf, grid_n, axis=-1)) / abs_log(eps))
        assert np.array_equal(coercivity_ratios(eps, grid_n, n_fields, seed), want)

    def test_corrupted_multiplier_detected(self):
        # flipping the sign of one multiplier entry breaks positivity,
        # which MultiplierTable refuses at construction: the suite cannot
        # silently pass on a non-positive multiplier table.
        table = build_table(1e-3, 32)
        mt = table.mt.copy()
        mt[7] *= -1.0
        with pytest.raises(ValueError):
            bad = dataclasses.replace(table, mt=mt)
            coercivity_ratios(1e-3, grid_n=64, n_fields=1, table=bad)

    def test_deflated_multiplier_lowers_constant(self):
        # scaling the table down scales the fitted coercivity constant
        table = build_table(1e-3, 32)
        mt = (0.1 * table.mt).copy()
        mn = (0.1 * table.mn).copy()
        mt.setflags(write=False)
        mn.setflags(write=False)
        bad = dataclasses.replace(table, mt=mt, mn=mn)
        good = coercivity_ratios(1e-3, grid_n=64, n_fields=5)
        low = coercivity_ratios(1e-3, grid_n=64, n_fields=5, table=bad)
        assert np.max(low) < 0.2 * np.min(good)


class TestDiscrepancyTrace:
    def test_identical_runs_trace_zero(self):
        curve = PeriodicCurve.perturbed_circle(64, 2, 0.03)
        table = build_table(1e-2, 32)
        record = discrepancy_energy_trace(
            [0.0, 1.0], [curve, curve], [curve, curve], table
        )
        assert record.sup_h2 == 0.0
        assert record.max_ew == 0.0
        assert record.int_dw == 0.0
        assert record.l2t_h72 == 0.0

    def test_compensated_scaling(self):
        record = DiscrepancyRecord(eps=1e-4, n=64, sup_h2=2.0)
        assert record.compensated == pytest.approx(
            math.sqrt(abs(math.log(1e-4))) * 2.0
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.steps = 3

    def test_trace_shapes_and_positivity(self):
        a = PeriodicCurve.perturbed_circle(64, 2, 0.03)
        b = PeriodicCurve.perturbed_circle(64, 3, 0.02)
        table = build_table(1e-2, 32)
        record = discrepancy_energy_trace([0.0, 0.5], [a, a], [b, b], table)
        assert record.h2.shape == (2,)
        assert record.sup_h2 > 0.0
        assert record.max_ew > 0.0
        assert record.int_dw > 0.0


class TestRunPair:
    def test_short_pair_run(self):
        record = run_pair(1e-2, 64, 1e-3, "perturbed-circle(2,0.03)", dt=5e-5)
        assert record.failed is None
        assert record.steps == 20
        assert record.times[0] == 0.0
        assert record.times[-1] == pytest.approx(1e-3)
        assert record.sup_h2 > 0.0  # the two models genuinely differ
        assert record.eps == 1e-2
        assert record.n == 64

    def test_mean_cg_iterations_of_the_leps_member(self):
        # the record's mean is over the CG iterations of the leps member's
        # steps, as its step diagnostics count them
        sweep = SweepConfig(epsilons=(1e-2,), horizon=1e-3, n=64,
                            initial_curve="perturbed-circle(2,0.03)")
        start = EvolutionState(initial_curve(sweep.initial_curve, 64), 0.0)
        group, finish = _pair(build_table(1e-2, 32), start, rft_constants(1e-2), sweep)
        group.dt = 5e-5
        counts, on_step = [], group.on_step

        def count(g, dt_step):
            counts.append([state.diagnostics.cg_iterations for state in g.states])
            on_step(g, dt_step)

        group.on_step = count
        lockstep([group])
        leps, rft = np.array(counts).T
        assert len(leps) == 20
        assert finish(group).mean_cg_iterations == np.mean(leps) != np.mean(rft)

    def test_zero_discrepancy_on_circle(self):
        # both dynamics hold the relaxed circle exactly
        record = run_pair(1e-2, 64, 1e-3, "circle", dt=1e-4)
        assert record.sup_h2 < 1e-9


class TestFittedConstantProtocols:
    def make_records(self, sup=(0.30, 0.21, 0.18), ew=(1.0, 0.7, 0.5),
                     dw=(8.0, 6.0, 5.0), epsilons=(1e-2, 1e-3, 1e-4)):
        records = []
        for eps, s, e, d in zip(epsilons, sup, ew, dw):
            le = abs(math.log(eps))
            records.append(DiscrepancyRecord(
                eps=eps, n=64, sup_h2=s / math.sqrt(le),
                max_ew=e / le, int_dw=d / le, l2t_h72=1.0,
            ))
        return records

    def test_band_passes_on_trend(self):
        result = compensated_band(self.make_records())
        assert result["pass"]
        assert all(1 / math.sqrt(2) <= v <= math.sqrt(2)
                   for v in result["ratios_to_trend"].values())

    def test_band_fails_off_trend(self):
        records = self.make_records(sup=(0.30, 0.21, 0.04))
        assert not compensated_band(records)["pass"]

    def test_band_needs_three_rows(self):
        with pytest.raises(ValueError):
            compensated_band(self.make_records()[:2])

    def test_gronwall_fit_and_slack(self):
        result = gronwall_constants(self.make_records())
        assert result["pass_EW"] and result["pass_DW"]
        assert result["C_EW"] == pytest.approx(1.0)
        assert result["C_DW"] == pytest.approx(8.0)

    def test_gronwall_fails_on_growth(self):
        records = self.make_records(ew=(1.0, 1.5, 2.0))
        assert not gronwall_constants(records)["pass_EW"]


class TestStudyDriver:
    def make_sweep(self):
        return SweepConfig(epsilons=(1e-2, 3e-3, 1e-3), horizon=2e-4, n=64,
                           initial_curve="perturbed-circle(2,0.03)")

    def test_tiny_study_end_to_end(self, tmp_path):
        records = convergence_study(self.make_sweep())
        assert len(records) == 3
        assert all(r.failed is None for r in records)
        sups = [r.sup_h2 for r in records]
        assert all(s > 0 for s in sups)
        path = tmp_path / "summary.csv"
        write_summary_csv(records, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "eps,log_eps,sup_h2_err,compensated_err,l2t_h72_err,max_EW,int_DW"
        assert len(lines) == 4
        first = [float(v) for v in lines[1].split(",")]
        assert first == [records[0].eps, records[0].log_eps, records[0].sup_h2,
                         records[0].compensated, records[0].l2t_h72,
                         records[0].max_ew, records[0].int_dw]
        path = tmp_path / "traces.csv"
        write_traces_csv(records[0], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "time,h2,EW,DW,mean_sq"
        assert len(lines) == 1 + len(records[0].times)
        assert [float(v) for v in lines[-1].split(",")] == [
            records[0].times[-1], records[0].h2[-1], records[0].ew[-1],
            records[0].dw[-1], records[0].mean_sq[-1]]

    def test_failed_row_reported_not_raised(self):
        sweep = SweepConfig(epsilons=(1e-2, 1e-3), horizon=1e-4, n=64,
                            initial_curve="perturbed-circle(2,0.03)",
                            cg_tol=1e-30)  # unreachable tolerance
        records = convergence_study(sweep)
        assert len(records) == 2
        assert all(r.failed is not None for r in records)
        assert all(r.failed.strip() for r in records)  # message, not blank

    def test_unbuildable_initial_curve_fails_every_row(self):
        # a library caller that skips the CLI's check still gets failed
        # rows, not an exception
        sweep = SweepConfig(epsilons=(1e-2, 1e-3), horizon=1e-4, n=32,
                            initial_curve="perturbed-circle(2,5)")
        records = convergence_study(sweep)
        assert [(r.eps, r.n) for r in records] == [(1e-2, 32), (1e-3, 32)]
        assert all(r.failed.startswith("GeometryError: fold-over") for r in records)
        assert all(r.steps == 0 for r in records)

    def test_programming_error_propagates(self, monkeypatch):
        # only solver and geometry failures become failed rows
        from filament import evolution

        def broken_step(*args, **kwargs):
            raise TypeError("broken step")

        monkeypatch.setattr(evolution, "_advance", broken_step)
        with pytest.raises(TypeError, match="broken step"):
            convergence_study(self.make_sweep())

    def test_step_size_underflow_fails_the_row(self, monkeypatch):
        # a row whose steps all raise the energy flag halves dt until
        # time stops advancing; that row fails and the next one runs
        from filament import evolution

        real_advance = evolution._advance

        def flagging_advance(states, force_maps, dts, options):
            outcomes = real_advance(states, force_maps, dts, options)
            for i, (state, force_map) in enumerate(zip(outcomes, force_maps)):
                if force_map.model == "leps" and force_map.epsilon == 1e-2:
                    flagged = dataclasses.replace(state.diagnostics, energy_flag=True)
                    outcomes[i] = dataclasses.replace(state, diagnostics=flagged)
            return outcomes

        monkeypatch.setattr(evolution, "_advance", flagging_advance)
        first, second = convergence_study(dataclasses.replace(
            self.make_sweep(), epsilons=(1e-2, 1e-3)))
        assert first.failed is not None and "step size underflow" in first.failed
        assert second.failed is None and second.steps > 0

    def test_parallel_matches_serial(self):
        sweep = SweepConfig(epsilons=(1e-2, 1e-3, 3e-4), horizon=1e-4, n=64,
                            initial_curve="perturbed-circle(2,0.03)")
        serial = convergence_study(sweep, jobs=1)
        parallel = convergence_study(sweep, jobs=2)
        for a, b in zip(serial, parallel):
            assert a.sup_h2 == b.sup_h2
            assert a.steps == b.steps

    @staticmethod
    def record_pools(monkeypatch):
        """The max_workers of every pool convergence_study opens; a pool's
        workers return their chunks' eps."""
        from filament import experiments

        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks):
                return [[task[0] for task in chunk] for chunk in chunks]

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        return sizes

    def test_pool_no_larger_than_the_sweep(self, monkeypatch):
        # fork starts every worker at the first submit, so an uncapped
        # jobs=64 on three rows would fork 64 processes
        sizes = self.record_pools(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        assert convergence_study(self.make_sweep(), jobs=64) == [1e-2, 3e-3, 1e-3]
        assert sizes == [3]

    @pytest.mark.parametrize("affinity", [True, False])
    def test_pool_no_larger_than_the_cpus(self, monkeypatch, affinity):
        # two usable CPUs: two workers for three rows, from the CPUs this
        # process may run on, else from the CPU count
        sizes = self.record_pools(monkeypatch)
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 8)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert convergence_study(self.make_sweep(), jobs=64) == [1e-2, 3e-3, 1e-3]
        assert sizes == [2]

    def test_confirmation_adds_fine_grid_row(self):
        sweep = SweepConfig(epsilons=(1e-2, 1e-3, 3e-4), horizon=1e-4, n=64,
                            initial_curve="perturbed-circle(2,0.03)")
        sweep = dataclasses.replace(sweep, confirmation=True)
        records = convergence_study(sweep)
        assert len(records) == 4
        assert records[-1].n == 1024 or records[-1].failed is not None


def test_one_spelling_of_log_eps():
    # |log eps| of a sweep row is the one its force maps step with; at
    # this eps math.log and np.log differ by one ulp
    eps = 0.041793876040415984
    record = DiscrepancyRecord(eps=eps, n=32)
    assert record.log_eps == build_table(eps, 16).log_eps == rft_constants(eps).log_eps


class TestDegenerateMultipliers:
    def test_constant_multipliers_reduce_to_rft(self):
        # a table holding the RFT constants at every wavenumber makes
        # the nonlocal evolution identical to the local model
        eps = 1e-2
        log_eps = abs(math.log(eps))
        kmax = 32
        mt = np.full(kmax + 1, log_eps / (2 * math.pi))
        mn = np.full(kmax + 1, log_eps / (4 * math.pi))
        mt.setflags(write=False)
        mn.setflags(write=False)
        table = dataclasses.replace(build_table(eps, kmax), mt=mt, mn=mn)
        coarse = run_pair(eps, 64, 2e-4, "perturbed-circle(2,0.03)",
                          dt=1e-5, table=table)
        fine = run_pair(eps, 64, 2e-4, "perturbed-circle(2,0.03)",
                        dt=5e-6, table=table)
        # the continuous dynamics coincide; what is left is the O(dt)
        # splitting error from the differing implicit symbols
        assert coarse.sup_h2 < 1e-4
        assert 1.5 < coarse.sup_h2 / fine.sup_h2 < 2.5


class TestSharedRftMember:
    """Every row of a batch steps the RFT map of the sweep's first eps from
    one start state: the batch makes the shared member's calls once, and
    each row gets the bits it gets with a copy of its own."""

    SWEEP = SweepConfig(epsilons=(1e-2, 3e-3, 1e-3), horizon=1e-3, n=64,
                        initial_curve="perturbed-circle(3,0.05)")

    def test_sharing_changes_no_bits(self):
        sweep = self.SWEEP
        rft = rft_constants(sweep.epsilons[0])
        rows = [_pair(build_table(eps, sweep.n // 2),
                      EvolutionState(initial_curve(sweep.initial_curve, sweep.n), 0.0),
                      rft, sweep) for eps in sweep.epsilons]
        lockstep([group for group, _ in rows])
        shared = convergence_study(sweep)
        assert all(r.failed is None and r.steps > 50 for r in shared)
        for got, (group, finish) in zip(shared, rows):
            own = finish(group)
            for field in dataclasses.fields(DiscrepancyRecord):
                assert np.array_equal(getattr(got, field.name), getattr(own, field.name))

    def test_one_rft_member_per_step(self, monkeypatch):
        # 3 leps members and the shared rft member, not 3 pairs, at every
        # step: the policy keeps the rows on one dt, and the scheduled
        # resampling keeps the shared state shared
        from filament import evolution

        real_advance = evolution._advance
        sizes = []

        def counting_advance(states, *args):
            sizes.append(len(states))
            return real_advance(states, *args)

        monkeypatch.setattr(evolution, "_advance", counting_advance)
        records = convergence_study(self.SWEEP)
        assert [r.steps for r in records] == [len(sizes)] * 3 and len(sizes) > 50
        assert set(sizes) == {4}

    def test_failing_row_leaves_the_member_shared(self, monkeypatch):
        # the eps = 1e-2 row's leps member fails its 12th step: the batch
        # makes its 4 calls alone once, that row ends, and every later
        # step makes the 2 surviving leps members and the one rft member,
        # with the records of a sweep without that row
        from filament import evolution
        from filament.spectral import GeometryError

        real_advance = evolution._advance
        sizes = []

        def failing_advance(states, force_maps, *args):
            sizes.append(len(states))
            for state, force_map in zip(states, force_maps):
                if (force_map.model == "leps" and force_map.epsilon == 1e-2
                        and state.diagnostics and state.diagnostics.step >= 11):
                    raise GeometryError("injected")
            return real_advance(states, force_maps, *args)

        monkeypatch.setattr(evolution, "_advance", failing_advance)
        sweep = self.SWEEP
        failed, *survivors = convergence_study(sweep)
        assert failed.failed == "GeometryError: injected" and failed.steps == 11
        steps = survivors[0].steps
        assert [r.steps for r in survivors] == [steps] * 2 and steps > 50
        assert sizes == [4] * 11 + [4, 1, 1, 1, 1] + [3] * (steps - 12)
        monkeypatch.setattr(evolution, "_advance", real_advance)
        start = EvolutionState(initial_curve(sweep.initial_curve, sweep.n), 0.0)
        rows = [_pair(build_table(eps, sweep.n // 2), start,
                      rft_constants(sweep.epsilons[0]), sweep)
                for eps in sweep.epsilons[1:]]
        lockstep([group for group, _ in rows])
        for got, (group, finish) in zip(survivors, rows):
            own = finish(group)
            for field in dataclasses.fields(DiscrepancyRecord):
                assert np.array_equal(getattr(got, field.name), getattr(own, field.name))
