"""The batched kernels (member axis first) against the plain per-member
path, bit for bit: every comparison is np.array_equal or ==.

The members mix both models, two aspect ratios each, on two curves, and
need different CG iteration counts, so the batched solve has to let
members leave at different iterations.
"""

import numpy as np
import pytest

from filament.evolution import (
    EvolutionState,
    Group,
    StepOptions,
    _advance,
    _step,
    initial_curve,
    lockstep,
)
from filament.multipliers import ForceMapStack, build_table, rft_constants
from filament.spectral import (
    CurveBatch,
    GeometryError,
    PeriodicCurve,
    dealias,
    reparameterize_arclength,
    reparameterize_each,
    to_coeffs,
)
from filament.tension import SolverError, TensionProblem, apply_B, solve_tension, solve_tensions

NS = [64, 256]


def members(n):
    """(curve, force map) pairs, leps members first as a batch needs."""
    trefoil = initial_curve("trefoil", n)
    circle = initial_curve("perturbed-circle(3,0.05)", n)
    return [(trefoil, build_table(1e-2, n // 2)), (circle, build_table(1e-4, n // 2)),
            (circle, rft_constants(1e-3)), (trefoil, rft_constants(1e-5))]


def batched(pairs, **kwargs):
    curves, maps = zip(*pairs)
    return TensionProblem(CurveBatch.of(curves), ForceMapStack(maps, curves[0].grid.k.shape[0]),
                          **kwargs)


@pytest.mark.parametrize("n", NS)
class TestAgainstSolo:
    def test_force_maps(self, n):
        pairs = members(n)
        # unfiltered noise reaches the modes above the cutoff and Nyquist
        coeffs = to_coeffs(np.random.default_rng(n).standard_normal((len(pairs), n, 3)), axis=-2)
        problem = batched(pairs)
        got = problem.apply_operator(coeffs)
        for member, (curve, force_map), field in zip(got, pairs, coeffs):
            assert np.array_equal(member, force_map.apply(curve, field))

    def test_apply_B(self, n):
        pairs = members(n)
        tau = dealias(np.random.default_rng(n + 1).standard_normal((len(pairs), n)), axis=-1)
        got = apply_B(batched(pairs), tau)
        for member, (curve, force_map), values in zip(got, pairs, tau):
            assert np.array_equal(member, apply_B(TensionProblem(curve, force_map), values))

    @pytest.mark.parametrize("warm", [False, True])
    def test_cg_solve(self, n, warm):
        pairs = members(n)
        solo = [solve_tension(TensionProblem(curve, force_map)) for curve, force_map in pairs]
        initial = None
        if warm:  # warm starts off the solution, one member cold
            noise = np.random.default_rng(n + 2).standard_normal((len(pairs), n))
            initial = [t.values * (1.0 + 1e-3 * e) for t, e in zip(solo, noise)]
            initial[2] = None
            solo = [solve_tension(TensionProblem(curve, force_map), start)
                    for (curve, force_map), start in zip(pairs, initial)]
        assert len({t.iterations for t in solo}) > 1
        for got, want in zip(solve_tensions(batched(pairs), initial), solo):
            assert np.array_equal(got.values, want.values)
            assert got.iterations == want.iterations
            assert got.residual == want.residual
            assert got.mean == want.mean

    def test_two_steps(self, n):
        pairs = members(n)
        maps = [force_map for _, force_map in pairs]
        batch = [EvolutionState(curve, 0.0) for curve, _ in pairs]
        solo = list(batch)
        options = StepOptions(energy_tol_abs=1e-8, time_scale=0.2)
        for dt in (2e-7, 3e-7):  # cold, then warm-started tension
            batch = _advance(batch, maps, [dt] * len(maps), [options] * len(maps))
            solo = [_step(state, dt, force_map, energy_tol_abs=1e-8, time_scale=0.2)
                    for state, force_map in zip(solo, maps)]
            for got, want in zip(batch, solo):
                assert np.array_equal(got.curve.samples, want.curve.samples)
                assert np.array_equal(got.tension.values, want.tension.values)
                assert got.diagnostics == want.diagnostics
                assert got.time == want.time

    def test_resampler(self, n):
        s = np.arange(n) / n
        curves = [curve for curve, _ in members(n)[:2]]
        # off arclength by a smooth reparameterization: the Taylor shift
        curves += [PeriodicCurve(c.samples * (1.0 + 1e-4 * np.sin(2 * np.pi * s))[:, None])
                   for c in curves]
        # far from arclength: the dense fallback
        curves.append(PeriodicCurve(np.column_stack([np.cos(2 * np.pi * s), 0.3 * np.sin(
            2 * np.pi * s), 0.1 * np.sin(4 * np.pi * s)])))
        for got, curve in zip(reparameterize_each(curves), curves):
            assert np.array_equal(got.samples, reparameterize_arclength(curve).samples)


def group(n, dt, cg_tol=1e-10, **kwargs):
    curve = initial_curve("perturbed-circle(3,0.05)", n)
    return Group([EvolutionState(curve, 0.0)] * 2, (build_table(1e-3, n // 2), rft_constants(1e-3)),
                 dt, 4e-6, 4e-6 * (1.0 - 1e-12), lambda states, steps, dt_step: None,
                 StepOptions(cg_tol=cg_tol, **kwargs))


class TestGroupFailures:
    """A member that fails its step ends its own group, with the message of
    its solo step, and leaves the other groups as they would run alone."""

    @pytest.mark.parametrize("n", NS)
    def test_cg_stall(self, n):
        failing, other, alone = group(n, 1e-6, cg_tol=1e-30), group(n, 1e-6), group(n, 1e-6)
        lockstep([failing, other])
        lockstep([alone])
        with pytest.raises(SolverError) as solo:
            _step(failing.states[0], 1e-6, failing.force_maps[0], cg_tol=1e-30)
        assert failing.failure == str(solo.value) and failing.steps == 0
        self.assert_unaffected(other, alone)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_step(self):
        failing, other, alone = group(64, 1e300), group(64, 1e-6), group(64, 1e-6)
        failing.horizon = failing.end = 1e301
        lockstep([failing, other])
        lockstep([alone])
        with pytest.raises(GeometryError) as solo:
            _step(failing.states[0], 1e300, failing.force_maps[0])
        assert failing.failure == str(solo.value) and failing.steps == 0
        self.assert_unaffected(other, alone)

    @staticmethod
    def assert_unaffected(other, alone):
        assert other.failure is None and other.steps == alone.steps == 4
        for got, want in zip(other.states, alone.states):
            assert np.array_equal(got.curve.samples, want.curve.samples)
            assert got.diagnostics == want.diagnostics
