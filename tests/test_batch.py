"""The batched kernels (member axis first) against the plain per-member
path, bit for bit: every comparison is np.array_equal or ==.

The members mix both models, two aspect ratios each, on two curves, and
need different CG iteration counts, so the batched solve has to let
members leave at different iterations.
"""

import numpy as np
import pytest

from filament.config import RunConfig
from filament.evolution import (
    H2,
    H_HALF,
    H_HALF_HOM,
    EvolutionState,
    Group,
    StepOptions,
    _advance,
    _energies,
    _step,
    dissipation,
    energy,
    implicit_symbol,
    initial_curve,
    lockstep,
    run,
)
from filament.multipliers import ForceMapStack, RftConstants, build_table, rft_constants
from filament.spectral import (
    CurveBatch,
    GeometryError,
    PeriodicCurve,
    SobolevIndex,
    curves_from_samples,
    dealias,
    mean_inner,
    reparameterize_arclength,
    reparameterize_each,
    sobolev_norm_coeffs,
    to_coeffs,
)
from filament.tension import (SolverError, TensionProblem, _preconditioner, apply_B,
                              assemble_rhs, lift, lift_adjoint, solve_tension, solve_tensions)

NS = [64, 256]


def members(n):
    """(curve, force map) pairs, leps members first as a batch needs."""
    trefoil = initial_curve("trefoil", n)
    circle = initial_curve("perturbed-circle(3,0.05)", n)
    return [(trefoil, build_table(1e-2, n // 2)), (circle, build_table(1e-4, n // 2)),
            (circle, rft_constants(1e-3)), (trefoil, rft_constants(1e-5))]


def six_members(n):
    """Three leps and three rft members on the corpus curves, leps first."""
    names = ("trefoil", "perturbed-circle(3,0.05)", "perturbed-circle(2,0.04)")
    curves = [initial_curve(name, n) for name in names * 2]
    maps = ([build_table(eps, n // 2) for eps in (1e-2, 1e-4, 1e-6)]
            + [rft_constants(eps) for eps in (1e-2, 1e-4, 1e-6)])
    return list(zip(curves, maps))


def batched(pairs, **kwargs):
    curves, maps = zip(*pairs)
    return TensionProblem(CurveBatch.of(curves), maps, **kwargs)


def apply_L(curve, force_map, coeffs):
    """The force map of one curve alone, the stack of one: its single-model
    branch, against which the mixed stack's is compared."""
    stack = ForceMapStack([force_map], curve.grid.k.shape[0])
    return stack.apply(CurveBatch.of([curve]), coeffs[None])[0]


@pytest.mark.parametrize("n", NS)
class TestAgainstSolo:
    def test_force_maps(self, n):
        pairs = members(n)
        # unfiltered noise reaches the modes above the cutoff and Nyquist
        noise = np.random.default_rng(n).standard_normal((len(pairs), n, 3))
        coeffs = to_coeffs(noise.swapaxes(-1, -2), axis=-1)
        problem = batched(pairs)
        got = problem.force_map.apply(problem.curve, coeffs)
        for member, (curve, force_map), field in zip(got, pairs, coeffs):
            assert np.array_equal(member, apply_L(curve, force_map, field))

    def test_force_map_of_stacked_fields(self, n):
        # two fields per member stacked on a leading axis, as a warm start
        # stacks its lift with X_ssss: each gets the bits of its own
        # application
        problem = batched(six_members(n))
        noise = np.random.default_rng(n + 3).standard_normal((2, 6, 3, n))
        fields = to_coeffs(noise, axis=-1)
        got = problem.force_map.apply(problem.curve, fields)
        assert got.shape == (2, 6, 3, n // 2 + 1)
        for row, field in zip(got, fields):
            assert row.tobytes() == problem.force_map.apply(problem.curve, field).tobytes()

    def test_members_rebuild_the_stack(self, n):
        pairs = members(n)
        index = [0, 2, 3]  # one leps member, both rft members
        got = batched(pairs).members(index).force_map
        want = ForceMapStack([pairs[i][1] for i in index], n // 2 + 1)
        assert got.maps == want.maps and got.split == want.split == 1
        for name in ("mt", "mn"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        # the rows m_t, m_n: the table's, then the constants
        table, rfts = pairs[0][1], [pairs[i][1] for i in index[1:]]
        assert np.array_equal(got.mt[0], table.mt[:n // 2 + 1])
        assert np.array_equal(got.mn[0], table.mn[:n // 2 + 1])
        for mt, mn, constants in zip(got.mt[1:], got.mn[1:], rfts):
            assert np.all(mt == constants.tangential) and np.all(mn == constants.normal)

    def test_apply_B(self, n):
        pairs = members(n)
        tau = dealias(np.random.default_rng(n + 1).standard_normal((len(pairs), n)), axis=-1)
        got = apply_B(batched(pairs), tau)[0]
        for member, (curve, force_map), values in zip(got, pairs, tau):
            want = lift_adjoint(curve, apply_L(curve, force_map, lift(curve, values)))
            assert np.array_equal(member, want)

    @pytest.mark.parametrize("warm", [False, True])
    def test_cg_solve(self, n, warm):
        pairs = members(n)
        solo = [solve_tensions(TensionProblem(curve, force_map)) for curve, force_map in pairs]
        initial = None
        if warm:  # warm starts off the solution, one member cold
            noise = np.random.default_rng(n + 2).standard_normal((len(pairs), n))
            initial = [t.values * (1.0 + 1e-3 * e) for ((t,), _), e in zip(solo, noise)]
            initial[2] = None
            solo = [solve_tensions(TensionProblem(curve, force_map), [start])
                    for (curve, force_map), start in zip(pairs, initial)]
        assert len({t.iterations for (t,), _ in solo}) > 1
        tensions, velocities = solve_tensions(batched(pairs), initial)
        for got, velocity, ((want,), (want_velocity,)) in zip(tensions, velocities, solo):
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(velocity, want_velocity)
            assert got.iterations == want.iterations
            assert got.residual == want.residual

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("warm", [False, True])
    def test_zero_force_map(self, n, warm):
        # a zero right-hand side leaves the CG at its first check: tau = 0
        # in 0 iterations at residual 0, warm start or not, and the
        # other members keep their solo bits; the zero map's zero
        # preconditioner symbol raises no warning
        curve = initial_curve("perturbed-circle(3,0.05)", n)
        zero = RftConstants(1e-2, 0.0, 0.0)
        start = np.ones(n) if warm else None
        pairs = members(n)
        pairs.insert(3, (curve, zero))  # among the rft members
        batch, _ = solve_tensions(batched(pairs),
                                  [start if m is zero else None for _, m in pairs])
        for got in (solve_tension(TensionProblem(curve, zero), start), batch[3]):
            assert got.values.tobytes() == np.zeros(n).tobytes()
            assert (got.iterations, got.residual) == (0, 0.0)
        for got, (c, force_map) in zip(batch, pairs):
            want = solve_tension(TensionProblem(c, force_map))
            assert np.array_equal(got.values, want.values)
            assert (got.iterations, got.residual) == (want.iterations, want.residual)

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

    def test_sobolev_norms(self, n):
        rng = np.random.default_rng(n + 3)
        vector = to_coeffs(rng.standard_normal((4, n, 3)).swapaxes(-1, -2), axis=-1)
        scalar = to_coeffs(rng.standard_normal((4, 1, n)), axis=-1)  # one component
        for index in (H2, H_HALF, H_HALF_HOM, SobolevIndex(3.5, homogeneous=True)):
            for coeffs in (vector, scalar):
                got = sobolev_norm_coeffs(coeffs, index).tolist()
                assert got == [sobolev_norm_coeffs(member, index) for member in coeffs]

    def test_energies_and_dissipation(self, n):
        curves = [curve for curve, _ in members(n)]
        got = _energies(np.array([c.xss for c in curves])).tolist()
        assert got == [energy(c) for c in curves]
        assert got == [0.5 * mean_inner(c.xss, c.xss) for c in curves]
        tau = np.random.default_rng(n + 4).standard_normal((len(curves), n))
        assert dissipation(CurveBatch.of(curves), tau) == [
            dissipation(CurveBatch.of([c]), t[None])[0] for c, t in zip(curves, tau)]

    def test_resampler(self, n):
        s = np.arange(n) / n
        curves = [curve for curve, _ in members(n)[:2]]
        # off arclength by a smooth reparameterization, and stepped: the
        # preimages stay at their nodes
        curves += [PeriodicCurve(c.samples * (1.0 + 1e-4 * np.sin(2 * np.pi * s))[:, None])
                   for c in curves]
        curves += [_step(EvolutionState(curve, 0.0), 2e-7, force_map, energy_tol_abs=1e-8,
                         time_scale=0.2).curve for curve, force_map in members(n)[:2]]
        # far from arclength, in one Newton batch: the preimages of the raw
        # trefoil move up to 1 (n = 64) or 4 (n = 256) nodes, those of the
        # ellipse other nodes by other amounts, and the gather at the moved
        # nodes leaks into no other member
        tube = 2.0 + np.cos(6 * np.pi * s)
        curves.insert(3, PeriodicCurve(np.column_stack([
            tube * np.cos(4 * np.pi * s), tube * np.sin(4 * np.pi * s), np.sin(6 * np.pi * s)])))
        curves.append(PeriodicCurve(np.column_stack([np.cos(2 * np.pi * s), 0.3 * np.sin(
            2 * np.pi * s), 0.1 * np.sin(4 * np.pi * s)])))
        for got, curve in zip(reparameterize_each(curves), curves):
            assert np.array_equal(got.samples, reparameterize_arclength(curve).samples)


@pytest.mark.parametrize("n", [32, 256, 1024])
@pytest.mark.parametrize("name", ["trefoil", "perturbed-circle(3,0.05)"])
def test_curve_alone_is_a_batch_of_one(name, n):
    # fill_derived is the one path to a curve's fields: a curve read alone
    # gets the bits it gets as the middle member of a batch
    curve = initial_curve(name, n)
    batch = curves_from_samples(np.array([PeriodicCurve.circle(n).samples.T, curve.samples.T,
                                          initial_curve("perturbed-circle(2,0.03)", n).samples.T]))
    for field in ("coeffs", "xs", "xss", "tangent", "speed", "inext_residual"):
        alone = PeriodicCurve(curve.samples)  # this field read first
        assert (np.asarray(getattr(alone, field)).tobytes()
                == np.asarray(getattr(batch[1], field)).tobytes())
    assert type(batch[1].inext_residual) is float


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("model", ["leps", "rft"])
def test_problem_alone_is_a_batch_of_one(model, n):
    # a curve and a force map alone are the batch of one: they get the
    # bits of the middle member of a batch
    curve = initial_curve("trefoil", n)
    circle = initial_curve("perturbed-circle(3,0.05)", n)
    force_map = build_table(1e-3, n // 2) if model == "leps" else rft_constants(1e-3)
    alone = TensionProblem(curve, force_map)
    batch = batched([(circle, build_table(1e-2, n // 2)), (curve, force_map),
                     (circle, rft_constants(1e-4))])
    coeffs = to_coeffs(np.random.default_rng(n).standard_normal((3, n, 3)).swapaxes(-1, -2),
                       axis=-1)
    tau = dealias(np.random.default_rng(n + 1).standard_normal((3, n)), axis=-1)
    pairs = [(alone.force_map.apply(alone.curve, coeffs[1:2]),
              batch.force_map.apply(batch.curve, coeffs)),
             *zip(apply_B(alone, tau[1]), apply_B(batch, tau)),
             *zip(assemble_rhs(alone), assemble_rhs(batch))]
    for got, want in pairs:
        assert got.shape[0] == 1 and got[0].tobytes() == want[1].tobytes()
    got, want = solve_tension(alone), solve_tensions(batch)[0][1]
    assert got.values.tobytes() == want.values.tobytes()
    assert (got.iterations, got.residual) == (want.iterations, want.residual)


def form_diagonal(curve, mt, mn):
    """The tension form's Fourier diagonal on the band as a direct sum
    over the modes j of X_s and X_ss with j and k + j on the band:
    (2 pi k)^2 sum_j |X_s_j|^2 m_t(|k+j|) + sum_j |X_ss_j|^2 m_n(|k+j|)."""
    grid, kcut = curve.grid, curve.n // 3
    mt, mn = np.broadcast_to(mt, grid.k.shape), np.broadcast_to(mn, grid.k.shape)
    power = [np.sum(np.abs(grid.ik_pow[m] * curve.coeffs) ** 2, axis=0) for m in (1, 2)]
    j = np.arange(-kcut, kcut + 1)
    diag = np.zeros(kcut + 1)
    for k in range(kcut + 1):
        kj = np.abs(k + j)
        on = kj <= kcut
        xs, xss = (p[np.abs(j[on])] for p in power)
        diag[k] = ((2.0 * np.pi * k) ** 2 * np.sum(xs * mt[kj[on]])
                   + np.sum(xss * mn[kj[on]]))
    return diag


def test_symbols_from_the_rows():
    # the stepper's implicit symbol and the tension preconditioner, each
    # derived by its own module from a 6-member stack's rows, against the
    # formulas written from the tables and constants themselves: the
    # symbol bit for bit, the preconditioner (its two sums over j made as
    # circular convolutions by FFT) to 1e-14 relative on every band mode,
    # where 5.7e-16 was measured, and 0 above the band
    n = 64
    pairs = six_members(n)
    problem = batched(pairs)
    grid = problem.curve.grid
    lam, diag = implicit_symbol(grid, problem.force_map), _preconditioner(problem)
    for j, (curve, m) in enumerate(pairs):
        leps = m.model == "leps"
        mt, mn = (m.mt[:n // 2 + 1], m.mn[:n // 2 + 1]) if leps else (m.tangential, m.normal)
        want = (mn if leps else mt) * (2.0 * np.pi * grid.k) ** 4
        want[-1] = 0.0
        assert lam[j].tobytes() == want.tobytes()
        inverse = 1.0 / form_diagonal(curve, mt, mn)
        band = diag[j][grid.band]
        assert np.max(np.abs(band - inverse) / inverse) <= 1e-14
        assert not np.any(diag[j][~grid.band])


def test_stall_gives_its_own_residual():
    # a member with a zero force map converges at the first check and
    # leaves the batch just before the member after it stalls on a NaN
    # warm start: the error gives the stalled member's residual, as alone
    curve = initial_curve("trefoil", 64)
    problem = batched([(curve, RftConstants(1e-2, 0.0, 0.0)), (curve, rft_constants(1e-2))])
    with pytest.raises(SolverError, match="stalled at relative residual nan after 0 iterations"):
        solve_tensions(problem, [None, np.full(64, np.nan)])


def folded(n):
    """A circle traversed at speed 1 + 0.6 cos(2 pi s): min |X_s| = 0.4,
    a fold-over to the resampler."""
    s = np.arange(n) / n
    phase = 2 * np.pi * s + 0.6 * np.sin(2 * np.pi * s)
    return PeriodicCurve(np.column_stack([np.cos(phase), np.sin(phase),
                                          0.06 * np.sin(2 * phase)]) / (2 * np.pi))


def group(n, dt, cg_tol=1e-10, horizon=4e-6, **kwargs):
    curve = initial_curve("perturbed-circle(3,0.05)", n)
    return Group([EvolutionState(curve, 0.0)] * 2, (build_table(1e-3, n // 2), rft_constants(1e-3)),
                 dt, horizon, lambda group: None,
                 StepOptions(cg_tol=cg_tol, **kwargs))


class TestGroupFailures:
    """A member that fails its step ends its own group, with the exception
    type and message of its solo step, and leaves the other groups as they would run alone."""

    @pytest.mark.parametrize("n", NS)
    def test_cg_stall(self, n):
        failing, other, alone = group(n, 1e-6, cg_tol=1e-30), group(n, 1e-6), group(n, 1e-6)
        lockstep([failing, other])
        lockstep([alone])
        with pytest.raises(SolverError) as solo:
            _step(failing.states[0], 1e-6, failing.force_maps[0], cg_tol=1e-30)
        assert failing.failure == f"SolverError: {solo.value}" and failing.steps == 0
        self.assert_unaffected(other, alone)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_step(self):
        failing, other, alone = group(64, 1e300), group(64, 1e-6), group(64, 1e-6)
        failing.horizon = 1e301
        lockstep([failing, other])
        lockstep([alone])
        with pytest.raises(GeometryError) as solo:
            _step(failing.states[0], 1e300, failing.force_maps[0])
        assert failing.failure == f"GeometryError: {solo.value}" and failing.steps == 0
        self.assert_unaffected(other, alone)

    @pytest.mark.parametrize("dt", [1e-6, None])
    def test_group_of_one_fails_in_one_call(self, monkeypatch, dt):
        # a run's failing step (dt given) or dt policy (dt None) is a batch
        # of one call, whose exception is that call's: it is not made again
        from filament import evolution

        calls = []
        for name in ("_advance", "_policy_dts"):
            real = getattr(evolution, name)
            monkeypatch.setattr(evolution, name, lambda *args, real=real, name=name: (
                calls.append(name) or real(*args)))
        config = RunConfig(model="leps", epsilon=1e-3, n=64, horizon=1e-5, dt=dt,
                           cg_tol=1e-30, initial_curve="perturbed-circle(3,0.05)")
        traj = run(config, initial_curve(config.initial_curve, config.n))
        assert traj.aborted.startswith("SolverError: tension CG stalled")
        assert calls == ["_advance" if dt else "_policy_dts"]

    @staticmethod
    def assert_unaffected(other, alone):
        assert other.failure is None and other.steps == alone.steps == 4
        for got, want in zip(other.states, alone.states):
            assert np.array_equal(got.curve.samples, want.curve.samples)
            assert got.diagnostics == want.diagnostics


class TestIsolatedCalls:
    """A failure in one of two groups during the dt policy or a step's
    inextensibility or scheduled resampling ends that group as it ends
    alone, and leaves the other group as it runs alone."""

    @staticmethod
    def together_and_alone(make_failing, make_other, call):
        failing, other = make_failing(), make_other()
        call([failing, other])
        failing_alone, other_alone = make_failing(), make_other()
        call([failing_alone])
        call([other_alone])
        assert failing.failure is not None and failing.failure == failing_alone.failure
        assert other.failure is None
        assert (other.steps, other.t, other.dt) == (other_alone.steps, other_alone.t, other_alone.dt)
        for got, want in zip(other.states, other_alone.states):
            assert np.array_equal(got.curve.samples, want.curve.samples)
            assert got.diagnostics == want.diagnostics
        return failing

    def test_policy_stall(self):
        # dt None: the policy sets it, and its cold tension solve stalls
        failing = self.together_and_alone(lambda: group(64, None, cg_tol=1e-30),
                                          lambda: group(64, None), lockstep)
        assert failing.failure.startswith("SolverError: tension CG stalled")
        assert failing.steps == 0 and failing.dt is None

    @staticmethod
    def folded_group(dt=1e-6, **kwargs):
        """A group whose second (rft) member is folded over."""
        g = group(64, dt, **kwargs)
        g.states = [g.states[0], EvolutionState(folded(64), 0.0)]
        return g

    def test_scheduled_resample_fold_over(self):
        # with inext_tol = 10 no step resamples the folded member before
        # the scheduled resampling of step 20 finds the fold-over and
        # fails that step; the other group takes 25 steps
        options = dict(horizon=2.5e-7, inext_tol=10.0)
        failing = self.together_and_alone(lambda: self.folded_group(1e-8, **options),
                                          lambda: group(64, 1e-8, **options), lockstep)
        with pytest.raises(GeometryError) as solo:
            _advance([failing.states[1]], [failing.force_maps[1]], [1e-8], [failing.options],
                     [True])
        assert failing.failure == f"GeometryError: {solo.value}" and failing.steps == 19
        assert failing.failure.startswith("GeometryError: fold-over")

    def test_step_resample_fold_over(self):
        failing = self.together_and_alone(self.folded_group, lambda: group(64, 1e-6), lockstep)
        with pytest.raises(GeometryError) as solo:
            _step(failing.states[1], 1e-6, failing.force_maps[1])
        assert failing.failure == f"GeometryError: {solo.value}" and failing.steps == 0
        assert failing.failure.startswith("GeometryError: fold-over")


def shared_groups(n, rft_state=None, horizon=4e-6, dt=1e-6):
    """Three groups, one table each, from one start state and one rft
    member, stepped at dt; rft_state, if given, is the rft member's
    state in all three."""
    start = EvolutionState(initial_curve("perturbed-circle(3,0.05)", n), 0.0)
    rft = rft_constants(1e-3)
    return [Group([start, rft_state or start], (build_table(eps, n // 2), rft), dt, horizon,
                  lambda group: None, StepOptions())
            for eps in (1e-2, 1e-3, 1e-4)]


class TestSharedMember:
    """Groups that share a member's state, force map and dt make its calls
    once, and get the bits of groups that each have their own."""

    def test_shared_member_steps_once(self):
        together = lockstep(shared_groups(64))
        assert together[0].states[1] is together[1].states[1] is together[2].states[1]
        for got, (alone,) in zip(together, (lockstep([g]) for g in shared_groups(64))):
            assert got.failure is None and got.steps == alone.steps == 4
            for a, b in zip(got.states, alone.states):
                assert np.array_equal(a.curve.samples, b.curve.samples)
                assert a.diagnostics == b.diagnostics

    def test_resample_keeps_shared_states_shared(self):
        # the 20th step ends in the scheduled resampling, after its record;
        # at dt 1e-5 the record's residual, ~1.6e-7, lies far above the
        # roundoff the resampling leaves
        together = lockstep(shared_groups(64, horizon=2e-4, dt=1e-5))
        (alone,) = lockstep(shared_groups(64, horizon=2e-4, dt=1e-5)[:1])
        state = together[0].states[1]
        assert all(g.steps == 20 and g.states[1] is state for g in together)
        assert state.diagnostics.inext_residual > 1e-9
        assert state.curve.inext_residual < 1e-6 * state.diagnostics.inext_residual
        assert np.array_equal(state.curve.samples, alone.states[1].curve.samples)
        assert state.diagnostics == alone.states[1].diagnostics

    def test_failing_shared_member_ends_every_group(self):
        folded_state = EvolutionState(folded(64), 0.0)
        groups = lockstep(shared_groups(64, folded_state))
        with pytest.raises(GeometryError) as solo:
            _step(folded_state, 1e-6, groups[0].force_maps[1])
        for got, (alone,) in zip(groups, (lockstep([g])
                                          for g in shared_groups(64, folded_state))):
            assert got.failure == alone.failure == f"GeometryError: {solo.value}"
            assert got.steps == alone.steps == 0
