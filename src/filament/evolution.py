"""IMEX time stepping for the two filament evolutions.

Both models evolve dX/dt = -L[(X_sss - tau X_s)_s] with tau from the
tension solve.  The stiff linear principal part is treated implicitly:
for the nonlocal model this is T_mn d_s^4 (the Fourier-diagonal
principal part of L[d_s^4 X]); for RFT the larger tangential
coefficient (|log eps|/2 pi) d_s^4 is taken.  Everything else is
explicit, and tau is lagged (solved once per step from the
beginning-of-step curve).

A model enters only as its force map (see multipliers).  One loop,
`lockstep`, steps groups of members: a run is a group of one, a sweep
row the two models side by side with one dt.  Each step advances every
member of every group as one array program with a member axis first
(`_advance`): one batched tension solve, forcing and implicit update for
all of them, each member getting the bits of its solo step.
"""

from dataclasses import dataclass, fields, replace

import numpy as np

from .config import curve_spec
from .multipliers import ForceMapStack, MultiplierTable, RftConstants, force_map_for
from .spectral import (
    CurveBatch,
    GeometryError,
    PeriodicCurve,
    SobolevIndex,
    TWO_PI,
    curves_from_samples,
    from_coeffs,
    mean_inner,
    read_curve_csv,
    reparameterize_each,
    sobolev_norm_coeffs,
    to_coeffs,
    write_csv,
)
from .tension import TensionField, TensionProblem, lift, solve_tensions

H2 = SobolevIndex(2.0)
H_HALF = SobolevIndex(0.5)
H_HALF_HOM = SobolevIndex(0.5, homogeneous=True)


@dataclass(frozen=True)
class DiagnosticsRecord:
    step: int
    time: float
    energy: float
    dissipation: float
    inext_residual: float
    tension_h12: float
    energy_flag: bool = False
    cg_iterations: int = 0     # of the step's tension solve
    cg_residual: float = 0.0   # its final relative residual


@dataclass(frozen=True)
class EvolutionState:
    curve: PeriodicCurve
    time: float
    tension: TensionField = None
    diagnostics: DiagnosticsRecord = None


def energy(curve):
    """Bending energy E = 1/2 int |X_ss|^2 ds."""
    return 0.5 * mean_inner(curve.xss, curve.xss)


def force_density(curve, tension):
    """rfft coefficients of Z_s = (X_sss - tau X_s)_s = X_ssss - (tau X_s)_s."""
    xssss = curve.grid.ik_pow[:, 4, None] * curve.coeffs
    return xssss - lift(curve, tension.values)


def dissipation(curve, tension):
    """D = |Z|^2 in homogeneous H^{1/2}, Z = X_sss - tau X_s; a list with
    one per member for a batch."""
    grid = curve.grid
    xsss = grid.ik_pow[:, 3, None] * curve.coeffs
    product = to_coeffs(curve.tangent * tension.values[..., None], axis=-2)
    product[..., grid.above_band, :] = 0.0
    z = xsss - product
    if z.ndim == 2:
        return sobolev_norm_coeffs(z, H_HALF_HOM) ** 2
    return [sobolev_norm_coeffs(member, H_HALF_HOM) ** 2 for member in z]


def dissipation_rate(problem, tension):
    """-dE/dt predicted by the energy identity: int Z_s . L[Z_s] ds."""
    n = problem.curve.n
    zs = force_density(problem.curve, tension)
    return mean_inner(from_coeffs(zs, n), from_coeffs(problem.apply_operator(zs), n))


def implicit_symbol(grid, force_map):
    """Fourier symbol of the implicit principal part, indexed by |k|."""
    lam = force_map.principal_symbol(grid.k.shape[0]) * (TWO_PI * grid.k) ** 4
    lam[..., -1] = 0.0
    return lam


def _explicit_forcing(problem, tension, lam):
    """rfft coefficients of G = dX/dt + (implicit part applied to X)
    = -L[Z_s] + T_lam X."""
    zs = force_density(problem.curve, tension)
    return lam[..., None] * problem.curve.coeffs - problem.apply_operator(zs)


def choose_dt(curve, force_map, cg_tol=1e-10, rescaled=False):
    """Default step size: dt ||G||_H2 <= 1e-2 ||X||_H2 at the initial state.

    With rescaled=True the bound is applied to the |log eps|-rescaled
    forcing, giving a step in rescaled time units.
    """
    (dt,) = _policy_dts([curve], [force_map], [cg_tol], [rescaled])
    if isinstance(dt, Exception):
        raise dt
    return dt


def _forcing(curves, force_maps, cg_tols, warm):
    """The tension solve and explicit forcing of the curves as one batch
    (leps members first).  Returns each member's TensionField or
    SolverError, the positions of the solved members, and their batched
    problem, implicit symbol and forcing coefficients."""
    grid = curves[0].grid
    problem = TensionProblem(CurveBatch.of(curves), ForceMapStack(force_maps, grid.k.shape[0]),
                             cg_tol=np.array(cg_tols))
    tensions = solve_tensions(problem, warm)
    solved = [j for j, tension in enumerate(tensions) if isinstance(tension, TensionField)]
    if not solved:
        return tensions, solved, None, None, None
    if len(solved) < len(curves):
        problem = problem.members(solved)
    lam = implicit_symbol(grid, problem.force_map)
    ghat = _explicit_forcing(problem, TensionField.stack([tensions[j] for j in solved]), lam)
    return tensions, solved, problem, lam, ghat


def _policy_dts(curves, force_maps, cg_tols, rescaled):
    """choose_dt for every member (leps members first) as one batch: each
    member's dt, or the SolverError of its tension solve."""
    dts, solved, _, _, ghat = _forcing(curves, force_maps, cg_tols, None)
    for j, member_ghat in zip(solved, () if ghat is None else ghat):
        dt = 1e-2 * sobolev_norm_coeffs(curves[j].coeffs, H2) / sobolev_norm_coeffs(member_ghat, H2)
        if rescaled[j]:
            dt *= force_maps[j].log_eps
        dts[j] = float(dt)
    return dts


@dataclass(frozen=True)
class StepOptions:
    """Tolerances of a step; dt is in the state's own time units and
    time_scale converts it to native model time."""

    cg_tol: float = 1e-10
    inext_tol: float = 1e-6
    energy_tol_abs: float = np.inf
    time_scale: float = 1.0


def _advance(states, force_maps, dts, options):
    """One IMEX Euler step of every member (leps members first) as one
    array program: a list with each member's new EvolutionState, or the
    SolverError or GeometryError that stopped its step.  options holds a
    StepOptions per member."""
    if not all(dt > 0.0 for dt in dts):
        raise ValueError(f"dt must be positive, got {dts!r}")
    tensions, solved, problem, lam, ghat = _forcing(
        [s.curve for s in states], force_maps, [o.cg_tol for o in options],
        [None if s.tension is None else s.tension.values for s in states])
    outcomes = list(tensions)
    if not solved:
        return outcomes
    dt_native = np.array([dts[j] * options[j].time_scale for j in solved])[:, None, None]
    new_hat = (problem.curve.coeffs + dt_native * ghat) / (1.0 + dt_native * lam[..., None])
    new_hat[..., -1, :] = 0.0
    curves = dict(zip(solved, curves_from_samples(from_coeffs(new_hat, problem.curve.n,
                                                              axis=-2))))
    off = [j for j, curve in curves.items() if isinstance(curve, PeriodicCurve)
           and curve.inext_residual > 0.5 * options[j].inext_tol]
    curves.update(zip(off, reparameterize_each([curves[j] for j in off])))
    for j, curve in list(curves.items()):
        if isinstance(curve, GeometryError):
            outcomes[j] = curves.pop(j)
    if not curves:
        return outcomes
    # diagnostics of the members that stepped, their FFTs batched
    tension = TensionField.stack([tensions[j] for j in curves])
    dissipations = dissipation(CurveBatch.of(list(curves.values())), tension)
    h12 = to_coeffs(tension.values, axis=-1)
    for d, (j, curve) in enumerate(curves.items()):
        state = states[j]
        e_old = state.diagnostics.energy if state.diagnostics else energy(state.curve)
        e_new = energy(curve)
        record = DiagnosticsRecord(
            step=(state.diagnostics.step + 1) if state.diagnostics else 1,
            time=state.time + dts[j],
            energy=e_new,
            dissipation=dissipations[d],
            inext_residual=curve.inext_residual,
            tension_h12=sobolev_norm_coeffs(h12[d], H_HALF),
            energy_flag=bool(e_new > e_old + options[j].energy_tol_abs),
            cg_iterations=tensions[j].iterations,
            cg_residual=tensions[j].residual,
        )
        outcomes[j] = EvolutionState(curve, state.time + dts[j], tensions[j], record)
    return outcomes


def _step(state, dt, force_map, **options):
    """One IMEX Euler step of one state (the batch of one); options are
    the fields of StepOptions."""
    (outcome,) = _advance([state], [force_map], [dt], [StepOptions(**options)])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def step_leps(state, dt, table, **options):
    if not isinstance(table, MultiplierTable):
        raise TypeError("step_leps needs a MultiplierTable")
    return _step(state, dt, table, **options)


def step_rft(state, dt, constants, **options):
    if not isinstance(constants, RftConstants):
        raise TypeError("step_rft needs RftConstants")
    return _step(state, dt, constants, **options)


def initial_curve(name, n):
    """Curve corpus lookup: circle, perturbed-circle(mode,amp), trefoil, or CSV path."""
    kind, *args = curve_spec(name)
    if kind == "circle":
        return PeriodicCurve.circle(n)
    if kind == "trefoil":
        return PeriodicCurve.trefoil(n)
    if kind == "perturbed-circle":
        return PeriodicCurve.perturbed_circle(n, *args)
    curve, _ = read_curve_csv(args[0])
    if curve.n != n:
        raise ValueError(f"curve file has n={curve.n}, config asks n={n}")
    return curve


@dataclass(eq=False)
class Group:
    """Members stepped with one shared dt: a run is a group of one, a
    sweep row its two models.  The group runs from t = 0 while t < end,
    its last step shortened to land on the horizon; after each step
    lockstep calls on_step(states, steps, dt_step).

    With policy_every > 0 the dt policy (choose_dt, minimum over the
    members) is re-evaluated every policy_every steps, letting dt at
    most double and capping it at dt_cap; dt None takes it from the
    policy at the start.  `lockstep` advances the progress fields and
    sets failure when the group ends early."""

    states: list
    force_maps: tuple
    dt: float
    horizon: float
    end: float
    on_step: object
    options: StepOptions
    policy_every: int = 0
    dt_cap: float = np.inf
    rescaled: bool = False  # the policy's dt is in rescaled time
    t: float = 0.0
    steps: int = 0
    flagged: int = 0     # steps on which a member raised its energy flag
    failure: str = None  # why the group ended early


def _batched(function, groups, member):
    """function called once on the members of all groups, leps members
    first; member(group, k) gives member k's arguments.  Returns each
    group's outcomes in member order."""
    members = sorted(((g, k) for g in groups for k in range(len(g.states))),
                     key=lambda gk: gk[0].force_maps[gk[1]].model != "leps")
    if not members:
        return {}
    outcomes = dict(zip(members, function(*zip(*(member(g, k) for g, k in members)))))
    return {g: [outcomes[g, k] for k in range(len(g.states))] for g in groups}


def _failure(outcomes):
    return next((o for o in outcomes if isinstance(o, Exception)), None)


def _apply_policy(groups):
    """Set each group's dt from the dt policy on its states, one batch for
    all; a failed evaluation ends the group."""
    policy = _batched(_policy_dts, groups, lambda g, k: (
        g.states[k].curve, g.force_maps[k], g.options.cg_tol, g.rescaled))
    for g, dts in policy.items():
        failed = _failure(dts)
        if failed is not None:
            g.failure = f"{type(failed).__name__}: {failed}"
        elif g.dt is None:
            g.dt = min(min(dts), g.dt_cap)
        else:
            g.dt = min(min(dts), 2.0 * g.dt, g.dt_cap)


def _resample(groups):
    """Resample the states of the groups at arclength, one batch for all;
    a failure ends the group."""
    curves = _batched(reparameterize_each, groups, lambda g, k: (g.states[k].curve,))
    for g, resampled in curves.items():
        failed = _failure(resampled)
        if failed is not None:
            g.failure = f"{type(failed).__name__}: {failed}"
        else:
            g.states = [replace(s, curve=c) for s, c in zip(g.states, resampled)]


def lockstep(groups):
    """Step the groups (all on one grid) until each has ended, all members
    of the running groups in one batched step at a time; returns the
    groups.

    Each group keeps its own dt, resamples its states at arclength every
    20 of its steps and halves its dt for good when any of its states
    raises the energy flag.  A solver or geometry failure, or a dt halved
    until time stands still, ends that group early with its last good
    states and the reason in `failure`; the other groups go on.
    """
    _apply_policy([g for g in groups if g.dt is None])
    running = [g for g in groups if g.failure is None and g.t < g.end]
    while running:
        stepping = {}
        for g in running:
            dt_step = min(g.dt, g.horizon - g.t)
            if g.t + dt_step == g.t:  # halved away by energy flags
                g.failure = f"step size underflow: dt = {dt_step:.3e} at t = {g.t!r}"
            else:
                stepping[g] = dt_step
        outcomes = _batched(_advance, stepping, lambda g, k: (
            g.states[k], g.force_maps[k], stepping[g], g.options))
        stepped = {}
        for g, states in outcomes.items():
            failed = _failure(states)
            if failed is not None:  # keep the last good states
                g.failure = str(failed)
                continue
            g.states, g.t, g.steps = states, g.t + stepping[g], g.steps + 1
            if any(s.diagnostics.energy_flag for s in states):
                g.flagged += 1
                g.dt *= 0.5
            stepped[g] = stepping[g]
        _resample([g for g in stepped if g.steps % 20 == 0])
        _apply_policy([g for g in stepped if g.failure is None and g.policy_every
                       and g.steps % g.policy_every == 0])
        running = []
        for g, dt_step in stepped.items():
            if g.failure is None:
                g.on_step(g.states, g.steps, dt_step)
                if g.t < g.end:
                    running.append(g)
    return groups


@dataclass
class Trajectory:
    states: list          # snapshot EvolutionStates (always includes initial & final)
    diagnostics: list     # per-step DiagnosticsRecords
    dt_history: list      # dt actually used at each step
    aborted: str = None   # error message if the run stopped early


def run(config, initial):
    """Integrate under a RunConfig; returns a Trajectory.

    Snapshots are stored every config.snapshot_every steps.  dt is
    config.dt, else the default policy at the initial state.  A run that
    `lockstep` ends early keeps its partial trajectory.
    """
    force_map = force_map_for(config.model, config.epsilon, initial.n)
    time_scale = 1.0 / force_map.log_eps if config.rescaled_time else 1.0
    if config.dt is not None:
        dt = float(config.dt)
    else:
        dt = choose_dt(initial, force_map, cg_tol=config.cg_tol,
                       rescaled=config.rescaled_time)
    e0 = energy(initial)
    state = EvolutionState(
        initial, 0.0, None,
        DiagnosticsRecord(0, 0.0, e0, 0.0, initial.inext_residual, 0.0),
    )
    traj = Trajectory([state], [], [])

    def after_step(states, steps, dt_step):
        (state,) = states
        traj.diagnostics.append(state.diagnostics)
        traj.dt_history.append(dt_step)
        if steps % config.snapshot_every == 0 or state.time >= config.horizon - 1e-12:
            traj.states.append(state)

    (group,) = lockstep([Group(
        [state], (force_map,), dt, config.horizon,
        config.horizon - 1e-12 * config.horizon, after_step,
        StepOptions(cg_tol=config.cg_tol, inext_tol=config.inextensibility_tol,
                    energy_tol_abs=config.energy_tol * e0, time_scale=time_scale),
    )])
    (state,), traj.aborted = group.states, group.failure
    if traj.states[-1] is not state:
        traj.states.append(state)
    return traj


def write_diagnostics_csv(records, path):
    """One row per DiagnosticsRecord, one column per field."""
    columns = [f.name for f in fields(DiagnosticsRecord)]
    write_csv(path, columns, ([getattr(r, c) for c in columns] for r in records))
