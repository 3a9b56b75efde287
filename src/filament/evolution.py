"""IMEX time stepping for the two filament evolutions.

Both models evolve dX/dt = -L[(X_sss - tau X_s)_s], tau and this
velocity from the tension solve, which makes all of a step's force-map
applications.  The stiff linear principal part is treated implicitly,
its symbol (implicit_symbol) read off the force-map stack's rows: for
the nonlocal model T_mn d_s^4 (the Fourier-diagonal principal part of
L[d_s^4 X]); for RFT the larger tangential coefficient
(|log eps|/2 pi) d_s^4.  Everything else is explicit, and tau is lagged
(solved once per step from the beginning-of-step curve).

A model enters only as its force map (see multipliers).  One loop,
`lockstep`, steps groups of members: a run is a group of one, a sweep
row the two models side by side with one dt.  Each step advances every
member of every group as one array program with a member axis first
(`_advance`): one batched tension solve, forcing, implicit update,
arclength resampling and diagnostics of the curves it returns, for all of
them, each member getting the bits of its solo step.  Groups may share a
member (a sweep's rows share their RFT member): the batch makes its calls
once while they keep one dt.  A failing member raises for the whole batch,
and `_batched` alone isolates it: it makes each distinct call of the batch
alone, so only the groups with a failing member end.
"""

import logging
from dataclasses import dataclass, fields, replace

import numpy as np

from .config import CG_TOL, INEXT_TOL, curve_spec
from .multipliers import MultiplierTable, RftConstants, force_map_for
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
from .tension import SolverError, TensionField, TensionProblem, lift, solve_tensions

log = logging.getLogger(__name__)
H2 = SobolevIndex(2.0)
H_HALF = SobolevIndex(0.5)
H_HALF_HOM = SobolevIndex(0.5, homogeneous=True)
POLICY_EVERY = 25    # steps between re-evaluations of a policy-timed dt
RESAMPLE_EVERY = 20  # steps between arclength resamplings of a group
HORIZON_PARTS = 50   # a policy-timed dt is at most horizon / HORIZON_PARTS
DT_GRID = 256        # a policy dt is rounded down to 2^(j / DT_GRID), j an integer
TIME_RTOL = 1e-12    # times this close, relative to the later one, count as equal


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
    dt: float = 0.0            # the step's dt, in the state's time units


@dataclass(frozen=True)
class EvolutionState:
    curve: PeriodicCurve
    time: float
    tension: TensionField = None
    diagnostics: DiagnosticsRecord = None


def energy(curve):
    """Bending energy E = 1/2 int |X_ss|^2 ds."""
    return float(_energies(curve.xss))


def _energies(xss):
    """energy of each member from X_ss samples (..., 3, n), member axes
    first; a member gets the bits of its solo energy."""
    return 0.5 * np.mean(np.sum(xss * xss, axis=-2), axis=-1)


def dissipation(curves, tau):
    """D = |Z|^2 in homogeneous H^{1/2}, Z = X_sss - tau X_s, of each
    member of the CurveBatch curves from its tau samples (m, n): a list."""
    grid = curves.grid
    product = to_coeffs(curves.tangent * tau[:, None], axis=-1)
    product[..., grid.above_band] = 0.0
    norms = sobolev_norm_coeffs(grid.ik_pow[3] * curves.coeffs - product, H_HALF_HOM)
    return [v ** 2 for v in norms.tolist()]


def dissipation_rate(problem, tension):
    """-dE/dt of member 0 by the energy identity: int Z_s . L[Z_s] ds,
    Z_s = (X_sss - tau X_s)_s = X_ssss - (tau X_s)_s."""
    curve, n = problem.curve, problem.curve.n
    zs = curve.grid.ik_pow[4] * curve.coeffs - lift(curve, tension.values)
    return mean_inner(from_coeffs(zs[0], n, axis=-1),
                      from_coeffs(problem.force_map.apply(curve, zs)[0], n, axis=-1))


def implicit_symbol(grid, force_map):
    """Fourier symbol of the implicit principal part, indexed by |k|: m_n (rft: m_t)."""
    split = force_map.split
    lam = np.concatenate((force_map.mn[:split], force_map.mt[split:])) * (TWO_PI * grid.k) ** 4
    lam[..., -1] = 0.0
    return lam


def choose_dt(curve, force_map, cg_tol=CG_TOL, rescaled=False):
    """Default step size: dt ||G||_H2 <= 1e-2 ||X||_H2 at the initial state,
    rounded down to the grid 2^(j / DT_GRID), j an integer.

    With rescaled=True the bound is applied to the |log eps|-rescaled
    forcing, giving a step in rescaled time units (rounded in those).
    G's tension is solved only to cg_tol, so roundoff in the curve moves
    the bound ~1e8 times as much; the grid keeps it from reaching dt.
    """
    (dt,) = _policy_dts([curve], [force_map], [cg_tol], [rescaled])
    return dt


def _forcing(curves, force_maps, cg_tols, warm):
    """The tension solve and explicit forcing of the curves as one batch
    (leps members first): each member's TensionField, and the batched
    problem, implicit symbol and coefficients of G = dX/dt + T_lam X."""
    grid = curves[0].grid
    problem = TensionProblem(CurveBatch.of(curves), force_maps, cg_tol=cg_tols)
    tensions, velocity = solve_tensions(problem, warm)
    lam = implicit_symbol(grid, problem.force_map)
    return tensions, problem, lam, lam[:, None] * problem.curve.coeffs + velocity


def _policy_dts(curves, force_maps, cg_tols, rescaled):
    """choose_dt for every member (leps members first) as one batch."""
    _, problem, _, ghat = _forcing(curves, force_maps, cg_tols, None)
    dts = 1e-2 * sobolev_norm_coeffs(problem.curve.coeffs, H2) / sobolev_norm_coeffs(ghat, H2)
    dts *= [m.log_eps if scaled else 1.0 for m, scaled in zip(force_maps, rescaled)]
    j = np.floor(DT_GRID * np.log2(dts))
    grid = np.exp2(j / DT_GRID)
    return np.where(grid > dts, np.exp2((j - 1) / DT_GRID), grid).tolist()


@dataclass(frozen=True)
class StepOptions:
    """Tolerances of a step; dt is in the state's own time units and
    time_scale converts it to native model time (`lockstep` sets it from
    Group.rescaled)."""

    cg_tol: float = CG_TOL
    inext_tol: float = INEXT_TOL
    energy_tol_abs: float = np.inf
    time_scale: float = 1.0


def _advance(states, force_maps, dts, options, scheduled=None):
    """One IMEX Euler step of every member (leps members first) as one
    array program: a list with each member's new EvolutionState; raises
    the SolverError or GeometryError of a member whose step fails.
    options holds a StepOptions per member.  A member is resampled at
    arclength once, before its record is taken, when its inextensibility
    residual exceeds inext_tol / 2 or its flag in scheduled is set."""
    if not all(dt > 0.0 for dt in dts):
        raise ValueError(f"dt must be positive, got {dts!r}")
    tensions, problem, lam, ghat = _forcing(
        [s.curve for s in states], force_maps, [o.cg_tol for o in options],
        [None if s.tension is None else s.tension.values for s in states])
    dt_native = np.array([dt * o.time_scale for dt, o in zip(dts, options)])[:, None, None]
    new_hat = (problem.curve.coeffs + dt_native * ghat) / (1.0 + dt_native * lam[:, None])
    new_hat[..., -1] = 0.0
    curves = curves_from_samples(from_coeffs(new_hat, problem.curve.n, axis=-1))
    due = [j for j, curve in enumerate(curves)
           if curve.inext_residual > 0.5 * options[j].inext_tol or (scheduled and scheduled[j])]
    for j, curve in zip(due, reparameterize_each([curves[j] for j in due])):
        curves[j] = curve
    # diagnostics, one array expression per quantity for all members
    tau = np.array([t.values for t in tensions])
    dissipations = dissipation(CurveBatch.of(curves), tau)
    h12 = sobolev_norm_coeffs(to_coeffs(tau[:, None], axis=-1), H_HALF).tolist()
    energies = _energies(np.array([c.xss for c in curves])).tolist()
    new_states = []
    for j, (state, curve, e_new) in enumerate(zip(states, curves, energies)):
        e_old = state.diagnostics.energy if state.diagnostics else energy(state.curve)
        record = DiagnosticsRecord(
            step=(state.diagnostics.step + 1) if state.diagnostics else 1,
            time=state.time + dts[j],
            energy=e_new,
            dissipation=dissipations[j],
            inext_residual=curve.inext_residual,
            tension_h12=h12[j],
            energy_flag=bool(e_new > e_old + options[j].energy_tol_abs),
            cg_iterations=tensions[j].iterations,
            cg_residual=tensions[j].residual,
            dt=dts[j],
        )
        new_states.append(EvolutionState(curve, state.time + dts[j], tensions[j], record))
    return new_states


def _step(state, dt, force_map, **options):
    """One IMEX Euler step of one state (the batch of one); options are
    the fields of StepOptions."""
    (new_state,) = _advance([state], [force_map], [dt], [StepOptions(**options)])
    return new_state


def step_leps(state, dt, table, **options):
    if not isinstance(table, MultiplierTable):
        raise TypeError("step_leps needs a MultiplierTable")
    return _step(state, dt, table, **options)


def step_rft(state, dt, constants, **options):
    if not isinstance(constants, RftConstants):
        raise TypeError("step_rft needs RftConstants")
    return _step(state, dt, constants, **options)


def initial_curve(name, n, inext_tol=INEXT_TOL):
    """The curve a `curve_spec` name asks for on n points: PeriodicCurve's or its file's.
    A file's curve must have length 1 to within inext_tol, the length to
    which resampling rescales every stepped curve."""
    kind, *args = curve_spec(name)
    if kind != "csv":
        return getattr(PeriodicCurve, kind.replace("-", "_"))(n, *args)
    curve = read_curve_csv(args[0])
    if curve.n != n:
        raise ValueError(f"curve file has n={curve.n}, config asks n={n}")
    length = float(np.mean(curve.speed))
    if not abs(length - 1.0) <= inext_tol:
        raise ValueError(f"curve file has length {length!r}, not 1 to within "
                         f"inextensibility_tol = {inext_tol!r}")
    return curve


@dataclass(eq=False)
class Group:
    """Members stepped with one shared dt: a run is a group of one, a
    sweep row its two models.  The group runs from t = 0 while
    t < end = horizon (1 - TIME_RTOL), its last step shortened to land on the
    horizon; after each step lockstep calls on_step(group), so a callback
    reads the group (its records hold the step's dt) without holding it.
    options holds the members' tolerances; lockstep sets each member's
    time_scale, 1/|log eps| of its force map when rescaled, else 1.

    The dt rule of every run and sweep row: a group given a dt keeps it;
    one with dt None takes the dt policy (choose_dt, minimum over the
    members) before the step it times: at t = 0 and after every
    POLICY_EVERY steps but the last, at most doubling dt each time and
    capped at horizon / HORIZON_PARTS.  A step
    with an energy flag halves dt: for good when given, else a later
    re-evaluation may double it again.  Halving and doubling keep a policy
    dt on choose_dt's grid.  `lockstep` advances the progress fields and
    sets failure when the group ends early."""

    states: list
    force_maps: tuple
    dt: float
    horizon: float
    on_step: object
    options: StepOptions
    rescaled: bool = False  # the policy's dt is in rescaled time
    t: float = 0.0
    steps: int = 0
    flagged: int = 0     # steps on which a member raised its energy flag
    failure: str = None  # why the group ended early

    @property
    def end(self):
        return self.horizon * (1.0 - TIME_RTOL)


def _named(exc):
    """The one failure format, '<ExceptionType>: <message>'."""
    return f"{type(exc).__name__}: {exc}"


def _call_key(args):
    """Identical member calls share a key: the same state, curve and force
    map objects, and equal dts, flags and StepOptions."""
    return tuple(a if isinstance(a, (float, bool, StepOptions)) else id(a) for a in args)


def _batched(function, groups, member):
    """function called once on the members of all groups, leps members
    first; member(group, k) gives member k's arguments.  Returns each
    group's results in member order.  Identical calls (`_call_key`) are
    made once, and every member that asked for one gets its result.

    When the batch raises SolverError or GeometryError, each distinct call
    is made alone, once (a batch of one call keeps the batch's exception).
    A group with a failing member ends with no results and its first
    failure in member order, `_named`, in `failure`; the others get their
    members' solo results, the bits of the batch, shared calls still shared.
    """
    members = sorted(((g, k) for g in groups for k in range(len(g.states))),
                     key=lambda gk: gk[0].force_maps[gk[1]].model != "leps")
    if not members:
        return {}
    calls, keys = {}, {}
    for g, k in members:
        args = member(g, k)
        keys[g, k] = key = _call_key(args)
        calls.setdefault(key, args)
    try:
        results = dict(zip(calls, function(*zip(*calls.values()))))
    except (SolverError, GeometryError) as exc:
        results = dict.fromkeys(calls, exc)
        if len(calls) > 1:
            for key, args in calls.items():
                try:
                    (results[key],) = function(*zip(args))
                except (SolverError, GeometryError) as failure:
                    results[key] = failure
    outcomes = {}
    for g in groups:
        got = [results[keys[g, k]] for k in range(len(g.states))]
        failure = next((r for r in got if isinstance(r, Exception)), None)
        if failure is None:
            outcomes[g] = got
        else:
            g.failure = _named(failure)
    return outcomes


def _apply_policy(groups):
    """Set each group's dt from the dt policy on its states, one batch for
    all; a failed evaluation ends the group."""
    policy = _batched(_policy_dts, groups, lambda g, k: (
        g.states[k].curve, g.force_maps[k], g.options.cg_tol, g.rescaled))
    for g, dts in policy.items():
        g.dt = min(min(dts), g.horizon / HORIZON_PARTS, np.inf if g.dt is None else 2.0 * g.dt)


def lockstep(groups):
    """Step the groups (all on one grid) until each has ended, all members
    of the running groups in one batched step at a time; returns the
    groups.

    Each pass sets the dt of every group by the rule of `Group`, makes one
    `_advance` call for all of them, which also resamples a group's states
    at arclength on every RESAMPLE_EVERY-th of its steps, before their
    records, and hands each step taken to on_step.  A solver or geometry
    failure in the dt policy or the step, or a dt halved until time stands
    still, ends that group early with its last good states and the reason
    in `failure`; the other groups go on.  Groups that share a state,
    force map and dt make its step once, and a state they share stays
    shared.
    """
    options = {g: [replace(g.options, time_scale=1.0 / m.log_eps if g.rescaled else 1.0)
                   for m in g.force_maps] for g in groups}
    timed = [g for g in groups if g.dt is None]
    running = [g for g in groups if g.t < g.end]
    while running:
        _apply_policy([g for g in running if g in timed and g.steps % POLICY_EVERY == 0])
        stepping = {}
        for g in [g for g in running if g.failure is None]:  # not ended by the dt policy
            dt_step = min(g.dt, g.horizon - g.t)
            if g.t + dt_step == g.t:  # halved away by energy flags
                g.failure = f"step size underflow: dt = {dt_step:.3e} at t = {g.t!r}"
            else:
                stepping[g] = dt_step
        # a group whose step fails keeps its last good states
        stepped = _batched(_advance, stepping, lambda g, k: (
            g.states[k], g.force_maps[k], stepping[g], options[g][k],
            (g.steps + 1) % RESAMPLE_EVERY == 0))
        for g, states in stepped.items():
            g.states, g.t, g.steps = states, g.t + stepping[g], g.steps + 1
            if any(s.diagnostics.energy_flag for s in states):
                g.flagged += 1
                g.dt *= 0.5
            g.on_step(g)
        running = [g for g in stepped if g.t < g.end]
    return groups


@dataclass
class Trajectory:
    states: list          # snapshot EvolutionStates (always includes initial & final)
    diagnostics: list     # per-step DiagnosticsRecords, each with its dt
    aborted: str = None   # error message if the run stopped early


def run(config, initial):
    """Integrate under a RunConfig; returns a Trajectory.

    Snapshots are stored every config.snapshot_every steps, and an info
    line logs step, t and the step's dt every 1,000 steps.  dt follows the
    rule of `Group`: config.dt kept, else the dt policy re-evaluated.  A run
    that `lockstep` ends early keeps its partial trajectory.
    """
    force_map = force_map_for(config.model, config.epsilon, initial.n)
    e0 = energy(initial)
    state = EvolutionState(
        initial, 0.0, None,
        DiagnosticsRecord(0, 0.0, e0, 0.0, initial.inext_residual, 0.0),
    )
    traj = Trajectory([state], [])

    def after_step(group):
        (state,) = group.states
        traj.diagnostics.append(state.diagnostics)
        if group.steps % config.snapshot_every == 0:
            traj.states.append(state)
        if group.steps % 1000 == 0:
            log.info("simulate step %d: t=%g dt=%g", group.steps, state.time, state.diagnostics.dt)

    (group,) = lockstep([Group(
        [state], (force_map,), config.dt, config.horizon, after_step,
        StepOptions(cg_tol=config.cg_tol, inext_tol=config.inextensibility_tol,
                    energy_tol_abs=config.energy_tol * e0),
        rescaled=config.rescaled_time,
    )])
    (state,), traj.aborted = group.states, group.failure
    if traj.states[-1] is not state:
        traj.states.append(state)
    return traj


def write_diagnostics_csv(records, path):
    """One row per DiagnosticsRecord, one column per field."""
    columns = [f.name for f in fields(DiagnosticsRecord)]
    write_csv(path, columns, ([getattr(r, c) for c in columns] for r in records))
