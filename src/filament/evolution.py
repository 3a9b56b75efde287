"""IMEX time stepping for the two filament evolutions.

Both models evolve dX/dt = -L[(X_sss - tau X_s)_s] with tau from the
tension solve.  The stiff linear principal part is treated implicitly:
for the nonlocal model this is T_mn d_s^4 (the Fourier-diagonal
principal part of L[d_s^4 X]); for RFT the larger tangential
coefficient (|log eps|/2 pi) d_s^4 is taken.  Everything else is
explicit, and tau is lagged (solved once per step from the
beginning-of-step curve).

A model enters only as its force map (see multipliers), and one loop,
`lockstep`, steps a single run or the two models side by side.
"""

from dataclasses import dataclass, fields, replace

import numpy as np

from .multipliers import MultiplierTable, RftConstants, force_map_for
from .spectral import (
    GeometryError,
    PeriodicCurve,
    SobolevIndex,
    TWO_PI,
    from_coeffs,
    mean_inner,
    read_curve_csv,
    reparameterize_arclength,
    sobolev_norm,
    sobolev_norm_coeffs,
    to_coeffs,
    write_csv,
)
from .tension import SolverError, TensionField, TensionProblem, lift, solve_tension

H2 = SobolevIndex(2.0)
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
    """D = |Z|^2 in homogeneous H^{1/2}, Z = X_sss - tau X_s."""
    grid = curve.grid
    xsss = grid.ik_pow[:, 3, None] * curve.coeffs
    product = to_coeffs(curve.tangent * tension.values[:, None])
    product[~grid.band] = 0.0
    return sobolev_norm_coeffs(xsss - product, H_HALF_HOM) ** 2


def dissipation_rate(problem, tension):
    """-dE/dt predicted by the energy identity: int Z_s . L[Z_s] ds."""
    n = problem.curve.n
    zs = force_density(problem.curve, tension)
    return mean_inner(from_coeffs(zs, n), from_coeffs(problem.apply_operator(zs), n))


def implicit_symbol(grid, force_map):
    """Fourier symbol of the implicit principal part, indexed by |k|."""
    lam = force_map.principal_symbol(grid.k.shape[0]) * (TWO_PI * grid.k) ** 4
    lam[-1] = 0.0
    return lam


def _explicit_forcing(problem, tension, lam):
    """rfft coefficients of G = dX/dt + (implicit part applied to X)
    = -L[Z_s] + T_lam X."""
    zs = force_density(problem.curve, tension)
    return lam[:, None] * problem.curve.coeffs - problem.apply_operator(zs)


def _forcing(curve, force_map, cg_tol, warm):
    """The tension on the curve (CG started from warm, or cold when warm
    is None), the implicit symbol lam, and the explicit forcing G."""
    problem = TensionProblem(curve, force_map, cg_tol=cg_tol)
    tension = solve_tension(problem, initial=warm)
    lam = implicit_symbol(curve.grid, force_map)
    return tension, lam, _explicit_forcing(problem, tension, lam)


def choose_dt(curve, force_map, cg_tol=1e-10, rescaled=False):
    """Default step size: dt ||G||_H2 <= 1e-2 ||X||_H2 at the initial state.

    With rescaled=True the bound is applied to the |log eps|-rescaled
    forcing, giving a step in rescaled time units.
    """
    _, _, ghat = _forcing(curve, force_map, cg_tol, None)
    dt = 1e-2 * sobolev_norm_coeffs(curve.coeffs, H2) / sobolev_norm_coeffs(ghat, H2)
    if rescaled:
        dt *= force_map.log_eps
    return float(dt)


def _step(state, dt, force_map, *, cg_tol=1e-10, inext_tol=1e-6,
          energy_tol_abs=np.inf, time_scale=1.0):
    """One IMEX Euler step; dt is in the state's own time units and
    time_scale converts it to native model time."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    curve = state.curve
    warm = state.tension.values if state.tension is not None else None
    tension, lam, ghat = _forcing(curve, force_map, cg_tol, warm)
    dt_native = dt * time_scale
    new_hat = (curve.coeffs + dt_native * ghat) / (1.0 + dt_native * lam[:, None])
    new_hat[-1] = 0.0
    new_curve = PeriodicCurve(from_coeffs(new_hat, curve.n))
    if new_curve.inext_residual > 0.5 * inext_tol:
        new_curve = reparameterize_arclength(new_curve)
    e_old = state.diagnostics.energy if state.diagnostics else energy(curve)
    e_new = energy(new_curve)
    flag = bool(e_new > e_old + energy_tol_abs)
    record = DiagnosticsRecord(
        step=(state.diagnostics.step + 1) if state.diagnostics else 1,
        time=state.time + dt,
        energy=e_new,
        dissipation=dissipation(new_curve, tension),
        inext_residual=new_curve.inext_residual,
        tension_h12=sobolev_norm(tension.values, SobolevIndex(0.5)),
        energy_flag=flag,
        cg_iterations=tension.iterations,
        cg_residual=tension.residual,
    )
    return EvolutionState(new_curve, state.time + dt, tension, record)


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
    name = name.strip()
    if name == "circle":
        return PeriodicCurve.circle(n)
    if name == "trefoil":
        return PeriodicCurve.trefoil(n)
    if name.startswith("perturbed-circle(") and name.endswith(")"):
        inner = name[len("perturbed-circle("):-1]
        parts = [p.strip() for p in inner.split(",")]
        if len(parts) != 2:
            raise ValueError(f"perturbed-circle takes (mode, amplitude), got {name!r}")
        return PeriodicCurve.perturbed_circle(n, int(parts[0]), float(parts[1]))
    if name.endswith(".csv"):
        curve, _ = read_curve_csv(name)
        if curve.n != n:
            raise ValueError(f"curve file has n={curve.n}, config asks n={n}")
        return curve
    raise ValueError(f"unknown initial curve {name!r}")


def lockstep(states, force_maps, dt, horizon, end, on_step, **step_kwargs):
    """Step the states, each under its force map, with one shared dt.

    Runs from t = 0 while t < end, the last step shortened to land on
    the horizon; resamples every state at arclength every 20 steps and
    halves dt for good when any state raises its energy flag.  After
    each step, on_step(states, steps, dt_step, dt) returns the dt to go
    on with.  A solver or geometry failure, or a dt halved until time
    stands still, ends the loop early.  Returns (states, dt, steps,
    flagged steps, reason for an early end or None).
    """
    t = 0.0
    steps = flagged = 0
    while t < end:
        dt_step = min(dt, horizon - t)
        if t + dt_step == t:  # halved away by energy flags
            return states, dt, steps, flagged, (
                f"step size underflow: dt = {dt_step:.3e} at t = {t!r}")
        try:
            states = [_step(state, dt_step, force_map, **step_kwargs)
                      for state, force_map in zip(states, force_maps)]
        except (SolverError, GeometryError) as exc:  # keep the last good states
            return states, dt, steps, flagged, str(exc)
        t += dt_step
        steps += 1
        if any(state.diagnostics.energy_flag for state in states):
            flagged += 1
            dt *= 0.5
        if steps % 20 == 0:
            states = [replace(state, curve=reparameterize_arclength(state.curve))
                      for state in states]
        dt = on_step(states, steps, dt_step, dt)
    return states, dt, steps, flagged, None


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

    def after_step(states, steps, dt_step, dt):
        (state,) = states
        traj.diagnostics.append(state.diagnostics)
        traj.dt_history.append(dt_step)
        if steps % config.snapshot_every == 0 or state.time >= config.horizon - 1e-12:
            traj.states.append(state)
        return dt

    (state,), _, _, _, traj.aborted = lockstep(
        [state], [force_map], dt, config.horizon,
        config.horizon - 1e-12 * config.horizon, after_step,
        cg_tol=config.cg_tol, inext_tol=config.inextensibility_tol,
        energy_tol_abs=config.energy_tol * e0, time_scale=time_scale,
    )
    if traj.states[-1] is not state:
        traj.states.append(state)
    return traj


def write_diagnostics_csv(records, path):
    """One row per DiagnosticsRecord, one column per field."""
    columns = [f.name for f in fields(DiagnosticsRecord)]
    write_csv(path, columns, ([getattr(r, c) for c in columns] for r in records))
