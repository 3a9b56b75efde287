"""IMEX time stepping for the two filament evolutions.

Both models evolve dX/dt = -L[(X_sss - tau X_s)_s] with tau from the
tension solve.  The stiff linear principal part is treated implicitly:
for the nonlocal model this is T_mn d_s^4 (the Fourier-diagonal
principal part of L[d_s^4 X]); for RFT the larger tangential
coefficient (|log eps|/2 pi) d_s^4 is taken.  Everything else is
explicit, and tau is lagged (solved once per step from the
beginning-of-step curve).
"""

from dataclasses import dataclass, replace

import numpy as np

from .multipliers import MultiplierTable, RftConstants, build_table, rft_constants
from .spectral import (
    GeometryError,
    PeriodicCurve,
    SobolevIndex,
    TWO_PI,
    from_coeffs,
    mean_inner,
    reparameterize_arclength,
    sobolev_norm,
    sobolev_norm_coeffs,
    to_coeffs,
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


def velocity(problem, tension):
    """dX/dt = -L[Z_s], as samples."""
    zs = force_density(problem.curve, tension)
    return -from_coeffs(problem.apply_operator(zs), problem.curve.n)


def implicit_symbol(grid, table_or_constants):
    """Fourier symbol of the implicit principal part, indexed by |k|."""
    if isinstance(table_or_constants, MultiplierTable):
        principal = table_or_constants.mn[: grid.k.shape[0]]
    elif isinstance(table_or_constants, RftConstants):
        principal = np.full(grid.k.shape, table_or_constants.tangential)
    else:
        raise TypeError("expected MultiplierTable or RftConstants")
    lam = principal * (TWO_PI * grid.k) ** 4
    lam[-1] = 0.0
    return lam


def _make_problem(curve, table_or_constants, cg_tol):
    if isinstance(table_or_constants, MultiplierTable):
        return TensionProblem(curve, "leps", table=table_or_constants, cg_tol=cg_tol)
    if isinstance(table_or_constants, RftConstants):
        return TensionProblem(curve, "rft", constants=table_or_constants, cg_tol=cg_tol)
    raise TypeError("expected MultiplierTable or RftConstants")


def _explicit_forcing(problem, tension, lam):
    """rfft coefficients of G = dX/dt + (implicit part applied to X)
    = -L[Z_s] + T_lam X."""
    zs = force_density(problem.curve, tension)
    return lam[:, None] * problem.curve.coeffs - problem.apply_operator(zs)


def choose_dt(curve, table_or_constants, cg_tol=1e-10, target=1e-2, rescaled=False):
    """Default step size: dt ||G||_H2 <= target ||X||_H2 at the initial state.

    With rescaled=True the bound is applied to the |log eps|-rescaled
    forcing, giving a step in rescaled time units.
    """
    problem = _make_problem(curve, table_or_constants, cg_tol)
    tension = solve_tension(problem)
    lam = implicit_symbol(curve.grid, table_or_constants)
    ghat = _explicit_forcing(problem, tension, lam)
    dt = target * sobolev_norm_coeffs(curve.coeffs, H2) / sobolev_norm_coeffs(ghat, H2)
    if rescaled:
        dt *= problem.log_eps()
    return float(dt)


def _step(state, dt, table_or_constants, *, cg_tol, inext_tol, energy_tol_abs,
          time_scale=1.0):
    """One IMEX Euler step; dt is in the state's own time units and
    time_scale converts it to native model time."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    curve = state.curve
    grid = curve.grid
    problem = _make_problem(curve, table_or_constants, cg_tol)
    warm = state.tension.values if state.tension is not None else None
    tension = solve_tension(problem, initial=warm)
    lam = implicit_symbol(grid, table_or_constants)
    ghat = _explicit_forcing(problem, tension, lam)
    dt_native = dt * time_scale
    new_hat = (curve.coeffs + dt_native * ghat) / (1.0 + dt_native * lam[:, None])
    new_hat[-1] = 0.0
    new_curve = PeriodicCurve(from_coeffs(new_hat, grid.n))
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


def step_leps(state, dt, table, *, cg_tol=1e-10, inext_tol=1e-6,
              energy_tol_abs=np.inf, time_scale=1.0):
    if not isinstance(table, MultiplierTable):
        raise TypeError("step_leps needs a MultiplierTable")
    return _step(state, dt, table, cg_tol=cg_tol, inext_tol=inext_tol,
                 energy_tol_abs=energy_tol_abs, time_scale=time_scale)


def step_rft(state, dt, constants, *, cg_tol=1e-10, inext_tol=1e-6,
             energy_tol_abs=np.inf, time_scale=1.0):
    if not isinstance(constants, RftConstants):
        raise TypeError("step_rft needs RftConstants")
    return _step(state, dt, constants, cg_tol=cg_tol, inext_tol=inext_tol,
                 energy_tol_abs=energy_tol_abs, time_scale=time_scale)


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
        from .spectral import read_curve_csv

        curve, _ = read_curve_csv(name)
        if curve.n != n:
            raise ValueError(f"curve file has n={curve.n}, config asks n={n}")
        return curve
    raise ValueError(f"unknown initial curve {name!r}")


@dataclass
class Trajectory:
    states: list          # snapshot EvolutionStates (always includes initial & final)
    diagnostics: list     # per-step DiagnosticsRecords
    dt_history: list      # dt actually used at each step
    aborted: str = None   # error message if the run stopped early


def run(config, initial, *, table=None, on_step=None):
    """Integrate under a RunConfig; returns a Trajectory.

    Snapshots are stored every config.snapshot_every steps.  The step
    size follows config.dt if given, else the default policy, and is
    halved for the remainder of the run whenever a step raises the
    energy flag.  A tension-solver or geometry failure, or a step size
    halved until time no longer advances, aborts the run, keeping the
    partial trajectory; any other error propagates.
    """
    eps = config.epsilon
    log_eps = abs(np.log(eps))
    if config.model == "leps":
        operator = table if table is not None else build_table(eps, initial.n // 2)
    else:
        operator = rft_constants(eps)
    time_scale = 1.0 / log_eps if config.rescaled_time else 1.0
    if config.dt is not None:
        dt = float(config.dt)
    else:
        dt = choose_dt(initial, operator, cg_tol=config.cg_tol,
                       rescaled=config.rescaled_time)
    e0 = energy(initial)
    state = EvolutionState(
        initial, 0.0, None,
        DiagnosticsRecord(0, 0.0, e0, 0.0, initial.inext_residual, 0.0),
    )
    traj = Trajectory([state], [], [])
    steps_since_reparam = 0
    t = 0.0
    while t < config.horizon - 1e-12 * config.horizon:
        dt_step = min(dt, config.horizon - t)
        if t + dt_step == t:  # halved away by energy flags
            traj.aborted = f"step size underflow: dt = {dt_step:.3e} at t = {t!r}"
            break
        try:
            state = _step(
                state, dt_step, operator,
                cg_tol=config.cg_tol,
                inext_tol=config.inextensibility_tol,
                energy_tol_abs=config.energy_tol * e0,
                time_scale=time_scale,
            )
        except (SolverError, GeometryError) as exc:  # keep the partial trajectory
            traj.aborted = str(exc)
            break
        t = state.time
        traj.diagnostics.append(state.diagnostics)
        traj.dt_history.append(dt_step)
        steps_since_reparam += 1
        if steps_since_reparam >= 20:
            curve = reparameterize_arclength(state.curve)
            state = replace(state, curve=curve)
            steps_since_reparam = 0
        if state.diagnostics.energy_flag:
            dt *= 0.5
        n_steps = state.diagnostics.step
        if n_steps % config.snapshot_every == 0 or t >= config.horizon - 1e-12:
            traj.states.append(state)
        if on_step is not None:
            on_step(state)
    if traj.states[-1] is not state:
        traj.states.append(state)
    return traj


def write_diagnostics_csv(records, path):
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["step", "time", "energy", "dissipation", "inext_residual",
             "tension_h12", "energy_flag", "cg_iterations", "cg_residual"]
        )
        for r in records:
            writer.writerow(
                [r.step, _g(r.time), _g(r.energy), _g(r.dissipation),
                 _g(r.inext_residual), _g(r.tension_h12), int(r.energy_flag),
                 r.cg_iterations, _g(r.cg_residual)]
            )


def _g(x):
    return format(float(x), ".17g")
