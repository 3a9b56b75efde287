"""Tension determination: the elliptic weak-form solve for tau.

The inextensibility constraint d/dt |X_s|^2 = 0 yields, for either
force-to-velocity map L, the weak equation

    B(tau, phi) = int L[(tau X_s)_s] . (phi X_s)_s ds
                = int L[X_ssss] . (phi X_s)_s ds   for all phi.

Discretely tau lives on the dealiased band |k| <= n/3; with the lift
tau -> (tau X_s)_s and its exact adjoint, the operator is symmetric
positive definite on that band and is solved matrix-free by
preconditioned conjugate gradients.  The lift maps tau samples to rfft
coefficients and the adjoint maps coefficients back to samples, so the
force-to-velocity map between them stays in coefficient space: one
application of the form costs 12 FFT calls for leps and 8 for rft.  As
(tau X_s)_s = tau_s X_s + tau X_ss with X_ss normal to X_s, the form's
frozen-coefficient symbol on a tension mode k is m_t(k) (2 pi k)^2 +
m_n(k) <|X_ss|^2> (rft: the two constants; the local model's tension
equation, Tornberg & Shelley 2004); the preconditioner is its inverse.

A problem is a batch: a spectral.CurveBatch, the multipliers.ForceMapStack
of its members' force maps and a cg_tol per member, tau having shape
(m, n) and the vector fields the component-first layout of spectral,
coefficients (m, 3, n/2+1); a curve alone is the batch of one.
solve_tensions runs CG on all members at once, with per-member step
lengths and inner products (np.vecdot on contiguous member rows, which
reproduces np.dot bitwise).  The solve raises no numpy warning: a
right-hand side whose norm is not finite (a curve scaled so far that the
force map's image of X_ssss overflows) raises SolverError before the
first iteration, and an r.z or p.Bp that is not a positive finite number
is a breakdown, named an overflow when infinite.  A member that
converges leaves the batch with its iterate, so it takes exactly the
iterations it would take alone; the preconditioner's diagonal, from the
stack's rows m_t and m_n, is built once per solve and leaves with the
members.  A member that stalls or has a NaN residual raises SolverError,
its message giving the member's last residual, for the whole batch
(evolution._batched isolates it).  The solve also returns the velocity
-(L[X_ssss] - L[(tau X_s)_s]) from its own force-map outputs: the
right-hand side's L[X_ssss], and (L being linear) L[(tau X_s)_s] as the
warm start's plus alpha_i L[(p_i X_s)_s] of each iteration, as CG
tracks A x (Hestenes & Stiefel 1952).
"""

from dataclasses import dataclass

import numpy as np

from .config import CG_TOL
from .multipliers import ForceMapStack, check_model
from .spectral import CurveBatch, PeriodicCurve, dealias, from_coeffs, to_coeffs


class SolverError(RuntimeError):
    """Conjugate-gradient failure; the message gives the final relative
    residual and the iteration count."""


@dataclass(frozen=True)
class TensionField:
    """Scalar Lagrange multiplier samples on the curve's grid, with the
    CG iterations and final relative residual of the solve that found them.
    The field keeps a read-only float copy of the samples."""

    values: np.ndarray
    iterations: int = 0
    residual: float = 0.0

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


class TensionProblem:
    """A CurveBatch with a list of its members' force maps (leps first)
    as `model`, or a PeriodicCurve with a force map or 'leps' / 'rft' and
    the map as `table` / `constants`: `curve` becomes the batch (a curve
    alone, the batch of one) and `force_map` the ForceMapStack of its
    maps; cg_tol, one for all or one per member, becomes one per member."""

    def __init__(self, curve, model, table=None, constants=None, cg_tol=CG_TOL):
        maps = model
        if isinstance(model, str):
            maps = table if check_model(model) == "leps" else constants
            if getattr(maps, "model", None) != model:
                raise ValueError(f"{model} tension problem needs a {model} force map")
        if isinstance(curve, PeriodicCurve):
            curve, maps = CurveBatch.of([curve]), [maps]
        self.curve, self.force_map = curve, ForceMapStack(maps, curve.grid.k.shape[0])
        self.cg_tol = np.broadcast_to(np.asarray(cg_tol, dtype=float), (len(curve),))

    def members(self, index):
        """The batched problem of the selected members (ascending, so the
        leps members stay first), with a new stack of their force maps."""
        maps = self.force_map.maps
        return TensionProblem(self.curve[index], [maps[i] for i in index],
                              cg_tol=self.cg_tol[index])


def lift(curve, tau):
    """rfft coefficients of (tau X_s)_s, with the product dealiased."""
    product = to_coeffs(curve.tangent * np.asarray(tau)[..., None, :], axis=-1)
    return curve.grid.band_ik * product


def lift_adjoint(curve, coeffs):
    """Exact adjoint of lift on the dealiased band, -band(X_s . band(v_s)),
    from the coefficients of v to samples."""
    vs = from_coeffs(curve.grid.band_ik * coeffs, curve.n, axis=-1)
    return -dealias(np.sum(curve.tangent * vs, axis=-2), axis=-1)


def apply_B(problem, tau):
    """Riesz representative of phi -> B(tau, phi) on the band, and the
    force-map output L[(tau X_s)_s] (rfft coefficients) it lifts back."""
    l_tau = problem.force_map.apply(problem.curve, lift(problem.curve, tau))
    return lift_adjoint(problem.curve, l_tau), l_tau


def assemble_rhs(problem):
    """Riesz representative of phi -> int L[X_ssss] . (phi X_s)_s ds, and L[X_ssss]."""
    curve = problem.curve
    l_xssss = problem.force_map.apply(curve, curve.grid.ik_pow[4] * curve.coeffs)
    return lift_adjoint(curve, l_xssss), l_xssss


def _preconditioner(problem):
    """The module docstring's diagonal on the rfft coefficients, (m, n/2+1),
    <|X_ss|^2> by Parseval on the coefficients; a zero symbol (a zero
    force map) gets 0."""
    grid = problem.curve.grid
    mt, mn = problem.force_map.mt, problem.force_map.mn
    xss = grid.ik_pow[2] * problem.curve.coeffs
    xss_sq = np.sum(grid.weight * np.abs(xss) ** 2, axis=(-2, -1))
    symbol = (2.0 * np.pi * grid.k) ** 2 * mt + mn * xss_sq[:, None]
    return np.divide(1.0, symbol, out=np.zeros_like(symbol), where=grid.band & (symbol > 0.0))


def solve_tension(problem, initial=None):
    """Preconditioned CG for B tau = rhs on a batch of one; returns a
    TensionField.

    Raises SolverError if the relative residual does not reach
    problem.cg_tol within 10 n iterations, or if CG breaks down before: a
    residual left with only out-of-band roundoff has r.z = 0 and cannot
    be reduced further.  In floating point CG may need more iterations
    than the band's 2 floor(n/3) + 1 dimensions: over 100 at n = 64 on a
    curve far from arclength.
    """
    (tension,), _ = solve_tensions(problem, None if initial is None else [initial])
    return tension


@np.errstate(over="ignore", invalid="ignore")  # each overflow surfaces as a SolverError
def solve_tensions(problem, initial=None):
    """solve_tension for every member of a batched problem: a list with
    each member's TensionField, and the members' velocities (module
    docstring; rfft coefficients), in member order; raises the SolverError
    of the first member to stall.  initial is None, or holds a warm start
    per member (None for a cold one)."""
    n, m = problem.curve.n, len(problem.curve)
    rhs, l_rhs = assemble_rhs(problem)
    rhs_norm = np.sqrt(np.vecdot(rhs, rhs))
    if not np.all(np.isfinite(rhs_norm)):
        raise SolverError("tension right-hand side is not finite: the curve's fields "
                          "overflow the force map")
    # a zero right-hand side has the solution 0: it starts cold and its
    # residual reads 0, so it leaves the batch at the first check
    zero = rhs_norm == 0.0
    rhs_norm[zero] = 1.0
    x, lx = np.zeros((m, n)), np.zeros_like(l_rhs)  # lx = L[(x X_s)_s]
    r = rhs
    if initial is not None and any(v is not None for v in initial):
        cold = np.array([v is None for v in initial]) | zero
        x = dealias(np.array([np.zeros(n) if v is None else v for v in initial], dtype=float),
                    axis=-1)
        x[cold] = 0.0
        bx, lx = apply_B(problem, x)
        r = rhs - bx
        r[cold], lx[cold] = rhs[cold], 0.0
    tensions, velocity = [None] * m, np.empty_like(l_rhs)
    members = list(range(m))  # member number of each row of the batch
    tols = problem.cg_tol.tolist()
    diag = _preconditioner(problem)
    residual = np.sqrt(np.vecdot(r, r)) / rhs_norm
    iterations = 0
    p = rz = None
    # The checks read the rows through tolist(), a tenth of the cost of a
    # numpy reduction on so few rows; the rest happens only when one fails.
    while members:
        # members leave the batch when they converge (a NaN residual stalls below)
        going = [not v <= t for v, t in zip(residual.tolist(), tols)]
        if not all(going):
            for j, g in enumerate(going):
                if not g:
                    tensions[members[j]] = TensionField(x[j], iterations, float(residual[j]))
                    velocity[members[j]] = lx[j] - l_rhs[j]
            keep = [j for j, g in enumerate(going) if g]
            if not keep:
                break
            # compact the batch to the members still iterating
            members, tols = [members[j] for j in keep], [tols[j] for j in keep]
            rhs_norm, residual, x, r, diag, l_rhs, lx = (
                a[keep] for a in (rhs_norm, residual, x, r, diag, l_rhs, lx))
            if p is not None:
                p, rz = p[keep], rz[keep]
            problem = problem.members(keep)
        z = from_coeffs(to_coeffs(r, axis=-1) * diag, n, axis=-1)
        rz_new = np.vecdot(r, z)
        ok = [iterations < 10 * n and 0.0 < v < np.inf for v in rz_new.tolist()]
        if not all(ok):
            raise _stalled(residual, iterations, ok.index(False), "r.z", rz_new)
        p = z if p is None else z + (rz_new / rz)[:, None] * p
        rz = rz_new
        bp, lp = apply_B(problem, p)
        pbp = np.vecdot(p, bp)
        ok = [0.0 < v < np.inf for v in pbp.tolist()]
        if not all(ok):  # p.Bp underflowed or overflowed: the iterate cannot move
            raise _stalled(residual, iterations, ok.index(False), "p.Bp", pbp)
        alpha = (rz / pbp)[:, None]
        x = x + alpha * p
        lx = lx + alpha[..., None] * lp
        r = r - alpha * bp
        residual = np.sqrt(np.vecdot(r, r)) / rhs_norm
        iterations += 1
    return tensions, velocity


def _stalled(residual, iterations, row, name, products):
    """The SolverError of a row whose inner product `name` broke down:
    an overflow if products[row] is infinite, else a stall."""
    value = float(products[row])
    what = f"overflowed ({name} = {value})" if np.isinf(value) else "stalled"
    return SolverError(f"tension CG {what} at relative residual {float(residual[row]):.3e} "
                       f"after {iterations} iterations")
