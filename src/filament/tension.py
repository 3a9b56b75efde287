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

A problem is a batch: a spectral.CurveBatch, a multipliers.ForceMapStack
and a cg_tol per member, tau having shape (m, n); a curve alone is the
batch of one.  solve_tensions runs CG on all members at once, with
per-member step lengths and inner products (np.vecdot on contiguous
member rows, which reproduces np.dot bitwise).  A member that converges
leaves the batch with its iterate, so it takes exactly the iterations
it would take alone; a member that stalls or has a NaN residual raises
SolverError for the whole batch (evolution._batched isolates it).
"""

from dataclasses import dataclass, field

import numpy as np

from .multipliers import ForceMapStack, MultiplierTable, RftConstants
from .spectral import CurveBatch, PeriodicCurve, dealias, from_coeffs, to_coeffs


class SolverError(RuntimeError):
    """Conjugate-gradient failure; carries the relative residual history."""

    def __init__(self, message, residuals):
        super().__init__(message)
        self.residuals = list(residuals)


@dataclass(frozen=True)
class TensionField:
    """Scalar Lagrange multiplier samples on the curve's grid (with a
    member axis first for a batch, see `stack`)."""

    values: np.ndarray
    mean: float
    iterations: int = 0
    residual: float = 0.0

    @classmethod
    def from_values(cls, values, iterations=0, residual=0.0):
        values = np.asarray(values, dtype=float)
        values.setflags(write=False)
        return cls(values, float(np.mean(values)), iterations, residual)

    @classmethod
    def stack(cls, tensions):
        """The tensions of a batch's members as one field, member axis first."""
        return cls(*(np.array([getattr(t, f) for t in tensions])
                     for f in ("values", "mean", "iterations", "residual")))


@dataclass
class TensionProblem:
    """A CurveBatch with a ForceMapStack for `model`, or a PeriodicCurve
    with a force map or 'leps' / 'rft' and the map as `table` /
    `constants`, which become the batch of one in `curve` and `force_map`;
    cg_tol, one for all or one per member, becomes one per member."""

    curve: object
    model: object
    table: MultiplierTable = None
    constants: RftConstants = None
    cg_tol: object = 1e-10
    force_map: ForceMapStack = field(init=False, repr=False)

    def __post_init__(self):
        force_map = self.model
        if isinstance(self.model, str):
            given = {"leps": (self.table, "a MultiplierTable"),
                     "rft": (self.constants, "RftConstants")}
            if self.model not in given:
                raise ValueError(f"model must be 'leps' or 'rft', got {self.model!r}")
            force_map, needs = given[self.model]
            if getattr(force_map, "model", None) != self.model:
                raise ValueError(f"{self.model} tension problem needs {needs}")
        if isinstance(self.curve, PeriodicCurve):
            self.curve = CurveBatch.of([self.curve])
            force_map = ForceMapStack([force_map], self.curve.grid.k.shape[0])
        self.force_map = force_map
        self.cg_tol = np.broadcast_to(np.asarray(self.cg_tol, dtype=float), (len(self.curve),))

    def apply_operator(self, coeffs):
        """The force-to-velocity map on rfft coefficients."""
        return self.force_map.apply(self.curve, coeffs)

    def members(self, index):
        """The batched problem of the selected members (ascending, so the
        leps members stay first), with a new stack of their force maps."""
        maps = self.force_map.maps
        return TensionProblem(self.curve[index],
                              ForceMapStack([maps[i] for i in index], self.curve.grid.k.shape[0]),
                              cg_tol=self.cg_tol[index])


def lift(curve, tau):
    """rfft coefficients of (tau X_s)_s, with the product dealiased."""
    product = to_coeffs(curve.tangent * np.asarray(tau)[..., None], axis=-2)
    return curve.grid.band_ik[:, None] * product


def lift_adjoint(curve, coeffs):
    """Exact adjoint of lift on the dealiased band, -band(X_s . band(v_s)),
    from the coefficients of v to samples."""
    vs = from_coeffs(curve.grid.band_ik[:, None] * coeffs, curve.n, axis=-2)
    return -dealias(np.einsum("...ij,...ij->...i", curve.tangent, vs), axis=-1)


def apply_B(problem, tau):
    """Riesz representative of phi -> B(tau, phi) on the band."""
    return lift_adjoint(problem.curve, problem.apply_operator(lift(problem.curve, tau)))


def assemble_rhs(problem):
    """Riesz representative of phi -> int L[X_ssss] . (phi X_s)_s ds."""
    curve = problem.curve
    xssss = curve.grid.ik_pow[:, 4, None] * curve.coeffs
    return lift_adjoint(curve, problem.apply_operator(xssss))


def _preconditioner(problem):
    """The module docstring's diagonal per member, <|X_ss|^2> by Parseval
    on the coefficients; a zero symbol (a zero force map) gets 0."""
    grid = problem.curve.grid
    mt, mn = problem.force_map.precond
    xss = grid.ik_pow[:, 2, None] * problem.curve.coeffs
    xss_sq = np.sum(grid.weight[:, None] * np.abs(xss) ** 2, axis=(-2, -1))
    symbol = (2.0 * np.pi * grid.k) ** 2 * mt + mn * xss_sq[:, None]
    diag = np.divide(1.0, symbol, out=np.zeros_like(symbol), where=grid.band & (symbol > 0.0))

    def apply(r):
        return from_coeffs(to_coeffs(r, axis=-1) * diag, grid.n, axis=-1)

    return apply


def solve_tension(problem, initial=None):
    """Preconditioned CG for B tau = rhs on a batch of one; returns a
    TensionField.

    Raises SolverError (with the residual history) if the relative
    residual does not reach problem.cg_tol within 10 n iterations, or if
    CG breaks down before: a residual left with only out-of-band
    roundoff has r.z = 0 and cannot be reduced further.
    """
    (tension,) = solve_tensions(problem, None if initial is None else [initial])
    return tension


def solve_tensions(problem, initial=None):
    """solve_tension for every member of a batched problem: a list with
    each member's TensionField; raises the SolverError of the first
    member to stall.  initial is None, or holds a warm start per member
    (None for a cold one)."""
    n, m = problem.curve.n, len(problem.curve)
    rhs = assemble_rhs(problem)
    rhs_norm = np.sqrt(np.vecdot(rhs, rhs))
    # a zero right-hand side has the solution 0: it starts cold and its
    # residual reads 0, so it leaves the batch at the first check
    zero = rhs_norm == 0.0
    rhs_norm[zero] = 1.0
    x = np.zeros((m, n))
    r = rhs
    if initial is not None and any(v is not None for v in initial):
        cold = np.array([v is None for v in initial]) | zero
        x = dealias(np.array([np.zeros(n) if v is None else v for v in initial], dtype=float),
                    axis=-1)
        x[cold] = 0.0
        r = rhs - apply_B(problem, x)
        r[cold] = rhs[cold]
    tensions = [None] * m
    members = list(range(m))  # member number of each row of the batch
    tols = problem.cg_tol.tolist()
    precond = _preconditioner(problem)
    residual = np.sqrt(np.vecdot(r, r)) / rhs_norm
    history = [residual]  # each iteration's residuals, over the rows it had
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
                    tensions[members[j]] = TensionField.from_values(
                        x[j].copy(), iterations, float(residual[j]))
            keep = [j for j, g in enumerate(going) if g]
            if not keep:
                break
            # compact the batch to the members still iterating
            members, tols = [members[j] for j in keep], [tols[j] for j in keep]
            rhs_norm, x, r = rhs_norm[keep], x[keep], r[keep]
            history = [h[keep] for h in history]
            if p is not None:
                p, rz = p[keep], rz[keep]
            problem = problem.members(keep)
            precond = _preconditioner(problem)
        z = precond(r)
        rz_new = np.vecdot(r, z)
        ok = [iterations < 10 * n and v > 0.0 for v in rz_new.tolist()]
        if not all(ok):
            raise _stalled(history, iterations, ok.index(False))
        p = z if p is None else z + (rz_new / rz)[:, None] * p
        rz = rz_new
        bp = apply_B(problem, p)
        pbp = np.vecdot(p, bp)
        ok = [v > 0.0 for v in pbp.tolist()]
        if not all(ok):  # p.Bp underflowed: the iterate cannot move
            raise _stalled(history, iterations, ok.index(False))
        alpha = (rz / pbp)[:, None]
        x = x + alpha * p
        r = r - alpha * bp
        residual = np.sqrt(np.vecdot(r, r)) / rhs_norm
        history.append(residual)
        iterations += 1
    return tensions


def _stalled(history, iterations, row):
    """The SolverError of the given row of the batch."""
    residuals = [float(h[row]) for h in history]
    return SolverError(
        f"tension CG stalled at relative residual {residuals[-1]:.3e} "
        f"after {iterations} iterations",
        residuals,
    )
