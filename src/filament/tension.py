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
application of the form costs 12 FFT calls for leps and 8 for rft.  The
preconditioner is the diagonal spectral operator
(|log eps| + (2 pi k)^2 m_n(k))^{-1}, the inverse of the form's symbol
on a tension mode k (for rft, m_n is the constant normal coefficient).

A problem whose curve is a spectral.CurveBatch and whose force map is a
multipliers.ForceMapStack holds one problem per member, tau then having
shape (m, n).  solve_tensions runs CG on all members at once, with
per-member step lengths and inner products (np.vecdot on contiguous
member rows, which reproduces np.dot bitwise).  A member that converges
or stalls leaves the batch with its iterate, so it takes exactly the
iterations it would take alone.  solve_tension is the batch of one.
"""

from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .multipliers import ForceMapStack, MultiplierTable, RftConstants
from .spectral import CurveBatch, dealias, from_coeffs, to_coeffs


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
    """`model` is a force map, or 'leps' / 'rft' with the map given as
    `table` / `constants`; either way the map is resolved once, into
    `force_map`.  A batched problem has a CurveBatch for `curve`, a
    ForceMapStack for `model` and a cg_tol per member or one for all."""

    curve: spectral.PeriodicCurve
    model: object
    table: MultiplierTable = None
    constants: RftConstants = None
    cg_tol: float = 1e-10
    force_map: object = field(init=False, repr=False)

    def __post_init__(self):
        self.force_map = self.model
        if isinstance(self.model, str):
            given = {"leps": (self.table, "a MultiplierTable"),
                     "rft": (self.constants, "RftConstants")}
            if self.model not in given:
                raise ValueError(f"model must be 'leps' or 'rft', got {self.model!r}")
            self.force_map, needs = given[self.model]
            if getattr(self.force_map, "model", None) != self.model:
                raise ValueError(f"{self.model} tension problem needs {needs}")

    def apply_operator(self, coeffs):
        """The force-to-velocity map on rfft coefficients."""
        return self.force_map.apply(self.curve, coeffs)

    def members(self, index):
        """The batched problem of the selected members."""
        return TensionProblem(self.curve[index], self.force_map[index],
                              cg_tol=np.broadcast_to(self.cg_tol, (len(self.curve),))[index])


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
    """Diagonal spectral preconditioner matched to the form's symbol.

    For a tension mode k the form behaves like (2 pi k)^2 m_n(k) (plus
    an O(|log eps|) zero-mode part), so its inverse is used as the
    preconditioner; it reduces to the H^{1/2}-coercivity shape
    ~ (|log eps| (1 + |k|))^{-1} at low wavenumbers but also captures
    the 1/(eps k) flattening of the multiplier at high wavenumbers.
    """
    grid = problem.curve.grid
    force_map = problem.force_map
    mn = force_map.precond_symbol(grid.k.shape[0])
    diag = 1.0 / (force_map.log_eps + (2.0 * np.pi * grid.k) ** 2 * mn)
    diag[..., grid.above_band] = 0.0

    def apply(r):
        return from_coeffs(to_coeffs(r, axis=-1) * diag, grid.n, axis=-1)

    return apply


def solve_tension(problem, initial=None):
    """Preconditioned CG for B tau = rhs; returns a TensionField.

    Raises SolverError (with the residual history) if the relative
    residual does not reach problem.cg_tol within 10 n iterations, or if
    CG breaks down before: a residual left with only out-of-band
    roundoff has r.z = 0 and cannot be reduced further.
    """
    curve = problem.curve
    batch = TensionProblem(CurveBatch.of([curve]),
                           ForceMapStack([problem.force_map], curve.grid.k.shape[0]),
                           cg_tol=problem.cg_tol)
    (outcome,) = solve_tensions(batch, None if initial is None else [initial])
    if isinstance(outcome, SolverError):
        raise outcome
    return outcome


def solve_tensions(problem, initial=None):
    """solve_tension for every member of a batched problem: a list with
    each member's TensionField or the SolverError that stopped it.
    initial is None, or holds a warm start per member (None for a cold
    one)."""
    n, m = problem.curve.n, len(problem.curve)
    rhs = assemble_rhs(problem)
    rhs_norm = np.sqrt(np.vecdot(rhs, rhs))
    x = np.zeros((m, n))
    r = rhs
    if initial is not None and any(v is not None for v in initial):
        cold = np.array([v is None for v in initial])
        x = dealias(np.array([np.zeros(n) if v is None else v for v in initial], dtype=float),
                    axis=-1)
        x[cold] = 0.0
        r = rhs - apply_B(problem, x)
        r[cold] = rhs[cold]
    outcomes = [None] * m
    members = []  # member number of each row of the batch
    for i, norm in enumerate(rhs_norm.tolist()):
        if norm == 0.0:
            outcomes[i] = TensionField.from_values(np.zeros(n))
        else:
            members.append(i)
    tols = np.broadcast_to(problem.cg_tol, (m,))[members].tolist()
    if len(members) < m:
        problem, rhs_norm, x, r = problem.members(members), rhs_norm[members], x[members], r[members]
    precond = _preconditioner(problem)
    residual = np.sqrt(np.vecdot(r, r)) / rhs_norm
    history = {i: [v] for i, v in zip(members, residual.tolist())}
    iterations = 0
    p = rz = None
    broken = set()  # rows whose step length broke down: they stall
    while members:
        # members leave the batch when they converge or stall
        leaving = {j for j, (i, t) in enumerate(zip(members, tols))
                   if j not in broken and not history[i][-1] > t}
        for j in leaving:
            outcomes[members[j]] = TensionField.from_values(
                x[j].copy(), iterations, history[members[j]][-1])
        leaving |= broken
        if len(leaving) == len(members):
            break
        z = precond(r)
        rz_new = np.vecdot(r, z)
        for j, rz_j in enumerate(rz_new.tolist()):
            if j not in leaving and (iterations >= 10 * n or not rz_j > 0.0):
                leaving.add(j)
                outcomes[members[j]] = _stalled(history[members[j]], iterations)
        if leaving:  # compact the batch to the members still iterating
            keep = [j for j in range(len(members)) if j not in leaving]
            if not keep:
                break
            members, tols = [members[j] for j in keep], [tols[j] for j in keep]
            rhs_norm, x, r, z, rz_new = (a[keep] for a in (rhs_norm, x, r, z, rz_new))
            if p is not None:
                p, rz = p[keep], rz[keep]
            problem = problem.members(keep)
            precond = _preconditioner(problem)
        p = z if p is None else z + (rz_new / rz)[:, None] * p
        rz = rz_new
        bp = apply_B(problem, p)
        pbp = np.vecdot(p, bp)
        broken = {j for j, v in enumerate(pbp.tolist()) if not v > 0.0}
        if broken:  # p.Bp underflowed: keep the iterate, report a stall
            for j in broken:
                outcomes[members[j]] = _stalled(history[members[j]], iterations)
            pbp = np.where(pbp > 0.0, pbp, np.inf)
        alpha = (rz / pbp)[:, None]
        x = x + alpha * p
        r = r - alpha * bp
        residual = np.sqrt(np.vecdot(r, r)) / rhs_norm
        for i, v in zip(members, residual.tolist()):
            history[i].append(v)
        iterations += 1
    return outcomes


def _stalled(history, iterations):
    return SolverError(
        f"tension CG stalled at relative residual {history[-1]:.3e} "
        f"after {iterations} iterations",
        history,
    )
