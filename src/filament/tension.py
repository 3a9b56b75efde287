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
"""

from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .multipliers import MultiplierTable, RftConstants
from .spectral import dealias, from_coeffs, to_coeffs


class SolverError(RuntimeError):
    """Conjugate-gradient failure; carries the relative residual history."""

    def __init__(self, message, residuals):
        super().__init__(message)
        self.residuals = list(residuals)


@dataclass(frozen=True)
class TensionField:
    """Scalar Lagrange multiplier samples on the curve's grid."""

    values: np.ndarray
    mean: float
    iterations: int = 0
    residual: float = 0.0

    @classmethod
    def from_values(cls, values, iterations=0, residual=0.0):
        values = np.asarray(values, dtype=float)
        values.setflags(write=False)
        return cls(values, float(np.mean(values)), iterations, residual)


@dataclass
class TensionProblem:
    """`model` is a force map, or 'leps' / 'rft' with the map given as
    `table` / `constants`; either way the map is resolved once, into
    `force_map`."""

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


def lift(curve, tau):
    """rfft coefficients of (tau X_s)_s, with the product dealiased."""
    product = to_coeffs(curve.tangent * np.asarray(tau)[:, None])
    return curve.grid.band_ik[:, None] * product


def lift_adjoint(curve, coeffs):
    """Exact adjoint of lift on the dealiased band, -band(X_s . band(v_s)),
    from the coefficients of v to samples."""
    vs = from_coeffs(curve.grid.band_ik[:, None] * coeffs, curve.n)
    return -dealias(np.einsum("ij,ij->i", curve.tangent, vs))


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
    diag[~grid.band] = 0.0

    def apply(r):
        return from_coeffs(to_coeffs(r) * diag, grid.n)

    return apply


def solve_tension(problem, initial=None):
    """Preconditioned CG for B tau = rhs; returns a TensionField.

    Raises SolverError (with the residual history) if the relative
    residual does not reach problem.cg_tol within 10 n iterations, or if
    CG breaks down before: a residual left with only out-of-band
    roundoff has r.z = 0 and cannot be reduced further.
    """
    curve = problem.curve
    rhs = assemble_rhs(problem)
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return TensionField.from_values(np.zeros(curve.n))
    precond = _preconditioner(problem)
    if initial is not None:
        x = dealias(np.asarray(initial, dtype=float))
        r = rhs - apply_B(problem, x)
    else:
        x = np.zeros(curve.n)
        r = rhs
    history = [float(np.linalg.norm(r)) / rhs_norm]
    iterations = 0
    p = None
    while history[-1] > problem.cg_tol:
        z = precond(r)
        rz_new = float(np.dot(r, z))
        if iterations >= 10 * curve.n or not rz_new > 0.0:
            raise SolverError(
                f"tension CG stalled at relative residual {history[-1]:.3e} "
                f"after {iterations} iterations",
                history,
            )
        p = z if p is None else z + (rz_new / rz) * p
        rz = rz_new
        bp = apply_B(problem, p)
        alpha = rz / float(np.dot(p, bp))
        x = x + alpha * p
        r = r - alpha * bp
        history.append(float(np.linalg.norm(r)) / rhs_norm)
        iterations += 1
    return TensionField.from_values(x, iterations, history[-1])
