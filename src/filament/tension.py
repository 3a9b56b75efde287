"""Tension determination: the elliptic weak-form solve for tau.

The inextensibility constraint d/dt |X_s|^2 = 0 yields, for either
force-to-velocity map L, the weak equation

    B(tau, phi) = int L[(tau X_s)_s] . (phi X_s)_s ds
                = int L[X_ssss] . (phi X_s)_s ds   for all phi.

Discretely tau lives on the dealiased band |k| <= n/3; with the lift
tau -> (tau X_s)_s and its exact adjoint, the operator is symmetric
positive definite on that band and is solved matrix-free by
preconditioned conjugate gradients.  The preconditioner is the diagonal
spectral operator (|log eps| + (2 pi k)^2 m_n(k))^{-1}, the inverse of
the form's symbol on a tension mode k (for rft, m_n is the constant
normal coefficient).
"""

from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .multipliers import MultiplierTable, RftConstants
from .spectral import (
    apply_L_eps,
    apply_L_rft,
    dealias,
    derivative,
    from_coeffs,
    to_coeffs,
)


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
    curve: spectral.PeriodicCurve
    model: str  # 'leps' | 'rft'
    table: MultiplierTable = None
    constants: RftConstants = None
    cg_tol: float = 1e-10
    max_iter: int = field(default=None)

    def __post_init__(self):
        if self.model == "leps":
            if self.table is None:
                raise ValueError("leps tension problem needs a MultiplierTable")
        elif self.model == "rft":
            if self.constants is None:
                raise ValueError("rft tension problem needs RftConstants")
        else:
            raise ValueError(f"model must be 'leps' or 'rft', got {self.model!r}")
        if self.max_iter is None:
            self.max_iter = 10 * self.curve.n

    def apply_operator(self, f):
        if self.model == "leps":
            return apply_L_eps(self.curve, self.table, f)
        return apply_L_rft(self.curve, self.constants, f)

    def log_eps(self):
        eps = self.table.epsilon if self.model == "leps" else self.constants.epsilon
        return abs(np.log(eps))


def lift(curve, tau):
    """(tau X_s)_s with dealiased product."""
    return derivative(dealias(curve.tangent * np.asarray(tau)[:, None]))


def lift_adjoint(curve, vec):
    """Exact adjoint of lift on the dealiased band: -band(X_s . dealias(vec_s))."""
    inner = np.einsum("ij,ij->i", curve.tangent, dealias(derivative(vec)))
    return -spectral.band_limit(inner)


def apply_B(problem, tau):
    """Riesz representative of phi -> B(tau, phi) on the band."""
    return lift_adjoint(problem.curve, problem.apply_operator(lift(problem.curve, tau)))


def assemble_rhs(problem):
    """Riesz representative of phi -> int L[X_ssss] . (phi X_s)_s ds."""
    return lift_adjoint(problem.curve, problem.apply_operator(problem.curve.xssss))


def _preconditioner(problem):
    """Diagonal spectral preconditioner matched to the form's symbol.

    For a tension mode k the form behaves like (2 pi k)^2 m_n(k) (plus
    an O(|log eps|) zero-mode part), so its inverse is used as the
    preconditioner; it reduces to the H^{1/2}-coercivity shape
    ~ (|log eps| (1 + |k|))^{-1} at low wavenumbers but also captures
    the 1/(eps k) flattening of the multiplier at high wavenumbers.
    """
    grid = problem.curve.grid
    if problem.model == "leps":
        mn = problem.table.mn[: grid.k.shape[0]]
    else:
        mn = problem.constants.normal
    diag = 1.0 / (problem.log_eps() + (2.0 * np.pi * grid.k) ** 2 * mn)
    diag[~grid.band] = 0.0

    def apply(r):
        return from_coeffs(to_coeffs(r) * diag, grid.n)

    return apply


def solve_tension(problem, initial=None):
    """Preconditioned CG for B tau = rhs; returns a TensionField.

    Raises SolverError (with the residual history) if the relative
    residual does not reach problem.cg_tol within problem.max_iter
    iterations.
    """
    curve = problem.curve
    rhs = assemble_rhs(problem)
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return TensionField.from_values(np.zeros(curve.n))
    precond = _preconditioner(problem)
    if initial is not None:
        x = spectral.band_limit(np.asarray(initial, dtype=float))
    else:
        x = np.zeros(curve.n)
    r = rhs - apply_B(problem, x)
    z = precond(r)
    p = z.copy()
    rz = float(np.dot(r, z))
    history = [float(np.linalg.norm(r)) / rhs_norm]
    iterations = 0
    while history[-1] > problem.cg_tol:
        if iterations >= problem.max_iter:
            raise SolverError(
                f"tension CG stalled at relative residual {history[-1]:.3e} "
                f"after {iterations} iterations",
                history,
            )
        bp = apply_B(problem, p)
        alpha = rz / float(np.dot(p, bp))
        x = x + alpha * p
        r = r - alpha * bp
        history.append(float(np.linalg.norm(r)) / rhs_norm)
        z = precond(r)
        rz_new = float(np.dot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
        iterations += 1
    return TensionField.from_values(x, iterations, history[-1])


def solve_tension_rft(curve, epsilon_or_constants, cg_tol=1e-10, initial=None):
    """Convenience wrapper: tension for the local RFT model."""
    constants = epsilon_or_constants
    if not isinstance(constants, RftConstants):
        from .multipliers import rft_constants

        constants = rft_constants(constants)
    problem = TensionProblem(curve, "rft", constants=constants, cg_tol=cg_tol)
    return solve_tension(problem, initial=initial)
