"""Tangential and normal slender-body multipliers and their RFT limits.

For wavenumber k != 0 and x = 2*pi*eps*|k|,

    mt = [2 K0 K1 + x (K0^2 - K1^2)] / (4 pi x K1^2)
    mn = [2 K0 K1 K2 + x (K1^2 (K0 + K2) - 2 K0^2 K2)]
         / (2 pi x [4 K1^2 K2 + x K1 (K1^2 - K0 K2)])

with K_j = K_j(x).  The zero modes are |log eps|/(2 pi) and
|log eps|/(4 pi).  Both ratios are homogeneous in the K's (degree 2
over degree 2, and 3 over 3), so evaluating with the exponentially
scaled functions e^x K_j(x) cancels the e^{-x} decay exactly and the
formulas remain well conditioned arbitrarily far past the underflow
threshold of the raw Bessel values; no separate asymptotic branch is
needed.

The table and the RFT constants are the data of the two models, with
|log eps| and the model name.  ForceMapStack is the one force map: the
maps of a batch of curves (see spectral.CurveBatch), member axis first,
with the operator and the symbols; a map alone is the stack of one.
"""

from dataclasses import dataclass

import numpy as np

from . import spectral
from .bessel import bessel_k_scaled


def abs_log(epsilon):
    """|log eps|, the one spelling of it in the package."""
    return float(abs(np.log(epsilon)))


def _validate_epsilon(epsilon):
    if not (np.isfinite(epsilon) and 0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    return float(epsilon)


def _mt_nonzero(x):
    k0 = bessel_k_scaled(0, x)
    k1 = bessel_k_scaled(1, x)
    num = 2.0 * k0 * k1 + x * (k0 * k0 - k1 * k1)
    return num / (4.0 * np.pi * x * k1 * k1)


def _mn_nonzero(x):
    k0 = bessel_k_scaled(0, x)
    k1 = bessel_k_scaled(1, x)
    k2 = bessel_k_scaled(2, x)
    num = 2.0 * k0 * k1 * k2 + x * (k1 * k1 * (k0 + k2) - 2.0 * k0 * k0 * k2)
    den = 2.0 * np.pi * x * (4.0 * k1 * k1 * k2 + x * k1 * (k1 * k1 - k0 * k2))
    return num / den


def _eval(epsilon, k, nonzero, zero_mode):
    epsilon = _validate_epsilon(epsilon)
    ka = np.abs(np.asarray(k, dtype=float))
    out = np.empty_like(ka)
    nz = ka > 0
    out[nz] = nonzero(2.0 * np.pi * epsilon * ka[nz])
    out[~nz] = zero_mode * abs_log(epsilon)
    return out if np.ndim(k) else float(out)


def eval_mt(epsilon, k):
    """Tangential multiplier m_t(k); depends on |k| only."""
    return _eval(epsilon, k, _mt_nonzero, 1.0 / (2.0 * np.pi))


def eval_mn(epsilon, k):
    """Normal multiplier m_n(k); depends on |k| only."""
    return _eval(epsilon, k, _mn_nonzero, 1.0 / (4.0 * np.pi))


def lowk_rft_difference(epsilon, k, direction):
    """m(k) minus the matching RFT drag coefficient, low wavenumbers only.

    Valid for |k| < 1/(2*pi*eps); the difference grows only like
    log|k|, uniformly in eps.  k = 0 gives exactly 0.
    """
    epsilon = _validate_epsilon(epsilon)
    if direction not in ("tangential", "normal"):
        raise ValueError(f"direction must be 'tangential' or 'normal', got {direction!r}")
    ka = np.abs(np.asarray(k, dtype=float))
    if np.any(ka >= 1.0 / (2.0 * np.pi * epsilon)):
        raise ValueError("lowk_rft_difference requires |k| < 1/(2*pi*eps)")
    log_eps = abs_log(epsilon)
    if direction == "tangential":
        out = eval_mt(epsilon, k) - log_eps / (2.0 * np.pi)
    else:
        out = eval_mn(epsilon, k) - log_eps / (4.0 * np.pi)
    return out


@dataclass(frozen=True)
class RftConstants:
    """Resistive-force-theory drag coefficients at fixed eps."""

    model = "rft"

    epsilon: float
    tangential: float
    normal: float

    @property
    def log_eps(self):
        return abs_log(self.epsilon)


def rft_constants(epsilon):
    epsilon = _validate_epsilon(epsilon)
    log_eps = abs_log(epsilon)
    return RftConstants(epsilon, log_eps / (2.0 * np.pi), log_eps / (4.0 * np.pi))


@dataclass(frozen=True)
class MultiplierTable:
    """m_t(|k|), m_n(|k|) for |k| = 0..kmax at fixed eps.

    The entries are checked once, here: both arrays must hold kmax + 1
    positive finite values.  The table keeps read-only copies.
    """

    model = "leps"

    epsilon: float
    kmax: int
    mt: np.ndarray
    mn: np.ndarray

    def __post_init__(self):
        for name in ("mt", "mn"):
            m = np.array(getattr(self, name), dtype=float)
            if m.shape != (self.kmax + 1,):
                raise ValueError(
                    f"{name} must have shape ({self.kmax + 1},), got {m.shape}"
                )
            if not np.all(np.isfinite(m)) or np.any(m <= 0.0):
                raise ValueError(f"{name} entries must be positive and finite")
            m.setflags(write=False)
            object.__setattr__(self, name, m)

    @property
    def log_eps(self):
        return abs_log(self.epsilon)


def build_table(epsilon, kmax):
    epsilon = _validate_epsilon(epsilon)
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax!r}")
    k = np.arange(kmax + 1)
    return MultiplierTable(epsilon, int(kmax), eval_mt(epsilon, k), eval_mn(epsilon, k))


class ForceMapStack:
    """The force maps of a batch's members as one force map with a member
    axis: m_t, m_n rows for the leps members, which come first, and
    normal constants for the rft members.  `apply` makes the first
    tangent projection once for all members and L_eps's second one for
    the leps members only.  The implicit principal part's symbol is m_n
    (rft: the tangential constant), (m, size); the tension
    preconditioner's is the rows m_t, m_n (rft: both constants), (2, m, size)."""

    def __init__(self, maps, size):
        self.maps = tuple(maps)
        self.split = sum(m.model == "leps" for m in self.maps)
        tables, rfts = self.maps[:self.split], self.maps[self.split:]
        if any(m.model == "leps" for m in rfts):
            raise ValueError("the leps members of a force-map stack come first")
        if any(t.kmax + 1 < size for t in tables):
            raise ValueError("multiplier table shorter than the resolved spectrum")
        self.kmax = size - 1
        self.mt = np.array([t.mt[:size] for t in tables]).reshape(-1, size)
        self.mn = np.array([t.mn[:size] for t in tables]).reshape(-1, size)
        constants = np.array([(c.tangential, c.normal) for c in rfts]).reshape(-1, 2)
        rft_t, rft_n = np.repeat(constants.T[..., None], size, axis=2)
        self.normal = rft_n[:, :1, None]
        self.principal = np.concatenate((self.mn, rft_t))
        self.precond = np.concatenate(([self.mt, self.mn], [rft_t, rft_n]), axis=1)

    def apply(self, curve, coeffs):
        pt = spectral.project_tangent(curve, coeffs)
        split = self.split
        if split == len(self.maps):
            return spectral.apply_L_eps(curve, self, coeffs, pt)
        if split == 0:
            return spectral.apply_L_rft(curve, self, coeffs, pt)
        out = np.empty_like(coeffs)
        out[:split] = spectral.apply_L_eps(curve[:split], self, coeffs[:split], pt[:split])
        out[split:] = spectral.apply_L_rft(curve[split:], self, coeffs[split:], pt[split:])
        return out


def force_map_for(model, epsilon, n):
    """The force map of model 'leps' or 'rft' at eps on an n-point grid."""
    if model == "leps":
        return build_table(epsilon, n // 2)
    if model == "rft":
        return rft_constants(epsilon)
    raise ValueError(f"model must be 'leps' or 'rft', got {model!r}")
