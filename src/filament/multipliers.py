"""Tangential and normal slender-body multipliers and their RFT limits.

For wavenumber k != 0 and x = 2*pi*eps*|k|,

    mt = [2 K0 K1 + x (K0^2 - K1^2)] / (4 pi x K1^2)
    mn = [2 K0 K1 K2 + x (K1^2 (K0 + K2) - 2 K0^2 K2)]
         / (2 pi x [4 K1^2 K2 + x K1 (K1^2 - K0 K2)])

with K_j = K_j(x).  The zero modes are the RFT drag coefficients
|log eps|/(2 pi) and |log eps|/(4 pi), written once for both, so a
table's zero modes equal rft_constants(eps) bit for bit.  build_table
is the one evaluation of m_t and m_n: every caller reads a table's
rows, and the low-k RFT differences are rows minus the coefficients on
the low band (low_band).  Both ratios are homogeneous in the K's (degree 2
over degree 2, and 3 over 3), so evaluating with the exponentially
scaled functions e^x K_j(x) cancels the e^{-x} decay exactly: for large
x the formulas stay well conditioned far past the underflow of the raw
Bessel values.  For small x they overflow (K1^2 K2 ~ 2/x^4 in m_n at
x = 2 pi eps from eps ~ 1e-78, K1^2 in m_t from ~1e-155), so eps must
lie in [EPSILON_MIN, 1) = [1e-70, 1), checked once per call by
check_epsilon; at 1e-70 m_t and m_n agree with 50-digit mpmath to 3e-16.

The table and the RFT constants are the data of the two models, with
|log eps| and the model name.  ForceMapStack is the one force map: the
maps of a batch of curves (see spectral.CurveBatch), member axis first,
as the rows m_t and m_n of every member, with the operator; a map alone
is the stack of one.
"""

from dataclasses import dataclass

import numpy as np

from . import spectral
from .bessel import k0_k1

EPSILON_MIN = 1e-70  # the smallest eps taken (module docstring)


def abs_log(epsilon):
    """|log eps|, the one spelling of it in the package."""
    return float(abs(np.log(epsilon)))


def check_epsilon(epsilon, cap=None):
    """epsilon as a float, if in [EPSILON_MIN, 1) and <= cap; else ValueError."""
    epsilon = float(epsilon)
    if not EPSILON_MIN <= epsilon < 1.0 or cap is not None and not epsilon <= cap:
        top = "1)" if cap is None else f"{cap:g}]"
        raise ValueError(f"epsilon must lie in [{EPSILON_MIN:g}, {top}, got {epsilon!r}")
    return epsilon


def _nonzero(x):
    """m_t and m_n at a 1-D array x = 2 pi eps |k| > 0: K0 and K1
    evaluated once for both, K2 from the recurrence K0 + 2 K1 / x."""
    k0, k1 = k0_k1(x, scaled=True)
    k2 = k0 + 2.0 * k1 / x
    mt = (2.0 * k0 * k1 + x * (k0 * k0 - k1 * k1)) / (4.0 * np.pi * x * k1 * k1)
    num = 2.0 * k0 * k1 * k2 + x * (k1 * k1 * (k0 + k2) - 2.0 * k0 * k0 * k2)
    den = 2.0 * np.pi * x * (4.0 * k1 * k1 * k2 + x * k1 * (k1 * k1 - k0 * k2))
    return mt, num / den


def low_band(epsilon, k):
    """Whether each k is a low wavenumber, |k| < 1/(2 pi eps): there
    eps|k| < 1/(2 pi), and past it the multipliers decay like 1/(eps|k|)."""
    return np.abs(np.asarray(k, dtype=float)) < 1.0 / (2.0 * np.pi * check_epsilon(epsilon))


def _rft_coefficients(epsilon):
    """|log eps|/(2 pi) and |log eps|/(4 pi) at a checked eps: the RFT
    drag coefficients and the zero modes of m_t and m_n."""
    log_eps = abs_log(epsilon)
    return log_eps / (2.0 * np.pi), log_eps / (4.0 * np.pi)


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
    epsilon = check_epsilon(epsilon)
    return RftConstants(epsilon, *_rft_coefficients(epsilon))


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
    """The MultiplierTable of |k| = 0..kmax at eps: the one evaluation
    of m_t and m_n, whose zero modes are the RFT coefficients."""
    epsilon = check_epsilon(epsilon)
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax!r}")
    zero = np.array(_rft_coefficients(epsilon))[:, None]
    k = np.arange(1.0, kmax + 1)
    mt, mn = np.concatenate((zero, _nonzero(2.0 * np.pi * epsilon * k)), axis=1)
    return MultiplierTable(epsilon, int(kmax), mt, mn)


class ForceMapStack:
    """The force maps of a batch's members as one force map with a member
    axis: the leps members first, each member's rows m_t, m_n (m, size),
    a table's being its first `size` multipliers and an rft map's its
    tangential and normal constants.  The constructor is the one home of
    the check that each table covers the resolved spectrum.  `apply`
    takes coefficients (m, 3, size), components first, and is the one
    caller of spectral.apply_L_eps and apply_L_rft, which read only the
    stack's rows; it makes the first tangent projection once for all
    members and L_eps's second one for the leps members only.  A row of
    m_t or m_n broadcasts over a member's three component rows, and a
    stack of one map over any number of fields."""

    def __init__(self, maps, size):
        self.maps = tuple(maps)
        self.split = sum(m.model == "leps" for m in self.maps)
        tables, rfts = self.maps[:self.split], self.maps[self.split:]
        if any(m.model == "leps" for m in rfts):
            raise ValueError("the leps members of a force-map stack come first")
        if any(t.kmax + 1 < size for t in tables):
            raise ValueError("multiplier table shorter than the resolved spectrum")
        self.mt, self.mn = np.empty((2, len(self.maps), size))
        for j, m in enumerate(self.maps):
            rows = (m.mt[:size], m.mn[:size]) if j < self.split else (m.tangential, m.normal)
            self.mt[j], self.mn[j] = rows

    def apply(self, curve, coeffs):
        pt = spectral.project_tangent(curve, coeffs)
        split = self.split
        if split == len(self.maps):
            return spectral.apply_L_eps(curve, self, coeffs, pt)
        if split == 0:
            return spectral.apply_L_rft(self, coeffs, pt)
        out = np.empty_like(coeffs)
        out[:split] = spectral.apply_L_eps(curve[:split], self, coeffs[:split], pt[:split])
        out[split:] = spectral.apply_L_rft(self, coeffs[split:], pt[split:])
        return out


def check_model(model):
    """model, if it names a model ('leps' or 'rft'); else ValueError."""
    if model not in ("leps", "rft"):
        raise ValueError(f"model must be 'leps' or 'rft', got {model!r}")
    return model


def force_map_for(model, epsilon, n):
    """The force map of model 'leps' or 'rft' at eps on an n-point grid."""
    return build_table(epsilon, n // 2) if check_model(model) == "leps" else rft_constants(epsilon)
