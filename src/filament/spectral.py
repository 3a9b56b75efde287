"""Periodic grid, spectral calculus and the force-to-velocity maps.

Conventions: the curve lives on s in [0, 1) sampled at n equispaced
points; Fourier coefficients follow f(s) = sum_k fhat(k) e^{2 pi i k s}
and are stored in rfft layout (k = 0..n/2), so fhat = rfft(f)/n.  All
pointwise products are dealiased with the 2/3 rule (modes |k| > n/3
zeroed on inputs and outputs), and the Nyquist mode is zeroed on every
differentiation and multiplier application.
"""

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .multipliers import MultiplierTable, RftConstants

TWO_PI = 2.0 * np.pi

_GRID_CACHE = {}


class Grid:
    """Uniform periodic grid on [0, 1) with rfft bookkeeping."""

    def __init__(self, n):
        if n < 4 or n % 2:
            raise ValueError(f"grid size must be even and >= 4, got {n!r}")
        self.n = int(n)
        self.s = np.arange(n) / n
        self.k = np.fft.rfftfreq(n, 1.0 / n)  # 0, 1, ..., n/2
        self.kcut = n // 3
        self.band = self.k <= self.kcut
        # rfft mode multiplicities for Parseval sums: every interior
        # mode stands for a Hermitian pair.
        self.weight = np.full(self.k.shape, 2.0)
        self.weight[0] = 1.0
        self.weight[-1] = 1.0

    @staticmethod
    def of_size(n):
        grid = _GRID_CACHE.get(n)
        if grid is None:
            grid = _GRID_CACHE[n] = Grid(n)
        return grid


def to_coeffs(values):
    """Fourier coefficients (rfft layout) of real samples, any trailing shape."""
    return np.fft.rfft(values, axis=0) / values.shape[0]


def from_coeffs(coeffs, n):
    """Real samples from rfft-layout coefficients."""
    return np.fft.irfft(coeffs * n, n=n, axis=0)


def _broadcast(spectral_factor, coeffs):
    if coeffs.ndim == 2:
        return spectral_factor[:, None] * coeffs
    return spectral_factor * coeffs


def derivative(values, order=1):
    """order-th spectral derivative in s; Nyquist mode zeroed."""
    if order < 1 or order != int(order):
        raise ValueError(f"derivative order must be a positive integer, got {order!r}")
    n = values.shape[0]
    grid = Grid.of_size(n)
    factor = (TWO_PI * 1j * grid.k) ** int(order)
    factor[-1] = 0.0
    return from_coeffs(_broadcast(factor, to_coeffs(values)), n)


def dealias(values):
    """Zero all modes above the 2/3-rule cutoff |k| > n/3."""
    n = values.shape[0]
    grid = Grid.of_size(n)
    coeffs = to_coeffs(values)
    coeffs[~grid.band] = 0.0
    return from_coeffs(coeffs, n)


def band_limit(values):
    """Alias of dealias for scalar unknowns constrained to the retained band."""
    return dealias(values)


def apply_multiplier(values, m, power=1.0):
    """T_{m^power} values: multiply coefficients by m(|k|)^power.

    m is indexed by |k| and must cover 0..n/2 with strictly positive
    entries; the Nyquist mode of the result is zeroed.
    """
    n = values.shape[0]
    grid = Grid.of_size(n)
    m = np.asarray(m, dtype=float)
    if m.shape[0] < grid.k.shape[0]:
        raise ValueError("multiplier array shorter than the resolved spectrum")
    m = m[: grid.k.shape[0]]
    if np.any(m <= 0.0) or np.any(~np.isfinite(m)):
        raise ValueError("multiplier entries must be positive and finite")
    factor = m ** power if power != 1.0 else m.copy()
    factor[-1] = 0.0
    return from_coeffs(_broadcast(factor, to_coeffs(values)), n)


@dataclass(frozen=True)
class SobolevIndex:
    order: float
    homogeneous: bool = False


def sobolev_norm(values, index):
    """Spectral Sobolev norm; homogeneous indices drop the k = 0 mode."""
    n = values.shape[0]
    grid = Grid.of_size(n)
    coeffs = to_coeffs(values)
    power = np.abs(coeffs) ** 2
    if power.ndim == 2:
        power = power.sum(axis=1)
    if index.homogeneous:
        k = grid.k.copy()
        k[0] = 1.0  # placeholder; the k = 0 weight is zeroed below
        w = k ** (2.0 * index.order)
        w[0] = 0.0
    else:
        w = (1.0 + grid.k ** 2) ** index.order
    return float(np.sqrt(np.sum(grid.weight * w * power)))


def mean_inner(a, b):
    """Discrete ∫ a·b ds (trapezoid = mean on the periodic grid)."""
    return float(np.mean(np.sum(a * b, axis=-1) if a.ndim == 2 else a * b))


class PeriodicCurve:
    """Closed curve sampled on a power-of-two periodic grid.

    Derived quantities (tangent, curvature vector, ...) are computed
    lazily and cached; instances are treated as immutable.
    """

    def __init__(self, samples):
        samples = np.array(samples, dtype=float)
        if samples.ndim != 2 or samples.shape[1] != 3:
            raise ValueError(f"curve samples must have shape (n, 3), got {samples.shape}")
        n = samples.shape[0]
        if n < 32 or (n & (n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 32, got {n}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("curve samples must be finite")
        samples.setflags(write=False)
        self.samples = samples
        self.n = n
        self.grid = Grid.of_size(n)
        self._cache = {}

    def _cached(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    @property
    def coeffs(self):
        return self._cached("coeffs", lambda: to_coeffs(self.samples))

    @property
    def xs(self):
        return self._cached("xs", lambda: derivative(self.samples, 1))

    @property
    def xss(self):
        return self._cached("xss", lambda: derivative(self.samples, 2))

    @property
    def xsss(self):
        return self._cached("xsss", lambda: derivative(self.samples, 3))

    @property
    def xssss(self):
        return self._cached("xssss", lambda: derivative(self.samples, 4))

    @property
    def tangent(self):
        """Dealiased copy of X_s used in every projection product."""
        return self._cached("tangent", lambda: dealias(self.xs))

    @property
    def speed(self):
        return self._cached("speed", lambda: np.sqrt(np.sum(self.xs ** 2, axis=1)))

    @property
    def inext_residual(self):
        return self._cached("resid", lambda: float(np.max(np.abs(self.speed - 1.0))))

    @property
    def length(self):
        return self._cached("length", lambda: float(np.mean(self.speed)))

    @classmethod
    def circle(cls, n):
        s = np.arange(n) / n
        r = 1.0 / TWO_PI
        return cls(np.column_stack([r * np.cos(TWO_PI * s), r * np.sin(TWO_PI * s), np.zeros(n)]))

    @classmethod
    def perturbed_circle(cls, n, mode, amplitude):
        """Unit-length circle plus an out-of-plane normal perturbation.

        amplitude is relative to the circle radius; the curve is
        arclength-reparameterized before use.
        """
        if mode < 1 or mode != int(mode):
            raise ValueError(f"perturbation mode must be a positive integer, got {mode!r}")
        base = cls.circle(n).samples.copy()
        s = np.arange(n) / n
        base[:, 2] += (amplitude / TWO_PI) * np.sin(TWO_PI * mode * s)
        return _dense_passes(cls(base), 2)

    @classmethod
    def trefoil(cls, n):
        """Trefoil-like (2,3) torus knot, arclength-reparameterized to length 1."""
        s = np.arange(n) / n
        tube = 2.0 + np.cos(3.0 * TWO_PI * s)
        raw = np.column_stack([
            tube * np.cos(2.0 * TWO_PI * s),
            tube * np.sin(2.0 * TWO_PI * s),
            np.sin(3.0 * TWO_PI * s),
        ])
        return _dense_passes(cls(raw), 3)


def _tangential_coefficient(curve, field):
    """Dealiased X_s . field as a scalar sample array."""
    fd = dealias(field)
    return dealias(np.einsum("ij,ij->i", curve.tangent, fd))


def project_tangent(curve, field):
    """P field = (X_s . field) X_s with 2/3-rule dealiasing.

    Built as Q* Q with Q f = dealias(X_s . dealias(f)) so the discrete
    operator is exactly self-adjoint for the mean inner product.
    """
    coeff = _tangential_coefficient(curve, field)
    return dealias(curve.tangent * coeff[:, None])


def project_normal(curve, field):
    return field - project_tangent(curve, field)


def apply_L_eps(curve, table, field):
    """Force-to-velocity map: P T_mt P + (I - P) T_mn (I - P)."""
    if not isinstance(table, MultiplierTable):
        raise TypeError("apply_L_eps needs a MultiplierTable")
    pt = project_tangent(curve, field)
    pn = field - pt
    return project_tangent(curve, apply_multiplier(pt, table.mt)) + project_normal(
        curve, apply_multiplier(pn, table.mn)
    )


def apply_L_rft(curve, constants, field):
    """Local RFT operator (|log eps|/4 pi)(I + X_s tensor X_s) field."""
    if not isinstance(constants, RftConstants):
        raise TypeError("apply_L_rft needs RftConstants")
    pt = project_tangent(curve, field)
    return constants.normal * field + constants.normal * pt


def reparameterize_arclength(curve, passes=1):
    """Resample the curve at equal arclength increments, total length 1.

    The cumulative arclength sigma(s) is obtained spectrally from
    |X_s|, inverted by Newton iteration, and the curve is evaluated at
    the preimages of the equispaced arclengths; the result is rescaled
    so the total length is exactly 1.  Near-arclength curves evaluate
    sigma and X at the preimages j/n + delta_j by a Taylor shift from
    the grid nodes, O(n log n); curves far from arclength fall back to
    dense trigonometric interpolation, O(n^2).
    """
    for _ in range(max(1, int(passes))):
        curve = _reparameterize_once(curve)
    return curve


# Newton iterations allowed for the arclength preimages; the corpus
# curves need at most 5.
_NEWTON_MAXITER = 50


def _speed_spectrum(curve):
    """Total length and Fourier coefficients of |X_s|; rejects fold-over."""
    speed = curve.speed
    if np.min(speed) <= 0.5:
        raise ValueError("fold-over: min |X_s| <= 0.5, cannot reparameterize")
    return float(np.mean(speed)), to_coeffs(speed)


def _newton_failure(residual):
    return ValueError(
        f"arclength Newton did not converge in {_NEWTON_MAXITER} iterations "
        f"(max |f| = {residual:.3e})"
    )


def _reparameterize_once(curve):
    """One resampling pass: a Taylor shift from the nodes when
    x = pi n max|delta^0| <= 1, dense interpolation otherwise.

    With g the periodic antiderivative of |X_s| - L, the preimage of
    arclength L j/n is j/n + delta_j with L delta + g(j/n + delta) = g(0),
    so delta^0_j = -(g(j/n) - g(0))/L is its first-order estimate.
    """
    n = curve.n
    grid = curve.grid
    total, shat = _speed_spectrum(curve)
    ghat = np.zeros_like(shat)
    ghat[1:] = shat[1:] / (TWO_PI * 1j * grid.k[1:])
    g = from_coeffs(ghat, n)
    delta = -(g - g[0]) / total
    # x is the phase by which the shift moves the Nyquist mode; for
    # x <= 1 the Taylor terms decay at least like x^m/m!.
    x = np.pi * n * float(np.max(np.abs(delta)))
    if x > 1.0:
        return _reparameterize_dense(curve)
    # Orders 0..M with x^M/M! < 1e-17: the shift's truncation error is
    # below double-precision resolution.
    order, term = 0, 1.0
    while term >= 1e-17:
        order += 1
        term *= x / order
    # d^m/ds^m of g and X at the nodes, orders on axis 1.  The Nyquist
    # mode stays the cosine of the trigonometric interpolant: irfft
    # keeps its real (even-order) part and drops the odd orders.
    factor = (TWO_PI * 1j * grid.k[:, None]) ** np.arange(order + 1)
    gd = from_coeffs(ghat[:, None] * factor, n)
    xd = from_coeffs(curve.coeffs[:, None, :] * factor[:, :, None], n)
    g0 = gd[0, 0]
    tol = 1e-14 * max(total, 1.0)
    for _ in range(_NEWTON_MAXITER):
        f = total * delta + _taylor_shift(gd, delta) - g0
        fp = total + _taylor_shift(gd[:, 1:], delta)
        delta = delta - f / fp
        if np.max(np.abs(f)) < tol:
            break
    else:
        raise _newton_failure(np.max(np.abs(f)))
    return PeriodicCurve(_taylor_shift(xd, delta) / total)


def _taylor_shift(derivs, delta):
    """sum_m delta^m/m! derivs[:, m], by Horner's rule."""
    d = delta.reshape(delta.shape + (1,) * (derivs.ndim - 2))
    acc = derivs[:, -1]
    for m in range(derivs.shape[1] - 1, 0, -1):
        acc = derivs[:, m - 1] + (d / m) * acc
    return acc


def _dense_passes(curve, passes):
    """Dense resampling passes for the raw corpus curves.

    Their later passes are near arclength and could take the Taylor
    shift, but that moves the corpus curves by ~1e-16, enough to change
    the CG iteration count of some tension solves on them.
    """
    for _ in range(passes):
        curve = _reparameterize_dense(curve)
    return curve


def _reparameterize_dense(curve):
    """One resampling pass by dense trigonometric interpolation at the
    preimages, for curves of any distance from arclength."""
    n = curve.n
    grid = curve.grid
    total, shat = _speed_spectrum(curve)
    # sigma(s) = integral of |X_s|: mean part is linear, rest spectral.
    # Modes with negligible coefficients are dropped from the Newton
    # evaluations; they contribute below double-precision resolution.
    wshat = grid.weight[1:] * shat[1:]
    keep = np.abs(wshat) > 1e-17 * max(total, 1.0)
    kk = grid.k[1:][keep]
    wshat = wshat[keep]
    anti = wshat / (TWO_PI * 1j * kk)
    anti_sum = np.real(np.sum(anti))

    targets = total * np.arange(n) / n
    s = np.arange(n) / n
    for _ in range(_NEWTON_MAXITER):
        phase = np.exp(TWO_PI * 1j * np.outer(s, kk))
        f = total * s + np.real(phase @ anti) - anti_sum - targets
        fp = total + np.real(phase @ wshat)
        s = s - f / fp
        if np.max(np.abs(f)) < 1e-14 * max(total, 1.0):
            break
    else:
        raise _newton_failure(np.max(np.abs(f)))
    # Trigonometric interpolation of X at the preimage nodes (again
    # dropping coefficients below double-precision resolution).
    wcoeffs = grid.weight[:, None] * curve.coeffs
    scale = float(np.max(np.abs(wcoeffs)))
    rows = np.max(np.abs(wcoeffs), axis=1) > 1e-17 * scale
    phase = np.exp(TWO_PI * 1j * np.outer(s, grid.k[rows]))
    new = np.real(phase @ wcoeffs[rows]) / total
    return PeriodicCurve(new)


def write_curve_csv(curve, path, *, epsilon=None, time=0.0, model=None):
    """CSV columns s, x, y, z plus a JSON sidecar with run metadata."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "x", "y", "z"])
        for i in range(curve.n):
            writer.writerow(
                [_fmt(i / curve.n)] + [_fmt(v) for v in curve.samples[i]]
            )
    sidecar = {"n": curve.n, "epsilon": epsilon, "time": time, "model": model}
    path.with_suffix(".json").write_text(json.dumps(sidecar, indent=2) + "\n")
    return path


def read_curve_csv(path):
    """Load a curve CSV; returns (curve, metadata dict or None)."""
    path = Path(path)
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if [h.strip() for h in header] != ["s", "x", "y", "z"]:
            raise ValueError(f"unexpected curve CSV header: {header}")
        for row in reader:
            rows.append([float(v) for v in row[1:4]])
    meta = None
    sidecar = path.with_suffix(".json")
    if sidecar.exists():
        meta = json.loads(sidecar.read_text())
    return PeriodicCurve(np.array(rows)), meta


def _fmt(x):
    return format(float(x), ".17g")
