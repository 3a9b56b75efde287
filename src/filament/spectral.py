"""Periodic grid, spectral calculus and the force-to-velocity maps.

Conventions: the curve lives on s in [0, 1) sampled at n equispaced
points; Fourier coefficients follow f(s) = sum_k fhat(k) e^{2 pi i k s}
and are stored in rfft layout (k = 0..n/2), so fhat = rfft(f)/n.  All
pointwise products are dealiased with the 2/3 rule (modes |k| > n/3
zeroed on inputs and outputs), and the Nyquist mode is zeroed on every
differentiation and multiplier application.

The tangent projection and the force-to-velocity maps act on rfft
coefficients and return coefficients: differentiation, band limiting
and the multipliers are diagonal there, so each pointwise product with
the tangent costs one irfft/rfft pair and nothing else.  L_eps costs 8
FFT calls, L_rft 4, and a curve's derivatives X_s..X_ssss and its
dealiased tangent come from one batched irfft.  Callers holding samples
convert at their own boundary with to_coeffs/from_coeffs.  A model step
of the eps-sweep at n = 256 makes about 74 FFT calls this way, against
173 when every operator did its own round trips.
"""

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * np.pi

_GRID_CACHE = {}


class GeometryError(ValueError):
    """The curve cannot be represented or resampled: non-finite samples,
    fold-over, or an arclength inversion that does not converge."""


class Grid:
    """Uniform periodic grid on [0, 1) with rfft bookkeeping."""

    def __init__(self, n):
        if n < 4 or n % 2:
            raise ValueError(f"grid size must be even and >= 4, got {n!r}")
        self.n = int(n)
        self.k = np.fft.rfftfreq(n, 1.0 / n)  # 0, 1, ..., n/2
        self.kcut = n // 3
        self.band = self.k <= self.kcut
        # rfft mode multiplicities for Parseval sums: every interior
        # mode stands for a Hermitian pair.
        self.weight = np.full(self.k.shape, 2.0)
        self.weight[0] = 1.0
        self.weight[-1] = 1.0
        # the symbol of d/ds, Nyquist mode zeroed as on every
        # differentiation, its powers 0..4, and its band-limited copy
        self.ik = TWO_PI * 1j * self.k
        self.ik[-1] = 0.0
        self.ik_pow = np.stack([self.ik ** m for m in range(5)], axis=1)
        self.band_ik = np.where(self.band, self.ik, 0.0)
        # factors of a curve's derivative stack X_s..X_ssss, tangent
        self.stack_factor = np.column_stack((self.ik_pow[:, 1:], self.band_ik))

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


def dealias(values):
    """Zero all modes above the 2/3-rule cutoff |k| > n/3."""
    n = values.shape[0]
    grid = Grid.of_size(n)
    coeffs = to_coeffs(values)
    coeffs[~grid.band] = 0.0
    return from_coeffs(coeffs, n)


@dataclass(frozen=True)
class SobolevIndex:
    order: float
    homogeneous: bool = False


def sobolev_norm(values, index):
    """Spectral Sobolev norm; homogeneous indices drop the k = 0 mode."""
    return sobolev_norm_coeffs(to_coeffs(values), index)


def sobolev_norm_coeffs(coeffs, index):
    """sobolev_norm of the field with rfft-layout coefficients coeffs."""
    grid = Grid.of_size(2 * (coeffs.shape[0] - 1))
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
            raise GeometryError("curve samples must be finite")
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

    _DERIVED = ("xs", "xss", "xsss", "xssss", "tangent")

    def _derived(self, key):
        """X_s..X_ssss and the tangent, all from one batched irfft."""
        if key not in self._cache:
            factor = self.grid.stack_factor[:, :, None]
            stack = from_coeffs(factor * self.coeffs[:, None, :], self.n)
            stack = np.ascontiguousarray(np.moveaxis(stack, 1, 0))
            stack.setflags(write=False)
            for name, values in zip(self._DERIVED, stack):
                self._cache.setdefault(name, values)
        return self._cache[key]

    @property
    def xs(self):
        return self._derived("xs")

    @property
    def xss(self):
        return self._derived("xss")

    @property
    def xsss(self):
        return self._derived("xsss")

    @property
    def xssss(self):
        return self._derived("xssss")

    @property
    def tangent(self):
        """Dealiased copy of X_s used in every projection product."""
        return self._derived("tangent")

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


def project_tangent(curve, coeffs):
    """P f = (X_s . f) X_s on rfft coefficients, 2/3-rule dealiased.

    Built as Q* Q with Q f = band(X_s . band(f)) so the discrete
    operator is exactly self-adjoint for the mean inner product.
    """
    n = curve.n
    band = curve.grid.band
    tangent = curve.tangent
    f = from_coeffs(band[:, None] * coeffs, n)
    q = to_coeffs(np.einsum("ij,ij->i", tangent, f))
    q[~band] = 0.0
    p = to_coeffs(tangent * from_coeffs(q, n)[:, None])
    p[~band] = 0.0
    return p


def apply_L_eps(curve, table, coeffs):
    """Force-to-velocity map P T_mt P + (I - P) T_mn (I - P) on rfft
    coefficients, evaluated as b + P(a - b) with a = T_mt P f and
    b = T_mn (I - P) f: two projections."""
    size = curve.grid.k.shape[0]
    if table.kmax + 1 < size:
        raise ValueError("multiplier table shorter than the resolved spectrum")
    pt = project_tangent(curve, coeffs)
    a = table.mt[:size, None] * pt
    b = table.mn[:size, None] * (coeffs - pt)
    b[-1] = 0.0
    return b + project_tangent(curve, a - b)


def apply_L_rft(curve, constants, coeffs):
    """Local RFT operator (|log eps|/4 pi)(I + X_s tensor X_s) on rfft
    coefficients."""
    return constants.normal * (coeffs + project_tangent(curve, coeffs))


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
        raise GeometryError("fold-over: min |X_s| <= 0.5, cannot reparameterize")
    return float(np.mean(speed)), to_coeffs(speed)


def _newton_failure(residual):
    return GeometryError(
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


def _cell_format(value):
    """%d for an int cell (bools as 0/1), otherwise 17 significant digits,
    which read back as the same double (and write numpy's integers below
    2**53 as their digits)."""
    return "%d" if isinstance(value, int) else "%.17g"


def write_csv(path, header, rows):
    """Every CSV file of the package, lines ending in CRLF as csv.writer
    ends them.  The cells are numbers and never need quoting, so a row is
    written by one %-format."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for row in rows:
            fh.write(",".join(map(_cell_format, row)) % tuple(row) + "\r\n")


def write_json(path, payload):
    """Every JSON file of the package: indented, with a final newline;
    values JSON cannot hold are written as their str."""
    Path(path).write_text(json.dumps(payload, indent=2, default=str) + "\n")


def write_curve_csv(curve, path, *, epsilon=None, time=0.0, model=None):
    """CSV columns s, x, y, z plus a JSON sidecar with run metadata."""
    path = Path(path)
    write_csv(path, ["s", "x", "y", "z"], zip(np.arange(curve.n) / curve.n, *curve.samples.T))
    write_json(path.with_suffix(".json"),
               {"n": curve.n, "epsilon": epsilon, "time": time, "model": model})
    return path


def read_curve_csv(path):
    """Load a curve CSV; returns (curve, metadata dict or None)."""
    path = Path(path)
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])  # an empty file has no header
        if [h.strip() for h in header] != ["s", "x", "y", "z"]:
            raise ValueError(f"unexpected curve CSV header: {header}")
        for row in reader:
            rows.append([float(v) for v in row[1:4]])
    meta = None
    sidecar = path.with_suffix(".json")
    if sidecar.exists():
        meta = json.loads(sidecar.read_text())
    return PeriodicCurve(np.array(rows)), meta

