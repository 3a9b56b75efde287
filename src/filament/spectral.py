"""Periodic grid, spectral calculus and the force-to-velocity maps.

Conventions: the curve lives on s in [0, 1) sampled at n equispaced
points; Fourier coefficients follow f(s) = sum_k fhat(k) e^{2 pi i k s}
and are stored in rfft layout (k = 0..n/2), so fhat = rfft(f)/n, with
the 1/n applied inside pocketfft (norm="forward"): on the power-of-two
grids of PeriodicCurve and the configs that is bitwise rfft(f)/n.  All
pointwise products are dealiased with the 2/3 rule (modes |k| > n/3
zeroed on inputs and outputs), and the Nyquist mode is zeroed on every
differentiation and multiplier application.

The tangent projection and the force-to-velocity maps act on rfft
coefficients and return coefficients: differentiation, band limiting
and the multipliers are diagonal there, so each pointwise product with
the tangent costs one irfft/rfft pair and nothing else.  L_eps costs 8
FFT calls, L_rft 4.  A curve's X_s, X_ss and dealiased tangent come from
one batched irfft (curves_from_samples); X_sss and X_ssss are never
sampled, but enter as the products ik_pow[m] * coeffs.  Callers
holding samples convert at their own boundary with to_coeffs/from_coeffs.

Layout: vector fields are stored component-first, the grid last: a
curve's coefficients are (3, n/2+1) and its X_s, X_ss and tangent
(3, n), so every FFT of the package runs along a C-contiguous last
axis (a scalar field is (n,)).  Only PeriodicCurve.samples is grid-major,
(n, 3), a transposed view of the stored samples.  Every sum over the
components, alone or with the grid, is a plain sum along their axis.

Member axis: several curves on one grid step as one array program.  A
CurveBatch holds their coefficients (m, 3, n/2+1) and tangents (m, 3, n),
member axis first, and the projection and force maps take a batch
wherever they take a curve: the grid is the last axis of every field,
so every FFT call transforms all members at once.  Each member's rows
go through the same arithmetic as alone, so a batch gives every member
the bits of its solo computation, and a GeometryError of one member is
raised for the whole batch.
"""

import csv
import itertools
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
        self.above_band = slice(self.kcut + 1, None)  # the modes ~band zeroes
        # rfft mode multiplicities for Parseval sums: every interior
        # mode stands for a Hermitian pair.
        self.weight = np.full(self.k.shape, 2.0)
        self.weight[0] = 1.0
        self.weight[-1] = 1.0
        # the symbol of d/ds, Nyquist mode zeroed as on every
        # differentiation, its powers 0..4 (row m the m-th), and its
        # band-limited copy
        self.ik = TWO_PI * 1j * self.k
        self.ik[-1] = 0.0
        self.ik_pow = np.stack([self.ik ** m for m in range(5)])
        self.band_ik = np.where(self.band, self.ik, 0.0)
        # factors of a curve's derivative stack X_s, X_ss, tangent, one row each
        self.stack_factor = np.vstack((self.ik_pow[1:3], self.band_ik))

    @staticmethod
    def of_size(n):
        grid = _GRID_CACHE.get(n)
        if grid is None:
            grid = _GRID_CACHE[n] = Grid(n)
        return grid


def to_coeffs(values, axis=0):
    """Fourier coefficients (rfft layout) of real samples on the given grid
    axis, scaled by pocketfft: a power of two commutes with every rounding,
    so on a power-of-two grid this is bitwise rfft(values) / n."""
    return np.fft.rfft(values, axis=axis, norm="forward")


def from_coeffs(coeffs, n, axis=0):
    """Real samples from rfft-layout coefficients on the given grid axis,
    unscaled by pocketfft: on a power-of-two grid bitwise irfft(coeffs * n)."""
    return np.fft.irfft(coeffs, n=n, axis=axis, norm="forward")


def dealias(values, axis=0):
    """Zero all modes above the 2/3-rule cutoff |k| > n/3."""
    n = values.shape[axis]
    grid = Grid.of_size(n)
    coeffs = to_coeffs(values, axis)
    coeffs[(slice(None),) * (axis % coeffs.ndim) + (grid.above_band,)] = 0.0
    return from_coeffs(coeffs, n, axis)


@dataclass(frozen=True)
class SobolevIndex:
    order: float
    homogeneous: bool = False


def sobolev_norm(values, index):
    """Spectral Sobolev norm of samples on grid axis 0, a scalar (n,) or a
    grid-major vector field (n, 3); homogeneous indices drop the k = 0 mode."""
    return sobolev_norm_coeffs(np.atleast_2d(to_coeffs(values).T), index)


def sobolev_norm_coeffs(coeffs, index):
    """sobolev_norm of the field with rfft-layout coefficients coeffs on
    the last axis, its components (one for a scalar) on the axis before:
    a float, or with member axes before those an array of norms, each
    with the bits of the member's norm alone (one pairwise sum per row)."""
    grid = Grid.of_size(2 * (coeffs.shape[-1] - 1))
    power = np.sum(np.abs(coeffs) ** 2, axis=-2)
    if index.homogeneous:
        k = grid.k.copy()
        k[0] = 1.0  # placeholder; the k = 0 weight is zeroed below
        w = k ** (2.0 * index.order)
        w[0] = 0.0
    else:
        w = (1.0 + grid.k ** 2) ** index.order
    norm = np.sqrt(np.sum(grid.weight * w * power, axis=-1))
    return float(norm) if norm.ndim == 0 else norm


def mean_inner(a, b):
    """Discrete ∫ a·b ds (trapezoid = mean on the periodic grid) of two
    vector fields (3, n)."""
    return float(np.mean(np.sum(a * b, axis=0)))


def check_grid_size(n):
    """n as an int, if it is a curve's grid size, a power of two >= 32."""
    n = int(n)
    if n < 32 or n & (n - 1):
        raise ValueError(f"grid size must be a power of two >= 32, got {n}")
    return n


class PeriodicCurve:
    """Closed curve sampled on a power-of-two periodic grid.

    Its samples (n, 3), coefficients (3, n/2+1), X_s, X_ss, dealiased
    tangent (the copy of X_s used in every projection product), each
    (3, n), speed |X_s| and inext_residual max||X_s| - 1| are plain
    attributes, made with it by curves_from_samples: a curve alone is the
    batch of one.  samples is a view of the component-first samples the
    curve stores.  Instances are treated as immutable, and their arrays
    are read-only.
    """

    def __init__(self, samples):
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 2 or samples.shape[1] != 3:
            raise ValueError(f"curve samples must have shape (n, 3), got {samples.shape}")
        (curve,) = curves_from_samples(samples.T[None])
        vars(self).update(vars(curve))

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
        return reparameterize_arclength(cls(base), 2)

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
        return reparameterize_arclength(cls(raw), 3)


def curves_from_samples(samples):
    """A PeriodicCurve for each member of samples (m, 3, n), the one place
    that computes a curve's fields: one rfft and one irfft call (the
    factors of grid.stack_factor) and one array expression per quantity
    for all members.  Raises check_grid_size's ValueError, and
    GeometryError on non-finite samples or fields that overflow (a speed
    that is not finite)."""
    samples = np.array(samples, dtype=float, order="C")
    n = check_grid_size(samples.shape[-1])
    if not np.all(np.isfinite(samples)):
        raise GeometryError("curve samples must be finite")
    grid = Grid.of_size(n)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        coeffs = to_coeffs(samples, axis=-1)
        # (m, 3 factors, 3 components, n): X_s, X_ss, tangent of each member
        stacks = from_coeffs(grid.stack_factor[:, None] * coeffs[:, None], n, axis=-1)
        speeds = np.sqrt(np.sum(stacks[:, 0] ** 2, axis=-2))
    if not np.all(np.isfinite(speeds)):
        raise GeometryError("curve fields overflow: a speed is not finite")
    residuals = np.max(np.abs(speeds - 1.0), axis=-1).tolist()
    for array in (samples, coeffs, stacks, speeds):
        array.setflags(write=False)
    curves = []
    for j, residual in enumerate(residuals):
        curve = object.__new__(PeriodicCurve)
        curve.n, curve.grid, curve.samples, curve.coeffs = n, grid, samples[j].T, coeffs[j]
        curve.xs, curve.xss, curve.tangent = stacks[j]
        curve.speed, curve.inext_residual = speeds[j], residual
        curves.append(curve)
    return curves


class CurveBatch:
    """Curves on one grid with a member axis first: coefficients
    (m, 3, n/2+1) and dealiased tangents (m, 3, n).  project_tangent, the
    force maps and the tension operator take a batch wherever they take a
    PeriodicCurve; indexing gives the batch of the selected members."""

    def __init__(self, grid, coeffs, tangent):
        self.grid = grid
        self.n = grid.n
        self.coeffs = coeffs
        self.tangent = tangent

    @classmethod
    def of(cls, curves):
        return cls(curves[0].grid, np.array([c.coeffs for c in curves]),
                   np.array([c.tangent for c in curves]))

    def __len__(self):
        return len(self.coeffs)

    def __getitem__(self, index):
        return CurveBatch(self.grid, self.coeffs[index], self.tangent[index])


def project_tangent(curve, coeffs):
    """P f = (X_s . f) X_s on rfft coefficients, 2/3-rule dealiased.

    Built as Q* Q with Q f = band(X_s . band(f)) so the discrete
    operator is exactly self-adjoint for the mean inner product.
    """
    n = curve.n
    band = curve.grid.band
    tangent = curve.tangent
    f = from_coeffs(band * coeffs, n, axis=-1)
    q = to_coeffs(np.sum(tangent * f, axis=-2), axis=-1)
    q[..., curve.grid.above_band] = 0.0
    p = to_coeffs(tangent * from_coeffs(q, n, axis=-1)[..., None, :], axis=-1)
    p[..., curve.grid.above_band] = 0.0
    return p


def apply_L_eps(curve, stack, coeffs, pt):
    """Force-to-velocity map P T_mt P + (I - P) T_mn (I - P) on rfft
    coefficients, with the m_t, m_n rows of a multipliers.ForceMapStack
    (its `apply` is the caller), evaluated as b + P(a - b) with
    a = T_mt P f and b = T_mn (I - P) f, where pt holds P f."""
    a = stack.mt[:, None] * pt
    b = stack.mn[:, None] * (coeffs - pt)
    b[..., -1] = 0.0
    return b + project_tangent(curve, a - b)


def apply_L_rft(curve, stack, coeffs, pt):
    """Local RFT operator (|log eps|/4 pi)(I + X_s tensor X_s) on rfft
    coefficients, with the normal constants of a ForceMapStack; pt holds P f."""
    return stack.normal * (coeffs + pt)


def reparameterize_arclength(curve, passes=1):
    """Resample the curve at equal arclength increments, total length 1,
    by max(1, passes) passes of reparameterize_each on the curve alone:
    the one path for curves near and far from arclength."""
    for _ in range(max(1, int(passes))):
        (curve,) = reparameterize_each([curve])
    return curve


# Newton iterations allowed for the arclength preimages; the raw trefoil
# needs 4 at n = 32 to 1024, raw perturbed circles of amplitude up to 10
# at most 6.
_NEWTON_MAXITER = 50


def _reject_fold_over(speed):
    if np.min(speed) <= 0.5:
        raise GeometryError("fold-over: min |X_s| <= 0.5, cannot reparameterize")


def reparameterize_each(curves):
    """One resampling pass of each curve (all on one grid) at equal
    arclength increments, rescaled to total length 1: a list with each
    resampled curve; raises GeometryError if any is rejected.

    With L the length and g the periodic antiderivative of |X_s| - L, the
    preimage of arclength L j/n is j/n + delta_j with
    L delta + g(j/n + delta) = g(0), so delta^0_j = -(g(j/n) - g(0))/L is
    its first-order estimate.  Newton keeps each preimage as a node and an
    offset, m_j/n + r_j, starting at (j, delta^0_j), and moves r_j to its
    nearest node whenever |r_j| > 1/(2n).  g, g' and X are evaluated there
    by a Taylor shift from the derivative samples at node m_j, O(n log n),
    gathered only after a move: a curve near arclength never moves, and
    one far from it (such as the raw trefoil) needs no other path.  The
    curves are one batch, which shares its FFT calls and Newton
    iterations, at the largest Taylor order of its members: a member's
    derivative rows above its own order are zero, so Horner's rule starts
    at its own order and each member keeps the bits of its pass alone.  A
    member that converges keeps its preimages while the others iterate.
    """
    if not curves:
        return []
    for curve in curves:
        _reject_fold_over(curve.speed)
    grid = curves[0].grid
    n = grid.n
    speed = np.array([c.speed for c in curves])
    total = np.mean(speed, axis=-1)
    shat = to_coeffs(speed, axis=-1)
    ghat = np.zeros_like(shat)
    ghat[:, 1:] = shat[:, 1:] / (TWO_PI * 1j * grid.k[1:])
    g = from_coeffs(ghat, n, axis=-1)
    delta = -(g - g[:, :1]) / total[:, None]
    # x is the phase by which the shift moves the Nyquist mode, at most
    # pi/2 from the nearest node; the Taylor terms decay at least like
    # x^m/m!, and orders 0..M with x^M/M! < 1e-17 put the truncation error
    # below double-precision resolution.
    orders = []
    for x in np.minimum(np.pi * n * np.max(np.abs(delta), axis=-1), np.pi / 2).tolist():
        order, term = 0, 1.0
        while term >= 1e-17:
            order += 1
            term *= x / order
        orders.append(order)
    # d^m/ds^m of g (members, orders, n) and X (members, orders, 3, n) at
    # the nodes, zero above each member's order.  The Nyquist mode stays
    # the cosine of the trigonometric interpolant: irfft keeps its real
    # (even-order) part and drops the odd orders.
    powers = np.arange(max(orders) + 1)[:, None]
    factor = np.where(powers <= np.array(orders)[:, None, None],
                      (TWO_PI * 1j * grid.k) ** powers, 0.0)
    gd = from_coeffs(ghat[:, None] * factor, n, axis=-1)
    coeffs = np.array([c.coeffs for c in curves])
    xd = from_coeffs(coeffs[:, None] * factor[:, :, None], n, axis=-1)
    length = total[:, None]
    # preimage j is node/n + r with L r + g(node/n + r) = target, and
    # target = g(0) - L (node - j)/n; gm holds the derivative samples of g
    # at the nodes.  The last pass only moves the offsets of the final
    # update.
    r, gm, target, node = delta, gd, gd[:, 0, :1], np.arange(n)
    tol = 1e-14 * np.maximum(total, 1.0)
    going = np.ones(len(curves), dtype=bool)
    for i in range(_NEWTON_MAXITER + 1):
        if np.max(np.abs(r)) * n > 0.5:
            moves = np.rint(r * n)
            node = node + moves.astype(int)
            r = r - moves / n
            gm = np.take_along_axis(gd, node[:, None] % n, axis=-1)
            target = gd[:, 0, :1] - length * ((node - np.arange(n)) / n)
        if i == _NEWTON_MAXITER or not going.any():
            break
        f = length * r + _taylor_shift(gm, r) - target
        fp = length + _taylor_shift(gm[:, 1:], r)
        r = np.where(going[:, None], r - f / fp, r)
        residual = np.max(np.abs(f), axis=-1)
        going &= ~(residual < tol)
    if going.any():
        raise GeometryError(
            f"arclength Newton did not converge in {_NEWTON_MAXITER} iterations "
            f"(max |f| = {residual[going][0]:.3e})")
    xm = xd if gm is gd else np.take_along_axis(xd, node[:, None, None] % n, axis=-1)
    return curves_from_samples(_taylor_shift(xm, r) / length[:, :, None])


def _taylor_shift(derivs, delta):
    """sum_m delta^m/m! times the m-th derivative by Horner's rule, for
    shifts delta (m, n): derivs holds the orders on axis 1, after the
    members, and the grid last."""
    d = delta.reshape(delta.shape[:1] + (1,) * (derivs.ndim - 3) + delta.shape[1:])
    acc = derivs[:, -1]
    for m in range(derivs.shape[1] - 1, 0, -1):
        acc = derivs[:, m - 1] + (d / m) * acc
    return acc


def _cell_format(value):
    """%d for an int cell (bools as 0/1), otherwise 17 significant digits,
    which read back as the same double (and write numpy's integers below
    2**53 as their digits)."""
    return "%d" if isinstance(value, int) else "%.17g"


def write_csv(path, header, rows):
    """Every CSV file of the package, lines ending in CRLF as csv.writer
    ends them.  The cells are numbers and never need quoting, so the body
    is one %-format over all cells: rows may differ in length and cell
    types, and each tuple of cell types gets its row format once."""
    formats, lines, cells = {}, [], []
    for row in rows:
        key = tuple(map(type, row))
        line = formats.get(key)
        if line is None:
            line = formats[key] = ",".join(map(_cell_format, row)) + "\r\n"
        lines.append(line)
        cells += row
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.write("".join(lines) % tuple(cells))


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
    """Load the PeriodicCurve of a curve CSV; its JSON sidecar is not read.
    Every cell is converted by float(), so a cell reads as exactly what
    float() makes of it, and a cell it refuses is reported with its line.
    Row j of n must have s = j/n to within 1e-9, so rows out of order or
    missing are rejected."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])  # an empty file has no header
        if [h.strip() for h in header] != ["s", "x", "y", "z"]:
            raise ValueError(f"unexpected curve CSV header: {header}")
        rows = [row for row in reader if row]  # blank lines skipped
    if set(map(len, rows)) - {4}:
        j = next(j for j, row in enumerate(rows) if len(row) != 4)
        raise ValueError(f"line {_line_of(path, j)}: expected 4 columns s,x,y,z, "
                         f"got {len(rows[j])}")
    # each cell goes through float(), in one C-level pass for the file
    try:
        table = np.fromiter(map(float, itertools.chain.from_iterable(rows)), float,
                            count=4 * len(rows)).reshape(-1, 4)
    except ValueError:  # name the line of the first cell that is not a number
        for j, row in enumerate(rows):
            try:
                list(map(float, row))
            except ValueError as exc:
                raise ValueError(f"line {_line_of(path, j)}: {exc}") from None
        raise
    n = len(table)
    off = np.flatnonzero(~(np.abs(table[:, 0] - np.arange(n) / n) <= 1e-9)).tolist()
    if off:
        j = off[0]
        raise ValueError(f"line {_line_of(path, j)}: s = {float(table[j, 0])!r}, "
                         f"expected j/n = {j}/{n} = {j / n!r}")
    return PeriodicCurve(table[:, 1:])


def _line_of(path, j):
    """The line of data row j of a curve CSV, read again: only a refused row needs it."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        lines = (reader.line_num for row in itertools.islice(reader, 1, None) if row)
        return next(itertools.islice(lines, j, None))
