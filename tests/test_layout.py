"""The component-first layout against a plain grid-major reference, bit
for bit, and a guard that every FFT of a step runs along a C-contiguous
last axis.

The reference below is written per member on grid-major (n, 3) arrays:
a curve's fields and one arclength resampling pass, whose one sum over
the components (the speed) adds them in order 0, 1, 2 in either layout.
Every comparison is np.array_equal.  The projections, force maps and
tension operator are not compared here: their sums over the components
and the grid may add in another order, so tests/test_coefficient_path.py
checks them against a physical-space reference to a tolerance.
"""

import numpy as np
import pytest

from filament.evolution import EvolutionState, StepOptions, _advance
from filament.experiments import _discrepancy_row
from filament.spectral import (
    TWO_PI,
    Grid,
    PeriodicCurve,
    curves_from_samples,
    from_coeffs,
    reparameterize_each,
    to_coeffs,
)
from test_batch import NS, members

# ------------------------------------------------------------- reference


def ref_fields(samples):
    """Coefficients (K, 3), X_s, X_ss, tangent (n, 3), speed and
    inextensibility residual of grid-major samples (n, 3)."""
    n = samples.shape[0]
    grid = Grid.of_size(n)
    coeffs = to_coeffs(np.ascontiguousarray(samples))
    xs, xss, tangent = (from_coeffs(factor[:, None] * coeffs, n)
                        for factor in (grid.ik_pow[1], grid.ik_pow[2], grid.band_ik))
    speed = np.sqrt(np.sum(xs ** 2, axis=-1))
    return dict(coeffs=coeffs, xs=xs, xss=xss, tangent=tangent, speed=speed,
                inext_residual=float(np.max(np.abs(speed - 1.0))))


def ref_taylor_shift(derivs, delta):
    """Horner's rule with the orders on axis 1 of derivs (n, orders[, 3])."""
    d = delta.reshape(delta.shape + (1,) * (derivs.ndim - 2))
    acc = derivs[:, -1]
    for m in range(derivs.shape[1] - 1, 0, -1):
        acc = derivs[:, m - 1] + (d / m) * acc
    return acc


def ref_reparameterize(samples):
    """One arclength resampling pass of grid-major samples (n, 3), by the
    algorithm of spectral.reparameterize_each for one curve."""
    n = samples.shape[0]
    grid = Grid.of_size(n)
    fields = ref_fields(samples)
    total = np.mean(fields["speed"])
    shat = to_coeffs(fields["speed"])
    ghat = np.zeros_like(shat)
    ghat[1:] = shat[1:] / (TWO_PI * 1j * grid.k[1:])
    g = from_coeffs(ghat, n)
    delta = -(g - g[0]) / total
    x = min(np.pi * n * float(np.max(np.abs(delta))), np.pi / 2)
    order, term = 0, 1.0
    while term >= 1e-17:
        order += 1
        term *= x / order
    factor = (TWO_PI * 1j * grid.k[:, None]) ** np.arange(order + 1)
    gd = from_coeffs(ghat[:, None] * factor, n)
    xd = from_coeffs(fields["coeffs"][:, None, :] * factor[:, :, None], n)
    r, gm, target, node = delta, gd, gd[0, 0], np.arange(n)
    tol = 1e-14 * max(total, 1.0)
    going = True
    for i in range(51):
        if np.max(np.abs(r)) * n > 0.5:
            moves = np.rint(r * n)
            node = node + moves.astype(int)
            r = r - moves / n
            gm = gd[node % n]
            target = gd[0, 0] - total * ((node - np.arange(n)) / n)
        if not going:
            break
        f = total * r + ref_taylor_shift(gm, r) - target
        r = r - f / (total + ref_taylor_shift(gm[:, 1:], r))
        going = not np.max(np.abs(f)) < tol
    assert not going
    xm = xd if gm is gd else xd[node % n]
    return ref_taylor_shift(xm, r) / total


# ------------------------------------------------------------- bit for bit


@pytest.mark.parametrize("n", NS)
class TestAgainstGridMajorReference:
    def test_curve_fields(self, n):
        curves = [curve for curve, _ in members(n)]
        batch = curves_from_samples(np.array([c.samples.T for c in curves]))
        for got, curve in zip(batch, curves):
            want = ref_fields(curve.samples)
            assert np.array_equal(got.samples, curve.samples)
            for name in ("coeffs", "xs", "xss", "tangent"):
                assert np.array_equal(getattr(got, name), want[name].T), name
            assert np.array_equal(got.speed, want["speed"])
            assert got.inext_residual == want["inext_residual"]

    def test_one_resampling_pass(self, n):
        s = np.arange(n) / n
        curves = [curve for curve, _ in members(n)[:2]]
        # off arclength by a smooth reparameterization, and the raw
        # trefoil, whose preimages move to other nodes
        curves += [PeriodicCurve(c.samples * (1.0 + 1e-4 * np.sin(2 * np.pi * s))[:, None])
                   for c in curves]
        tube = 2.0 + np.cos(6 * np.pi * s)
        curves.append(PeriodicCurve(np.column_stack([
            tube * np.cos(4 * np.pi * s), tube * np.sin(4 * np.pi * s), np.sin(6 * np.pi * s)])))
        for got, curve in zip(reparameterize_each(curves), curves):
            assert np.array_equal(got.samples, ref_reparameterize(curve.samples))


# ------------------------------------------------------------- FFT layout


@pytest.fixture
def transforms(monkeypatch):
    """Each np.fft.rfft/irfft call as (runs along the last axis, input is
    C-contiguous)."""
    calls = []
    for name in ("rfft", "irfft"):
        def recorded(a, *args, _real=getattr(np.fft, name), axis=-1, **kwargs):
            a = np.asarray(a)
            calls.append((axis % a.ndim == a.ndim - 1, a.flags.c_contiguous))
            return _real(a, *args, axis=axis, **kwargs)
        monkeypatch.setattr(np.fft, name, recorded)
    return calls


@pytest.mark.parametrize("n", NS)
def test_every_transform_runs_along_a_contiguous_last_axis(transforms, n):
    pairs = members(n)
    states = [EvolutionState(curve, 0.0) for curve, _ in pairs]
    maps = [force_map for _, force_map in pairs]
    curves = [c for c, _ in pairs]
    before = len(transforms)
    (x, *_) = _advance(states, maps, [2e-7] * len(pairs), [StepOptions()] * len(pairs))
    reparameterize_each(curves + [PeriodicCurve(curves[0].samples * 1.01)])
    _discrepancy_row(x.curve, curves[0], maps[0])
    assert len(transforms) > before
    assert transforms == [(True, True)] * len(transforms)
