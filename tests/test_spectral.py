"""Tests for the spectral core: calculus, projections, operators, curves."""

import json
import math
import re

import numpy as np
import pytest

from filament import spectral
from filament.evolution import EvolutionState, choose_dt, initial_curve, step_leps
from filament.multipliers import build_table, rft_constants
from filament.spectral import (
    GeometryError,
    Grid,
    PeriodicCurve,
    SobolevIndex,
    curves_from_samples,
    dealias,
    from_coeffs,
    mean_inner,
    project_tangent,
    read_curve_csv,
    reparameterize_arclength,
    sobolev_norm,
    to_coeffs,
    write_csv,
    write_curve_csv,
    write_json,
)
from test_batch import apply_L

TWO_PI = 2.0 * np.pi


def derivative(curve, order):
    """The samples (3, n) of d^order X/ds^order, formed from the curve's
    coefficients as the program forms X_sss and X_ssss."""
    return from_coeffs(curve.grid.ik_pow[order] * curve.coeffs, curve.n, axis=-1)


def random_field(n, components=3, seed=0, band_limited=True):
    """Random samples, (components, n) for a vector field."""
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((n, components)).T if components > 1 else rng.standard_normal(n)
    return dealias(f, axis=-1) if band_limited else f


class TestTransforms:
    def test_round_trip(self):
        f = random_field(128, band_limited=False, seed=3)
        assert np.max(np.abs(from_coeffs(to_coeffs(f, axis=-1), 128, axis=-1) - f)) < 1e-12

    @pytest.mark.parametrize("n", [32, 256, 1024])
    @pytest.mark.parametrize("axis", [-1, -2], ids=["scalar", "vector"])
    def test_scaling_matches_the_plain_form_bitwise(self, n, axis):
        # pocketfft's own 1/n scaling against rfft(x)/n and irfft(c*n):
        # on a power-of-two grid a scaling by 2^-k commutes with rounding
        rng = np.random.default_rng(n)
        shape = (5, n) if axis == -1 else (5, n, 3)
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
        coeffs = np.fft.rfft(values, axis=axis) / n
        assert to_coeffs(values, axis=axis).tobytes() == coeffs.tobytes()
        assert (from_coeffs(coeffs, n, axis=axis).tobytes()
                == np.fft.irfft(coeffs * n, n=n, axis=axis).tobytes())

    def test_derivative_of_constant(self):
        curve = PeriodicCurve(np.ones((64, 3)))
        for values in (curve.xs, curve.xss, derivative(curve, 3), derivative(curve, 4),
                       curve.tangent):
            assert np.max(np.abs(values)) < 1e-12

    def test_second_derivative_eigenfunction(self):
        s = np.arange(128) / 128
        f = np.cos(TWO_PI * s)
        curve = PeriodicCurve(np.column_stack([f, np.sin(3 * TWO_PI * s), np.zeros(128)]))
        assert np.max(np.abs(curve.xss[0] + TWO_PI**2 * f)) < 1e-10

    def test_fourth_derivative_of_circle(self):
        curve = PeriodicCurve.circle(128)
        d4 = derivative(curve, 4)
        assert np.max(np.abs(d4 - TWO_PI**4 * curve.samples.T)) < 1e-8 * TWO_PI**4


class TestDealiasing:
    def test_product_exact_against_fine_grid(self):
        # band-limited inputs with combined bandwidth <= 2n/3: the
        # dealiased product on n points matches the product computed
        # on a 2n grid and truncated back.
        n = 96
        rng = np.random.default_rng(7)
        ca = np.zeros(n // 2 + 1, dtype=complex)
        cb = np.zeros(n // 2 + 1, dtype=complex)
        kmax = n // 6  # combined bandwidth n/3 <= cutoff
        ca[1:kmax + 1] = rng.standard_normal(kmax) + 1j * rng.standard_normal(kmax)
        cb[1:kmax + 1] = rng.standard_normal(kmax) + 1j * rng.standard_normal(kmax)
        a, b = from_coeffs(ca, n), from_coeffs(cb, n)
        product = dealias(dealias(a) * dealias(b))
        fine = np.fft.rfft(
            np.fft.irfft(ca * 2 * n, 2 * n) * np.fft.irfft(cb * 2 * n, 2 * n)
        ) / (2 * n)
        oracle = from_coeffs(fine[: n // 2 + 1], n)
        assert np.max(np.abs(product - dealias(oracle))) < 1e-12


class TestProjections:
    def test_tangent_projects_tangent_to_itself(self):
        curve = PeriodicCurve.circle(128)
        p = from_coeffs(project_tangent(curve, to_coeffs(curve.xs, axis=-1)), 128, axis=-1)
        assert np.max(np.abs(p - curve.xs)) < 1e-10

    def test_curvature_is_normal(self):
        curve = PeriodicCurve.perturbed_circle(128, 3, 0.05)
        xss = to_coeffs(curve.xss, axis=-1)
        p = from_coeffs(xss - project_tangent(curve, xss), 128, axis=-1)
        assert np.max(np.abs(p - curve.xss)) < 1e-6 * np.max(np.abs(curve.xss))

    def test_idempotence(self):
        # exact on inputs band-limited a few modes inside the cutoff:
        # each multiplication by the (bandwidth-1) circle tangent widens
        # the band by one mode.
        n = 128
        curve = PeriodicCurve.circle(n)
        grid = Grid.of_size(n)
        f = random_field(n, seed=5)
        coeffs = to_coeffs(f, axis=-1)
        coeffs[:, grid.k > grid.kcut - 4] = 0.0
        once = project_tangent(curve, coeffs)
        twice = project_tangent(curve, once)
        assert np.max(np.abs(from_coeffs(twice - once, n, axis=-1))) < 1e-10


def mn_form(f, mn):
    """<f, T_mn f> as a Parseval sum, the Nyquist mode left out."""
    grid = Grid.of_size(f.shape[-1])
    m = np.array(mn[: grid.k.shape[0]])
    m[-1] = 0.0
    return float(np.sum(grid.weight * m * np.sum(np.abs(to_coeffs(f, axis=-1)) ** 2, axis=0)))


def apply_to_samples(curve, force_map, f):
    """The force map of curve alone (the stack of one) applied to samples f (3, n)."""
    return from_coeffs(apply_L(curve, force_map, to_coeffs(f, axis=-1)), f.shape[-1], axis=-1)


class TestForceToVelocityMaps:
    def test_frozen_frame_eigenrelation(self):
        # synthetic straight frame: X_s = e_z exactly; single Fourier
        # mode in the tangential direction picks up m_t(k).
        n = 128
        table = build_table(1e-3, n // 2)
        curve = PeriodicCurve.circle(n)
        curve.tangent = np.tile(np.array([[0.0], [0.0], [1.0]]), (1, n))
        s = np.arange(n) / n
        for k in (1, 5, 20):
            f = np.zeros((3, n))
            f[2] = np.cos(TWO_PI * k * s)
            out = apply_to_samples(curve, table, f)
            assert np.max(np.abs(out - table.mt[k] * f)) < 1e-10 * table.mt[k]
            g = np.zeros((3, n))
            g[0] = np.cos(TWO_PI * k * s)  # normal direction
            out = apply_to_samples(curve, table, g)
            assert np.max(np.abs(out - table.mn[k] * g)) < 1e-10 * table.mn[k]

    def test_self_adjoint(self):
        curve = PeriodicCurve.perturbed_circle(128, 3, 0.05)
        table = build_table(1e-3, 64)
        f, g = random_field(128, seed=8), random_field(128, seed=9)
        lhs = mean_inner(g, apply_to_samples(curve, table, f))
        rhs = mean_inner(f, apply_to_samples(curve, table, g))
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_positivity_50_trials(self):
        curve = PeriodicCurve.circle(128)
        for eps in (1e-2, 1e-4):
            table = build_table(eps, 64)
            for trial in range(50):
                f = random_field(128, seed=100 + trial)
                assert mean_inner(f, apply_to_samples(curve, table, f)) > 0.0

    def test_quadratic_form_comparable_to_mn_sum(self):
        # m_t comparable to m_n makes the form comparable to the plain
        # T_mn quadratic form, with one fitted constant pair.
        curve = PeriodicCurve.circle(128)
        table = build_table(1e-3, 64)
        los, his = [], []
        for trial in range(20):
            f = random_field(128, seed=300 + trial)
            form = mean_inner(f, apply_to_samples(curve, table, f))
            ref = mn_form(f, table.mn)
            los.append(form / ref)
            his.append(form / ref)
        assert min(los) > 0.5
        assert max(his) < 2.5

    def test_rft_directional_factors(self):
        curve = PeriodicCurve.circle(128)
        constants = rft_constants(1e-3)
        tangential = dealias(curve.xs * dealias(np.sin(TWO_PI * np.arange(128) / 128)), axis=-1)
        out = apply_to_samples(curve, constants, tangential)
        assert np.max(np.abs(out - constants.tangential * tangential)) < 1e-6
        # out-of-plane field is normal to the planar circle
        normal = np.zeros((3, 128))
        normal[2] = np.cos(TWO_PI * np.arange(128) / 128)
        out = apply_to_samples(curve, constants, normal)
        assert np.max(np.abs(out - constants.normal * normal)) < 1e-10

    def test_rft_pointwise_eigenvalue_range(self):
        curve = PeriodicCurve.circle(128)
        constants = rft_constants(1e-3)
        for trial in range(10):
            f = random_field(128, seed=400 + trial)
            form = mean_inner(f, apply_to_samples(curve, constants, f))
            norm2 = mean_inner(f, f)
            assert constants.normal * norm2 * 0.99 <= form <= 2.01 * constants.normal * norm2


class TestSobolevNorms:
    def test_constant_homogeneous_zero(self):
        f = np.full((64, 3), 2.5)
        assert sobolev_norm(f, SobolevIndex(0.5, homogeneous=True)) == 0.0

    def test_single_mode_h_half(self):
        s = np.arange(64) / 64
        f = np.cos(TWO_PI * s)  # coefficients 1/2 at k = +-1
        val = sobolev_norm(f, SobolevIndex(0.5, homogeneous=True))
        assert val == pytest.approx(math.sqrt(2.0 * 0.25), rel=1e-12)

    def test_h2_matches_direct_sum(self):
        f = random_field(64, seed=11).T  # grid-major, as sobolev_norm takes it
        grid = Grid.of_size(64)
        coeffs = to_coeffs(f)
        power = np.sum(np.abs(coeffs) ** 2, axis=1)
        direct = math.sqrt(float(np.sum(grid.weight * (1 + grid.k**2) ** 2 * power)))
        assert sobolev_norm(f, SobolevIndex(2.0)) == pytest.approx(direct, rel=1e-12)

    def test_negative_homogeneous_order_finite(self):
        f = random_field(64, seed=12).T
        assert np.isfinite(sobolev_norm(f, SobolevIndex(-0.5, homogeneous=True)))


class TestCurves:
    def test_circle_is_unit_length_and_inextensible(self):
        c = PeriodicCurve.circle(64)
        assert np.mean(c.speed) == pytest.approx(1.0, abs=1e-12)
        assert c.inext_residual < 1e-12

    def test_grid_size_validated(self):
        with pytest.raises(ValueError):
            PeriodicCurve(np.zeros((48, 3)))
        with pytest.raises(ValueError):
            PeriodicCurve(np.zeros((16, 3)))

    @pytest.mark.parametrize("shape", [(32,), (32, 2), (1, 32, 3)])
    def test_sample_shape_validated(self, shape):
        with pytest.raises(ValueError, match=r"^curve samples must have shape \(n, 3\), got"):
            PeriodicCurve(np.zeros(shape))

    @pytest.mark.parametrize("mode", [0, -2, 1.5])
    def test_perturbation_mode_validated(self, mode):
        with pytest.raises(ValueError, match="^perturbation mode must be a positive integer"):
            PeriodicCurve.perturbed_circle(32, mode, 0.05)

    @pytest.mark.parametrize("n", [0, 2, 7])
    def test_grid_needs_an_even_size_of_at_least_4(self, n):
        with pytest.raises(ValueError, match=rf"^grid size must be even and >= 4, got {n}$"):
            Grid(n)

    def test_one_grid_size_rule(self):
        # the config's `n` and a curve's samples take the same rule
        assert spectral.check_grid_size("64") == 64
        for n in ("48", "16"):
            with pytest.raises(ValueError,
                               match=rf"^grid size must be a power of two >= 32, got {n}$"):
                spectral.check_grid_size(n)

    def test_nonfinite_rejected(self):
        samples = PeriodicCurve.circle(32).samples.copy()
        samples[0, 0] = np.nan
        with pytest.raises(ValueError):
            PeriodicCurve(samples)

    def test_batch_checked_as_a_curve(self):
        # one non-finite member rejects the batch, and a grid of 48 points
        # any batch on it, with the messages PeriodicCurve gives
        good = PeriodicCurve.circle(32).samples
        bad = good.copy()
        bad[3, 1] = np.inf
        for make in (lambda samples: curves_from_samples(samples.transpose(0, 2, 1)),
                     lambda samples: [PeriodicCurve(s) for s in samples]):
            with pytest.raises(GeometryError, match=r"^curve samples must be finite$"):
                make(np.array([good, bad, good]))
            with pytest.raises(ValueError,
                               match=r"^grid size must be a power of two >= 32, got 48$"):
                make(np.zeros((2, 48, 3)))

    def test_perturbed_circle_reparameterized(self):
        c = PeriodicCurve.perturbed_circle(128, 3, 0.05)
        assert c.inext_residual < 1e-8
        assert np.mean(c.speed) == pytest.approx(1.0, abs=1e-8)

    def test_trefoil_reparameterized(self):
        c = PeriodicCurve.trefoil(256)
        assert c.inext_residual < 1e-8
        assert np.mean(c.speed) == pytest.approx(1.0, abs=1e-8)


def _warped_circle(n=128, amplitude=1e-5):
    s = np.arange(n) / n
    warp = s + amplitude * np.sin(TWO_PI * s) / TWO_PI
    return PeriodicCurve(np.column_stack([
        np.cos(TWO_PI * warp), np.sin(TWO_PI * warp), np.zeros(n)
    ]) / TWO_PI)


def _raw_perturbed_circle(n, mode=3, amplitude=0.05):
    s = np.arange(n) / n
    samples = PeriodicCurve.circle(n).samples.copy()
    samples[:, 2] += (amplitude / TWO_PI) * np.sin(TWO_PI * mode * s)
    return PeriodicCurve(samples)


def _warped_circle_with_nyquist(n=64, amplitude=2e-2, nyquist=1e-3):
    # Preimages x = pi n max|delta| = n amplitude / 2 from the nodes (0.64
    # at n = 64, 10 at n = 1024), and an out-of-plane Nyquist mode that
    # the interpolant keeps as a cosine.
    samples = _warped_circle(n, amplitude).samples.copy()
    samples[:, 2] += nyquist * (-1.0) ** np.arange(n)
    return PeriodicCurve(samples)


def _raw_trefoil(n):
    s = np.arange(n) / n
    tube = 2.0 + np.cos(3.0 * TWO_PI * s)
    return PeriodicCurve(np.column_stack([
        tube * np.cos(2.0 * TWO_PI * s),
        tube * np.sin(2.0 * TWO_PI * s),
        np.sin(3.0 * TWO_PI * s),
    ]))


def _reparameterize_dense(curve):
    """The reference resampler: Newton on the trigonometric interpolant of
    the cumulative arclength, then dense trigonometric interpolation of X
    at the preimages, O(n^2), for curves of any distance from arclength.
    Modes with coefficients below double-precision resolution are dropped."""
    n, grid = curve.n, curve.grid
    total, shat = float(np.mean(curve.speed)), to_coeffs(curve.speed)
    wshat = grid.weight[1:] * shat[1:]
    keep = np.abs(wshat) > 1e-17 * max(total, 1.0)
    kk, wshat = grid.k[1:][keep], wshat[keep]
    anti = wshat / (TWO_PI * 1j * kk)
    anti_sum = np.real(np.sum(anti))
    s = np.arange(n) / n
    targets = total * s
    for _ in range(50):
        phase = np.exp(TWO_PI * 1j * np.outer(s, kk))
        f = total * s + np.real(phase @ anti) - anti_sum - targets
        s = s - f / (total + np.real(phase @ wshat))
        if np.max(np.abs(f)) < 1e-14 * max(total, 1.0):
            break
    else:
        raise AssertionError("dense arclength Newton did not converge")
    wcoeffs = grid.weight[:, None] * curve.coeffs.T
    rows = np.max(np.abs(wcoeffs), axis=1) > 1e-17 * np.max(np.abs(wcoeffs))
    phase = np.exp(TWO_PI * 1j * np.outer(s, grid.k[rows]))
    return PeriodicCurve(np.real(phase @ wcoeffs[rows]) / total)


def _dense_passes(curve, passes):
    for _ in range(passes):
        curve = _reparameterize_dense(curve)
    return curve


def _one_step(name, n, eps=1e-3):
    curve = initial_curve(name, n)
    table = build_table(eps, n // 2)
    dt = choose_dt(curve, table, rescaled=True)
    state = step_leps(EvolutionState(curve, 0.0), dt, table,
                      time_scale=1.0 / abs(math.log(eps)))
    return state.curve


class TestReparameterization:
    def test_circle_fixed_point(self):
        c = PeriodicCurve.circle(128)
        r = reparameterize_arclength(c)
        assert np.max(np.abs(r.samples - c.samples)) < 1e-12

    def test_sinusoidal_speed_perturbation(self):
        # |X_s| = 1 + 1e-4-ish sinusoid: residual drops below 1e-8
        c = _warped_circle()
        assert c.inext_residual > 1e-6
        r = reparameterize_arclength(c)
        assert r.inext_residual < 1e-8

    def test_length_rescaling(self):
        c = PeriodicCurve(PeriodicCurve.circle(64).samples * 1.01)
        r = reparameterize_arclength(c)
        assert np.mean(r.speed) == pytest.approx(1.0, abs=1e-10)

    def test_energy_stable_under_reparameterization(self):
        c = PeriodicCurve.perturbed_circle(128, 4, 0.08)
        r = reparameterize_arclength(c)
        e = mean_inner(c.xss, c.xss)
        e2 = mean_inner(r.xss, r.xss)
        assert abs(e2 - e) < 1e-6 * e

    def test_fold_over_rejected(self):
        n = 64
        s = np.arange(n) / n
        samples = np.column_stack([
            np.cos(TWO_PI * s), np.sin(TWO_PI * s), np.zeros(n)
        ]) * 0.01  # speed ~ 0.06 << 0.5
        with pytest.raises(ValueError, match="fold-over"):
            reparameterize_arclength(PeriodicCurve(samples))

    # The one resampler against the dense reference.

    @staticmethod
    def _off_dense(curve):
        return float(np.max(np.abs(
            reparameterize_arclength(curve).samples - _reparameterize_dense(curve).samples)))

    @pytest.mark.parametrize("n", [128, 1024])
    @pytest.mark.parametrize(
        "name", ["perturbed-circle(2,0.04)", "perturbed-circle(3,0.05)", "trefoil"]
    )
    def test_matches_dense_after_one_step(self, name, n):
        assert self._off_dense(_one_step(name, n)) <= 1e-13

    @pytest.mark.parametrize(
        "make", [_warped_circle, _warped_circle_with_nyquist, _raw_perturbed_circle],
        ids=["warp1e-5", "warp2e-2-nyquist", "raw-perturbed-circle"],
    )
    def test_matches_dense_near_arclength(self, make):
        # speeds within a few percent of the length; the Nyquist-warped
        # circle's preimages still move to other nodes at n = 1024 (x = 10)
        for n in (32, 128, 1024):
            assert self._off_dense(make(n)) <= 1e-13

    @pytest.mark.parametrize("n", [32, 128, 1024])
    def test_far_from_arclength_matches_dense(self, n):
        # the raw trefoil's speeds span a factor 3, and its preimages move
        # to other nodes (x = 1.6 at n = 32, 53 at n = 1024)
        assert self._off_dense(_raw_trefoil(n)) <= 1e-13

    @pytest.mark.parametrize("n", [32, 128, 1024])
    def test_constructors_match_dense_passes(self, n):
        for made, raw, passes in (
            (PeriodicCurve.perturbed_circle(n, 3, 0.05), _raw_perturbed_circle(n), 2),
            (PeriodicCurve.trefoil(n), _raw_trefoil(n), 3),
        ):
            assert np.array_equal(made.samples, reparameterize_arclength(raw, passes).samples)
            assert np.max(np.abs(made.samples - _dense_passes(raw, passes).samples)) <= 1e-13

    @pytest.mark.parametrize("make", [_warped_circle, lambda: _raw_trefoil(128)],
                             ids=["near", "far"])
    def test_newton_nonconvergence_raises(self, make, monkeypatch):
        monkeypatch.setattr(spectral, "_NEWTON_MAXITER", 1)
        with pytest.raises(ValueError, match="arclength Newton did not converge"):
            reparameterize_arclength(make())


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        c = PeriodicCurve.perturbed_circle(64, 2, 0.05)
        path = tmp_path / "curve.csv"
        write_curve_csv(c, path, epsilon=1e-3, time=0.25, model="leps")
        loaded = read_curve_csv(path)
        assert np.max(np.abs(loaded.samples - c.samples)) < 1e-15
        sidecar = json.loads((tmp_path / "curve.json").read_text())
        assert sidecar == {"n": 64, "epsilon": 1e-3, "time": 0.25, "model": "leps"}

    def test_csv_blank_lines_skipped(self, tmp_path):
        c = PeriodicCurve.circle(32)
        path = tmp_path / "curve.csv"
        write_curve_csv(c, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:5] + [""] + lines[5:]) + "\n\n")
        assert np.array_equal(read_curve_csv(path).samples, c.samples)

    @pytest.mark.parametrize("row,cells", [("0.5,1,2", 3), ("0.5,1,2,3,4", 5), ("  ", 1)])
    def test_csv_row_cell_count(self, tmp_path, row, cells):
        path = tmp_path / "curve.csv"
        write_curve_csv(PeriodicCurve.circle(32), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3] + [row] + lines[3:]) + "\n")
        with pytest.raises(ValueError, match=rf"^line 4: expected 4 columns s,x,y,z, got {cells}$"):
            read_curve_csv(path)

    @pytest.mark.parametrize("edit,message", [
        ("swap", "line 6: s = 0.078125, expected j/n = 4/64 = 0.0625"),
        ("same-s", "line 2: s = 0.9, expected j/n = 0/64 = 0.0"),
        ("nan-s", "line 2: s = nan, expected j/n = 0/64 = 0.0")],
        ids=["swap", "same-s", "nan-s"])
    def test_csv_s_column(self, tmp_path, edit, message):
        # row j of n must have s = j/n: rows out of order, or an s column
        # that does not match, are rejected rather than read as a curve
        path = tmp_path / "curve.csv"
        write_curve_csv(PeriodicCurve.perturbed_circle(64, 3, 0.05), path)
        lines = path.read_text().splitlines()
        if edit == "swap":
            lines[5], lines[6] = lines[6], lines[5]
        else:
            value = "0.9" if edit == "same-s" else "nan"
            lines[1:] = [value + line[line.index(","):] for line in lines[1:]]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            read_curve_csv(path)

    def test_csv_cell_not_a_number(self, tmp_path):
        # the error names the line of the first cell that is not a number
        path = tmp_path / "curve.csv"
        write_curve_csv(PeriodicCurve.circle(32), path)
        lines = path.read_text().splitlines()
        s, x, _, z = lines[4].split(",")
        lines[4] = ",".join((s, x, "abc", z))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError,
                           match=r"^line 5: could not convert string to float: 'abc'$"):
            read_curve_csv(path)

    def test_csv_s_within_tolerance(self, tmp_path):
        path = tmp_path / "curve.csv"
        c = PeriodicCurve.circle(32)
        write_csv(path, ["s", "x", "y", "z"],
                  zip(np.arange(32) / 32 + 5e-10, *c.samples.T))
        assert np.array_equal(read_curve_csv(path).samples, c.samples)

    def test_csv_cells(self, tmp_path):
        # ints (numpy's too) as they are, bools as 0/1, every other cell
        # with 17 significant digits, so that it reads back as the same double
        floats = [0.1, 1.0 / 3.0, -2.5e-300, np.float64(np.pi), float("nan"), float("inf")]
        path = tmp_path / "cells.csv"
        write_csv(path, ["a", "b"], [[7, np.int64(-3)], [True, False], floats])
        lines = path.read_text().splitlines()
        assert lines[:3] == ["a,b", "7,-3", "1,0"]
        back = [float(v) for v in lines[3].split(",")]
        assert back[:4] == floats[:4] and math.isnan(back[4]) and back[5] == math.inf
        assert lines[3].split(",")[1] == "0.33333333333333331"

    def test_json_format(self, tmp_path):
        path = tmp_path / "payload.json"
        write_json(path, {"x": 0.1, "nested": [1, None], "path": tmp_path})
        text = path.read_text()
        assert text.endswith("}\n") and text.count("\n") == 8
        assert json.loads(text) == {"x": 0.1, "nested": [1, None], "path": str(tmp_path)}

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n0,1,2,3\n")
        with pytest.raises(ValueError):
            read_curve_csv(path)
