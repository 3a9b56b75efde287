"""Tests for the spectral core: calculus, projections, operators, curves."""

import json
import math

import numpy as np
import pytest

from filament import spectral
from filament.evolution import EvolutionState, choose_dt, initial_curve, step_leps
from filament.multipliers import build_table, rft_constants
from filament.spectral import (
    Grid,
    PeriodicCurve,
    SobolevIndex,
    apply_L_eps,
    apply_L_rft,
    apply_multiplier,
    dealias,
    derivative,
    from_coeffs,
    mean_inner,
    project_normal,
    project_tangent,
    read_curve_csv,
    reparameterize_arclength,
    sobolev_norm,
    to_coeffs,
    write_curve_csv,
)

TWO_PI = 2.0 * np.pi


def random_field(n, components=3, seed=0, band_limited=True):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((n, components)) if components > 1 else rng.standard_normal(n)
    return dealias(f) if band_limited else f


class TestTransforms:
    def test_round_trip(self):
        f = random_field(128, band_limited=False, seed=3)
        assert np.max(np.abs(from_coeffs(to_coeffs(f), 128) - f)) < 1e-12

    def test_derivative_of_constant(self):
        f = np.ones((64, 3))
        assert np.max(np.abs(derivative(f))) < 1e-12

    def test_second_derivative_eigenfunction(self):
        s = np.arange(128) / 128
        f = np.cos(TWO_PI * s)
        d2 = derivative(f, 2)
        assert np.max(np.abs(d2 + TWO_PI**2 * f)) < 1e-10

    def test_fourth_derivative_of_circle(self):
        curve = PeriodicCurve.circle(128)
        d4 = derivative(curve.samples, 4)
        assert np.max(np.abs(d4 - TWO_PI**4 * curve.samples)) < 1e-8 * TWO_PI**4

    def test_derivative_order_validated(self):
        with pytest.raises(ValueError):
            derivative(np.ones(64), 0)


class TestMultiplierApplication:
    def test_identity_multiplier(self):
        f = random_field(64, seed=1)
        g = apply_multiplier(f, np.ones(33))
        assert np.max(np.abs(g - f)) < 1e-12

    def test_half_power_squares_to_full(self):
        f = random_field(64, seed=2)
        m = 1.0 + np.arange(33.0)
        once = apply_multiplier(apply_multiplier(f, m, 0.5), m, 0.5)
        full = apply_multiplier(f, m, 1.0)
        assert np.max(np.abs(once - full)) < 1e-12

    def test_parseval_quadratic_form(self):
        n = 64
        grid = Grid.of_size(n)
        f = random_field(n, seed=4)
        m = 1.0 + np.arange(33.0) ** 2
        lhs = mean_inner(f, apply_multiplier(f, m))
        coeffs = to_coeffs(f)
        power = np.sum(np.abs(coeffs) ** 2, axis=1)
        mm = m.copy()
        mm[-1] = 0.0  # Nyquist zeroed by the operator
        rhs = float(np.sum(grid.weight * mm * power))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_nonpositive_multiplier_rejected(self):
        f = random_field(64)
        m = np.ones(33)
        m[5] = 0.0
        with pytest.raises(ValueError):
            apply_multiplier(f, m)


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
        p = project_tangent(curve, curve.xs)
        assert np.max(np.abs(p - curve.xs)) < 1e-10

    def test_curvature_is_normal(self):
        curve = PeriodicCurve.perturbed_circle(128, 3, 0.05)
        p = project_normal(curve, curve.xss)
        assert np.max(np.abs(p - curve.xss)) < 1e-6 * np.max(np.abs(curve.xss))

    def test_idempotence(self):
        # exact on inputs band-limited a few modes inside the cutoff:
        # each multiplication by the (bandwidth-1) circle tangent widens
        # the band by one mode.
        n = 128
        curve = PeriodicCurve.circle(n)
        grid = Grid.of_size(n)
        f = random_field(n, seed=5)
        coeffs = to_coeffs(f)
        coeffs[grid.k > grid.kcut - 4] = 0.0
        f = from_coeffs(coeffs, n)
        once = project_tangent(curve, f)
        twice = project_tangent(curve, once)
        assert np.max(np.abs(twice - once)) < 1e-10

    def test_completeness(self):
        curve = PeriodicCurve.perturbed_circle(128, 2, 0.03)
        f = random_field(128, seed=6)
        total = project_tangent(curve, f) + project_normal(curve, f)
        assert np.max(np.abs(total - f)) < 1e-10


class TestForceToVelocityMaps:
    def test_frozen_frame_eigenrelation(self):
        # synthetic straight frame: X_s = e_z exactly; single Fourier
        # mode in the tangential direction picks up m_t(k).
        n = 128
        table = build_table(1e-3, n // 2)
        curve = PeriodicCurve.circle(n)
        curve._cache["xs"] = np.tile(np.array([0.0, 0.0, 1.0]), (n, 1))
        curve._cache.pop("tangent", None)
        s = np.arange(n) / n
        for k in (1, 5, 20):
            f = np.zeros((n, 3))
            f[:, 2] = np.cos(TWO_PI * k * s)
            out = apply_L_eps(curve, table, f)
            assert np.max(np.abs(out - table.mt[k] * f)) < 1e-10 * table.mt[k]
            g = np.zeros((n, 3))
            g[:, 0] = np.cos(TWO_PI * k * s)  # normal direction
            out = apply_L_eps(curve, table, g)
            assert np.max(np.abs(out - table.mn[k] * g)) < 1e-10 * table.mn[k]

    def test_self_adjoint(self):
        curve = PeriodicCurve.perturbed_circle(128, 3, 0.05)
        table = build_table(1e-3, 64)
        f, g = random_field(128, seed=8), random_field(128, seed=9)
        lhs = mean_inner(g, apply_L_eps(curve, table, f))
        rhs = mean_inner(f, apply_L_eps(curve, table, g))
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_positivity_50_trials(self):
        curve = PeriodicCurve.circle(128)
        for eps in (1e-2, 1e-4):
            table = build_table(eps, 64)
            for trial in range(50):
                f = random_field(128, seed=100 + trial)
                assert mean_inner(f, apply_L_eps(curve, table, f)) > 0.0

    def test_quadratic_form_comparable_to_mn_sum(self):
        # m_t comparable to m_n makes the form comparable to the plain
        # T_mn quadratic form, with one fitted constant pair.
        curve = PeriodicCurve.circle(128)
        table = build_table(1e-3, 64)
        los, his = [], []
        for trial in range(20):
            f = random_field(128, seed=300 + trial)
            form = mean_inner(f, apply_L_eps(curve, table, f))
            ref = mean_inner(f, apply_multiplier(f, table.mn))
            los.append(form / ref)
            his.append(form / ref)
        assert min(los) > 0.5
        assert max(his) < 2.5

    def test_rft_directional_factors(self):
        curve = PeriodicCurve.circle(128)
        constants = rft_constants(1e-3)
        tangential = dealias(curve.xs * dealias(np.sin(TWO_PI * np.arange(128) / 128))[:, None])
        out = apply_L_rft(curve, constants, tangential)
        assert np.max(np.abs(out - constants.tangential * tangential)) < 1e-6
        # out-of-plane field is normal to the planar circle
        normal = np.zeros((128, 3))
        normal[:, 2] = np.cos(TWO_PI * np.arange(128) / 128)
        out = apply_L_rft(curve, constants, normal)
        assert np.max(np.abs(out - constants.normal * normal)) < 1e-10

    def test_rft_pointwise_eigenvalue_range(self):
        curve = PeriodicCurve.circle(128)
        constants = rft_constants(1e-3)
        for trial in range(10):
            f = random_field(128, seed=400 + trial)
            form = mean_inner(f, apply_L_rft(curve, constants, f))
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
        f = random_field(64, seed=11)
        grid = Grid.of_size(64)
        coeffs = to_coeffs(f)
        power = np.sum(np.abs(coeffs) ** 2, axis=1)
        direct = math.sqrt(float(np.sum(grid.weight * (1 + grid.k**2) ** 2 * power)))
        assert sobolev_norm(f, SobolevIndex(2.0)) == pytest.approx(direct, rel=1e-12)

    def test_negative_homogeneous_order_finite(self):
        f = random_field(64, seed=12)
        assert np.isfinite(sobolev_norm(f, SobolevIndex(-0.5, homogeneous=True)))


class TestCurves:
    def test_circle_is_unit_length_and_inextensible(self):
        c = PeriodicCurve.circle(64)
        assert c.length == pytest.approx(1.0, abs=1e-12)
        assert c.inext_residual < 1e-12

    def test_grid_size_validated(self):
        with pytest.raises(ValueError):
            PeriodicCurve(np.zeros((48, 3)))
        with pytest.raises(ValueError):
            PeriodicCurve(np.zeros((16, 3)))

    def test_nonfinite_rejected(self):
        samples = PeriodicCurve.circle(32).samples.copy()
        samples[0, 0] = np.nan
        with pytest.raises(ValueError):
            PeriodicCurve(samples)

    def test_perturbed_circle_reparameterized(self):
        c = PeriodicCurve.perturbed_circle(128, 3, 0.05)
        assert c.inext_residual < 1e-8
        assert c.length == pytest.approx(1.0, abs=1e-8)

    def test_trefoil_reparameterized(self):
        c = PeriodicCurve.trefoil(256)
        assert c.inext_residual < 1e-8
        assert c.length == pytest.approx(1.0, abs=1e-8)


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
    # Preimages x = n amplitude / 2 ~ 0.6 from the nodes, and an
    # out-of-plane Nyquist mode that the interpolant keeps as a cosine.
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


def _dense_passes(curve, passes):
    for _ in range(passes):
        curve = spectral._reparameterize_dense(curve)
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
        assert r.length == pytest.approx(1.0, abs=1e-10)

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
        with pytest.raises(ValueError, match="fold-over"):
            spectral._reparameterize_dense(PeriodicCurve(samples))

    # Taylor shift (near-arclength curves) against the dense resampler.

    @staticmethod
    def _taylor_vs_dense(curve, monkeypatch):
        dense = spectral._reparameterize_dense(curve).samples

        def no_dense(curve):
            raise AssertionError("near-arclength curve took the dense path")

        monkeypatch.setattr(spectral, "_reparameterize_dense", no_dense)
        taylor = reparameterize_arclength(curve).samples
        return float(np.max(np.abs(taylor - dense)))

    @pytest.mark.parametrize("n", [128, 1024])
    @pytest.mark.parametrize(
        "name", ["perturbed-circle(2,0.04)", "perturbed-circle(3,0.05)", "trefoil"]
    )
    def test_matches_dense_after_one_step(self, name, n, monkeypatch):
        assert self._taylor_vs_dense(_one_step(name, n), monkeypatch) <= 1e-13

    @pytest.mark.parametrize(
        "make", [_warped_circle, _warped_circle_with_nyquist, lambda: _raw_perturbed_circle(128)],
        ids=["warp1e-5", "warp2e-2-nyquist", "raw-perturbed-circle"],
    )
    def test_matches_dense_near_arclength(self, make, monkeypatch):
        assert self._taylor_vs_dense(make(), monkeypatch) <= 1e-13

    def test_far_from_arclength_takes_dense_path(self):
        # The raw trefoil's preimages sit x = pi n max|delta| >> 1 from
        # the nodes, beyond the Taylor shift's range.
        raw = _raw_trefoil(128)
        assert np.array_equal(
            reparameterize_arclength(raw).samples,
            spectral._reparameterize_dense(raw).samples,
        )

    @pytest.mark.parametrize("n", [32, 128, 1024])
    def test_constructors_use_dense_passes(self, n):
        assert np.array_equal(
            PeriodicCurve.perturbed_circle(n, 3, 0.05).samples,
            _dense_passes(_raw_perturbed_circle(n), 2).samples,
        )
        assert np.array_equal(
            PeriodicCurve.trefoil(n).samples,
            _dense_passes(_raw_trefoil(n), 3).samples,
        )

    @pytest.mark.parametrize("make", [_warped_circle, lambda: _raw_trefoil(128)],
                             ids=["taylor", "dense"])
    def test_newton_nonconvergence_raises(self, make, monkeypatch):
        monkeypatch.setattr(spectral, "_NEWTON_MAXITER", 1)
        with pytest.raises(ValueError, match="arclength Newton did not converge"):
            reparameterize_arclength(make())


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        c = PeriodicCurve.perturbed_circle(64, 2, 0.05)
        path = tmp_path / "curve.csv"
        write_curve_csv(c, path, epsilon=1e-3, time=0.25, model="leps")
        loaded, meta = read_curve_csv(path)
        assert np.max(np.abs(loaded.samples - c.samples)) < 1e-15
        assert meta == {"n": 64, "epsilon": 1e-3, "time": 0.25, "model": "leps"}
        sidecar = json.loads((tmp_path / "curve.json").read_text())
        assert sidecar["n"] == 64

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n0,1,2,3\n")
        with pytest.raises(ValueError):
            read_curve_csv(path)
