"""Tests for the modified Bessel kernel K0, K1, K2.

Two reference oracles, each a code path fully independent of the
production evaluations: adaptive quadrature of the integral
representation K_j(x) = int_0^inf e^{-x cosh t} cosh(j t) dt (scipy's
quad), and 50-digit mpmath.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from filament.bessel import SEAM, bessel_k, k0_k1

EULER_GAMMA = 0.5772156649015329


def bessel_quadrature(order, x):
    """Independent oracle: adaptive quadrature of the integral representation."""
    # The integrand decays like e^{-x e^t / 2}; cut where it is far below
    # double precision resolution relative to the peak.
    upper = np.arccosh(1.0 + 60.0 / x)
    val, err = quad(
        lambda t: np.exp(-x * np.cosh(t)) * np.cosh(order * t),
        0.0, upper, epsabs=0.0, epsrel=1e-13, limit=200,
    )
    return val


class TestOracleAgreement:
    def test_frozen_values_at_one(self):
        assert bessel_k(0, 1.0) == pytest.approx(0.4210244382, rel=1e-9)
        assert bessel_k(1, 1.0) == pytest.approx(0.6019072302, rel=1e-9)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_quadrature_oracle_1000_points(self, order):
        xs = np.logspace(-6, 2, 1000)
        vals = bessel_k(order, xs)
        oracle = np.array([bessel_quadrature(order, x) for x in xs])
        assert np.max(np.abs(vals / oracle - 1.0)) < 1e-10


def scaled(order, xs):
    """e^x K_order(x) at each double in the 1-D array xs as the multipliers
    take it: k0_k1 scaled, and order 2 from the recurrence K0 + 2 K1 / x."""
    k0, k1 = k0_k1(xs, scaled=True)
    return (k0, k1, k0 + 2.0 * k1 / xs)[order]


def mpmath_scaled(order, xs, dps=50):
    """e^x K_order(x) at each double in xs, in dps-digit arithmetic."""
    with mpmath.workdps(dps):
        return np.array([float(mpmath.exp(x) * mpmath.besselk(order, x)) for x in xs])


class TestExtendedPrecisionOracle:
    # e^x K_j(x), j = 0, 1, 2, is within SCALED_RTOL of 50-digit mpmath
    # on (0, 3e4]; the worst measured is 1.1e-15, near the seam x = 2
    SCALED_RTOL = 2e-15

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_300_points(self, order):
        # every decade of [1e-70, 3e4], and the series' range densely
        xs = np.concatenate((np.geomspace(1e-70, 3e4, 240), np.linspace(0.1, 6.0, 60)))
        err = np.abs(scaled(order, xs) / mpmath_scaled(order, xs) - 1.0)
        assert np.max(err) <= self.SCALED_RTOL

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_branches_agree_at_the_seam(self, order):
        # x = 2 takes the series, the double above it the Chebyshev series
        assert SEAM == 2.0
        xs = np.array([np.nextafter(2.0, 0.0), 2.0, np.nextafter(2.0, 3.0)])
        got = scaled(order, xs)
        assert np.max(np.abs(got / mpmath_scaled(order, xs) - 1.0)) <= self.SCALED_RTOL
        assert np.max(np.abs(got / got[1] - 1.0)) <= self.SCALED_RTOL


class TestAlgebraicIdentities:
    def test_recurrence(self):
        x = np.logspace(-6, 2, 400)
        lhs = bessel_k(2, x)
        rhs = bessel_k(0, x) + 2.0 * bessel_k(1, x) / x
        assert np.max(np.abs(lhs / rhs - 1.0)) < 1e-10

    def test_recurrence_spot_values(self):
        for x in (0.1, 1.0, 10.0):
            assert bessel_k(2, x) == pytest.approx(
                bessel_k(0, x) + 2.0 * bessel_k(1, x) / x, rel=1e-10
            )

    def test_wronskian_like_positivity(self):
        x = np.logspace(-6, 2, 400)
        expr = x * (bessel_k(0, x) * bessel_k(2, x) - bessel_k(1, x) ** 2)
        assert np.all(expr > 0.0)

    def test_monotone_decay(self):
        x = np.logspace(-6, 2, 400)
        for order in (0, 1, 2):
            v = bessel_k(order, x)
            assert np.all(np.diff(v) < 0.0)

    def test_small_argument_log_limit(self):
        x = 1e-6
        assert abs(bessel_k(0, x) + np.log(x / 2.0) + EULER_GAMMA) < 1e-10


class TestScaledVariants:
    def test_consistency_with_raw(self):
        x = np.logspace(-4, 2, 200)
        for order in (0, 1, 2):
            assert np.allclose(
                scaled(order, x), np.exp(x) * bessel_k(order, x),
                rtol=1e-12,
            )

    def test_finite_past_underflow(self):
        x = np.array([700.0, 800.0, 5000.0])
        for order in (0, 1, 2):
            v = scaled(order, x)
            assert np.all(np.isfinite(v)) and np.all(v > 0.0)
        # leading asymptotic behavior sqrt(pi/(2x))
        x = 5000.0
        assert scaled(0, np.array([x]))[0] == pytest.approx(np.sqrt(np.pi / (2 * x)), rel=1e-3)


class TestDomainAndTypes:
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_nonpositive_and_nonfinite(self, bad):
        with pytest.raises(ValueError):
            bessel_k(0, bad)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            bessel_k(3, 1.0)

    def test_subnormal_arguments(self):
        # K0 ~ -ln(x/2) - gamma stays accurate down to the smallest double;
        # K1 ~ 1/x and K2 ~ 2/x^2 overflow to inf, with no numpy warning
        for x in (1e-310, 1.5e-323, 5e-324):
            k0 = math.log(2.0) - math.log(x) - EULER_GAMMA
            assert bessel_k(0, x) == pytest.approx(k0, rel=1e-15)
            with np.errstate(over="ignore"):  # 1/x overflows, as it should
                k2_scaled = scaled(2, np.array([x]))[0]
            assert bessel_k(1, x) == bessel_k(2, x) == k2_scaled == math.inf

    def test_scalar_in_float_out_and_shape_kept(self):
        for x in (1.0, 3.0, np.float64(1e-70)):
            assert type(bessel_k(2, x)) is float
        xs = np.array([[0.5, 2.0], [2.5, 800.0]])
        assert bessel_k(1, xs).shape == (2, 2)
        assert np.array_equal(bessel_k(1, xs).ravel(), bessel_k(1, xs.ravel()))
