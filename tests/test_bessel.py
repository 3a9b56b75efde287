"""Tests for the modified Bessel kernel K0, K1, K2.

The reference oracle is adaptive quadrature of the integral
representation K_j(x) = int_0^inf e^{-x cosh t} cosh(j t) dt, a code
path fully independent of the production evaluations.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from filament.bessel import bessel_k, bessel_k_scaled

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
                bessel_k_scaled(order, x), np.exp(x) * bessel_k(order, x),
                rtol=1e-12,
            )

    def test_finite_past_underflow(self):
        for x in (700.0, 800.0, 5000.0):
            for order in (0, 1, 2):
                v = bessel_k_scaled(order, x)
                assert np.isfinite(v) and v > 0.0
        # leading asymptotic behavior sqrt(pi/(2x))
        x = 5000.0
        assert bessel_k_scaled(0, x) == pytest.approx(np.sqrt(np.pi / (2 * x)), rel=1e-3)


class TestDomainAndTypes:
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_nonpositive_and_nonfinite(self, bad):
        with pytest.raises(ValueError):
            bessel_k(0, bad)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            bessel_k(3, 1.0)
