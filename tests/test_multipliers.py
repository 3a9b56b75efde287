"""Tests for the slender-body multipliers and their bound families."""

import math

import mpmath
import numpy as np
import pytest
from scipy import special

from filament import multipliers
from filament.multipliers import (
    EPSILON_MIN,
    ForceMapStack,
    MultiplierTable,
    build_table,
    check_epsilon,
    eval_mn,
    eval_mt,
    force_map_for,
    low_band,
    lowk_rft_difference,
    rft_constants,
)

EPS_SWEEP = (1e-2, 1e-3, 1e-4, 1e-5)
EULER_GAMMA = 0.5772156649015329


def lowk_reference_mt(epsilon, k):
    """Leading low-wavenumber expansion of m_t.

    (-1 - 2*gamma - 2*log(pi) - 2*log(eps*|k|)) / (4*pi), accurate to
    O((eps k log(eps k))^2) for 2*pi*eps*|k| << 1.
    """
    x = epsilon * np.abs(np.asarray(k, dtype=float))
    return (-1.0 - 2.0 * EULER_GAMMA - 2.0 * np.log(np.pi) - 2.0 * np.log(x)) / (4.0 * np.pi)


def lowk_reference_mn(epsilon, k):
    """Leading low-wavenumber expansion of m_n.

    (1 - 2*gamma - 2*log(pi) - 2*log(eps*|k|)) / (8*pi).
    """
    x = epsilon * np.abs(np.asarray(k, dtype=float))
    return (1.0 - 2.0 * EULER_GAMMA - 2.0 * np.log(np.pi) - 2.0 * np.log(x)) / (8.0 * np.pi)


def mpmath_mt(eps, k, dps=50):
    """Extended-precision evaluation of the tangential multiplier."""
    with mpmath.workdps(dps):
        x = 2 * mpmath.pi * eps * abs(k)
        K0, K1 = mpmath.besselk(0, x), mpmath.besselk(1, x)
        return float((2 * K0 * K1 + x * (K0**2 - K1**2)) / (4 * mpmath.pi * x * K1**2))


def mpmath_mn(eps, k, dps=50):
    with mpmath.workdps(dps):
        x = 2 * mpmath.pi * eps * abs(k)
        K0, K1, K2 = (mpmath.besselk(j, x) for j in (0, 1, 2))
        num = 2 * K0 * K1 * K2 + x * (K1**2 * (K0 + K2) - 2 * K0**2 * K2)
        den = 2 * mpmath.pi * x * (4 * K1**2 * K2 + x * K1 * (K1**2 - K0 * K2))
        return float(num / den)


class TestZeroModeAndSymmetry:
    @pytest.mark.parametrize("eps", EPS_SWEEP)
    def test_zero_modes(self, eps):
        log_eps = abs(math.log(eps))
        assert eval_mt(eps, 0) == log_eps / (2 * math.pi)
        assert eval_mn(eps, 0) == log_eps / (4 * math.pi)

    def test_evenness(self):
        for k in (1, 3, 17, 4096):
            assert eval_mt(1e-3, k) == eval_mt(1e-3, -k)
            assert eval_mn(1e-3, k) == eval_mn(1e-3, -k)

    def test_determinism(self):
        a = eval_mn(1e-4, np.arange(1, 100))
        b = eval_mn(1e-4, np.arange(1, 100))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("bad", [0.0, 1.0, 1.5, -0.1, 1e-80, 9.99e-71, np.nan, np.inf])
    def test_epsilon_domain(self, bad):
        with pytest.raises(ValueError):
            eval_mt(bad, 1)
        with pytest.raises(ValueError):
            eval_mn(bad, 1)

    def test_epsilon_domain_edges(self):
        # [EPSILON_MIN, 1): finite and positive at the lower edge, where
        # m_n would overflow a few decades further down
        assert EPSILON_MIN == 1e-70
        k = np.array([0, 1, 1000, 4096])
        for m in (eval_mt(1e-70, k), eval_mn(1e-70, k)):
            assert np.all(np.isfinite(m)) and np.all(m > 0.0)
        assert eval_mt(1e-70, 1) == pytest.approx(mpmath_mt(1e-70, 1), rel=1e-15)
        assert eval_mn(1e-70, 1) == pytest.approx(mpmath_mn(1e-70, 1), rel=1e-15)
        with pytest.raises(ValueError, match=r"^epsilon must lie in \[1e-70, 1\), got 1.0$"):
            rft_constants(1.0)
        with pytest.raises(ValueError, match=r"^epsilon must lie in \[1e-70, 0.1\], got 0.2$"):
            check_epsilon(0.2, cap=0.1)
        assert check_epsilon(0.1, cap=0.1) == 0.1

    @pytest.mark.parametrize("entry", [
        lambda eps: eval_mt(eps, np.arange(9)), lambda eps: eval_mn(eps, np.arange(9)),
        lambda eps: low_band(eps, np.arange(9)),
        lambda eps: lowk_rft_difference(eps, np.arange(9), "normal"), rft_constants,
        lambda eps: build_table(eps, 8), lambda eps: force_map_for("leps", eps, 32),
        lambda eps: force_map_for("rft", eps, 32),
    ], ids=["eval_mt", "eval_mn", "low_band", "lowk_rft_difference", "rft_constants",
            "build_table", "force_map_for-leps", "force_map_for-rft"])
    def test_each_entry_checks_epsilon_once(self, monkeypatch, entry):
        calls = []
        check = multipliers.check_epsilon
        monkeypatch.setattr(multipliers, "check_epsilon",
                            lambda *a, **kw: calls.append(a) or check(*a, **kw))
        entry(1e-3)
        assert calls == [(1e-3,)]


class TestExtendedPrecisionOracle:
    @pytest.mark.parametrize("eps,k", [(1e-2, 1), (1e-2, 100), (1e-3, 5),
                                       (1e-4, 4096), (1e-5, 17)])
    def test_mt_matches_mpmath(self, eps, k):
        assert eval_mt(eps, k) == pytest.approx(mpmath_mt(eps, k), rel=1e-12)

    @pytest.mark.parametrize("eps,k", [(1e-2, 1), (1e-2, 100), (1e-3, 5),
                                       (1e-4, 4096), (1e-5, 17)])
    def test_mn_matches_mpmath(self, eps, k):
        assert eval_mn(eps, k) == pytest.approx(mpmath_mn(eps, k), rel=1e-12)

    def test_near_underflow_regime(self):
        # x = 2 pi eps k around 600 and far beyond: the scaled-Bessel
        # ratio evaluation must agree with extended precision and stay
        # on the asymptotic trend 1/m ~ c eps k.
        eps = 1e-2
        k600 = int(round(600 / (2 * math.pi * eps)))
        assert eval_mt(eps, k600) == pytest.approx(mpmath_mt(eps, k600, dps=300), rel=1e-10)
        assert eval_mn(eps, k600) == pytest.approx(mpmath_mn(eps, k600, dps=300), rel=1e-10)
        k_huge = 10 * k600  # raw Bessel values underflow to 0 here
        assert 1.0 / eval_mt(eps, k_huge) == pytest.approx(8 * math.pi**2 * eps * k_huge, rel=1e-4)
        assert 1.0 / eval_mn(eps, k_huge) == pytest.approx(6 * math.pi**2 * eps * k_huge, rel=1e-4)


class TestLowWavenumberExpansion:
    @pytest.mark.parametrize("eps,k", [(1e-4, 1), (1e-5, 3), (1e-6, 1)])
    def test_mt_expansion(self, eps, k):
        envelope = 6.0 * (eps * k * math.log(eps * k)) ** 2
        assert abs(eval_mt(eps, k) - lowk_reference_mt(eps, k)) < envelope

    @pytest.mark.parametrize("eps,k", [(1e-4, 1), (1e-5, 3), (1e-6, 1)])
    def test_mn_expansion(self, eps, k):
        envelope = 6.0 * (eps * k * math.log(eps * k)) ** 2
        assert abs(eval_mn(eps, k) - lowk_reference_mn(eps, k)) < envelope

    def test_expansion_structure_small_k(self):
        # tangential difference reproduces the -2 log|k| structure at eps=1e-6
        eps = 1e-6
        d1 = lowk_rft_difference(eps, 1, "tangential")
        d2 = lowk_rft_difference(eps, 2, "tangential")
        expected = (d1 - 2.0 * math.log(2.0) / (4 * math.pi))
        assert d2 == pytest.approx(expected, abs=1e-6)
        # and the k=1 value is the eps-independent expansion constant
        const = (-1 - 2 * EULER_GAMMA - 2 * math.log(math.pi)) / (4 * math.pi)
        assert d1 == pytest.approx(const, abs=1e-8)


class TestRftDifference:
    def test_zero_at_k0(self):
        assert lowk_rft_difference(1e-3, 0, "tangential") == 0.0
        assert lowk_rft_difference(1e-3, 0, "normal") == 0.0

    def test_domain_error_beyond_crossover(self):
        eps = 1e-3
        k_bad = int(1.0 / (2 * math.pi * eps)) + 1
        with pytest.raises(ValueError):
            lowk_rft_difference(eps, k_bad, "tangential")
        with pytest.raises(ValueError):
            lowk_rft_difference(eps, -k_bad, "normal")

    def test_direction_validated(self):
        with pytest.raises(ValueError):
            lowk_rft_difference(1e-3, 1, "sideways")

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1 / (2 * math.pi * 40)])
    def test_rejects_exactly_off_the_low_band(self, eps):
        k = np.arange(-300, 301)
        low = low_band(eps, k)
        assert np.array_equal(low, np.abs(k) < 1.0 / (2.0 * math.pi * eps))
        assert np.array_equal(low, low[::-1]) and 0 < low.sum() < k.size
        for kk, inside in zip(k.tolist(), low.tolist()):
            for direction in ("tangential", "normal"):
                if inside:
                    assert np.isfinite(lowk_rft_difference(eps, kk, direction))
                else:
                    with pytest.raises(ValueError, match=r"requires \|k\|"):
                        lowk_rft_difference(eps, kk, direction)
        # an array with one k past the band is rejected whole
        with pytest.raises(ValueError):
            lowk_rft_difference(eps, k[low].tolist() + [int(k[~low][-1])], "normal")

    def test_eps_stability_at_fixed_k(self):
        # the difference at fixed k is eps-independent up to the
        # O((eps k log eps k)^2) envelopes
        for direction in ("tangential", "normal"):
            a = lowk_rft_difference(1e-3, 4, direction)
            b = lowk_rft_difference(1e-5, 4, direction)
            envelope = 6.0 * (1e-3 * 4 * math.log(1e-3 * 4)) ** 2
            assert abs(a - b) < 2.0 * envelope


class TestPositivityAndComparability:
    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
    def test_positive_up_to_4096(self, eps):
        table = build_table(eps, 4096)
        assert np.all(table.mt > 0.0)
        assert np.all(table.mn > 0.0)

    def test_comparability_sandwich(self):
        # m_n <= m_t <= 2 m_n holds pointwise for all tested eps, k
        for eps in EPS_SWEEP:
            k = np.arange(0, 4097)
            mt = eval_mt(eps, k)
            mn = eval_mn(eps, k)
            assert np.all(mt <= 2.0 * mn * (1.0 + 1e-12))
            assert np.all(mt >= mn * 0.999 * (3.0 / 4.0))

    def test_rft_constants(self):
        c = rft_constants(1e-3)
        assert c.tangential == 2.0 * c.normal
        assert c.tangential == abs(math.log(1e-3)) / (2 * math.pi)


class TestTable:
    def test_table_zero_mode_and_shape(self):
        t = build_table(1e-3, 128)
        assert isinstance(t, MultiplierTable)
        assert t.mt.shape == (129,)
        assert t.mt[0] == abs(math.log(1e-3)) / (2 * math.pi)

    def test_tables_nest_bitwise(self):
        small = build_table(1e-3, 64)
        large = build_table(1e-3, 128)
        assert np.array_equal(small.mt, large.mt[:65])
        assert np.array_equal(small.mn, large.mn[:65])

    @pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-4, 1e-8, 1e-30, 1e-70])
    def test_table_matches_the_scipy_formulas(self, eps):
        # the module's formulas with scipy's k0e, k1e and kve(2, .) for K
        kmax = 4096
        k = np.arange(1, kmax + 1)
        x = 2.0 * math.pi * eps * k
        k0, k1, k2 = special.k0e(x), special.k1e(x), special.kve(2, x)
        mt = (2.0 * k0 * k1 + x * (k0 * k0 - k1 * k1)) / (4.0 * np.pi * x * k1 * k1)
        num = 2.0 * k0 * k1 * k2 + x * (k1 * k1 * (k0 + k2) - 2.0 * k0 * k0 * k2)
        den = 2.0 * np.pi * x * (4.0 * k1 * k1 * k2 + x * k1 * (k1 * k1 - k0 * k2))
        table = build_table(eps, kmax)
        # 1e-14 up to x = 1.  Past it k0^2 - k1^2 and k1^2 - k0 k2 are
        # ~K^2/x, so the formulas scale a rounding of either side's K by
        # ~x: at x = 2,500 each side is ~1e-12 from 50-digit mpmath.
        bound = 5e-15 * (1.0 + x)
        assert np.all(np.abs(table.mt[1:] / mt - 1.0) <= bound)
        assert np.all(np.abs(table.mn[1:] / (num / den) - 1.0) <= bound)
        # one evaluation of K0 and K1 for both rows changes no value
        assert np.array_equal(table.mt, eval_mt(eps, np.arange(kmax + 1)))
        assert np.array_equal(table.mn, eval_mn(eps, np.arange(kmax + 1)))

    def test_table_immutable(self):
        t = build_table(1e-3, 16)
        with pytest.raises(ValueError):
            t.mt[0] = 0.0

    def test_kmax_validated(self):
        with pytest.raises(ValueError):
            build_table(1e-3, 0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("field", ["mt", "mn"])
    def test_bad_entry_rejected_at_construction(self, field, bad):
        t = build_table(1e-3, 16)
        values = getattr(t, field).copy()
        values[5] = bad
        with pytest.raises(ValueError, match="positive and finite"):
            MultiplierTable(t.epsilon, t.kmax, **{"mt": t.mt, "mn": t.mn, field: values})

    def test_length_must_be_kmax_plus_one(self):
        t = build_table(1e-3, 16)
        with pytest.raises(ValueError, match="shape"):
            MultiplierTable(t.epsilon, t.kmax, t.mt[:-1], t.mn)

    def test_table_keeps_read_only_copies(self):
        t = build_table(1e-3, 16)
        mt = t.mt.copy()
        table = MultiplierTable(t.epsilon, t.kmax, mt, t.mn)
        mt[3] = -1.0
        assert table.mt[3] == t.mt[3]
        assert not table.mt.flags.writeable and not table.mn.flags.writeable


class TestForceMaps:
    def test_force_map_for_checks_the_model(self):
        with pytest.raises(ValueError, match=r"^model must be 'leps' or 'rft', got 'stokes'$"):
            force_map_for("stokes", 1e-3, 32)
        assert force_map_for("leps", 1e-3, 32).kmax == 16
        assert force_map_for("rft", 1e-3, 32) == rft_constants(1e-3)

    def test_stack_takes_the_leps_members_first(self):
        with pytest.raises(ValueError, match="leps members of a force-map stack come first"):
            ForceMapStack([rft_constants(1e-3), build_table(1e-3, 16)], 17)

    def test_stack_needs_tables_over_the_spectrum(self):
        with pytest.raises(ValueError, match="multiplier table shorter than the resolved spectrum"):
            ForceMapStack([build_table(1e-3, 8)], 17)
