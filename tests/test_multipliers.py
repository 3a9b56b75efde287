"""Tests for the slender-body multipliers and their bound families."""

import math

import mpmath
import numpy as np
import pytest
from scipy import special

from filament import experiments, multipliers
from filament.cli import main
from filament.multipliers import (
    EPSILON_MIN,
    ForceMapStack,
    MultiplierTable,
    build_table,
    check_epsilon,
    force_map_for,
    low_band,
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


def rows(eps, kmax):
    """The rows m_t, m_n of the table of eps up to kmax."""
    table = build_table(eps, kmax)
    return table.mt, table.mn


def rft_differences(eps, kmax):
    """The table rows of eps up to kmax minus the RFT coefficients, on the
    low band only (NaN off it), and the low band."""
    low = low_band(eps, np.arange(kmax + 1))
    c = rft_constants(eps)
    return [np.where(low, m - coefficient, np.nan)
            for m, coefficient in zip(rows(eps, kmax), (c.tangential, c.normal))], low


class TestZeroModeAndSymmetry:
    @pytest.mark.parametrize("eps", EPS_SWEEP)
    def test_zero_modes(self, eps):
        log_eps = abs(math.log(eps))
        mt, mn = rows(eps, 1)
        assert mt[0] == log_eps / (2 * math.pi)
        assert mn[0] == log_eps / (4 * math.pi)

    def test_determinism(self):
        assert np.array_equal(build_table(1e-4, 99).mn, build_table(1e-4, 99).mn)

    @pytest.mark.parametrize("bad", [0.0, 1.0, 1.5, -0.1, 1e-80, 9.99e-71, np.nan, np.inf])
    def test_epsilon_domain(self, bad):
        with pytest.raises(ValueError):
            build_table(bad, 1)
        with pytest.raises(ValueError):
            rft_constants(bad)

    def test_epsilon_domain_edges(self):
        # [EPSILON_MIN, 1): finite and positive at the lower edge, where
        # m_n would overflow a few decades further down
        assert EPSILON_MIN == 1e-70
        k = np.array([0, 1, 1000, 4096])
        mt, mn = rows(1e-70, 4096)
        for m in (mt[k], mn[k]):
            assert np.all(np.isfinite(m)) and np.all(m > 0.0)
        assert mt[1] == pytest.approx(mpmath_mt(1e-70, 1), rel=1e-15)
        assert mn[1] == pytest.approx(mpmath_mn(1e-70, 1), rel=1e-15)
        with pytest.raises(ValueError, match=r"^epsilon must lie in \[1e-70, 1\), got 1.0$"):
            rft_constants(1.0)
        with pytest.raises(ValueError, match=r"^epsilon must lie in \[1e-70, 0.1\], got 0.2$"):
            check_epsilon(0.2, cap=0.1)
        assert check_epsilon(0.1, cap=0.1) == 0.1

    @pytest.mark.parametrize("entry", [
        lambda eps: low_band(eps, np.arange(9)), rft_constants,
        lambda eps: build_table(eps, 8), lambda eps: force_map_for("leps", eps, 32),
        lambda eps: force_map_for("rft", eps, 32),
    ], ids=["low_band", "rft_constants", "build_table", "force_map_for-leps",
            "force_map_for-rft"])
    def test_each_entry_checks_epsilon_once(self, monkeypatch, entry):
        calls = []
        check = multipliers.check_epsilon
        monkeypatch.setattr(multipliers, "check_epsilon",
                            lambda *a, **kw: calls.append(a) or check(*a, **kw))
        entry(1e-3)
        assert calls == [(1e-3,)]


class TestZeroModesAreTheRftCoefficients:
    def test_bit_for_bit(self):
        # 1,000 eps over the whole domain, and two where the zero modes
        # once differed from the coefficients in the last bit
        for eps in np.append(np.geomspace(1e-70, 0.1, 1000), (5e-3, 3e-7)):
            table, c = build_table(eps, 1), rft_constants(eps)
            assert table.mt[0] == c.tangential, eps
            assert table.mn[0] == c.normal, eps


class TestOneEvaluation:
    """Every caller reads one table per eps: one K0, K1 evaluation each."""

    @pytest.mark.parametrize("call,evaluations", [
        (lambda tmp_path: experiments._bound_suite_one_eps(1e-3, 4096), 1),
        (lambda tmp_path: main(["multiplier-dump", "--epsilon", "1e-3", "--kmax", "4096",
                                "--out", str(tmp_path / "mult.csv")]), 1),
        # a bound-suite table and a coercivity table per eps
        (lambda tmp_path: experiments.lemma_suite((1e-2, 1e-3), kmax=256), 4),
    ], ids=["bound-suite", "multiplier-dump", "lemma-suite"])
    def test_bessel_evaluations(self, tmp_path, monkeypatch, call, evaluations):
        calls = []
        k0_k1 = multipliers.k0_k1
        monkeypatch.setattr(multipliers, "k0_k1",
                            lambda *a, **kw: calls.append(a) or k0_k1(*a, **kw))
        call(tmp_path)
        assert len(calls) == evaluations


class TestExtendedPrecisionOracle:
    @pytest.mark.parametrize("eps,k", [(1e-2, 1), (1e-2, 100), (1e-3, 5),
                                       (1e-4, 4096), (1e-5, 17)])
    def test_mt_matches_mpmath(self, eps, k):
        assert build_table(eps, k).mt[k] == pytest.approx(mpmath_mt(eps, k), rel=1e-12)

    @pytest.mark.parametrize("eps,k", [(1e-2, 1), (1e-2, 100), (1e-3, 5),
                                       (1e-4, 4096), (1e-5, 17)])
    def test_mn_matches_mpmath(self, eps, k):
        assert build_table(eps, k).mn[k] == pytest.approx(mpmath_mn(eps, k), rel=1e-12)

    def test_near_underflow_regime(self):
        # x = 2 pi eps k around 600 and far beyond: the scaled-Bessel
        # ratio evaluation must agree with extended precision and stay
        # on the asymptotic trend 1/m ~ c eps k.
        eps = 1e-2
        k600 = int(round(600 / (2 * math.pi * eps)))
        k_huge = 10 * k600  # raw Bessel values underflow to 0 here
        mt, mn = rows(eps, k_huge)
        assert mt[k600] == pytest.approx(mpmath_mt(eps, k600, dps=300), rel=1e-10)
        assert mn[k600] == pytest.approx(mpmath_mn(eps, k600, dps=300), rel=1e-10)
        assert 1.0 / mt[k_huge] == pytest.approx(8 * math.pi**2 * eps * k_huge, rel=1e-4)
        assert 1.0 / mn[k_huge] == pytest.approx(6 * math.pi**2 * eps * k_huge, rel=1e-4)


class TestLowWavenumberExpansion:
    @pytest.mark.parametrize("eps,k", [(1e-4, 1), (1e-5, 3), (1e-6, 1)])
    def test_mt_expansion(self, eps, k):
        envelope = 6.0 * (eps * k * math.log(eps * k)) ** 2
        assert abs(build_table(eps, k).mt[k] - lowk_reference_mt(eps, k)) < envelope

    @pytest.mark.parametrize("eps,k", [(1e-4, 1), (1e-5, 3), (1e-6, 1)])
    def test_mn_expansion(self, eps, k):
        envelope = 6.0 * (eps * k * math.log(eps * k)) ** 2
        assert abs(build_table(eps, k).mn[k] - lowk_reference_mn(eps, k)) < envelope

    def test_expansion_structure_small_k(self):
        # tangential difference reproduces the -2 log|k| structure at eps=1e-6
        eps = 1e-6
        (dt, _), _ = rft_differences(eps, 2)
        d1, d2 = dt[1], dt[2]
        expected = (d1 - 2.0 * math.log(2.0) / (4 * math.pi))
        assert d2 == pytest.approx(expected, abs=1e-6)
        # and the k=1 value is the eps-independent expansion constant
        const = (-1 - 2 * EULER_GAMMA - 2 * math.log(math.pi)) / (4 * math.pi)
        assert d1 == pytest.approx(const, abs=1e-8)


class TestRftDifference:
    def test_zero_at_k0(self):
        diffs, _ = rft_differences(1e-3, 1)
        assert [d[0] for d in diffs] == [0.0, 0.0]

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1 / (2 * math.pi * 40)])
    def test_rejects_exactly_off_the_low_band(self, eps):
        # low_band keeps exactly |k| < 1/(2 pi eps), and the differences
        # are finite there
        k = np.arange(-300, 301)
        low = low_band(eps, k)
        assert np.array_equal(low, np.abs(k) < 1.0 / (2.0 * math.pi * eps))
        assert np.array_equal(low, low[::-1]) and 0 < low.sum() < k.size
        diffs, low = rft_differences(eps, 300)
        for d in diffs:
            assert np.all(np.isfinite(d[low]))

    def test_eps_stability_at_fixed_k(self):
        # the difference at fixed k is eps-independent up to the
        # O((eps k log eps k)^2) envelopes
        for a, b in zip(rft_differences(1e-3, 4)[0], rft_differences(1e-5, 4)[0]):
            envelope = 6.0 * (1e-3 * 4 * math.log(1e-3 * 4)) ** 2
            assert abs(a[4] - b[4]) < 2.0 * envelope


class TestPositivityAndComparability:
    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
    def test_positive_up_to_4096(self, eps):
        table = build_table(eps, 4096)
        assert np.all(table.mt > 0.0)
        assert np.all(table.mn > 0.0)

    def test_comparability_sandwich(self):
        # m_n <= m_t <= 2 m_n holds pointwise for all tested eps, k
        for eps in EPS_SWEEP:
            mt, mn = rows(eps, 4096)
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

    @pytest.mark.parametrize("size", [1, 3, 6])
    def test_stack_rows(self, size):
        # a member's rows m_t, m_n: a table's first 17 multipliers, an
        # rft map's constants at every k, bit for bit
        tables = [build_table(eps, 32) for eps in (1e-2, 1e-4, 1e-6)]
        rfts = [rft_constants(eps) for eps in (1e-2, 1e-4, 1e-70)]
        maps = tables[:size // 2] + rfts[:size - size // 2]
        stack = ForceMapStack(maps, 17)
        assert stack.mt.shape == stack.mn.shape == (size, 17)
        for mt, mn, m in zip(stack.mt, stack.mn, maps):
            if m.model == "leps":
                assert mt.tobytes() == m.mt[:17].tobytes()
                assert mn.tobytes() == m.mn[:17].tobytes()
            else:
                assert np.all(mt == m.tangential) and np.all(mn == m.normal)

    def test_stack_takes_the_leps_members_first(self):
        with pytest.raises(ValueError, match="leps members of a force-map stack come first"):
            ForceMapStack([rft_constants(1e-3), build_table(1e-3, 16)], 17)

    def test_stack_needs_tables_over_the_spectrum(self):
        with pytest.raises(ValueError, match="multiplier table shorter than the resolved spectrum"):
            ForceMapStack([build_table(1e-3, 8)], 17)
