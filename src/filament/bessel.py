"""Modified Bessel functions of the second kind K0, K1, K2, from numpy alone.

These are the only transcendental ingredients of the slender-body
multipliers.  K0 and K1 have two branches, split at the seam x = 2,
each of fixed cost in x:

- x <= 2: the ascending series (Abramowitz & Stegun 9.6.13 and 9.6.11),

      K0 = -(ln(x/2) + gamma) I0(x) + sum_k H_k y^k / (k!)^2,
      K1 = 1/x + ln(x/2) I1(x)
           - (x/4) sum_k (H_k + H_{k+1} - 2 gamma) y^k / (k! (k+1)!),

  with y = x^2/4, H_k the k-th harmonic number and I0, I1 their own
  series in y, each cut after SERIES_TERMS terms (the first term left
  out is below 1e-25 of K0 and K1 at x = 2) and summed by Horner's rule;
- x > 2: sqrt(x) e^x K_j(x), j = 0, 1, as a Chebyshev series in
  t = 4/x - 1 summed by Clenshaw's recurrence.  Its coefficients,
  _CHEBYSHEV, are written and checked by tools/bessel_coefficients.py
  (degree, mapping and fit method are stated there).

K2 comes from the recurrence K2 = K0 + 2 K1 / x.  Exponentially scaled
variants e^x K_j(x) are provided for the multiplier ratios, which stay
O(1) even where the raw K values underflow.  Against 50-digit mpmath,
e^x K_j(x), j = 0, 1, 2, is within 2e-15 relative on [1e-70, 3e4]
(tests/test_bessel.py); an independent quadrature oracle lives in the
test suite too.
"""

from fractions import Fraction
from math import factorial

import numpy as np

SEAM = 2.0  # the series below and at it, the Chebyshev series above
SERIES_TERMS = 16
EULER_GAMMA = 0.5772156649015329
_LN2 = 0.6931471805599453


def _series_coefficients():
    """Rows k = 0..SERIES_TERMS-1 of the y^k coefficients of I0, the
    K0 sum, I1/(x/2) and half the K1 sum (module docstring)."""
    rows, harmonic = [], Fraction(0)
    for k in range(SERIES_TERMS):
        following = harmonic + Fraction(1, k + 1)
        a = 1.0 / factorial(k) ** 2
        b = 1.0 / (factorial(k) * factorial(k + 1))
        rows.append((a, (float(harmonic) - EULER_GAMMA) * a, b,
                     0.5 * (float(harmonic + following) - 2.0 * EULER_GAMMA) * b))
        harmonic = following
    return np.array(rows)[:, :, None]


_SERIES = _series_coefficients()

# sqrt(x) e^x K0(x) and sqrt(x) e^x K1(x) for x > 2 as Chebyshev series
# in t = 4/x - 1: row m holds the T_m coefficients of the pair, as a
# column that broadcasts over the points.
# Written by tools/bessel_coefficients.py.
_CHEBYSHEV = np.array([
    (1.2201515410329777, 1.3603130952422213),
    (-0.0314481013119645, 0.10392373657681724),
    (0.0015698838857300533, -0.002857816859622779),
    (-0.00012849549581627802, 0.00019521551847135162),
    (1.39498137188765e-05, -1.936197974166083e-05),
    (-1.8317555227191195e-06, 2.406484947837217e-06),
    (2.766813639445015e-07, -3.5019606030878126e-07),
    (-4.660489897687948e-08, 5.7410841254500495e-08),
    (8.574034017414225e-09, -1.0345762465678097e-08),
    (-1.6975345093890614e-09, 2.0150497551970347e-09),
    (3.5773972814003283e-10, -4.1903547593419254e-10),
    (-7.957489244477396e-11, 9.218315187605315e-11),
    (1.8559491149549264e-11, -2.129967838427791e-11),
    (-4.514597883374519e-12, 5.139639673482343e-12),
    (1.1403405882073441e-12, -1.2891739609498229e-12),
    (-2.9800969231481784e-13, 3.348419666052243e-13),
    (8.032890775068375e-14, -8.976705182010146e-14),
    (-2.2275133267462965e-14, 2.4771544242195988e-14),
    (6.340076476276646e-15, -7.0198370892147685e-15),
    (-1.848593377920907e-15, 2.038703166239861e-15),
    (5.5120559994043335e-16, -6.057047270643018e-16),
    (-1.6782311257549006e-16, 1.8380935752430455e-16),
    (5.2103917776435543e-17, -5.689462849193648e-17),
])[:, :, None]


def _series(x):
    """K0 and K1 at x <= SEAM, stacked (2, x.size)."""
    y = 0.25 * x * x
    acc = _SERIES[-1] * y
    for c in _SERIES[-2:0:-1]:
        acc += c
        acc *= y
    acc += _SERIES[0]
    i0, sum0, i1, sum1 = acc
    # ln(x/2) from x = m 2^e, m in [0.5, 1): no cancellation near x = 2,
    # and exact halving for subnormal x, where 0.5 * x would round
    m, e = np.frexp(x)
    log = np.log(m) + (e - 1) * _LN2
    return np.array((sum0 - log * i0, 1.0 / x + 0.5 * x * (log * i1 - sum1)))


def _chebyshev(x):
    """sqrt(x) e^x K0 and sqrt(x) e^x K1 at x > SEAM, stacked (2, x.size)."""
    t = 4.0 / x - 1.0
    two_t = 2.0 * t
    b1 = np.zeros((2, x.size))
    b2, b0 = np.zeros_like(b1), np.empty_like(b1)
    for c in _CHEBYSHEV[:0:-1]:
        np.multiply(two_t, b1, out=b0)
        b0 -= b2
        b0 += c
        b1, b2, b0 = b0, b1, b2
    b1 *= t
    b1 -= b2
    b1 += _CHEBYSHEV[0]
    return b1


def k0_k1(x, scaled):
    """K0(x) and K1(x), times e^x if scaled, stacked (2, x.size), at a 1-D
    array x of positive finite reals, unchecked: the multipliers' one
    evaluation, and the core of bessel_k and bessel_k_scaled."""
    out = np.empty((2, x.size))
    near = x <= SEAM
    xs, xl = x[near], x[~near]
    if xs.size:  # a branch with no points costs nothing
        out[:, near] = _series(xs) * np.exp(xs) if scaled else _series(xs)
    if xl.size:
        out[:, ~near] = _chebyshev(xl) * ((1.0 if scaled else np.exp(-xl)) / np.sqrt(xl))
    return out


def _validate(order, x):
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
    xa = np.asarray(x, dtype=float)
    if np.any(~np.isfinite(xa)) or np.any(xa <= 0.0):
        raise ValueError("argument must be a positive finite real")
    return xa


def _evaluate(order, x, scaled):
    xa = _validate(order, x)
    flat = xa.reshape(-1)
    with np.errstate(over="ignore"):  # past the overflow threshold K is inf
        k0, k1 = k0_k1(flat, scaled)
        out = k0 if order == 0 else k1 if order == 1 else k0 + 2.0 * k1 / flat
    return out.reshape(xa.shape) if np.ndim(x) else float(out[0])


def bessel_k(order, x):
    """K_order(x) for order in {0, 1, 2} and x > 0 (scalar or array).

    For x beyond the underflow threshold the true value is below the
    smallest normal double; the returned value is then 0.0.
    """
    return _evaluate(order, x, scaled=False)


def bessel_k_scaled(order, x):
    """e^x * K_order(x); positive for every x > 0, and finite except
    where K_order overflows (K1 below x ~ 6e-309, K2 below ~1e-154)."""
    return _evaluate(order, x, scaled=True)
