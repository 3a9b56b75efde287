"""Compute the Chebyshev coefficients that src/filament/bessel.py holds
for x > 2, and check the checked-in ones.

    python3 tools/bessel_coefficients.py          # print the block
    python3 tools/bessel_coefficients.py --check  # compare, exit 1 if off

Past the seam x = 2, bessel.py evaluates

    f_j(x) = sqrt(x) e^x K_j(x),  j = 0, 1,

as a Chebyshev series of degree DEGREE = 22 in t = 4/x - 1, which maps
(2, inf) onto (-1, 1] (the mapping Cephes uses for k0e and k1e).  f_j
tends to sqrt(pi/2) as x -> inf and is smooth in t on [-1, 1].

Fit method: Chebyshev interpolation at NODES = 128 first-kind nodes
t_i = cos(pi (i + 1/2) / NODES), with f_j(4/(1 + t_i)) from mpmath's
besselk and the discrete cosine sums all in DPS = 50 digits; the
interpolant's coefficients of degree 0..DEGREE are kept and rounded to
the nearest double.  Interpolation at 128 nodes aliases coefficient m
only with those of degree >= 2*128 - m, which are below 1e-60, so these
are the truncated Chebyshev series of f_j.  The tail left out,
sum |c_m| over m > DEGREE, is below 3e-17 of f_j, under a fifth of an ulp.

--check prints the largest difference of each checked-in coefficient
from the fresh fit, in units of the fresh coefficient's last place, and
the largest relative error of bessel_k_scaled(j, x), j = 0, 1, 2, on
FIT_POINTS log-spaced x in (2, 3e4] against 50-digit mpmath.  It exits
1 if a coefficient is off by more than COEFF_ULPS ulp, or if that error
exceeds FIT_RTOL.
"""

import argparse
import sys
from pathlib import Path

import mpmath
import numpy as np

DEGREE = 22
NODES = 128
DPS = 50
COEFF_ULPS = 1
FIT_POINTS = 400
FIT_RTOL = 2e-15


def fit():
    """Coefficients c[m][j] of f_j in T_m(t), m = 0..DEGREE, as floats."""
    with mpmath.workdps(DPS):
        angles = [mpmath.pi * (i + mpmath.mpf(1) / 2) / NODES for i in range(NODES)]
        xs = [4 / (1 + mpmath.cos(a)) for a in angles]
        columns = []
        for j in (0, 1):
            values = [mpmath.sqrt(x) * mpmath.exp(x) * mpmath.besselk(j, x) for x in xs]
            c = [2 * mpmath.fsum(v * mpmath.cos(m * a) for v, a in zip(values, angles)) / NODES
                 for m in range(DEGREE + 1)]
            c[0] /= 2
            columns.append([float(v) for v in c])
    return np.array(columns).T


def block(coefficients):
    """The coefficients as bessel.py holds them."""
    rows = "".join(f"    ({a!r}, {b!r}),\n" for a, b in coefficients.tolist())
    return f"_CHEBYSHEV = np.array([\n{rows}])[:, :, None]"


def check(coefficients):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from filament import bessel

    held = bessel._CHEBYSHEV  # (DEGREE + 1, 2, 1): broadcast over the points
    if held.shape != coefficients.shape + (1,):
        print(f"checked-in shape {held.shape}, fresh fit {coefficients.shape}")
        return False
    held = held[..., 0]
    ulps = float(np.max(np.abs(held - coefficients) / np.spacing(np.abs(coefficients))))
    xs = np.geomspace(2.0, 3e4, FIT_POINTS + 1)[1:]
    worst = 0.0
    with mpmath.workdps(DPS):
        for j in (0, 1, 2):
            got = bessel.bessel_k_scaled(j, xs)
            want = np.array([float(mpmath.exp(x) * mpmath.besselk(j, x)) for x in xs])
            worst = max(worst, float(np.max(np.abs(got / want - 1.0))))
    print(f"coefficients: largest difference {ulps:g} ulp (tolerance {COEFF_ULPS})")
    print(f"e^x K_j(x), j = 0, 1, 2, on {FIT_POINTS} points in (2, 3e4]: "
          f"largest relative error {worst:.2e} (tolerance {FIT_RTOL:g})")
    return ulps <= COEFF_ULPS and worst <= FIT_RTOL


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare the checked-in coefficients with a fresh fit")
    args = parser.parse_args()
    coefficients = fit()
    if args.check:
        sys.exit(0 if check(coefficients) else 1)
    print(block(coefficients))


if __name__ == "__main__":
    main()
