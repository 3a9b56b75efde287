"""Modified Bessel functions of the second kind K0, K1, K2.

These are the only transcendental ingredients of the slender-body
multipliers.  Evaluation is delegated to scipy's cephes/amos routines,
which are accurate to ~1e-14 relative on (0, inf); an independent
quadrature oracle lives in the test suite.  Exponentially scaled
variants e^x * K_j(x) are provided for the multiplier ratios, which
stay O(1) even where the raw K values underflow.
"""

import numpy as np
from scipy import special

_RAW = {0: special.k0, 1: special.k1, 2: lambda x: special.kv(2, x)}
_SCALED = {0: special.k0e, 1: special.k1e, 2: lambda x: special.kve(2, x)}


def _validate(order, x):
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
    xa = np.asarray(x, dtype=float)
    if np.any(~np.isfinite(xa)) or np.any(xa <= 0.0):
        raise ValueError("argument must be a positive finite real")
    return xa


def bessel_k(order, x):
    """K_order(x) for order in {0, 1, 2} and x > 0 (scalar or array).

    For x beyond the underflow threshold the true value is below the
    smallest normal double; the returned value is then 0.0.
    """
    xa = _validate(order, x)
    out = _RAW[order](xa)
    return out if np.ndim(x) else float(out)


def bessel_k_scaled(order, x):
    """e^x * K_order(x); finite and positive for every x > 0."""
    xa = _validate(order, x)
    out = _SCALED[order](xa)
    return out if np.ndim(x) else float(out)
