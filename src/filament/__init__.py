"""Pseudospectral dynamics of an inextensible closed elastic filament.

The package integrates dX/dt = -L[(X_sss - tau X_s)_s] on the periodic
unit-length circle for two force-to-velocity maps L: the nonlocal
slender-body multiplier operator at radius eps, and its local
resistive-force-theory limit.  The tension tau is the Lagrange
multiplier of the inextensibility constraint |X_s| = 1, determined each
step by an elliptic solve.
"""

__version__ = "0.1.0"
