"""Pseudospectral dynamics of an inextensible closed elastic filament.

The package integrates dX/dt = -L[(X_sss - tau X_s)_s] on the periodic
unit-length circle for two force-to-velocity maps L: the nonlocal
slender-body multiplier operator at radius eps, and its local
resistive-force-theory limit.  The tension tau is the Lagrange
multiplier of the inextensibility constraint |X_s| = 1, determined each
step by an elliptic solve.
"""

__version__ = "0.1.0"

from .multipliers import (  # noqa: F401
    MultiplierTable,
    RftConstants,
    build_table,
    eval_mn,
    eval_mt,
    lowk_rft_difference,
    rft_constants,
)
from .spectral import (  # noqa: F401
    GeometryError,
    Grid,
    PeriodicCurve,
    SobolevIndex,
    apply_L_eps,
    apply_L_rft,
    dealias,
    project_tangent,
    reparameterize_arclength,
    sobolev_norm,
)
from .tension import (  # noqa: F401
    SolverError,
    TensionField,
    TensionProblem,
    apply_B,
    assemble_rhs,
    solve_tension,
)
from .evolution import (  # noqa: F401
    DiagnosticsRecord,
    EvolutionState,
    choose_dt,
    dissipation,
    energy,
    initial_curve,
    run,
    step_leps,
    step_rft,
)
from .config import ConfigError, RunConfig, SweepConfig, parse_config, parse_sweep_config  # noqa: F401
