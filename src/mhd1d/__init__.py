"""1D compressible isentropic MHD: solver, diagnostics and resistivity-limit studies."""

from .core import (
    RHO_FLOOR,
    FieldScalar,
    Grid1D,
    PhysParams,
    State,
    constant_state,
    derivative,
    fast_speed,
    potential_energy,
    pressure,
)
from .config import RunConfig, parse_config
from .diagnostics import (
    Accumulators,
    DiagnosticsRecord,
    energy_drift,
    flux_identity_residual,
    lp_norm,
    momentum_potential,
    nu_independence_report,
    sample,
    weighted_energy,
)
from .errors import BoundaryMonitorError, ConfigError, NumericalError, SimulationError
from .limit_study import (
    ConvergenceReport,
    SweepResult,
    fit_rate,
    sweep,
)
from .mms import manufactured_solution, mms_rhs, observed_orders, run_manufactured
from .scenario import (
    CompatibilityResult,
    ScenarioSpec,
    build_initial_state,
    compatibility_residual,
)
from .solver import SchemeConfig, rhs, run, run_lockstep, step, tendencies

__version__ = "0.1.0"
