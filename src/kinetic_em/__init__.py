"""Tamed transport-shifted Euler-Maruyama for kinetic SDEs with singular drift.

The package simulates the two-component system dX = V dt, dV = b dt + dW with
a drift mollified at a resolution-coupled scale, evaluates it along the free
flow within each step, and augments the Brownian increments with their running
time integrals so the position update stays exact for the flow part.  On top
of the integrator sit the Gaussian transition kernel toolbox and an error
laboratory measuring strong/weak convergence rates.
"""

__version__ = "0.1.0"

from .drifts import (
    DriftSpec,
    MollifiedDrift,
    TabulatedField,
    constant_drift,
    drift_from_name,
    linear_friction,
    load_tabulated,
    mollify,
    oscillatory_singular,
    save_tabulated,
    sign_velocity,
    tabulated_drift,
    zero_drift,
)
from .errors import (
    ConfigError,
    ConfigWarning,
    DomainError,
    ExtrapolationError,
    KineticEmError,
)
from .integrator import (
    Trajectory,
    exact_linear_solve,
    integrate,
    trajectory_to_csv,
)
from .kernel import (
    KernelCovariance,
    MixedExponent,
    PhaseState,
    gamma_shift,
    kernel_density,
    kernel_mass,
    mixed_lp_norm,
)
from .paths import (
    AugmentedPath,
    GridSpec,
    coarsen,
    increment_identity_report,
    sample_path,
)
from .rates import (
    TEST_FUNCTIONS,
    RateReport,
    fit_rate,
    strong_error,
    taming_demo,
    tv_proxy,
    weak_error,
)
from ._steppers import backend_name

__all__ = [
    "__version__",
    "AugmentedPath",
    "ConfigError",
    "ConfigWarning",
    "DomainError",
    "DriftSpec",
    "ExtrapolationError",
    "GridSpec",
    "KernelCovariance",
    "KineticEmError",
    "MixedExponent",
    "MollifiedDrift",
    "PhaseState",
    "RateReport",
    "TabulatedField",
    "TEST_FUNCTIONS",
    "Trajectory",
    "backend_name",
    "coarsen",
    "constant_drift",
    "drift_from_name",
    "exact_linear_solve",
    "fit_rate",
    "gamma_shift",
    "increment_identity_report",
    "integrate",
    "kernel_density",
    "kernel_mass",
    "linear_friction",
    "load_tabulated",
    "mixed_lp_norm",
    "mollify",
    "oscillatory_singular",
    "sample_path",
    "save_tabulated",
    "sign_velocity",
    "strong_error",
    "tabulated_drift",
    "taming_demo",
    "trajectory_to_csv",
    "tv_proxy",
    "weak_error",
    "zero_drift",
]
