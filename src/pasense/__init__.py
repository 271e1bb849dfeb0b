"""Quantum-limited force sensing on a levitated particle coupled
dissipatively to a cavity with an intracavity parametric amplifier.

The package evaluates the closed-form noise model of that sensor:
output quadrature spectra, force sensitivities relative to the
free-mass standard quantum limit, their optima over homodyne angle and
frequency, parameter-plane maps with level sets, benchmark tables, and
the trapped-particle variant.
"""

from .errors import (
    DivergentSensitivityError,
    DomainError,
    InstabilityError,
    InvalidParameterError,
    InvalidRangeError,
    ResonanceDomainError,
)
from .explore import (
    AxisSpec,
    ContourSet,
    SweepGrid,
    TableRow,
    extract_contour,
    minimize_mu_over_frequency,
    reproduce_tables,
    sweep,
)
from .oscillator import OscillatorPoint, oscillator_sensitivity, sensitivity_ratio
from .params import (
    C_LIGHT,
    HBAR,
    K_B,
    PhysicalParams,
    ReducedParams,
    check_stability,
    drive_amplitude,
    reduce,
    steady_state_amplitude,
)
from .response import (
    KernelSet,
    SensitivityPoint,
    kernels,
    mu,
    optimal_phase,
    output_spectrum,
    sensitivity,
    sql_force,
)

__version__ = "0.1.0"

__all__ = [
    "AxisSpec",
    "C_LIGHT",
    "ContourSet",
    "DivergentSensitivityError",
    "DomainError",
    "HBAR",
    "InstabilityError",
    "InvalidParameterError",
    "InvalidRangeError",
    "K_B",
    "KernelSet",
    "OscillatorPoint",
    "PhysicalParams",
    "ReducedParams",
    "ResonanceDomainError",
    "SensitivityPoint",
    "SweepGrid",
    "TableRow",
    "check_stability",
    "drive_amplitude",
    "extract_contour",
    "kernels",
    "minimize_mu_over_frequency",
    "mu",
    "optimal_phase",
    "oscillator_sensitivity",
    "output_spectrum",
    "reduce",
    "reproduce_tables",
    "sensitivity",
    "sensitivity_ratio",
    "sql_force",
    "steady_state_amplitude",
    "sweep",
    "__version__",
]
