"""Dynamics and weak-measurement timescales of an atom in squeezed light.

The package models a driven two-level atom coupled to a
finite-bandwidth squeezed vacuum: squeezing spectra, effective
master-equation coefficients, Bloch/superoperator dynamics, the weak
survival probability with its exact and leading-order decay times, a
discrete bath-mode oracle, and sustainable-coherence classification over
parameter grids.  The squeezedzeno console script exposes the same
functionality from the command line.
"""

import types

from .analysis import (
    RegimeVerdict,
    SWEEP_COLUMNS,
    SweepGrid,
    SweepRow,
    angular_condition,
    angular_theta,
    evaluate_regime,
    regime_sweep,
    sufficient_condition_margin,
    sustainable_condition,
    tan_theta_asymptotic,
    timescale_ratio,
)
from .bloch import (
    BlochState,
    FitResult,
    Trajectory,
    bloch_derivative,
    bloch_generator,
    build_liouvillian,
    evolve,
    fit_decay_rate,
    fit_exponential,
    population_decay_rate,
    quadrature_decay_rate,
)
from .coefficients import (
    DriveParams,
    EffectiveCoefficients,
    SqueezingShifts,
    effective_coefficients,
    resolve_shifts,
)
from .config import DEFAULTS, RunConfig, canonical_json
from .errors import (
    ConfigError,
    DegenerateFitError,
    EmptyGridError,
    IllConditionedFitError,
    InvalidParamsError,
    OutOfWindowError,
    ResourceLimitError,
    SingularDenominatorError,
    SqueezedZenoError,
    TangentSingularityError,
    UnphysicalCoefficientsError,
)
from .spectrum import (
    SqueezedVacuumParams,
    spectral_m,
    spectral_m_abs,
    spectral_n,
)
from .weakmeas import (
    DaviesModel,
    MeasurementSchedule,
    davies_amplitude,
    davies_max_deviation,
    davies_propagator_column,
    decay_time_approx,
    decay_time_exact,
    weak_survival,
)

__version__ = "0.1.0"

# the public names are exactly those imported above
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
