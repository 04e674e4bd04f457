"""The package's public names, pinned.

A change that adds or drops a public name edits this list, so the
surface only moves on purpose.
"""

import squeezedzeno

PUBLIC = [
    "BlochState", "ConfigError", "DEFAULTS", "DaviesModel", "DegenerateFitError",
    "DensityMatrix", "DriveParams", "EffectiveCoefficients", "EmptyGridError", "FitResult",
    "IllConditionedFitError", "InvalidParamsError", "Liouvillian", "MeasurementSchedule",
    "OrthogonalSelectionError", "OutOfWindowError", "PrePostSelection", "RegimeVerdict",
    "ResourceLimitError", "RunConfig", "SWEEP_COLUMNS", "SingularDenominatorError",
    "SqueezedVacuumParams", "SqueezedZenoError", "SqueezingShifts", "SweepGrid", "SweepRow",
    "TangentSingularityError", "Trajectory", "UnphysicalCoefficientsError",
    "angular_condition", "angular_theta", "bloch_derivative", "bloch_generator",
    "build_liouvillian", "canonical_json", "davies_amplitude", "davies_max_deviation",
    "davies_propagator_column", "decay_time_approx", "decay_time_exact", "decoherence_time",
    "effective_coefficients", "evaluate_regime", "evolve", "fit_decay_rate", "fit_exponential",
    "population_decay_rate", "propagator", "quadrature_decay_rate", "regime_sweep",
    "resolve_shifts", "spectral_m", "spectral_m_abs", "spectral_n",
    "sufficient_condition_margin", "sustainable_condition", "tan_theta_asymptotic",
    "timescale_ratio", "upsilon", "weak_survival", "weak_value", "zeno_time",
]


def test_public_names_are_pinned():
    assert sorted(squeezedzeno.__all__) == PUBLIC
