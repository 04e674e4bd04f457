"""The package's public names, pinned.

A change that adds or drops a public name edits this list, so the
surface only moves on purpose.
"""

import ast
from pathlib import Path

import squeezedzeno

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "BlochState", "ConfigError", "DEFAULTS", "DaviesModel", "DegenerateFitError",
    "DriveParams", "EffectiveCoefficients", "EmptyGridError", "FitResult",
    "IllConditionedFitError", "InvalidParamsError", "MeasurementSchedule",
    "OutOfWindowError", "RegimeVerdict", "ResourceLimitError", "RunConfig", "SWEEP_COLUMNS",
    "SingularDenominatorError", "SqueezedVacuumParams", "SqueezedZenoError", "SqueezingShifts",
    "SweepGrid", "SweepRow", "TangentSingularityError", "Trajectory",
    "UnphysicalCoefficientsError", "angular_condition", "angular_theta", "bloch_derivative",
    "bloch_generator", "build_liouvillian", "canonical_json", "davies_amplitude",
    "davies_max_deviation", "davies_propagator_column", "decay_time_approx",
    "decay_time_exact", "effective_coefficients", "evaluate_regime", "evolve",
    "fit_decay_rate", "fit_exponential", "population_decay_rate", "quadrature_decay_rate",
    "regime_sweep", "resolve_shifts", "spectral_m", "spectral_m_abs", "spectral_n",
    "sufficient_condition_margin", "sustainable_condition", "tan_theta_asymptotic",
    "timescale_ratio", "weak_survival",
]


def test_public_names_are_pinned():
    assert sorted(squeezedzeno.__all__) == PUBLIC


def _consumed_names() -> set[str]:
    """Names used in the package modules, the benchmark and the acceptance criteria."""
    paths = [p for p in (ROOT / "src" / "squeezedzeno").glob("*.py") if p.name != "__init__.py"]
    paths += [*(ROOT / "bench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_name_has_a_consumer():
    # a public name used only by its own unit tests has no consumer
    consumed = _consumed_names()
    readme = (ROOT / "README.md").read_text()
    orphans = [n for n in squeezedzeno.__all__ if n not in consumed and n not in readme]
    assert orphans == []
