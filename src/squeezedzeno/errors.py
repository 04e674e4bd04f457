"""Exception types and the parameter checks shared across the package.

Every computational error raised by the library derives from
:class:`SqueezedZenoError` so callers (and the CLI) can distinguish
domain failures from programming errors.  The finite-number and
positive-integer checks below serve every parameter record and entry
point of the library.
"""

from __future__ import annotations

import math


class SqueezedZenoError(Exception):
    """Base class for all library errors."""


class InvalidParamsError(SqueezedZenoError, ValueError):
    """A parameter record violates its domain constraints."""


class UnphysicalCoefficientsError(SqueezedZenoError, ValueError):
    """Effective coefficients left the validity domain (n_tilde < 0)."""


class OutOfWindowError(SqueezedZenoError, ValueError):
    """A time argument lies outside the measurement window [t_i, t_f]."""


class DegenerateFitError(SqueezedZenoError):
    """The observable is constant; no decay rate can be fitted."""


class IllConditionedFitError(SqueezedZenoError):
    """The exponential fit residual exceeds the configured threshold."""


class ResourceLimitError(SqueezedZenoError):
    """A requested computation exceeds the configured dimension cap."""


class TangentSingularityError(SqueezedZenoError, ZeroDivisionError):
    """tan(pi*Delta/Omega) is evaluated too close to a pole."""


class SingularDenominatorError(SqueezedZenoError, ZeroDivisionError):
    """A denominator is too close to zero for a meaningful result."""


class EmptyGridError(SqueezedZenoError, ValueError):
    """A sweep grid contains no points."""


class ConfigError(SqueezedZenoError, ValueError):
    """A run configuration is malformed; the message names the key."""


def require_finite(name: str, value) -> float:
    """value as a float; InvalidParamsError unless it is finite."""
    value = float(value)
    if not math.isfinite(value):
        raise InvalidParamsError(f"{name} must be finite, got {value!r}")
    return value


def require_finite_fields(record, *names: str) -> None:
    """Replace the named fields of a frozen dataclass by finite floats."""
    for name in names:
        object.__setattr__(record, name, require_finite(name, getattr(record, name)))


def require_positive_int(name: str, value) -> int:
    """value as an int; InvalidParamsError unless it is an integer >= 1.

    Integral floats pass; inf and nan are rejected rather than overflowing.
    """
    if not (math.isfinite(value) and value >= 1 and int(value) == value):
        raise InvalidParamsError(f"{name} must be a positive integer, got {value!r}")
    return int(value)
