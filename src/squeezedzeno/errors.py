"""Exception types shared across the package.

Every computational error raised by the library derives from
:class:`SqueezedZenoError` so callers (and the CLI) can distinguish
domain failures from programming errors.
"""

from __future__ import annotations


class SqueezedZenoError(Exception):
    """Base class for all library errors."""


class InvalidParamsError(SqueezedZenoError, ValueError):
    """A parameter record violates its domain constraints."""


class UnphysicalCoefficientsError(SqueezedZenoError, ValueError):
    """Effective coefficients left the validity domain (n_tilde < 0)."""


class OrthogonalSelectionError(SqueezedZenoError, ZeroDivisionError):
    """Pre/post-selection overlap vanishes; the weak value diverges."""


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
