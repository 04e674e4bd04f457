"""Sustainable-coherence conditions and parameter-space classification.

The decoherence and Zeno timescales of the weakly measured atom obey

    tau_zeno / tau_dec = [Gamma_dec + 2 omega_L/n] / [Gamma_pop + 2 omega_L/n],

and coherence is sustainable (the coherence outlives the population)
when the ratio does not exceed one.  Two algebraically inequivalent
published forms of this comparison are in circulation, differing by a
factor of two in the Re M~ term; both are implemented side by side:

    derived:  2 Re M~ <= 1 + 2 N~      (literal quotient of timescales)
    paper:    4 Re M~ <= 1 + 2 N~      (as printed in the reduction)

Neither mode is preferred: every report carries both.

For the asymptotic shift preset the "paper" inequality can be recast in
angular form.  With theta = atan2(|M(omega_L + Omega')|, Delta~ delta_M)
the left side

    lhs = sqrt(Delta~^2 delta_M^2 + |M|^2) sin(theta - phi)
          / [1 + 2 N(omega_L + Omega') + 3 (1 - Delta~^2) Re Upsilon]

satisfies lhs <= 1/4 exactly where the denominator is positive.  On
resonance-family phase profiles phi = pi Delta / Omega the angle
comparison collapses further to the sufficient-condition margin

    Delta tan(pi Delta / Omega) - (gamma^2 - epsilon^2) / (2 gamma) >= 0,

which is what the grid classifier reports per point.

evaluate_regime is the one per-point kernel: the timescales report and
every sweep row are built from its RegimeVerdict.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import Iterator

import numpy as np

from .bloch import population_decay_rate, quadrature_decay_rate
from .coefficients import (
    DriveParams,
    EffectiveCoefficients,
    ShiftSpec,
    SqueezingShifts,
    effective_coefficients,
    resolve_shifts,
    upsilon,
)
from .errors import (
    EmptyGridError,
    InvalidParamsError,
    SingularDenominatorError,
    SqueezedZenoError,
    TangentSingularityError,
    UnphysicalCoefficientsError,
    require_finite,
    require_positive_int,
)
from .spectrum import SqueezedVacuumParams, spectral_m_abs, spectral_n
from .weakmeas import decoherence_time, zeno_time

_MODES = ("paper", "derived")


def _check_mode(mode: str) -> str:
    if mode not in _MODES:
        raise InvalidParamsError(f"mode must be one of {_MODES}, got {mode!r}")
    return mode


def timescale_ratio(
    coeffs: EffectiveCoefficients, omega_L: float, n: int, mode: str = "derived"
) -> float:
    """Ratio tau_zeno / tau_dec in the requested mode.

    mode="derived" evaluates the literal quotient
    [Gamma_dec + 2 omega_L/n] / [Gamma_pop + 2 omega_L/n]; mode="paper"
    evaluates the printed reduction
    1/2 + (2 gamma Re M~ + omega_L/n) / (Gamma_pop + 2 omega_L/n),
    which doubles the Re M~ contribution.
    """
    _check_mode(mode)
    g = coeffs.gamma
    meas = omega_L / require_positive_int("n", n)
    denom = g * (1.0 + 2.0 * coeffs.n_tilde) + 2.0 * meas
    if mode == "derived":
        return (quadrature_decay_rate(coeffs) + 2.0 * meas) / denom
    return 0.5 + (2.0 * g * coeffs.m_tilde.real + meas) / denom


def sustainable_condition(coeffs: EffectiveCoefficients, mode: str = "derived") -> bool:
    """Whether coherence outlives population in the requested mode."""
    _check_mode(mode)
    factor = 2.0 if mode == "derived" else 4.0
    return factor * coeffs.m_tilde.real <= 1.0 + 2.0 * coeffs.n_tilde


def squeezing_phase_profile(Delta: float, Omega: float) -> float:
    """Detuning-locked squeezing phase phi(Delta) = pi Delta / Omega."""
    if not Omega > 0.0:
        raise InvalidParamsError(f"Omega must be > 0, got {Omega}")
    return math.pi * Delta / Omega


def angular_theta(
    bath: SqueezedVacuumParams, drive: DriveParams, shifts: SqueezingShifts
) -> float:
    """Mixing angle theta = atan2(|M(omega_L + Omega')|, Delta~ delta_M).

    Zero by convention when both arguments vanish (for example an
    unsqueezed bath with the asymptotic preset); the angular left side
    is exactly zero there, so the angle carries no information.
    """
    m1 = spectral_m_abs(bath, bath.omega_L + drive.omega_prime)
    x = drive.delta_tilde * shifts.delta_M
    if m1 == 0.0 and x == 0.0:
        return 0.0
    return math.atan2(m1, x)


def angular_condition(
    bath: SqueezedVacuumParams, drive: DriveParams, shifts: SqueezingShifts
) -> tuple[float, bool]:
    """Angular form of the sustainability condition.

    Returns (lhs, lhs <= 1/4).  The signed sin(theta - phi) is kept
    literal, so phi > theta makes the condition hold trivially.  A
    degenerate zero-magnitude numerator short-circuits to (0.0, True),
    the continuous limit.  Raises SingularDenominatorError when the
    denominator 1 + 2 N(omega_L + Omega') + 3 (1 - Delta~^2) Re Upsilon
    is smaller than 1e-12 in modulus.
    """
    dt = drive.delta_tilde
    m1 = spectral_m_abs(bath, bath.omega_L + drive.omega_prime)
    n1 = spectral_n(bath, bath.omega_L + drive.omega_prime)
    x = dt * shifts.delta_M
    magnitude = math.hypot(x, m1)
    if magnitude == 0.0:
        return 0.0, True
    ups_re = upsilon(bath, drive).real
    denominator = 1.0 + 2.0 * n1 + 3.0 * (1.0 - dt * dt) * ups_re
    if abs(denominator) < 1e-12:
        raise SingularDenominatorError(
            f"angular-condition denominator is {denominator:.3g}; "
            f"the reduction is singular at these parameters"
        )
    # theta as in angular_theta; x and m1 are not both zero here
    lhs = magnitude * math.sin(math.atan2(m1, x) - bath.phi) / denominator
    return float(lhs), bool(lhs <= 0.25)


def tan_theta_asymptotic(bath: SqueezedVacuumParams, drive: DriveParams) -> float:
    """Closed form tan(theta) = (gamma^2 - epsilon^2) / (2 Delta gamma).

    Valid in the asymptotic-shift regime; identical to
    mu lam / ((mu + lam) Omega' Delta~) through mu lam = gamma^2 -
    epsilon^2, mu + lam = 2 gamma and Omega' Delta~ = Delta.  Raises on
    Delta = 0 where the angle sits at pi/2 and the tangent diverges.
    """
    if drive.Delta == 0.0:
        raise SingularDenominatorError("tan(theta) diverges at Delta = 0 (theta = pi/2)")
    return (bath.gamma**2 - bath.epsilon**2) / (2.0 * drive.Delta * bath.gamma)


def sufficient_condition_margin(
    bath: SqueezedVacuumParams, drive: DriveParams
) -> float:
    """Signed residual Delta tan(pi Delta/Omega) - (gamma^2 - epsilon^2)/(2 gamma).

    Nonnegative values mean the phase-locked sufficient condition holds
    (Zeno dominance); the margin tends to zero from above as epsilon
    approaches gamma at small Delta / Omega and to -gamma/2 for an
    unsqueezed bath at vanishing detuning.
    """
    if not drive.Omega > 0.0:
        raise InvalidParamsError(
            f"Omega must be > 0 for the phase profile, got {drive.Omega}"
        )
    x = math.pi * drive.Delta / drive.Omega
    # distance from the nearest odd multiple of pi/2, where tan blows up
    residue = math.remainder(x - 0.5 * math.pi, math.pi)
    if abs(residue) < 1e-9:
        raise TangentSingularityError(
            f"pi Delta / Omega = {x:.12g} is within 1e-9 of a tangent pole"
        )
    return drive.Delta * math.tan(x) - (bath.gamma**2 - bath.epsilon**2) / (
        2.0 * bath.gamma
    )


@dataclass(frozen=True)
class RegimeVerdict:
    """Everything reported for one parameter point, in report order.

    Both ratios and both condition booleans are always present.  theta
    and angular_lhs document the angular reduction, sufficient_margin
    the phase-locked criterion.  A singular angular denominator or a
    margin pole leaves that field NaN and is kept in errors as
    (label, exception), label "angular" or "margin", in evaluation order.
    """

    Gamma_dec: float
    Gamma_pop: float
    tau_dec: float
    tau_zeno: float
    ratio_derived: float
    ratio_paper: float
    cond_derived: bool
    cond_paper: bool
    theta: float
    angular_lhs: float
    sufficient_margin: float
    errors: tuple[tuple[str, SqueezedZenoError], ...]

    def report(self) -> dict:
        """The reported quantities by name, in field order (errors left out)."""
        return {name: getattr(self, name) for name in _REPORTED}


def evaluate_regime(
    bath: SqueezedVacuumParams,
    drive: DriveParams,
    n: int,
    *,
    shifts: ShiftSpec = "asymptotic",
) -> RegimeVerdict:
    """Full verdict at one parameter point; the one per-point kernel.

    shifts is a spec for resolve_shifts, the asymptotic preset by
    default.  Raises UnphysicalCoefficientsError where the effective
    description breaks down and InvalidParamsError when Gamma_dec <= 0:
    |M~| above the positivity bound turns the slow quadrature into a
    growing mode, and there is no decay time to compare.  Angular and
    margin singularities are recorded in RegimeVerdict.errors instead of
    raised.
    """
    shifts = resolve_shifts(shifts, bath, drive)
    coeffs = effective_coefficients(bath, drive, shifts)
    g_dec = quadrature_decay_rate(coeffs)
    if g_dec <= 0.0:
        raise InvalidParamsError(f"nonpositive quadrature decay rate ({g_dec:.6g})")
    # kept without traceback: it would hold this frame, and with it errors,
    # in a reference cycle that outlives the sweep row
    errors = []
    try:
        lhs, _holds = angular_condition(bath, drive, shifts)
    except SingularDenominatorError as exc:
        lhs = math.nan
        errors.append(("angular", exc.with_traceback(None)))
    try:
        margin = sufficient_condition_margin(bath, drive)
    except (TangentSingularityError, InvalidParamsError) as exc:
        margin = math.nan
        errors.append(("margin", exc.with_traceback(None)))
    omega_L = bath.omega_L
    return RegimeVerdict(
        Gamma_dec=g_dec,
        Gamma_pop=population_decay_rate(coeffs),
        tau_dec=decoherence_time(coeffs, omega_L, n),
        tau_zeno=zeno_time(coeffs, omega_L, n),
        ratio_derived=timescale_ratio(coeffs, omega_L, n, "derived"),
        ratio_paper=timescale_ratio(coeffs, omega_L, n, "paper"),
        cond_derived=sustainable_condition(coeffs, "derived"),
        cond_paper=sustainable_condition(coeffs, "paper"),
        theta=angular_theta(bath, drive, shifts),
        angular_lhs=lhs,
        sufficient_margin=margin,
        errors=tuple(errors),
    )


_REPORTED = tuple(f.name for f in fields(RegimeVerdict))[:-1]

SWEEP_COLUMNS = (
    "gamma", "epsilon", "Delta", "Omega", "phi", "omega_L", "n",
    *(name for name in _REPORTED if name != "theta"),
    "status",
)


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a regime sweep, in the fixed column order."""

    gamma: float
    epsilon: float
    Delta: float
    Omega: float
    phi: float
    omega_L: float
    n: int
    Gamma_dec: float
    Gamma_pop: float
    tau_dec: float
    tau_zeno: float
    ratio_derived: float
    ratio_paper: float
    cond_derived: bool | None
    cond_paper: bool | None
    angular_lhs: float
    sufficient_margin: float
    status: str

    def as_tuple(self) -> tuple:
        return tuple(getattr(self, name) for name in SWEEP_COLUMNS)


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian parameter grid over (gamma, epsilon, Delta, Omega, phi, omega_L, n).

    Points enumerate in row-major order with n varying fastest; the
    ordering is part of the output contract (sweeps are reproducible
    byte for byte).
    """

    gamma: tuple[float, ...]
    epsilon: tuple[float, ...]
    Delta: tuple[float, ...]
    Omega: tuple[float, ...]
    phi: tuple[float, ...]
    omega_L: tuple[float, ...]
    n: tuple[int, ...]

    def __post_init__(self) -> None:
        for name in SWEEP_COLUMNS[:7]:
            values = np.atleast_1d(getattr(self, name)).tolist()
            if not values:
                raise EmptyGridError(f"grid axis {name!r} is empty")
            check = require_positive_int if name == "n" else require_finite
            object.__setattr__(self, name, tuple(check(name, v) for v in values))

    @classmethod
    def from_mapping(cls, mapping: dict) -> "SweepGrid":
        """Build a grid from a config mapping; scalars become 1-point axes."""
        unknown = set(mapping) - set(SWEEP_COLUMNS[:7])
        if unknown:
            raise InvalidParamsError(f"unknown grid axes: {sorted(unknown)}")
        missing = set(SWEEP_COLUMNS[:7]) - set(mapping)
        if missing:
            raise InvalidParamsError(f"missing grid axes: {sorted(missing)}")
        return cls(**mapping)

    @property
    def size(self) -> int:
        return (
            len(self.gamma) * len(self.epsilon) * len(self.Delta) * len(self.Omega)
            * len(self.phi) * len(self.omega_L) * len(self.n)
        )

    def points(self) -> Iterator[tuple]:
        return itertools.product(
            self.gamma, self.epsilon, self.Delta, self.Omega,
            self.phi, self.omega_L, self.n,
        )


# the verdict columns of a skipped row
_SKIPPED = (math.nan,) * 6 + (None, None, math.nan, math.nan)


def _sweep_point(point: tuple, shifts: ShiftSpec) -> SweepRow:
    gamma, epsilon, Delta, Omega, phi, omega_L, n = point
    try:
        bath = SqueezedVacuumParams(gamma, epsilon, phi, omega_L)
        verdict = evaluate_regime(bath, DriveParams(Omega, Delta), n, shifts=shifts)
    except (InvalidParamsError, UnphysicalCoefficientsError) as exc:
        return SweepRow(*point, *_SKIPPED, status=f"skipped: {exc}")
    notes = "; ".join(f"{label}: {exc}" for label, exc in verdict.errors)
    values = (getattr(verdict, name) for name in SWEEP_COLUMNS[7:-1])
    return SweepRow(*point, *values, status="partial: " + notes if notes else "ok")


def regime_sweep(grid: SweepGrid, *, shifts: ShiftSpec = "asymptotic") -> list[SweepRow]:
    """Classify every grid point; rows come back in grid order.

    shifts is resolved at each point as in evaluate_regime: the
    asymptotic preset per point, explicit values unchanged everywhere.
    Points run one after another: the work is pure Python, so a thread
    pool only adds overhead.  Invalid points are emitted as skipped rows
    rather than aborting the sweep.
    """
    return [_sweep_point(p, shifts) for p in grid.points()]
