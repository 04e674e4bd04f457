"""Effective master-equation coefficients for a driven atom in squeezed light.

A two-level atom driven by a coherent field (Rabi frequency Omega,
detuning Delta) and damped by a finite-bandwidth squeezed reservoir is
described, after a secular treatment in the dressed basis, by a master
equation whose dissipative part looks like the broadband one but with
renormalized coefficients.  Writing the generalized Rabi frequency

    Omega' = sqrt(Omega^2 + Delta^2),
    Omega~ = Omega / Omega',   Delta~ = Delta / Omega',

the spectra are sampled at the carrier and at the shifted frequency
omega_L + Omega', combined through

    Upsilon = N(omega_L) - N(omega_L + Omega')
              - [ |M(omega_L)| - |M(omega_L + Omega')| ] e^{i phi}

into the effective photon number, correlator, detuning and drive
correction

    N~ = N(omega_L + Omega') + (1/2) (1 - Delta~^2) Re Upsilon
    M~ = M(omega_L + Omega') - (1/2) (1 - Delta~^2) Upsilon
         + i Delta~ delta_M e^{i phi}
    delta = Delta / gamma - (1/2) (1 - Delta~^2) Im Upsilon
            + Delta~ delta_N
    beta = gamma Omega~ [ delta_N + delta_M e^{i phi}
                          - i Delta~ Upsilon ]

where delta_N and delta_M are frequency-shift integrals of the
principal-value type.  In the asymptotic (narrowband, far-detuned
sampling) regime they reduce to delta_N = 0 and

    delta_M = |M(omega_L + Omega')| Omega' (lam + mu) / (lam mu).

A physically meaningful reduced description requires N~ >= 0; inside
the secular approximation some parameter regions violate this, which is
reported as an error unless validation is disabled for diagnostics.
One array function holds this arithmetic for evolve, oracle, timescales
and sweep; the tests keep the scalar complex formulas as its reference.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .errors import InvalidParamsError, UnphysicalCoefficientsError, require_finite_fields
from .spectrum import SqueezedVacuumParams, _m_abs_at, _m_abs_times, _n_at


@dataclass(frozen=True)
class DriveParams:
    """Coherent drive: Rabi frequency Omega >= 0 and detuning Delta.

    The undriven resonant corner Omega = Delta = 0 is allowed; there the
    dressed-basis direction is conventionally (Omega~, Delta~) = (1, 0),
    which reproduces the undriven coefficients continuously.
    """

    Omega: float
    Delta: float

    def __post_init__(self) -> None:
        require_finite_fields(self, "Omega", "Delta")
        if self.Omega < 0.0:
            raise InvalidParamsError(f"Omega must be >= 0, got {self.Omega}")

    @property
    def omega_prime(self) -> float:
        """Generalized Rabi frequency sqrt(Omega^2 + Delta^2)."""
        return math.hypot(self.Omega, self.Delta)

    @property
    def omega_tilde(self) -> float:
        """Omega / Omega', with the convention 1 at the Omega = Delta = 0 corner."""
        op = self.omega_prime
        return self.Omega / op if op else 1.0

    @property
    def delta_tilde(self) -> float:
        """Delta / Omega', with the convention 0 at the Omega = Delta = 0 corner."""
        op = self.omega_prime
        return self.Delta / op if op else 0.0


@dataclass(frozen=True)
class SqueezingShifts:
    """Principal-value shift integrals (delta_N, delta_M).

    These carry the Lamb-type frequency renormalizations.  They default
    to zero; the `asymptotic` constructor evaluates the closed forms
    valid when the sampling point omega_L + Omega' lies far outside both
    Lorentzians.
    """

    delta_N: float = 0.0
    delta_M: float = 0.0

    def __post_init__(self) -> None:
        require_finite_fields(self, "delta_N", "delta_M")

    @classmethod
    def asymptotic(cls, bath: SqueezedVacuumParams, drive: DriveParams) -> "SqueezingShifts":
        """Far-detuned closed forms: delta_N = 0 and
        delta_M = |M(omega_L + Omega')| Omega' (lam + mu) / (lam mu)."""
        op, lam, mu = drive.omega_prime, bath.lam, bath.mu
        x = (bath.omega_L + op) - bath.omega_L
        return cls(0.0, float(_asymptotic_delta_m(x, op, lam ** 2, mu ** 2, lam, mu)))


def _asymptotic_delta_m(x1, op, lam2, mu2, lam, mu):
    """delta_M at sideband offset x1 = (omega_L + Omega') - omega_L (arrays broadcast)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _m_abs_times(x1, op, lam2, mu2) * (lam + mu) / (lam * mu)


SHIFT_PRESETS = ("asymptotic", "zero")

ShiftSpec = Union[str, Mapping[str, float], SqueezingShifts]


def resolve_shifts(
    spec: ShiftSpec, bath: SqueezedVacuumParams, drive: DriveParams
) -> SqueezingShifts:
    """The shifts a spec gives at one parameter point.

    "asymptotic" evaluates the closed forms at this point, "zero" gives
    zero shifts, and a {delta_N, delta_M} mapping (omitted keys zero) or
    a SqueezingShifts is applied unchanged at every point.
    """
    if isinstance(spec, SqueezingShifts):
        return spec
    if isinstance(spec, Mapping):
        return SqueezingShifts(**spec)
    if spec == "asymptotic":
        return SqueezingShifts.asymptotic(bath, drive)
    if spec == "zero":
        return SqueezingShifts()
    raise InvalidParamsError(f"shifts preset must be one of {SHIFT_PRESETS}, got {spec!r}")


@dataclass(frozen=True)
class EffectiveCoefficients:
    """Coefficient set (gamma, N~, M~, delta, beta) of the reduced master equation."""

    gamma: float
    n_tilde: float
    m_tilde: complex
    delta: float
    beta: complex


def _cmul(ar, ai, br, bi):
    """(ar + i ai)(br + i bi) as CPython forms it, a float x being (x, 0.0)."""
    return ar * br - ai * bi, ar * bi + ai * br


def _coefficient_arrays(gamma, lam2, mu2, x1, Delta, dt, ot, p_re, p_im, delta_N, delta_M):
    """N(omega_L + Omega'), |M(omega_L + Omega')|, Upsilon, N~, M~, delta and beta
    on arrays that broadcast (x1 = (omega_L + Omega') - omega_L, dt = Delta~,
    ot = Omega~, p = e^{i phi}), a complex value as its (real, imaginary) pair
    formed as CPython forms the module's formulas, so with the bits of one point."""
    with np.errstate(all="ignore"):
        n0, m0 = _n_at(0.0, lam2, mu2), _m_abs_at(0.0, lam2, mu2)  # x = omega_L - omega_L
        n1, m1 = _n_at(x1, lam2, mu2), _m_abs_at(x1, lam2, mu2)
        cr, ci = _cmul(m0 - m1, 0.0, p_re, p_im)
        ups = (n0 - n1) - cr, 0.0 - ci
        transverse = 0.5 * (1.0 - dt * dt)
        n_tilde = n1 + transverse * ups[0]
        i_dt = _cmul(0.0, 1.0, dt, 0.0)
        m_along, m_damped = _cmul(m1, 0.0, p_re, p_im), _cmul(transverse, 0.0, *ups)
        m_shift = _cmul(*_cmul(*i_dt, delta_M, 0.0), p_re, p_im)
        m_tilde = ((m_along[0] - m_damped[0]) + m_shift[0],
                   (m_along[1] - m_damped[1]) + m_shift[1])
        delta = (Delta / gamma - transverse * ups[1]) + dt * delta_N
        b_shift, b_ups = _cmul(delta_M, 0.0, p_re, p_im), _cmul(*i_dt, *ups)
        beta = _cmul(gamma * ot, 0.0, (delta_N + b_shift[0]) - b_ups[0],
                     (0.0 + b_shift[1]) - b_ups[1])
    return n1, m1, ups, n_tilde, m_tilde, delta, beta


def _one_point(bath: SqueezedVacuumParams, drive: DriveParams,
               shifts: SqueezingShifts = SqueezingShifts()) -> tuple:
    """_coefficient_arrays at one point as floats and complex numbers.  It runs on
    numpy scalars, where 1/0 gives inf as in an array, not ZeroDivisionError."""
    f, phase = np.float64, cmath.exp(1j * bath.phi)
    values = _coefficient_arrays(
        f(bath.gamma), f(bath.lam ** 2), f(bath.mu ** 2),
        f(bath.omega_L + drive.omega_prime) - bath.omega_L, f(drive.Delta), f(drive.delta_tilde),
        f(drive.omega_tilde), f(phase.real), f(phase.imag), f(shifts.delta_N), f(shifts.delta_M))
    # complex() of a 0-d array part would drop the sign of a zero imaginary part
    return tuple(complex(float(v[0]), float(v[1])) if isinstance(v, tuple) else float(v)
                 for v in values)


def effective_coefficients(
    bath: SqueezedVacuumParams,
    drive: DriveParams,
    shifts: SqueezingShifts = SqueezingShifts(),
    validate: bool = True,
) -> EffectiveCoefficients:
    """The effective coefficients of a bath and drive, with shifts zero when omitted.

    With validate (the default), raise UnphysicalCoefficientsError if N~
    is negative, since the reduced dynamics is then not a physical
    channel; validate=False returns such coefficient sets anyway (useful
    for mapping where the description breaks down).
    """
    coeffs = EffectiveCoefficients(bath.gamma, *_one_point(bath, drive, shifts)[3:])
    if validate and coeffs.n_tilde < 0.0:
        raise _negative_n_tilde(coeffs.n_tilde)
    return coeffs


def _negative_n_tilde(n_tilde: float) -> UnphysicalCoefficientsError:
    return UnphysicalCoefficientsError(
        f"effective photon number is negative (N~ = {n_tilde:.6g}); the "
        f"secular reduction is unphysical here. Pass validate=False to "
        f"inspect the raw coefficients."
    )
