"""Effective master-equation coefficients for a driven atom in squeezed light.

A two-level atom driven by a coherent field (Rabi frequency Omega,
detuning Delta) and damped by a finite-bandwidth squeezed reservoir is
described, after a secular treatment in the dressed basis, by a master
equation whose dissipative part looks like the broadband one but with
renormalized coefficients.  Writing the generalized Rabi frequency

    Omega' = sqrt(Omega^2 + Delta^2),
    Omega~ = Omega / Omega',   Delta~ = Delta / Omega',

the spectra are sampled at the carrier and at the shifted frequency
omega_L + Omega' (they depend on omega - omega_L alone, so the code
evaluates them at the offsets 0 and Omega'), combined through

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
and sweep, in real formulas over the Lorentzians A and B of the spectra
(N = A - B, |M| = A + B; see spectrum).  With c, s = cos phi, sin phi,
C = 2 cos^2(phi/2) = 1 + c, S = 2 sin^2(phi/2) = 1 - c and the exact
differences dA = A(0) - A(Omega') = (q/mu^2) / (1 + mu^2/Omega'^2), dB
likewise, Re Upsilon = S dA - C dB, Im Upsilon = -s (dA + dB), and both
N~ + Re M~ = C A(Omega') - S B(Omega') - Delta~ delta_M s and delta - Im M~ =
Delta/gamma + Delta~ delta_N - |M(Omega')| s - Delta~ delta_M c are free of the
1/mu^2 terms that N~, M~ and delta each carry as epsilon -> gamma (tests: scalar math).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .errors import (
    InvalidParamsError,
    UnphysicalCoefficientsError,
    require_bound,
    require_finite_fields,
)
from .spectrum import SqueezedVacuumParams, _m_abs_at, _n_at


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
        require_bound("Omega", self.Omega, ">=", 0)

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
        lam, mu = bath.lam, bath.mu
        return cls(0.0, float(_asymptotic_delta_m(
            drive.omega_prime, bath.gamma * bath.epsilon, lam ** 2, mu ** 2, lam, mu)))


def _asymptotic_delta_m(op, q, lam2, mu2, lam, mu):
    """delta_M at the sideband offset op = Omega' (arrays broadcast).  Past op ~ 1e154
    |M| alone goes subnormal, then to 0; there |M| op is
    q (1/(op + mu^2/op) + 1/(op + lam^2/op))."""
    op = np.asarray(op, dtype=float)  # op / 0 then gives inf, not ZeroDivisionError
    m = _m_abs_at(op, q, lam2, mu2)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        far = q * (1.0 / (op + mu2 / op) + 1.0 / (op + lam2 / op))
        m_op = np.where((m < np.finfo(float).tiny) & (op != 0.0), far, m * op)
        return m_op * (lam + mu) / (lam * mu)


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
    """Coefficient set (gamma, N~, M~, delta, beta) of the reduced master equation, and the
    stored, not summed, gamma_dec = gamma (1/2 + N~ + Re M~) and rotation = delta - Im M~:
    effective_coefficients forms them free of the 1/mu^2 terms N~, M~ and delta each hold."""

    gamma: float
    n_tilde: float
    m_tilde: complex
    delta: float
    beta: complex
    gamma_dec: float
    rotation: float


def _phase(phi: float) -> tuple:
    """(c, s, C, S) of a phase, C = 1 + c and S = 1 - c from the half angle (no cancellation)."""
    half_c, half_s = math.cos(0.5 * phi), math.sin(0.5 * phi)
    return math.cos(phi), math.sin(phi), 2.0 * half_c * half_c, 2.0 * half_s * half_s


def _coefficient_arrays(gamma, q, lam2, mu2, op, Delta, dt, ot, c, s, C, S, delta_N, delta_M):
    """N(omega_L + Omega'), |M(omega_L + Omega')|, Upsilon, N~, M~, delta, beta, Gamma_dec =
    gamma (1/2 + N~ + Re M~) and delta - Im M~ on arrays that broadcast (op = Omega', dt =
    Delta~, ot = Omega~, (c, s, C, S) = _phase(phi)), a complex value as its (real, imaginary)
    pair, in the real formulas of the module docstring (the last two free of cancellation)."""
    with np.errstate(all="ignore"):
        n1, m1 = _n_at(op, q, lam2, mu2), _m_abs_at(op, q, lam2, mu2)
        xx = op * op
        a1, b1 = q / (xx + mu2), q / (xx + lam2)
        d_a, d_b = q / mu2 / (1.0 + mu2 / xx), q / lam2 / (1.0 + lam2 / xx)
        ups = S * d_a - C * d_b, -s * (d_a + d_b)
        t, shift = 0.5 * (1.0 - dt * dt), dt * delta_M
        n_tilde = n1 + t * ups[0]
        m_tilde = m1 * c - t * ups[0] - shift * s, m1 * s - t * ups[1] + shift * c
        delta = Delta / gamma - t * ups[1] + dt * delta_N
        g = gamma * ot
        beta = g * (delta_N + delta_M * c + dt * ups[1]), g * (delta_M * s - dt * ups[0])
        g_dec = gamma * (0.5 + (C * a1 - S * b1) - shift * s)
        rotation = Delta / gamma + dt * delta_N - m1 * s - shift * c
    return n1, m1, ups, n_tilde, m_tilde, delta, beta, g_dec, rotation


def _one_point(bath: SqueezedVacuumParams, drive: DriveParams,
               shifts: SqueezingShifts = SqueezingShifts()) -> tuple:
    """_coefficient_arrays at one point as floats and complex numbers.  It runs on
    numpy scalars, where 1/0 gives inf as in an array, not ZeroDivisionError."""
    f = np.float64
    values = _coefficient_arrays(
        f(bath.gamma), f(bath.gamma * bath.epsilon), f(bath.lam ** 2), f(bath.mu ** 2),
        f(drive.omega_prime), f(drive.Delta), f(drive.delta_tilde), f(drive.omega_tilde),
        *map(f, _phase(bath.phi)), f(shifts.delta_N), f(shifts.delta_M))
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
