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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Mapping, Union

from .errors import InvalidParamsError, UnphysicalCoefficientsError, require_finite_fields
from .spectrum import SqueezedVacuumParams, _m_abs_times, spectral_m_abs, spectral_n


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
        if op == 0.0:
            return 1.0
        return self.Omega / op

    @property
    def delta_tilde(self) -> float:
        """Delta / Omega', with the convention 0 at the Omega = Delta = 0 corner."""
        op = self.omega_prime
        if op == 0.0:
            return 0.0
        return self.Delta / op


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
    def asymptotic(
        cls, bath: SqueezedVacuumParams, drive: DriveParams
    ) -> "SqueezingShifts":
        """Far-detuned closed forms: delta_N = 0 and
        delta_M = |M(omega_L + Omega')| Omega' (lam + mu) / (lam mu)."""
        op = drive.omega_prime
        x = (bath.omega_L + op) - bath.omega_L
        m_op = float(_m_abs_times(x, op, bath.lam ** 2, bath.mu ** 2))
        delta_m = m_op * (bath.lam + bath.mu) / (bath.lam * bath.mu)
        return cls(delta_N=0.0, delta_M=delta_m)


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


def upsilon(bath: SqueezedVacuumParams, drive: DriveParams) -> complex:
    """Spectral imbalance Upsilon between the carrier and the shifted sideband.

    Upsilon vanishes as Omega' -> 0 and tends to
    N(omega_L) - |M(omega_L)| e^{i phi} deep in the wings.
    """
    w0 = bath.omega_L
    w1 = bath.omega_L + drive.omega_prime
    phase = cmath.exp(1j * bath.phi)
    return (
        spectral_n(bath, w0)
        - spectral_n(bath, w1)
        - (spectral_m_abs(bath, w0) - spectral_m_abs(bath, w1)) * phase
    )


def effective_coefficients(
    bath: SqueezedVacuumParams,
    drive: DriveParams,
    shifts: SqueezingShifts = SqueezingShifts(),
    validate: bool = True,
) -> EffectiveCoefficients:
    """Evaluate the effective coefficients for a bath/drive combination.

    Parameters
    ----------
    bath, drive:
        Reservoir and coherent-drive parameters.
    shifts:
        Principal-value shift integrals; zero when omitted.
    validate:
        When True (default), raise UnphysicalCoefficientsError if the
        resulting N~ is negative, since the reduced dynamics is then not
        a physical channel.  Pass False to inspect such coefficient sets
        anyway (useful for mapping where the description breaks down).

    Returns
    -------
    EffectiveCoefficients
    """
    ups = upsilon(bath, drive)
    dt = drive.delta_tilde
    ot = drive.omega_tilde
    phase = cmath.exp(1j * bath.phi)
    w1 = bath.omega_L + drive.omega_prime
    transverse = 0.5 * (1.0 - dt * dt)

    n_tilde = spectral_n(bath, w1) + transverse * ups.real
    m_tilde = (
        spectral_m_abs(bath, w1) * phase
        - transverse * ups
        + 1j * dt * shifts.delta_M * phase
    )
    delta = drive.Delta / bath.gamma - transverse * ups.imag + dt * shifts.delta_N
    beta = bath.gamma * ot * (shifts.delta_N + shifts.delta_M * phase - 1j * dt * ups)

    if validate and n_tilde < 0.0:
        raise _negative_n_tilde(n_tilde)
    return EffectiveCoefficients(
        gamma=bath.gamma,
        n_tilde=float(n_tilde),
        m_tilde=complex(m_tilde),
        delta=float(delta),
        beta=complex(beta),
    )


def _negative_n_tilde(n_tilde: float) -> UnphysicalCoefficientsError:
    return UnphysicalCoefficientsError(
        f"effective photon number is negative (N~ = {n_tilde:.6g}); the "
        f"secular reduction is unphysical here. Pass validate=False to "
        f"inspect the raw coefficients."
    )
