"""Squeezing spectra of a finite-bandwidth squeezed vacuum.

The reservoir produced by a below-threshold degenerate parametric
oscillator is characterized by two Lorentzian spectra centered on the
carrier frequency omega_L: the mean photon number N(omega) and the
magnitude of the anomalous correlator M(omega) = |M(omega)| e^{i phi}.
Both are parametrized by the cavity damping rate gamma and the
amplification coefficient epsilon through

    lambda = gamma + epsilon,   mu = gamma - epsilon,

      N(omega) = (lambda^2 - mu^2)/4 * [1/(x^2 + mu^2) - 1/(x^2 + lambda^2)]
    |M(omega)| = (lambda^2 - mu^2)/4 * [1/(x^2 + mu^2) + 1/(x^2 + lambda^2)]

with x = omega - omega_L.  The profiles satisfy the minimum-uncertainty
identity |M|^2 = N (N + 1) at every frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import InvalidParamsError, require_finite_fields

FloatOrArray = Union[float, NDArray[np.float64]]


@dataclass(frozen=True)
class SqueezedVacuumParams:
    """Bath description (gamma, epsilon, phi, omega_L).

    Parameters
    ----------
    gamma:
        Cavity damping rate, angular frequency units, > 0.
    epsilon:
        Real amplification coefficient, same units, 0 <= epsilon < gamma
        (below-threshold operation; epsilon = 0 is an ordinary vacuum).
    phi:
        Squeezing phase in radians.
    omega_L:
        Carrier (driving laser) frequency, > 0.
    """

    gamma: float
    epsilon: float
    phi: float
    omega_L: float

    def __post_init__(self) -> None:
        require_finite_fields(self, "gamma", "epsilon", "phi", "omega_L")
        if self.gamma <= 0.0:
            raise InvalidParamsError(f"gamma must be > 0, got {self.gamma}")
        if self.epsilon < 0.0:
            raise InvalidParamsError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.epsilon >= self.gamma:
            raise InvalidParamsError(
                f"epsilon must satisfy epsilon < gamma (below threshold), "
                f"got epsilon={self.epsilon}, gamma={self.gamma}"
            )
        if self.omega_L <= 0.0:
            raise InvalidParamsError(f"omega_L must be > 0, got {self.omega_L}")

    @property
    def lam(self) -> float:
        """lambda = gamma + epsilon (wide Lorentzian width)."""
        return self.gamma + self.epsilon

    @property
    def mu(self) -> float:
        """mu = gamma - epsilon (narrow Lorentzian width), > 0 below threshold."""
        return self.gamma - self.epsilon


def spectral_n(params: SqueezedVacuumParams, omega: ArrayLike) -> FloatOrArray:
    """Mean photon number N(omega) of the squeezed reservoir.

    Accepts a scalar or array of frequencies; returns the same shape.
    N is even in x = omega - omega_L, maximal at x = 0, nonnegative,
    and falls off as 1/x^4.
    """
    x = np.asarray(omega, dtype=float) - params.omega_L
    value = _n_at(x, params.lam ** 2, params.mu ** 2)
    if np.ndim(omega) == 0:
        return float(value)
    return value


def _n_at(x, lam2, mu2):
    """N at carrier offsets x for squared widths lam2, mu2 (arrays broadcast)."""
    amp = (lam2 - mu2) / 4.0
    # product form of amp * (1/(x^2+mu^2) - 1/(x^2+lam^2)): algebraically
    # identical, but the explicit difference cancels catastrophically in
    # the wings (|x| >> lam) and would spoil |M|^2 = N(N+1) at 1e-12
    return 4.0 * amp * amp / ((x * x + mu2) * (x * x + lam2))


def spectral_m_abs(params: SqueezedVacuumParams, omega: ArrayLike) -> FloatOrArray:
    """Magnitude |M(omega)| of the anomalous correlator."""
    x = np.asarray(omega, dtype=float) - params.omega_L
    value = _m_abs_at(x, params.lam ** 2, params.mu ** 2)
    if np.ndim(omega) == 0:
        return float(value)
    return value


def _m_abs_at(x, lam2, mu2):
    """|M| at carrier offsets x for squared widths lam2, mu2 (arrays broadcast)."""
    amp = (lam2 - mu2) / 4.0
    return amp * (1.0 / (x * x + mu2) + 1.0 / (x * x + lam2))


def spectral_m(params: SqueezedVacuumParams, omega: ArrayLike):
    """Complex correlator M(omega) = |M(omega)| e^{i phi}.

    The phase phi is frequency independent; |M| >= N pointwise and
    |M|^2 = N (N + 1) exactly.
    """
    phase = complex(math.cos(params.phi), math.sin(params.phi))
    value = spectral_m_abs(params, omega) * phase
    if np.ndim(omega) == 0:
        return complex(value)
    return value
