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
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import InvalidParamsError, require_bound, require_carrier, require_finite_fields

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
        gamma - epsilon and gamma + epsilon lie between about 1e-77 and 1e77.
    phi:
        Squeezing phase in radians.
    omega_L:
        Carrier (driving laser) frequency, > 0 and at most errors.MAX_OMEGA_L
        (half the largest float), so that the measurement rate 2 omega_L / n is finite.
    """

    gamma: float
    epsilon: float
    phi: float
    omega_L: float

    def __post_init__(self) -> None:
        require_finite_fields(self, "gamma", "epsilon", "phi", "omega_L")
        require_bound("gamma", self.gamma, ">", 0)
        require_bound("epsilon", self.epsilon, ">=", 0)
        if self.epsilon >= self.gamma:
            raise InvalidParamsError(
                f"epsilon must satisfy epsilon < gamma (below threshold), "
                f"got epsilon={self.epsilon}, gamma={self.gamma}"
            )
        # N and |M| divide by lambda^2 mu^2, so lambda^4 must be finite and mu^4 normal
        lam2, mu2 = self.lam * self.lam, self.mu * self.mu  # * gives inf where ** raises
        if not (lam2 * lam2 < math.inf and mu2 * mu2 >= sys.float_info.min):
            raise InvalidParamsError(f"gamma +/- epsilon must lie between about 1e-77 and 1e77, "
                                     f"got lambda={self.lam}, mu={self.mu}")
        # last, so that a sweep can check (gamma, epsilon) and the carrier apart
        require_carrier(self.omega_L)

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
    return _at_offsets(_n_at, params, np.asarray(omega, dtype=float) - params.omega_L)


def _at_offsets(profile, params: SqueezedVacuumParams, x: ArrayLike) -> FloatOrArray:
    """profile at the carrier offsets x: a float for a scalar x, else an array."""
    value = profile(np.asarray(x, dtype=float), params.lam ** 2, params.mu ** 2)
    return float(value) if np.ndim(x) == 0 else value


def _n_at(x, lam2, mu2):
    """N at carrier offsets x for squared widths lam2, mu2 (arrays broadcast)."""
    amp = (lam2 - mu2) / 4.0
    # product form of amp * (1/(x^2+mu^2) - 1/(x^2+lam^2)): algebraically
    # identical, but the explicit difference cancels catastrophically in
    # the wings (|x| >> lam) and would spoil |M|^2 = N(N+1) at 1e-12
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        xx = x * x
        den = (xx + mu2) * (xx + lam2)
        # past 1.8e308 the product overflows; the same quotient as two factors does not
        split = (2.0 * amp / (xx + mu2)) * (2.0 * amp / (xx + lam2))
        return np.where(np.isinf(den), split, 4.0 * amp * amp / den)


def spectral_m_abs(params: SqueezedVacuumParams, omega: ArrayLike) -> FloatOrArray:
    """Magnitude |M(omega)| of the anomalous correlator."""
    return _at_offsets(_m_abs_at, params, np.asarray(omega, dtype=float) - params.omega_L)


def _m_abs_at(x, lam2, mu2):
    """|M| at carrier offsets x for squared widths lam2, mu2 (arrays broadcast)."""
    amp = (lam2 - mu2) / 4.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        xx = x * x
        # past |x| ~ 1.34e154 x * x overflows; |M| is then 2 amp / x^2, taken as 2 amp / x / x
        wing = 2.0 * amp / x / x
        return np.where(np.isinf(xx), wing, amp * (1.0 / (xx + mu2) + 1.0 / (xx + lam2)))

