"""Tests for the finite-bandwidth squeezed-vacuum spectra."""

import math

import numpy as np
import pytest

from squeezedzeno import (
    InvalidParamsError,
    SqueezedVacuumParams,
    spectral_m,
    spectral_m_abs,
    spectral_n,
)


BATH = SqueezedVacuumParams(gamma=1.0, epsilon=0.5, phi=0.0, omega_L=100.0)


def test_linewidths():
    assert BATH.lam == 1.5
    assert BATH.mu == 0.5


def test_frozen_values_on_resonance():
    # gamma=1, eps=0.5: A = (lam^2 - mu^2)/4 = 1/2, so N(0) = 4 A^2/(mu^2 lam^2)
    assert spectral_n(BATH, BATH.omega_L) == pytest.approx(16.0 / 9.0, rel=1e-15)
    assert spectral_m_abs(BATH, BATH.omega_L) == pytest.approx(20.0 / 9.0, rel=1e-15)


def test_frozen_values_off_resonance():
    # hand-evaluated Lorentzians at x = 1: N = 1/(1.25 * 3.25), |M| = (1/1.25 + 1/3.25)/2
    assert spectral_n(BATH, BATH.omega_L + 1.0) == pytest.approx(16.0 / 65.0, rel=1e-14)
    assert spectral_m_abs(BATH, BATH.omega_L + 1.0) == pytest.approx(36.0 / 65.0, rel=1e-14)


def test_matches_difference_of_lorentzians():
    # the product form must agree with the textbook difference where the
    # latter is still well conditioned (x of order the linewidths)
    lam, mu = BATH.lam, BATH.mu
    amp = (lam**2 - mu**2) / 4.0
    for x in (0.0, 0.3, 1.0, 2.5, -4.0):
        direct = amp * (1.0 / (x**2 + mu**2) - 1.0 / (x**2 + lam**2))
        assert spectral_n(BATH, BATH.omega_L + x) == pytest.approx(direct, rel=1e-12)


def test_identity_m_squared_n_n_plus_one():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        gamma = rng.uniform(0.1, 10.0)
        eps = rng.uniform(0.0, 0.999) * gamma
        bath = SqueezedVacuumParams(gamma, eps, rng.uniform(-np.pi, np.pi), 1.0)
        omega = bath.omega_L + rng.uniform(-50.0, 50.0) * gamma
        n = spectral_n(bath, omega)
        m = spectral_m_abs(bath, omega)
        assert m * m == pytest.approx(n * (n + 1.0), rel=1e-12, abs=1e-300)


def test_no_cancellation_in_the_wings():
    # far off resonance both Lorentzians are tiny and nearly equal; the
    # value must stay positive instead of dissolving into rounding noise
    omega = BATH.omega_L + np.array([1e3, 1e4, 1e6])
    n = spectral_n(BATH, omega)
    m = spectral_m_abs(BATH, omega)
    assert np.all(n > 0.0)
    np.testing.assert_allclose(m**2, n * (n + 1.0), rtol=1e-12)


def test_phase_enters_m_only():
    bath = SqueezedVacuumParams(1.0, 0.5, math.pi / 3, 100.0)
    omega = bath.omega_L + 0.7
    m = spectral_m(bath, omega)
    assert abs(m) == pytest.approx(spectral_m_abs(bath, omega), rel=1e-15)
    assert np.angle(m) == pytest.approx(math.pi / 3, rel=1e-12)
    assert spectral_n(bath, omega) == spectral_n(BATH, omega)


def test_unsqueezed_limit_is_dark():
    bath = SqueezedVacuumParams(2.0, 0.0, 0.0, 10.0)
    omega = bath.omega_L + np.linspace(-5.0, 5.0, 11)
    assert np.all(spectral_n(bath, omega) == 0.0)
    assert np.all(spectral_m_abs(bath, omega) == 0.0)


def test_vectorized_and_scalar():
    omega = BATH.omega_L + np.linspace(-2.0, 2.0, 5)
    n = spectral_n(BATH, omega)
    assert n.shape == (5,)
    assert isinstance(spectral_n(BATH, BATH.omega_L), float)
    assert n[2] == spectral_n(BATH, BATH.omega_L)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(gamma=0.0, epsilon=0.0, phi=0.0, omega_L=1.0),
        dict(gamma=-1.0, epsilon=0.0, phi=0.0, omega_L=1.0),
        dict(gamma=1.0, epsilon=-0.1, phi=0.0, omega_L=1.0),
        dict(gamma=1.0, epsilon=1.0, phi=0.0, omega_L=1.0),
        dict(gamma=1.0, epsilon=1.5, phi=0.0, omega_L=1.0),
        dict(gamma=1.0, epsilon=0.5, phi=0.0, omega_L=0.0),
        dict(gamma=1.0, epsilon=0.5, phi=float("nan"), omega_L=1.0),
    ],
)
def test_parameter_validation(kwargs):
    with pytest.raises(InvalidParamsError):
        SqueezedVacuumParams(**kwargs)
