"""Tests for the effective master-equation coefficients."""

import math
from fractions import Fraction

import numpy as np
import pytest

from squeezedzeno import (
    DriveParams,
    EffectiveCoefficients,
    InvalidParamsError,
    SqueezedVacuumParams,
    SqueezingShifts,
    UnphysicalCoefficientsError,
    effective_coefficients,
    spectral_m_abs,
    spectral_n,
)
from test_sweep_kernel import reference_upsilon

BATH = SqueezedVacuumParams(gamma=1.0, epsilon=0.5, phi=math.pi, omega_L=100.0)
DRIVE = DriveParams(Omega=10.0, Delta=0.0)


def test_generalized_rabi():
    d = DriveParams(Omega=3.0, Delta=4.0)
    assert d.omega_prime == 5.0
    assert d.omega_tilde == pytest.approx(0.6, rel=1e-15)
    assert d.delta_tilde == pytest.approx(0.8, rel=1e-15)


def test_corner_convention_at_zero_drive():
    d = DriveParams(Omega=0.0, Delta=0.0)
    assert d.omega_prime == 0.0
    assert d.omega_tilde == 1.0
    assert d.delta_tilde == 0.0


def test_drive_validation():
    with pytest.raises(InvalidParamsError):
        DriveParams(Omega=-1.0, Delta=0.0)
    # negative detuning is allowed
    DriveParams(Omega=1.0, Delta=-2.0)


def test_upsilon_from_spectra():
    # hand-assembled from the two spectral evaluations it combines
    ups = reference_upsilon(BATH, DRIVE)
    w0, w1 = BATH.omega_L, BATH.omega_L + DRIVE.omega_prime
    expected = (
        spectral_n(BATH, w0)
        - spectral_n(BATH, w1)
        - (spectral_m_abs(BATH, w0) - spectral_m_abs(BATH, w1))
        * complex(math.cos(BATH.phi), math.sin(BATH.phi))
    )
    assert ups == pytest.approx(expected, rel=1e-14)
    assert ups.real == pytest.approx(3.9900249376558605, rel=1e-14)
    assert abs(ups.imag) < 1e-15


def test_asymptotic_shift_values():
    sh = SqueezingShifts.asymptotic(BATH, DRIVE)
    assert sh.delta_N == 0.0
    # |M(omega_L + Omega')| * Omega' * (lam + mu)/(lam mu)
    m1 = spectral_m_abs(BATH, BATH.omega_L + DRIVE.omega_prime)
    expected = m1 * DRIVE.omega_prime * (BATH.lam + BATH.mu) / (BATH.lam * BATH.mu)
    assert sh.delta_M == pytest.approx(expected, rel=1e-15)
    assert sh.delta_M == pytest.approx(0.2634001792584553, rel=1e-13)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("omega_prime", [1e150, 1e155, 1e160, 1e200, 1e300])
def test_asymptotic_shift_far_in_the_wing_matches_exact_arithmetic(omega_prime):
    # |M| alone goes subnormal past Omega' ~ 1e154 and to 0 past ~ 1e162
    sh = SqueezingShifts.asymptotic(BATH, DriveParams(Omega=omega_prime, Delta=0.0))
    lam, mu = Fraction(BATH.lam), Fraction(BATH.mu)
    x = Fraction(BATH.omega_L + omega_prime) - Fraction(BATH.omega_L)
    m_abs = (lam * lam - mu * mu) / 4 * (1 / (x * x + mu * mu) + 1 / (x * x + lam * lam))
    expected = float(m_abs * Fraction(omega_prime) * (lam + mu) / (lam * mu))
    assert sh.delta_M == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_zero_shifts():
    sh = SqueezingShifts()
    assert sh.delta_N == 0.0 and sh.delta_M == 0.0


def test_effective_coefficients_resonant():
    co = effective_coefficients(BATH, DRIVE, SqueezingShifts.asymptotic(BATH, DRIVE))
    assert co.gamma == BATH.gamma
    assert co.n_tilde == pytest.approx(1.9951100244498778, rel=1e-13)
    assert co.m_tilde.real == pytest.approx(-2.0048899755501224, rel=1e-13)
    assert abs(co.m_tilde.imag) < 1e-14
    assert abs(co.delta) < 1e-14
    assert co.beta.real == pytest.approx(-0.2634001792584553, rel=1e-13)


def test_effective_coefficients_detuned():
    drive = DriveParams(Omega=10.0, Delta=2.0)
    co = effective_coefficients(BATH, drive, SqueezingShifts.asymptotic(BATH, drive))
    assert co.n_tilde == pytest.approx(1.918555508534349, rel=1e-13)
    assert co.m_tilde == pytest.approx(
        complex(-1.9279672732402313, -0.0506775755865894), rel=1e-12
    )
    # delta_N = 0 and Im Upsilon ~ 0 at phi = pi, so delta reduces to Delta/gamma
    assert co.delta == pytest.approx(2.0, rel=1e-14)
    assert co.beta == pytest.approx(
        complex(-0.2533878779329477, -0.7673860911270984), rel=1e-12
    )


def test_squeezing_enhances_n_tilde():
    # at phi = pi both Upsilon differences add, so N~ exceeds the bare
    # sideband occupation for every epsilon > 0
    for eps in (0.1, 0.4, 0.8):
        bath = SqueezedVacuumParams(1.0, eps, math.pi, 100.0)
        co = effective_coefficients(bath, DRIVE, SqueezingShifts())
        n1 = spectral_n(bath, bath.omega_L + DRIVE.omega_prime)
        assert co.n_tilde > n1


def test_negative_n_tilde_raises_by_default():
    bath = SqueezedVacuumParams(1.0, 0.5, 0.0, 100.0)
    with pytest.raises(UnphysicalCoefficientsError):
        effective_coefficients(bath, DRIVE, SqueezingShifts.asymptotic(bath, DRIVE))
    co = effective_coefficients(
        bath, DRIVE, SqueezingShifts.asymptotic(bath, DRIVE), validate=False
    )
    assert co.n_tilde == pytest.approx(-0.21723469105015247, rel=1e-13)


def test_default_shifts_are_zero():
    co_default = effective_coefficients(BATH, DRIVE)
    co_zero = effective_coefficients(BATH, DRIVE, SqueezingShifts())
    assert co_default == co_zero


def test_unsqueezed_bath_is_vacuum():
    bath = SqueezedVacuumParams(1.0, 0.0, 0.0, 100.0)
    co = effective_coefficients(bath, DRIVE, SqueezingShifts())
    assert co.n_tilde == 0.0
    assert co.m_tilde == 0.0
    assert co.beta == 0.0


def test_detuning_moves_delta():
    rng = np.random.default_rng(3)
    for _ in range(50):
        delta = rng.uniform(-5.0, 5.0)
        gamma = rng.uniform(0.5, 2.0)
        bath = SqueezedVacuumParams(gamma, 0.3 * gamma, math.pi, 200.0)
        drive = DriveParams(Omega=rng.uniform(0.0, 10.0), Delta=delta)
        co = effective_coefficients(bath, drive, SqueezingShifts())
        # with zero shifts and phi = pi the Im Upsilon correction vanishes
        assert co.delta == pytest.approx(delta / gamma, rel=1e-12, abs=1e-12)


def test_coefficients_container_is_frozen():
    co = EffectiveCoefficients(
        gamma=1.0, n_tilde=0.5, m_tilde=0.1 + 0.0j, delta=0.0, beta=0.0 + 0.0j
    )
    with pytest.raises(AttributeError):
        co.gamma = 2.0
