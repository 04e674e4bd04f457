"""Tests for the finite-bandwidth squeezed-vacuum spectra."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import squeezedzeno
from squeezedzeno import (
    InvalidParamsError,
    SqueezedVacuumParams,
    spectral_m_abs,
    spectral_n,
)
from squeezedzeno.cli import main


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


def spectrum_table(tmp_path, capsys, bath: dict) -> dict:
    """The spectrum subcommand's table at the default grid and this bath, by column."""
    cfg = tmp_path / "spectrum.json"
    cfg.write_text(json.dumps({"bath": bath}))
    assert main(["spectrum", "--format", "json", "--config", str(cfg)]) == 0
    table = json.loads(capsys.readouterr().out)["result"]
    return dict(zip(table["columns"], map(np.array, zip(*table["rows"]))))


def test_phase_enters_m_only(tmp_path, capsys):
    # the table's M is |M| e^{i phi}: its modulus and N do not see phi
    tilted = spectrum_table(tmp_path, capsys, {"phi": math.pi / 3})
    flat = spectrum_table(tmp_path, capsys, {"phi": 0.0})
    np.testing.assert_allclose(tilted["M_abs"], flat["M_abs"], rtol=1e-15)
    np.testing.assert_allclose(np.arctan2(tilted["M_im"], tilted["M_re"]), math.pi / 3,
                               rtol=1e-12)
    assert np.array_equal(tilted["N"], flat["N"])
    bath = SqueezedVacuumParams(1.0, 0.5, math.pi / 3, 100.0)
    assert spectral_m_abs(bath, 100.7) == spectral_m_abs(BATH, 100.7)


def test_spectrum_table_does_not_see_the_carrier(tmp_path, capsys):
    # N and M are tabulated at the offsets x; only the omega column holds omega_L + x
    near, far = (spectrum_table(tmp_path, capsys, {"omega_L": w}) for w in (100.0, 1e17))
    for column in ("x", "N", "M_abs", "M_re", "M_im"):
        assert near[column].tobytes() == far[column].tobytes(), column
    assert np.array_equal(far["omega"], 1e17 + far["x"])


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


@pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf, [1.0, math.inf],
                                   np.array([[100.0, 101.0], [math.nan, 99.0]])])
@pytest.mark.parametrize("spectrum", [spectral_n, spectral_m_abs])
def test_nonfinite_frequency_is_refused(spectrum, omega):
    # these returned nan, or 0.0 at an infinite frequency, without an error
    with pytest.raises(InvalidParamsError, match="omega must be finite, got (nan|inf|-inf)$"):
        spectrum(BATH, omega)


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


@pytest.mark.parametrize(
    "gamma, epsilon",
    [(2e77, 0.0), (1e100, 5e99), (1e300, 5e299), (1e308, 0.5), (1e-77, 0.0),
     (1e-100, 5e-101), (1e-170, 5e-171)],
)
def test_widths_outside_the_float_range_are_refused(gamma, epsilon):
    # lambda^4 would overflow, or mu^4 leave the normal range
    with pytest.raises(InvalidParamsError, match="between about 1e-77 and 1e77"):
        SqueezedVacuumParams(gamma, epsilon, 0.0, 1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gamma, epsilon", [(1e77, 1e76), (1e76, 9e75), (3e-77, 1e-77)])
def test_spectra_stay_finite_at_the_edge_of_the_float_range(gamma, epsilon):
    # near the carrier, where the CLI samples them
    bath = SqueezedVacuumParams(gamma, epsilon, 0.0, 1.0)
    x = np.array([0.0, 1.0, -10.0])
    n, m = spectral_n(bath, bath.omega_L + x), spectral_m_abs(bath, bath.omega_L + x)
    assert np.all(np.isfinite(n)) and np.all(np.isfinite(m))
    assert n[0] > 0.0 and m[0] >= n[0]


def _exact_n_m_abs(bath, x):
    """N and |M| at carrier offset x in exact rational arithmetic, rounded once."""
    lam2, mu2, xx = Fraction(bath.lam) ** 2, Fraction(bath.mu) ** 2, Fraction(x) ** 2
    amp = (lam2 - mu2) / 4
    n = 4 * amp * amp / ((xx + mu2) * (xx + lam2))
    return float(n), float(amp * (1 / (xx + mu2) + 1 / (xx + lam2)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bath", [SqueezedVacuumParams(1e77, 1e76, 0.0, 1.0), BATH],
                         ids=["wide", "default"])
def test_spectra_in_the_far_wings_match_exact_arithmetic(bath):
    # past 1.8e308 the denominator (x^2 + mu^2)(x^2 + lambda^2) overflows, and past
    # |x| ~ 1.34e154 so does x^2; neither may turn into a warning or a wrong zero
    x = np.array([1.1e77, 1e100, 1e150, 1e154, 1e200, 1e300])
    omega = bath.omega_L + x
    n, m = spectral_n(bath, omega), spectral_m_abs(bath, omega)
    for k, offset in enumerate(omega - bath.omega_L):
        scalar = spectral_n(bath, omega[k]), spectral_m_abs(bath, omega[k])
        for got, want in zip((n[k], m[k], *scalar), 2 * _exact_n_m_abs(bath, offset)):
            if want >= sys.float_info.min:
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)
            else:
                assert 0.0 <= got <= sys.float_info.min


def test_cli_spectrum_over_a_far_wing_grid_is_quiet(tmp_path):
    # in a fresh interpreter, so that a numpy overflow warning would show on stderr
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps({"bath": {"gamma": 1e77, "epsilon": 1e76},
                                "spectrum": {"x_min": -1e200, "x_max": 1e200}}))
    src = str(Path(squeezedzeno.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-m", "squeezedzeno.cli", "spectrum", "--config", str(cfgp)],
        env=env, capture_output=True, text=True,
    )
    assert (run.returncode, run.stderr) == (0, "")
