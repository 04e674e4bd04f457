"""Tests for the master-equation superoperator and Bloch dynamics."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import curve_fit

import squeezedzeno
from squeezedzeno import (
    BlochState,
    DegenerateFitError,
    DensityMatrix,
    DriveParams,
    EffectiveCoefficients,
    IllConditionedFitError,
    InvalidParamsError,
    SqueezedVacuumParams,
    SqueezingShifts,
    bloch_derivative,
    bloch_generator,
    build_liouvillian,
    effective_coefficients,
    evolve,
    fit_decay_rate,
    fit_exponential,
    population_decay_rate,
    quadrature_decay_rate,
    spectral_m_abs,
    spectral_n,
)
from squeezedzeno.bloch import _expm

BATH = SqueezedVacuumParams(gamma=1.0, epsilon=0.5, phi=math.pi, omega_L=100.0)
DRIVE = DriveParams(Omega=10.0, Delta=0.0)
COEFFS = effective_coefficients(BATH, DRIVE, SqueezingShifts.asymptotic(BATH, DRIVE))


def steady_state(coeffs, drive):
    """Stationary Bloch vector from the linear system A s = -b."""
    mat, aff = bloch_generator(coeffs, drive)
    u, w, z = np.linalg.solve(mat, -aff)
    return BlochState(0.5 * (u + 1j * w), z)


def quadrature_effective_rates(coeffs):
    """Decay rates of the undriven quadrature sector, sorted ascending.

    These are the negative real parts of the eigenvalues of the 2x2
    block coupling (u, w).  When the cross coupling Im M~ + delta is
    nonzero the quadratures mix and these effective rates differ from
    the literal Gamma_dec; the slower one governs the long-time tail.
    """
    mat, _ = bloch_generator(coeffs, DriveParams(0.0, 0.0))
    rates = sorted(-np.linalg.eigvals(mat[:2, :2]).real)
    return float(rates[0]), float(rates[1])


def random_coefficients(rng):
    return EffectiveCoefficients(
        gamma=rng.uniform(0.5, 2.0),
        n_tilde=rng.uniform(0.0, 3.0),
        m_tilde=complex(rng.normal(), rng.normal()),
        delta=rng.normal(),
        beta=complex(rng.normal(), rng.normal()),
    )


def random_state(rng):
    # random point inside the Bloch ball
    v = rng.normal(size=3)
    v *= rng.uniform(0.0, 1.0) / np.linalg.norm(v)
    return BlochState(complex(v[0] / 2.0, v[1] / 2.0), v[2])


def test_superoperator_matches_bloch_derivative():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(300):
        coeffs = random_coefficients(rng)
        drive = DriveParams(Omega=rng.uniform(0.0, 10.0), Delta=rng.normal())
        state = random_state(rng)
        liou = build_liouvillian(coeffs, drive)
        drho = liou.apply(state.to_density_matrix().matrix)
        ds_minus, ds_z = bloch_derivative(state, coeffs, drive)
        worst = max(worst, abs(drho[0, 1] - ds_minus))
        worst = max(worst, abs((drho[0, 0] - drho[1, 1]).real - ds_z))
        worst = max(worst, abs(np.trace(drho)))
    assert worst < 1e-12


def test_liouvillian_is_trace_free():
    rng = np.random.default_rng(12)
    trace_row = np.array([1.0, 0.0, 0.0, 1.0])
    for _ in range(50):
        liou = build_liouvillian(
            random_coefficients(rng), DriveParams(rng.uniform(0, 5), rng.normal())
        )
        assert np.abs(trace_row @ liou.matrix).max() < 1e-12


def test_generator_matches_derivative():
    rng = np.random.default_rng(13)
    for _ in range(100):
        coeffs = random_coefficients(rng)
        drive = DriveParams(Omega=rng.uniform(0.0, 10.0), Delta=rng.normal())
        state = random_state(rng)
        A, b = bloch_generator(coeffs, drive)
        v = np.array([2 * state.s_minus.real, 2 * state.s_minus.imag, state.s_z])
        du, dw, dz = A @ v + b
        ds_minus, ds_z = bloch_derivative(state, coeffs, drive)
        assert du == pytest.approx(2 * ds_minus.real, rel=1e-12, abs=1e-12)
        assert dw == pytest.approx(2 * ds_minus.imag, rel=1e-12, abs=1e-12)
        assert dz == pytest.approx(ds_z, rel=1e-12, abs=1e-12)


def test_vacuum_decay_closed_form():
    # undriven atom in an ordinary vacuum: <sigma_z>(t) = 2 e^{-gamma t} - 1
    bath = SqueezedVacuumParams(1.0, 0.0, 0.0, 100.0)
    drive = DriveParams(Omega=0.0, Delta=0.0)
    coeffs = effective_coefficients(bath, drive)
    traj = evolve(BlochState.excited(), coeffs, drive, (0.0, 5.0), n_samples=100)
    expected = 2.0 * np.exp(-traj.t) - 1.0
    np.testing.assert_allclose(traj.s_z, expected, atol=1e-8)
    np.testing.assert_allclose(np.abs(traj.s_minus), 0.0, atol=1e-12)


def test_steady_state_solves_generator():
    ss = steady_state(COEFFS, DRIVE)
    A, b = bloch_generator(COEFFS, DRIVE)
    v = np.array([2 * ss.s_minus.real, 2 * ss.s_minus.imag, ss.s_z])
    assert np.abs(A @ v + b).max() < 1e-12
    assert ss.s_z == pytest.approx(-0.037555711260159295, rel=1e-12)
    assert ss.s_minus.imag == pytest.approx(-0.04172856806684367, rel=1e-12)


def test_undriven_steady_state_population():
    # without drive the populations thermalize to -1/(1 + 2 N~)
    drive = DriveParams(Omega=0.0, Delta=0.0)
    coeffs = effective_coefficients(BATH, drive, SqueezingShifts.asymptotic(BATH, drive))
    ss = steady_state(coeffs, drive)
    assert ss.s_z == pytest.approx(-1.0 / (1.0 + 2.0 * coeffs.n_tilde), rel=1e-12)
    assert abs(ss.s_minus) < 1e-15


def test_decay_rates_against_spectra():
    # at phi = pi the effective rates telescope onto bare spectral values:
    # slow quadrature gamma (1/2 + N1 - |M1|), fast gamma (1/2 + N0 + |M0|)
    w0, w1 = BATH.omega_L, BATH.omega_L + DRIVE.omega_prime
    slow = BATH.gamma * (0.5 + spectral_n(BATH, w1) - spectral_m_abs(BATH, w1))
    fast = BATH.gamma * (0.5 + spectral_n(BATH, w0) + spectral_m_abs(BATH, w0))
    rates = quadrature_effective_rates(COEFFS)
    assert rates[0] == pytest.approx(slow, rel=1e-12)
    assert rates[1] == pytest.approx(fast, rel=1e-12)
    assert rates[1] == pytest.approx(4.5, rel=1e-12)
    assert quadrature_decay_rate(COEFFS) == pytest.approx(0.4902200488997557, rel=1e-12)
    assert population_decay_rate(COEFFS) == pytest.approx(
        BATH.gamma * (1.0 + 2.0 * COEFFS.n_tilde), rel=1e-15
    )


def test_slow_quadrature_decouples_at_pi():
    # Im M~ + delta = 0 here, so <sigma_x> decays as a clean exponential
    # at the slow rate even with the drive on
    traj = evolve(
        BlochState.x_polarized(),
        COEFFS,
        DRIVE,
        (0.0, 3.0),
        n_samples=200,
        method="bloch",
    )
    fit = fit_decay_rate(traj, observable="sigma_x")
    assert fit.rate == pytest.approx(quadrature_decay_rate(COEFFS), rel=1e-6)
    assert abs(fit.offset) < 1e-6


def test_evolve_methods_agree():
    kwargs = dict(n_samples=50)
    t_span = (0.0, 2.0)
    sup = evolve(BlochState.excited(), COEFFS, DRIVE, t_span, **kwargs)
    blo = evolve(BlochState.excited(), COEFFS, DRIVE, t_span, method="bloch", **kwargs)
    np.testing.assert_allclose(sup.s_z, blo.s_z, atol=5e-8)
    np.testing.assert_allclose(sup.s_minus, blo.s_minus, atol=5e-8)
    assert np.all(blo.trace_error == 0.0)
    assert np.abs(sup.trace_error).max() < 1e-10


def test_evolve_frozen_sample():
    traj = evolve(BlochState.excited(), COEFFS, DRIVE, (0.0, 1.0), n_samples=5)
    np.testing.assert_allclose(traj.t, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-15)
    assert traj.s_z[0] == 1.0
    assert traj.s_z[2] == pytest.approx(-0.00662008245, abs=1e-7)
    assert traj.s_minus[2].imag == pytest.approx(-0.0888318542, abs=1e-7)
    # phi = pi keeps the real quadrature dark
    np.testing.assert_allclose(traj.s_minus.real, 0.0, atol=1e-12)


def test_evolve_explicit_grid_and_accessors():
    traj = evolve(BlochState.ground(), COEFFS, DRIVE, (0.0, 1.0), n_samples=3)
    assert len(traj) == 3
    np.testing.assert_array_equal(traj.t, [0.0, 0.5, 1.0])
    assert traj.s_z[0] == -1.0
    sx = traj.observable("sigma_x")
    sy = traj.observable("sigma_y")
    np.testing.assert_allclose(sx, 2.0 * traj.s_minus.real, atol=1e-15)
    np.testing.assert_allclose(sy, -2.0 * traj.s_minus.imag, atol=1e-15)
    with pytest.raises(InvalidParamsError):
        traj.observable("sigma_q")


# RK45 reference with tight tolerances and the step cap
# 0.01 / max(gamma (1 + 2 N~), Omega'); on the draws below it agrees with
# exact propagation to ~2e-14
REFERENCE_ATOL = 1e-11


def rk45_reference(initial, coeffs, drive, t_span, t_eval):
    """(u, w, z) at t_eval from RK45 on the affine Bloch equations."""
    mat, aff = bloch_generator(coeffs, drive)
    scale = max(coeffs.gamma * abs(1.0 + 2.0 * coeffs.n_tilde), drive.omega_prime)
    y0 = [2.0 * initial.s_minus.real, 2.0 * initial.s_minus.imag, initial.s_z]
    sol = solve_ivp(
        lambda _t, y: mat @ y + aff, t_span, y0, method="RK45", t_eval=t_eval,
        rtol=1e-12, atol=1e-14, max_step=0.01 / scale,
    )
    assert sol.success
    return sol.y


def bloch_vectors(traj):
    return np.array([2.0 * traj.s_minus.real, 2.0 * traj.s_minus.imag, traj.s_z])


@pytest.mark.parametrize("method", ["superoperator", "bloch"])
def test_evolve_matches_rk45_reference_on_irregular_grid(method):
    rng = np.random.default_rng(31)
    for _ in range(4):
        coeffs = random_coefficients(rng)
        drive = DriveParams(Omega=rng.uniform(0.0, 10.0), Delta=rng.normal())
        initial = random_state(rng)
        t_span = (rng.uniform(-1.0, 1.0), rng.uniform(2.0, 3.0))
        traj = evolve(initial, coeffs, drive, t_span, n_samples=39, method=method)
        ref = rk45_reference(initial, coeffs, drive, t_span, traj.t)
        np.testing.assert_allclose(bloch_vectors(traj), ref, rtol=0, atol=REFERENCE_ATOL)


# |M~| = |delta| makes the undriven quadrature block -gamma (1/2 + N~) I + N
# with N nilpotent and nonzero (the off-diagonals are -gamma (delta + Im M~)
# and gamma (delta - Im M~)): a Jordan block with one degenerate rate
EP_COEFFS = EffectiveCoefficients(
    gamma=1.3, n_tilde=0.4, m_tilde=complex(0.3, 0.4), delta=0.5, beta=0.0j
)
EP_STATE = BlochState(complex(0.3, -0.2), 0.4)


@pytest.mark.parametrize("method", ["superoperator", "bloch"])
@pytest.mark.parametrize("omega", [0.0, 3.0])
def test_evolve_at_exceptional_point_matches_rk45_reference(method, omega):
    drive = DriveParams(Omega=omega, Delta=0.0)
    rates = quadrature_effective_rates(EP_COEFFS)
    assert rates[0] == pytest.approx(rates[1], abs=1e-7)
    traj = evolve(EP_STATE, EP_COEFFS, drive, (0.0, 4.0), n_samples=41, method=method)
    ref = rk45_reference(EP_STATE, EP_COEFFS, drive, (0.0, 4.0), traj.t)
    np.testing.assert_allclose(bloch_vectors(traj), ref, rtol=0, atol=REFERENCE_ATOL)


@pytest.mark.parametrize("method", ["superoperator", "bloch"])
def test_evolve_at_exceptional_point_matches_jordan_closed_form(method):
    # undriven quadratures: (u, w)(t) = e^{lambda t} (I + N t) (u, w)(0)
    drive = DriveParams(Omega=0.0, Delta=0.0)
    mat, _ = bloch_generator(EP_COEFFS, drive)
    lam = -EP_COEFFS.gamma * (0.5 + EP_COEFFS.n_tilde)
    nil = mat[:2, :2] - lam * np.eye(2)
    assert np.abs(nil).max() > 0.1
    assert np.abs(nil @ nil).max() < 1e-15
    traj = evolve(EP_STATE, EP_COEFFS, drive, (0.0, 6.0), n_samples=25, method=method)
    t = traj.t
    uw0 = np.array([2.0 * EP_STATE.s_minus.real, 2.0 * EP_STATE.s_minus.imag])
    expected = np.exp(lam * t) * (uw0[:, None] + np.outer(nil @ uw0, t))
    np.testing.assert_allclose(bloch_vectors(traj)[:2], expected, rtol=0, atol=1e-13)


@pytest.mark.parametrize("method", ["superoperator", "bloch"])
def test_evolve_long_horizon_is_exact_and_fast(method):
    # under the step cap of rk45_reference this horizon takes ~1e7 steps
    start = time.perf_counter()
    traj = evolve(BlochState.excited(), COEFFS, DRIVE, (0.0, 1e4), n_samples=3, method=method)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f} s, budget 1 s"
    ss = steady_state(COEFFS, DRIVE)
    assert traj.s_z[-1] == pytest.approx(ss.s_z, abs=1e-12)
    assert traj.s_minus[-1] == pytest.approx(ss.s_minus, abs=1e-12)
    assert np.abs(traj.trace_error).max() < 1e-12


@pytest.mark.parametrize("method", ["superoperator", "bloch"])
@pytest.mark.parametrize("t_end", [1e12, 1e300])
def test_evolve_refuses_spans_past_the_squaring_limit(method, t_end):
    # |G|_1 t_end is far above _THETA13 2^32 = 2.3e10 here; unchecked, 1e12 moved the
    # trace by 1e-3 and 1e300 returned NaN
    with pytest.raises(InvalidParamsError, match="32 squarings"):
        evolve(BlochState.excited(), COEFFS, DRIVE, (0.0, t_end), n_samples=3, method=method)


# evolve's Pade-13 kernel against scipy.linalg.expm (Al-Mohy & Higham 2009, which picks
# its own order and scaling): both carry round-off of about cond(exp, A) * 1e-16, so
# they must agree to EXPM_RTOL of each matrix's largest entry; on these stacks they
# agree to 9e-12, worst on the random 4x4s (the t = 1e4 samples reach 1-norms of 1.6e5).
# The t = 0 sample of each generator stack is a zero matrix: its exponential must be
# exactly the identity, real for the Bloch form and complex for the superoperator.
EXPM_RTOL = 1e-11
EXPM_TIMES = np.array([0.0, 1e-3, 0.5, 7.0, 1e4])


def homogeneous_bloch_generator(coeffs, drive):
    mat, aff = bloch_generator(coeffs, drive)
    gen = np.zeros((4, 4))
    gen[:3, :3], gen[:3, 3] = mat, aff
    return gen


def expm_stack(case):
    rng = np.random.default_rng(5)
    if case == "superoperator":
        return build_liouvillian(COEFFS, DRIVE).matrix * EXPM_TIMES[:, None, None]
    if case == "bloch":
        return homogeneous_bloch_generator(COEFFS, DRIVE) * EXPM_TIMES[:, None, None]
    if case == "exceptional-superoperator":
        gen = build_liouvillian(EP_COEFFS, DriveParams(Omega=0.0, Delta=0.0)).matrix
        return gen * EXPM_TIMES[:, None, None]
    if case == "exceptional-bloch":
        gen = homogeneous_bloch_generator(EP_COEFFS, DriveParams(Omega=3.0, Delta=0.0))
        return gen * EXPM_TIMES[:, None, None]
    if case == "random-real":
        return 30.0 * rng.normal(size=(200, 4, 4))
    return 20.0 * (rng.normal(size=(200, 4, 4)) + 1j * rng.normal(size=(200, 4, 4)))


@pytest.mark.parametrize(
    "case",
    ["superoperator", "bloch", "exceptional-superoperator", "exceptional-bloch",
     "random-real", "random-complex"],
)
def test_matrix_exponential_matches_scipy_reference(case):
    from scipy.linalg import expm

    stack = expm_stack(case)
    got, ref = _expm(stack), expm(stack)
    assert got.dtype == ref.dtype
    scale = np.abs(ref).max(axis=(1, 2), keepdims=True)
    assert np.all(np.abs(got - ref) <= EXPM_RTOL * scale)
    zero = ~stack.any(axis=(1, 2))
    np.testing.assert_array_equal(got[zero], np.broadcast_to(np.eye(4), got[zero].shape))


@pytest.mark.parametrize(
    "grid",
    [
        pytest.param({"t_span": (0.0, math.inf)}, id="inf-end"),
        pytest.param({"t_span": (-math.inf, 1.0)}, id="inf-start"),
        pytest.param({"n_samples": 0}, id="no-samples"),
        pytest.param({"n_samples": -1}, id="negative-samples"),
        pytest.param({"n_samples": float("nan")}, id="nan-samples"),
        pytest.param({"n_samples": float("inf")}, id="inf-samples"),
        pytest.param({"n_samples": 2.7}, id="fractional-samples"),
    ],
)
def test_evolve_rejects_bad_sample_grid(grid):
    with pytest.raises(InvalidParamsError):
        evolve(BlochState.excited(), COEFFS, DRIVE, **{"t_span": (0.0, 1.0), **grid})


# imports the CLI, runs main on argv (if any), prints the exit code and the
# loaded scipy and yaml modules
_IMPORT_PROBE = """
import contextlib, io, json, sys
from squeezedzeno.cli import main
argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = 0 if argv is None else main(argv)
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "yaml"))]))
"""


def _fresh_interpreter_modules(tmp_path, argv):
    """Exit code and loaded scipy/yaml modules of argv, run with a JSON config."""
    config = tmp_path / "c.json"
    config.write_text('{"spectrum": {"points": 5}, "evolve": {"t_end": 1.0, "samples": 3}, '
                      '"oracle": {"schedule": [[20, 1.0]]}}')
    if argv is not None:
        argv = [*argv, "--config", str(config)]
    src = str(Path(squeezedzeno.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(argv)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


@pytest.mark.parametrize(
    "argv, code",
    [(None, 0), (["spectrum"], 0), (["timescales"], 0), (["sweep"], 0), (["evolve"], 0),
     (["oracle", "--format", "json"], 0), (["oracle", "--format", "csv"], 1)],
    ids=["import", "spectrum", "timescales", "sweep", "evolve", "oracle", "config-error"],
)
def test_closed_form_runs_load_neither_scipy_nor_yaml(tmp_path, argv, code):
    assert _fresh_interpreter_modules(tmp_path, argv) == [code, []]


def test_fit_exponential_recovers_synthetic_rate():
    t = np.linspace(0.0, 4.0, 300)
    y = 0.3 + 0.7 * np.exp(-2.5 * t)
    fit = fit_exponential(t, y)
    assert fit.rate == pytest.approx(2.5, rel=1e-9)
    assert fit.amplitude == pytest.approx(0.7, rel=1e-9)
    assert fit.offset == pytest.approx(0.3, rel=1e-9)
    assert fit.residual < 1e-10


def test_fit_exponential_rejects_flat_data():
    t = np.linspace(0.0, 1.0, 50)
    with pytest.raises(DegenerateFitError):
        fit_exponential(t, np.full_like(t, 0.7))


@pytest.mark.parametrize("where", ["t", "y"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fit_exponential_rejects_non_finite_samples(where, bad):
    t = np.linspace(0.0, 4.0, 10)
    y = 0.3 + 0.7 * np.exp(-2.5 * t)
    (t if where == "t" else y)[4] = bad
    with pytest.raises(InvalidParamsError, match="finite"):
        fit_exponential(t, y)


def test_fit_exponential_rejects_non_exponential():
    t = np.linspace(0.0, 6.0, 400)
    y = np.sin(3.0 * t)
    with pytest.raises(IllConditionedFitError):
        fit_exponential(t, y)


def test_fit_exponential_rejects_two_exponentials():
    t = np.linspace(0.0, 5.0, 200)
    with pytest.raises(IllConditionedFitError, match="not a single exponential"):
        fit_exponential(t, np.exp(-t) + np.exp(-10.0 * t))


def test_fit_exponential_reports_non_convergence():
    # a straight line is the rate -> 0 limit of a * exp(-rate t) + c: no finite best fit
    t = np.linspace(0.0, 1.0, 50)
    with pytest.raises(IllConditionedFitError, match="did not converge"):
        fit_exponential(t, t)


def _curve_fit_reference(t, y):
    """Reference fit: scipy's curve_fit (MINPACK Levenberg-Marquardt, which
    stops at 1.5e-8 relative change), from a generic start."""
    p0 = [1.0 / (t[-1] - t[0]), y[0] - y[-1], y[-1]]
    return curve_fit(lambda tt, r, a, c: a * np.exp(-r * tt) + c, t, y, p0=p0, maxfev=20000)[0]


def _fit_cases():
    # (t, y, exact rate): the oracle's two rate probes, a clean and a rippled synthetic decay
    bath = SqueezedVacuumParams(1.0, 0.5, math.pi, 100.0)
    cases = []
    for observable, omega, initial in (("sigma_z", 0.0, BlochState.excited()),
                                       ("sigma_x", 10.0, BlochState.x_polarized())):
        drive = DriveParams(omega, 0.0)
        coeffs = effective_coefficients(bath, drive, SqueezingShifts.asymptotic(bath, drive))
        rate = (population_decay_rate if observable == "sigma_z" else quadrature_decay_rate)(coeffs)
        traj = evolve(initial, coeffs, drive, (0.0, 3.0 / rate), n_samples=600, method="bloch")
        cases.append((traj.t, traj.observable(observable), rate))
    t = np.linspace(0.0, 4.0, 300)
    cases.append((t, 0.3 + 0.7 * np.exp(-2.5 * t), 2.5))
    cases.append((t, 2.0 * np.exp(-0.7 * t) - 1.0 + 1e-4 * np.sin(37.0 * t), None))
    return cases


@pytest.mark.parametrize("case", range(4), ids=["Gamma_pop", "Gamma_dec", "clean", "rippled"])
def test_fit_exponential_matches_curve_fit_reference(case):
    t, y, rate = _fit_cases()[case]
    fit = fit_exponential(t, y)
    if rate is not None:  # the optimum of an exact exponential is its rate
        assert fit.rate == pytest.approx(rate, rel=1e-13)
    ref = _curve_fit_reference(t, y)
    # curve_fit stops at 1.5e-8 relative change, so its optimum is good to about 1e-8
    assert [fit.rate, fit.amplitude, fit.offset] == pytest.approx(list(ref), rel=1e-7, abs=1e-8)
    residual = np.sqrt(np.mean((ref[1] * np.exp(-ref[0] * t) + ref[2] - y) ** 2))
    assert fit.residual <= residual * (1.0 + 1e-12) + 1e-15


def test_density_matrix_conventions():
    rho = BlochState.excited().to_density_matrix()
    # basis ordering puts the excited level first
    assert rho.matrix[0, 0] == 1.0
    assert rho.matrix[1, 1] == 0.0
    # <sigma_-> = rho_eg sits above the diagonal
    mixed = BlochState(0.3 + 0.2j, 0.1).to_density_matrix()
    np.testing.assert_allclose(mixed.matrix, [[0.55, 0.3 + 0.2j], [0.3 - 0.2j, 0.45]], atol=1e-15)


def test_density_matrix_validation():
    with pytest.raises(InvalidParamsError):
        DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex))
    with pytest.raises(InvalidParamsError):
        DensityMatrix(np.array([[0.9, 0.0], [0.0, 0.5]], dtype=complex))


def test_bloch_ball_violation_warns():
    with pytest.warns(UserWarning):
        BlochState(0.6 + 0.0j, 0.8)
