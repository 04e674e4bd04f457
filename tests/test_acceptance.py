"""Acceptance suite: one test per release criterion.

Each test states its tolerance inline, declares its time budget through
the time_budget fixture (see conftest), and fails loudly when either is
missed.  The terminal summary prints one PASS/FAIL line per criterion
with its duration and budget.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from squeezedzeno import (
    BlochState,
    DaviesModel,
    DriveParams,
    EffectiveCoefficients,
    MeasurementSchedule,
    SqueezedVacuumParams,
    SqueezingShifts,
    bloch_derivative,
    build_liouvillian,
    davies_max_deviation,
    davies_propagator_column,
    decay_time_approx,
    decay_time_exact,
    effective_coefficients,
    evolve,
    fit_decay_rate,
    population_decay_rate,
    quadrature_decay_rate,
    spectral_m_abs,
    spectral_n,
    sufficient_condition_margin,
    sustainable_condition,
    tan_theta_asymptotic,
    timescale_ratio,
    weak_survival,
)
from squeezedzeno.cli import main
from test_sweep_kernel import reference_upsilon

ARTIFACT_DIR = Path(__file__).parent / "_artifacts"


def test_criterion_01_spectral_identity(time_budget):
    # |M(w)|^2 = N(w) (N(w) + 1) to 1e-12 relative over 1e4 random draws
    budget = time_budget(1.0)
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        gamma = rng.uniform(0.05, 20.0)
        eps = rng.uniform(0.0, 0.999) * gamma
        phi = rng.uniform(-math.pi, math.pi)
        bath = SqueezedVacuumParams(gamma, eps, phi, 1.0)
        omega = bath.omega_L + rng.uniform(-100.0, 100.0, size=100) * gamma
        n = spectral_n(bath, omega)
        m2 = spectral_m_abs(bath, omega) ** 2
        target = n * (n + 1.0)
        scale = np.maximum(np.abs(target), 1e-300)
        worst = max(worst, float(np.max(np.abs(m2 - target) / scale)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12, f"worst relative identity error {worst:.3e}"
    assert elapsed < budget, f"took {elapsed:.2f} s, budget {budget:g} s"


def test_criterion_02_superoperator_consistency(time_budget):
    # the 4x4 superoperator and the Bloch equations give the same
    # derivatives to 1e-12 on 1e3 random draws, and 100 solver runs keep
    # the trace to 1e-10
    budget = time_budget(30.0)
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        gamma, n_tilde = rng.uniform(0.5, 2.0), rng.uniform(0.0, 3.0)
        m_tilde, delta = complex(rng.normal(), rng.normal()), rng.normal()
        coeffs = EffectiveCoefficients(
            gamma=gamma,
            n_tilde=n_tilde,
            m_tilde=m_tilde,
            delta=delta,
            beta=complex(rng.normal(), rng.normal()),
            gamma_dec=gamma * (0.5 + n_tilde + m_tilde.real),
            rotation=delta - m_tilde.imag,
        )
        drive = DriveParams(Omega=rng.uniform(0.0, 10.0), Delta=rng.normal())
        v = rng.normal(size=3)
        v *= rng.uniform(0.0, 1.0) / np.linalg.norm(v)
        state = BlochState(complex(v[0] / 2, v[1] / 2), v[2])
        rho = state.to_density_matrix().reshape(4, order="F")
        drho = (build_liouvillian(coeffs, drive) @ rho).reshape(2, 2, order="F")
        ds_minus, ds_z = bloch_derivative(state, coeffs, drive)
        worst = max(worst, abs(drho[0, 1] - ds_minus))
        worst = max(worst, abs((drho[0, 0] - drho[1, 1]).real - ds_z))
    assert worst < 1e-12, f"worst derivative mismatch {worst:.3e}"

    worst_trace = 0.0
    for _ in range(100):
        gamma = rng.uniform(0.5, 2.0)
        bath = SqueezedVacuumParams(
            gamma, rng.uniform(0.1, 0.7) * gamma, math.pi, 100.0 * gamma
        )
        drive = DriveParams(Omega=rng.uniform(0.0, 5.0), Delta=rng.uniform(-2, 2))
        coeffs = effective_coefficients(
            bath, drive, SqueezingShifts.asymptotic(bath, drive)
        )
        v = rng.normal(size=3)
        v *= rng.uniform(0.0, 1.0) / np.linalg.norm(v)
        initial = BlochState(complex(v[0] / 2, v[1] / 2), v[2])
        t_end = 1.0 / population_decay_rate(coeffs)
        traj = evolve(initial, coeffs, drive, (0.0, t_end), n_samples=25)
        worst_trace = max(worst_trace, float(np.abs(traj.trace_error).max()))
    elapsed = time.perf_counter() - start
    assert worst_trace < 1e-10, f"worst trace drift {worst_trace:.3e}"
    assert elapsed < budget, f"took {elapsed:.2f} s, budget {budget:g} s"


def test_criterion_03_decay_rate_fits(time_budget):
    # fitted quadrature and population rates match the analytic
    # eigenvalues to 1e-6 relative on 20 random parameter draws
    budget = time_budget(60.0)
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(20):
        gamma = rng.uniform(0.5, 2.0)
        bath = SqueezedVacuumParams(
            gamma, rng.uniform(0.1, 0.85) * gamma, math.pi, 100.0 * gamma
        )
        drive = DriveParams(Omega=rng.uniform(2.0, 15.0), Delta=0.0)
        coeffs = effective_coefficients(
            bath, drive, SqueezingShifts.asymptotic(bath, drive)
        )

        rate = quadrature_decay_rate(coeffs)
        traj = evolve(
            BlochState.x_polarized(),
            coeffs,
            drive,
            (0.0, 3.0 / rate),
            n_samples=400,
            method="bloch",
        )
        fit = fit_decay_rate(traj, observable="sigma_x")
        worst = max(worst, abs(fit.rate - rate) / rate)

        drive0 = DriveParams(Omega=0.0, Delta=0.0)
        coeffs0 = effective_coefficients(
            bath, drive0, SqueezingShifts.asymptotic(bath, drive0)
        )
        rate0 = population_decay_rate(coeffs0)
        traj0 = evolve(
            BlochState.excited(),
            coeffs0,
            drive0,
            (0.0, 3.0 / rate0),
            n_samples=400,
            method="bloch",
        )
        fit0 = fit_decay_rate(traj0, observable="sigma_z")
        worst = max(worst, abs(fit0.rate - rate0) / rate0)
    elapsed = time.perf_counter() - start
    assert worst < 1e-6, f"worst fitted-rate error {worst:.3e}"
    assert elapsed < budget, f"took {elapsed:.2f} s, budget {budget:g} s"


def test_criterion_04_survival_and_decay_time(time_budget):
    # P_w hits 1 and 0 exactly at the window edges, and the closed-form
    # decay time matches direct quadrature to 1e-9 relative over 1e3
    # draws with Gamma T in [1e-6, 20]
    budget = time_budget(5.0)
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    for _ in range(50):
        t_i = rng.uniform(-1.0, 1.0)
        T = rng.uniform(0.1, 10.0)
        rng.integers(1, 50)  # discarded; keeps every later draw of the seeded stream
        sched = MeasurementSchedule(t_i, t_i + T)
        g = rng.uniform(0.05, 5.0)
        assert weak_survival(g, sched, sched.t_i) == 1.0
        assert weak_survival(g, sched, sched.t_f) == 0.0

    worst = 0.0
    for _ in range(1000):
        g = 10.0 ** rng.uniform(-6.0, math.log10(20.0))
        Gamma = 10.0 ** rng.uniform(-1.0, 1.0)
        T = g / Gamma
        sched = MeasurementSchedule(0.0, T)
        tau = decay_time_exact(Gamma, sched)
        integral, _ = quad(
            lambda t: weak_survival(Gamma, sched, t),
            0.0,
            T,
            epsabs=0.0,
            epsrel=1e-12,
            limit=200,
        )
        worst = max(worst, abs(tau - integral) / integral)
    elapsed = time.perf_counter() - start
    assert worst < 1e-9, f"worst closed-form vs quadrature error {worst:.3e}"
    assert elapsed < budget, f"took {elapsed:.2f} s, budget {budget:g} s"


def test_criterion_05_leading_order_decay_time(time_budget):
    # the 1/(Gamma + 2 omega_L/n) estimate stays within 6 percent of the
    # exact integral for Gamma T <= 0.1 and drifts to roughly 20 percent
    # by Gamma T = 1
    budget = time_budget(1.0)
    start = time.perf_counter()
    n = 100
    for g in np.linspace(0.001, 0.1, 25):
        omega_L = n / g  # Gamma = 1, so T = n / omega_L = g
        sched = MeasurementSchedule.from_carrier(omega_L, n)
        exact = decay_time_exact(1.0, sched)
        approx = decay_time_approx(1.0, omega_L, n)
        dev = abs(exact - approx) / exact
        assert dev < 0.06, f"deviation {dev:.4f} at Gamma T = {g:.3f}"
    sched = MeasurementSchedule.from_carrier(n / 1.0, n)
    exact = decay_time_exact(1.0, sched)
    approx = decay_time_approx(1.0, n / 1.0, n)
    dev = abs(exact - approx) / exact
    assert 0.15 < dev < 0.25, f"deviation at Gamma T = 1 is {dev:.4f}"
    elapsed = time.perf_counter() - start
    print(f"leading-order decay-time deviation at Gamma T = 1: {dev:.2%}")
    assert elapsed < budget, f"took {elapsed:.2f} s, budget {budget:g} s"


def test_criterion_06_condition_algebra(time_budget):
    # both sustainability conditions implement exactly their stated
    # inequalities on 1e4 random coefficient draws, and the probe point
    # gamma=1, N~=0, Re M~=1/2 separates the modes (ratios 1.0 and 1.5);
    budget = time_budget(1.0)
    start = time.perf_counter()
    rng = np.random.default_rng(106)
    gammas = rng.uniform(0.5, 2.0, size=10000)
    n_tildes = rng.uniform(-0.5, 3.0, size=10000)
    m_res = rng.normal(size=10000)
    m_ims = rng.normal(size=10000)
    for g, nt, mr, mi in zip(gammas, n_tildes, m_res, m_ims):
        coeffs = EffectiveCoefficients(
            gamma=g, n_tilde=nt, m_tilde=complex(mr, mi), delta=0.0, beta=0.0j,
            gamma_dec=g * (0.5 + nt + mr), rotation=-mi,
        )
        rhs = 1.0 + 2.0 * nt
        assert sustainable_condition(coeffs, "derived") == (2.0 * mr <= rhs)
        assert sustainable_condition(coeffs, "paper") == (4.0 * mr <= rhs)

    probe = EffectiveCoefficients(
        gamma=1.0, n_tilde=0.0, m_tilde=0.5 + 0.0j, delta=0.0, beta=0.0j,
        gamma_dec=1.0, rotation=0.0,
    )
    assert timescale_ratio(probe, 0.0, 100, "derived") == pytest.approx(1.0, abs=1e-15)
    assert timescale_ratio(probe, 0.0, 100, "paper") == pytest.approx(1.5, abs=1e-15)
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"took {elapsed:.2f} s, budget {budget:g} s"


def test_criterion_07_angular_equivalence(time_budget):
    # in the far-detuned sideband regime (Omega >= 100 lam) the angular
    # inequality agrees in sign with the coefficient inequality on at
    # least 99 percent of draws with positive denominator, and the
    # closed-form tan(theta) matches the assembled angle to 1e-9;
    # disagreements are dumped as counterexample artifacts
    from squeezedzeno import angular_condition, angular_theta

    budget = time_budget(10.0)
    start = time.perf_counter()
    rng = np.random.default_rng(107)
    ARTIFACT_DIR.mkdir(exist_ok=True)
    counterexamples = []
    kept = 0
    agreements = 0
    worst_tan = 0.0
    for _ in range(10000):
        gamma = rng.uniform(0.5, 2.0)
        eps = rng.uniform(0.05, 0.95) * gamma
        phi = rng.uniform(-math.pi, math.pi)
        bath = SqueezedVacuumParams(gamma, eps, phi, 1000.0 * gamma)
        lam = bath.lam
        drive = DriveParams(
            Omega=rng.uniform(100.0, 400.0) * lam, Delta=rng.normal() * gamma
        )
        shifts = SqueezingShifts.asymptotic(bath, drive)

        dt = drive.delta_tilde
        den = (
            1.0
            + 2.0 * spectral_n(bath, bath.omega_L + drive.omega_prime)
            + 3.0 * (1.0 - dt * dt) * reference_upsilon(bath, drive).real
        )
        if den <= 1e-9:
            continue
        kept += 1
        lhs, angular_holds = angular_condition(bath, drive, shifts)
        coeffs = effective_coefficients(bath, drive, shifts, validate=False)
        paper_holds = sustainable_condition(coeffs, "paper")
        if angular_holds == paper_holds:
            agreements += 1
        else:
            counterexamples.append(
                dict(
                    gamma=gamma, epsilon=eps, phi=phi, omega_L=bath.omega_L,
                    Omega=drive.Omega, Delta=drive.Delta, denominator=den,
                    angular_lhs=lhs, angular_holds=angular_holds,
                    coefficient_holds=paper_holds,
                )
            )

        if drive.Delta != 0.0:
            closed = tan_theta_asymptotic(bath, drive)
            assembled = math.tan(angular_theta(bath, drive, shifts))
            worst_tan = max(
                worst_tan, abs(assembled - closed) / max(abs(closed), 1e-30)
            )

    (ARTIFACT_DIR / "angular_counterexamples.json").write_text(
        json.dumps(counterexamples, indent=2) + "\n"
    )
    elapsed = time.perf_counter() - start
    assert kept > 5000, f"only {kept} draws had a positive denominator"
    agreement = agreements / kept
    assert agreement >= 0.99, (
        f"sign agreement {agreement:.4f} on {kept} draws; "
        f"{len(counterexamples)} counterexamples written"
    )
    assert worst_tan < 1e-9, f"worst tan(theta) mismatch {worst_tan:.3e}"
    assert elapsed < budget, f"took {elapsed:.2f} s, budget {budget:g} s"


def test_criterion_08_discrete_bath_oracle(time_budget):
    # refining the discrete bath at fixed bandwidth R Delta_E = 20 must
    # shrink the deviation from the exponential monotonically below 0.02
    # while the propagator column stays unit norm to 1e-10
    budget = time_budget(120.0)
    start = time.perf_counter()
    schedule = [(500, 0.04), (1000, 0.02), (2000, 0.01)]
    deviations = []
    for R, dE in schedule:
        model = DaviesModel(Gamma=1.0, R=R, Delta_E=dE)
        deviations.append(davies_max_deviation(model))
        col = davies_propagator_column(model, 3.0)
        defect = abs(np.linalg.norm(col) - 1.0)
        assert defect < 1e-10, f"unitarity defect {defect:.3e} at R = {R}"
    assert deviations[0] > deviations[1] > deviations[2], deviations
    assert deviations[-1] < 0.02, f"final deviation {deviations[-1]:.5f}"
    elapsed = time.perf_counter() - start
    print("discrete-bath deviations:", [f"{d:.6f}" for d in deviations])
    assert elapsed < budget, f"took {elapsed:.2f} s, budget {budget:g} s"


def test_criterion_09_sufficient_condition_margins(time_budget):
    # the phase-locked margin approaches zero from above as epsilon ->
    # gamma at small detuning, and -gamma/2 in the unsqueezed small-
    # detuning limit
    budget = time_budget(1.0)
    start = time.perf_counter()
    bath = SqueezedVacuumParams(1.0, 1.0 - 1e-6, 0.0, 100.0)
    for ratio in (1e-6, 1e-4, 1e-3, 0.01):
        drive = DriveParams(Omega=10.0, Delta=10.0 * ratio)
        margin = sufficient_condition_margin(bath, drive)
        assert margin >= -1e-6, f"margin {margin:.3e} at Delta/Omega = {ratio}"

    for gamma in (0.5, 1.0, 2.0):
        bare = SqueezedVacuumParams(gamma, 0.0, 0.0, 100.0)
        drive = DriveParams(Omega=10.0, Delta=1e-7)
        margin = sufficient_condition_margin(bare, drive)
        assert margin == pytest.approx(-gamma / 2.0, abs=1e-6)
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"took {elapsed:.2f} s, budget {budget:g} s"


def test_criterion_10_sweep_determinism(tmp_path, time_budget):
    # a 1000-point sweep writes byte-identical files across repeated
    # runs and across --threads 1 vs 8
    budget = time_budget(60.0)
    start = time.perf_counter()
    cfg = tmp_path / "grid.json"
    cfg.write_text(
        json.dumps(
            {
                "sweep": {
                    "gamma": 1.0,
                    "epsilon": {"min": 0.0, "max": 0.9, "count": 10},
                    "Delta": {"min": 0.0, "max": 5.0, "count": 10},
                    "Omega": 10.0,
                    "phi": {"min": 0.0, "max": 3.141592653589793, "count": 10},
                    "omega_L": 100.0,
                    "n": 100,
                }
            }
        )
    )
    outputs = []
    for run in range(2):
        for threads in ("1", "8"):
            out = tmp_path / f"sweep_r{run}_t{threads}.csv"
            rc = main(
                ["sweep", "--config", str(cfg), "--threads", threads, "--out", str(out)]
            )
            assert rc == 0
            outputs.append(out.read_bytes())
    assert all(blob == outputs[0] for blob in outputs[1:])
    # sanity: the grid really had 1000 rows behind the 3 header lines
    rows = outputs[0].decode().splitlines()
    assert len(rows) == 3 + 1 + 1000
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"took {elapsed:.2f} s, budget {budget:g} s"
