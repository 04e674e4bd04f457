"""Tests for weak-measurement survival, decay times and the discrete-bath model."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad

from squeezedzeno import (
    DaviesModel,
    DriveParams,
    EffectiveCoefficients,
    InvalidParamsError,
    MeasurementSchedule,
    OutOfWindowError,
    ResourceLimitError,
    SqueezedVacuumParams,
    SqueezedZenoError,
    SqueezingShifts,
    davies_amplitude,
    davies_max_deviation,
    davies_propagator_column,
    decay_time_approx,
    decay_time_exact,
    effective_coefficients,
    evaluate_regime,
    quadrature_decay_rate,
    timescale_ratio,
    weak_survival,
)
import squeezedzeno.weakmeas as weakmeas
from squeezedzeno.cli import cmd_oracle
from squeezedzeno.config import DEFAULTS, RunConfig
from squeezedzeno.errors import require_finite, require_positive_int
from squeezedzeno.weakmeas import _davies_spectrum

def test_schedule_constructors():
    sched = MeasurementSchedule.from_carrier(10.0, 100)
    assert sched.window == pytest.approx(10.0, rel=1e-15)
    sched2 = MeasurementSchedule(1.0, 3.0)
    assert sched2.t_i == 1.0 and sched2.t_f == 3.0


def test_schedule_validation():
    with pytest.raises(InvalidParamsError):
        MeasurementSchedule.from_carrier(10.0, 0)
    with pytest.raises(InvalidParamsError):
        MeasurementSchedule(1.0, 1.0)
    # both ends finite, but the window overflows to inf
    with pytest.raises(InvalidParamsError, match="t_f - t_i must be finite"):
        MeasurementSchedule(-1e308, 1e308)
    with pytest.raises(InvalidParamsError):
        MeasurementSchedule.from_carrier(0.0, 4)
    # a non-finite carrier is named, not the tau_M derived from it
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(InvalidParamsError, match="omega_L must be finite"):
            MeasurementSchedule.from_carrier(bad, 4)


def test_survival_endpoints_are_exact():
    sched = MeasurementSchedule(0.5, 2.5)
    assert weak_survival(2.0, sched, 0.5) == 1.0
    assert weak_survival(2.0, sched, 2.5) == 0.0


def test_survival_frozen_midpoint_and_monotonicity():
    sched = MeasurementSchedule(0.0, 1.0)
    assert weak_survival(1.0, sched, 0.5) == pytest.approx(
        0.3775406687981454, rel=1e-15
    )
    t = np.linspace(0.0, 1.0, 201)
    p = np.array([weak_survival(1.0, sched, ti) for ti in t])
    assert np.all(np.diff(p) < 0.0)


def test_survival_where_gamma_t_underflows():
    # 1 - e^{-Gamma T} is subnormal here, too coarse to divide by; the Gamma -> 0
    # limit (t_f - t) / T is exact to the last bit
    assert weak_survival(5e-324, MeasurementSchedule(0.0, 0.1), 0.05) == 0.5
    assert weak_survival(1e-310, MeasurementSchedule(0.0, 1.0), 0.25) == 0.75


def test_survival_outside_window_raises():
    sched = MeasurementSchedule(0.0, 1.0)
    with pytest.raises(OutOfWindowError):
        weak_survival(1.0, sched, -0.01)
    with pytest.raises(OutOfWindowError):
        weak_survival(1.0, sched, 1.01)


def test_decay_time_closed_form_matches_quadrature():
    sched = MeasurementSchedule(0.0, 2.0)
    tau = decay_time_exact(1.0, sched)
    assert tau == pytest.approx(0.6869647145006688, rel=1e-15)
    integral, _ = quad(lambda t: weak_survival(1.0, sched, t), 0.0, 2.0)
    assert tau == pytest.approx(integral, rel=1e-12)


def test_decay_time_series_branch():
    # below the branch threshold the series must agree with the closed
    # form where the latter is still well conditioned
    sched = MeasurementSchedule(0.0, 1.0)
    g = 0.2
    closed = 1.0 / g - 1.0 / math.expm1(g)
    assert decay_time_exact(g, sched) == pytest.approx(closed, rel=1e-12)
    # deep small-g regime: tau -> T/2 without cancellation noise
    tiny = decay_time_exact(1e-12, sched)
    assert tiny == pytest.approx(0.5, rel=1e-12)
    # continuity across the branch point
    lo = decay_time_exact(0.25 - 1e-9, sched)
    hi = decay_time_exact(0.25 + 1e-9, sched)
    assert abs(hi - lo) < 1e-9


def test_decay_time_large_rate_limit():
    # past Gamma T = 709.78 math.expm1 overflows; the limit 1/Gamma is exact there
    sched = MeasurementSchedule.from_carrier(1.0, 10)
    for gamma in (71.0, 1000.0):  # Gamma T = 710 and 1e4
        assert decay_time_exact(gamma, sched) == 1.0 / gamma
    # below the clamp the closed form keeps its bits
    for gamma in (3.0, 70.0, 70.9):
        assert decay_time_exact(gamma, sched) == 1.0 / gamma - 10.0 / math.expm1(gamma * 10.0)
    assert decay_time_exact(70.0, sched) == 0.014285714285714285
    # the limit holds however long the window is
    for T in (1e300, 1e307, 1e308):
        assert decay_time_exact(1.0, MeasurementSchedule(0.0, T)) == 1.0


def test_decay_time_zero_rate_limit():
    sched = MeasurementSchedule(0.0, 3.0)
    assert decay_time_exact(0.0, sched) == pytest.approx(1.5, rel=1e-15)


def test_decay_time_approx_frozen():
    assert decay_time_approx(0.1, 10.0, 100) == pytest.approx(10.0 / 3.0, rel=1e-15)
    # the leading-order estimate is visibly off by Gamma T = 1
    sched = MeasurementSchedule.from_carrier(10.0, 100)
    exact = decay_time_exact(0.1, sched)
    assert exact == pytest.approx(4.180232931306735, rel=1e-13)
    deviation = (exact - decay_time_approx(0.1, 10.0, 100)) / exact
    assert deviation == pytest.approx(0.2026, abs=2e-3)


def test_decay_time_approx_validation():
    with pytest.raises(InvalidParamsError):
        decay_time_approx(-0.1, 10.0, 100)
    with pytest.raises(InvalidParamsError):
        decay_time_approx(0.0, 0.0, 100)
    with pytest.raises(InvalidParamsError):
        decay_time_approx(0.1, 10.0, 0)


def test_timescales_wire_in_effective_rates():
    bath = SqueezedVacuumParams(1.0, 0.5, math.pi, 100.0)
    drive = DriveParams(10.0, 0.0)
    coeffs = effective_coefficients(bath, drive, SqueezingShifts.asymptotic(bath, drive))
    verdict = evaluate_regime(bath, drive, 100)
    assert verdict.tau_dec == pytest.approx(
        1.0 / (quadrature_decay_rate(coeffs) + 2.0), rel=1e-15
    )
    assert verdict.tau_zeno == pytest.approx(0.14305701294158796, rel=1e-13)


def test_davies_model_geometry():
    model = DaviesModel(Gamma=1.0, R=60, Delta_E=0.3)
    assert model.dim == 121
    assert model.bandwidth == pytest.approx(18.0, rel=1e-15)
    assert model.coupling == pytest.approx(math.sqrt(0.3 / math.pi), rel=1e-15)


# (Gamma, Delta_E) whose c = g^2 / Delta_E^2 is not a finite normal float: the solve raised
# ZeroDivisionError or OverflowError, or returned NaN deviations with numpy warnings (the
# last, a subnormal c)
DAVIES_PAST_THE_FLOAT_RANGE = [(1.0, 1e-170), (1.0, 1e155), (1e300, 1e-100), (1e-300, 1e100),
                               (1e-300, 1e10)]


@pytest.mark.filterwarnings("error")
def test_davies_model_validation():
    with pytest.raises(InvalidParamsError, match=r"^Gamma must be > 0, got 0\.0$"):
        DaviesModel(Gamma=0.0, R=10, Delta_E=0.1)
    with pytest.raises(InvalidParamsError):
        DaviesModel(Gamma=1.0, R=0, Delta_E=0.1)
    with pytest.raises(InvalidParamsError, match=r"^Delta_E must be > 0, got 0\.0$"):
        DaviesModel(Gamma=1.0, R=10, Delta_E=0.0)
    for gamma, delta_e in DAVIES_PAST_THE_FLOAT_RANGE:
        with pytest.raises(InvalidParamsError) as caught:
            DaviesModel(Gamma=gamma, R=1, Delta_E=delta_e)
        assert str(caught.value) == ("g^2 / Delta_E^2 is past the float range, "
                                     f"got Gamma={gamma}, Delta_E={delta_e}")
    # a spacing whose square is subnormal still solves
    assert 0.0 < DaviesModel(Gamma=1.0, R=1, Delta_E=1e-160).c < math.inf
    # the roots sit about c/R above the ladder, so c must be at least R times the
    # smallest normal float; just above that the solve is quiet and exact
    tiny = 30 * sys.float_info.min
    with pytest.raises(InvalidParamsError, match="past the float range"):
        DaviesModel(Gamma=math.pi * tiny / 2, R=30, Delta_E=1.0)
    model = DaviesModel(Gamma=math.pi * tiny * 2, R=30, Delta_E=1.0)
    assert davies_max_deviation(model) == pytest.approx(-math.expm1(-3.0), rel=0.0, abs=1e-12)


def test_bound_checks_share_one_text():
    # each text as it read when every site wrote its own; an argument shows as it was
    # passed where the site checked it directly, as its float where a record stores it
    sched = MeasurementSchedule(0.0, 1.0)
    for build, text in (
        (lambda: SqueezedVacuumParams(0, 0.5, 0.0, 100.0), "gamma must be > 0, got 0.0"),
        (lambda: SqueezedVacuumParams(1.0, -0.5, 0.0, 100.0), "epsilon must be >= 0, got -0.5"),
        (lambda: SqueezedVacuumParams(1.0, 0.5, 0.0, 0), "omega_L must be > 0, got 0.0"),
        (lambda: DriveParams(-1, 0.0), "Omega must be >= 0, got -1.0"),
        (lambda: weak_survival(0, sched, 0.5), "Gamma must be > 0, got 0"),
        (lambda: decay_time_exact(-1, sched), "Gamma must be >= 0, got -1"),
        (lambda: decay_time_approx(-0.5, 100.0, 10), "Gamma must be >= 0, got -0.5"),
        (lambda: decay_time_approx(1.0, -1, 10), "omega_L must be >= 0, got -1.0"),
        (lambda: MeasurementSchedule.from_carrier(1e308, 1),
         "omega_L must be <= 8.988465674311579e+307 so that 2 omega_L / n is finite, got 1e+308"),
        (lambda: DaviesModel(1.0, 1, -0.5), "Delta_E must be > 0, got -0.5"),
    ):
        with pytest.raises(InvalidParamsError) as caught:
            build()
        assert str(caught.value) == text


_BATH = SqueezedVacuumParams(gamma=1.0, epsilon=0.5, phi=math.pi, omega_L=100.0)
_DRIVE = DriveParams(Omega=10.0, Delta=0.0)
_SCHED = MeasurementSchedule.from_carrier(100.0, 10)
_DAVIES = DaviesModel(1.0, 10, 0.1)
_NONFINITE_CASES = {
    "davies_R_inf": lambda: DaviesModel(1.0, math.inf, 0.1),
    "davies_R_nan": lambda: DaviesModel(1.0, math.nan, 0.1),
    "schedule_n_nan": lambda: MeasurementSchedule.from_carrier(1.0, math.nan),
    "schedule_n_0": lambda: MeasurementSchedule.from_carrier(1.0, 0),
    "timescale_ratio_n_0": lambda: timescale_ratio(
        effective_coefficients(_BATH, _DRIVE), 100.0, 0
    ),
    "decay_time_approx_n_inf": lambda: decay_time_approx(1.0, 100.0, math.inf),
    "evaluate_regime_n_inf": lambda: evaluate_regime(_BATH, _DRIVE, math.inf),
    "decay_time_approx_Gamma_nan": lambda: decay_time_approx(math.nan, 100.0, 10),
    "decay_time_approx_Gamma_inf": lambda: decay_time_approx(math.inf, 100.0, 10),
    "decay_time_exact_Gamma_nan": lambda: decay_time_exact(math.nan, _SCHED),
    "decay_time_exact_Gamma_inf": lambda: decay_time_exact(math.inf, _SCHED),
    "weak_survival_Gamma_nan": lambda: weak_survival(math.nan, _SCHED, 0.05),
    "weak_survival_Gamma_inf": lambda: weak_survival(math.inf, _SCHED, 0.05),
    "weak_survival_t_nan": lambda: weak_survival(1.0, _SCHED, math.nan),
    "davies_amplitude_dim_cap_nan": lambda: davies_amplitude(_DAVIES, 1.0, dim_cap=math.nan),
    "davies_column_dim_cap_inf": lambda: davies_propagator_column(
        _DAVIES, 1.0, dim_cap=math.inf
    ),
    "davies_amplitude_t_nan": lambda: davies_amplitude(_DAVIES, math.nan),
    "davies_amplitude_t_array_inf": lambda: davies_amplitude(_DAVIES, [0.0, math.inf]),
    "davies_column_t_inf": lambda: davies_propagator_column(_DAVIES, math.inf),
    "davies_max_deviation_samples_0": lambda: davies_max_deviation(_DAVIES, 0),
    "davies_max_deviation_samples_nan": lambda: davies_max_deviation(_DAVIES, math.nan),
    "davies_max_deviation_samples_inf": lambda: davies_max_deviation(_DAVIES, math.inf),
    "weak_survival_Gamma_0": lambda: weak_survival(0.0, _SCHED, 0.05),
    # integers past the float range, which float() and math.isfinite overflow on
    "require_finite_10**400": lambda: require_finite("x", 10**400),
    "require_positive_int_10**400": lambda: require_positive_int("n", 10**400),
    "schedule_n_10**400": lambda: MeasurementSchedule.from_carrier(1.0, 10**400),
    "decay_time_approx_n_10**400": lambda: decay_time_approx(1.0, 1.0, 10**400),
    "timescale_ratio_n_10**400": lambda: timescale_ratio(
        effective_coefficients(_BATH, _DRIVE), 100.0, 10**400
    ),
    # a measurement rate 2 omega_L / n past the float range
    "bath_omega_L_1e308": lambda: SqueezedVacuumParams(1.0, 0.5, math.pi, 1e308),
    "decay_time_approx_omega_L_1e308": lambda: decay_time_approx(1.0, 1e308, 1),
    # 1 / (Gamma + 2 omega_L / n) past the float range
    "decay_time_approx_sum_subnormal": lambda: decay_time_approx(0.0, 5e-324, 1),
    "decay_time_approx_Gamma_subnormal": lambda: decay_time_approx(1e-320, 0.0, 1),
    "decay_time_approx_sum_overflows": lambda: decay_time_approx(1.7e308, 8.9e307, 1),
}


@pytest.mark.parametrize("call", _NONFINITE_CASES.values(), ids=_NONFINITE_CASES.keys())
def test_nonfinite_and_nonpositive_counts_are_invalid_params(call):
    # each used to escape as a bare OverflowError/ValueError/ZeroDivisionError
    # or to return nan or 0.0 without complaint
    with pytest.raises(InvalidParamsError):
        call()


_EDGES = (0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-10, 1.0, 1e300, 1e308,
          1.7976931348623157e308)
_FINITE = st.one_of(st.sampled_from(_EDGES + tuple(-e for e in _EDGES)),
                    st.floats(allow_nan=False, allow_infinity=False))


# Gamma_dec = 0.6 and Gamma_pop = 1.2 at gamma = 1
_RATIO_COEFFS = EffectiveCoefficients(1.0, 0.1, 0j, 0.0, 0j, 0.6, 0.0)


def _or_none(fn, *args):
    """fn(*args), or None where it raises a library error."""
    try:
        return fn(*args)
    except SqueezedZenoError:
        return None


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(Gamma=_FINITE, t_i=_FINITE, t_f=_FINITE, t=_FINITE, u=st.floats(0.0, 1.0),
       omega_L=_FINITE, n=st.one_of(st.sampled_from((1, 10**308, 10**400)),
                                    st.integers(1, 10**6)))
# edges: a window of 1e308 past Gamma T = 709, a subnormal 1 - e^{-Gamma T} (twice),
# a window that overflows, and a subnormal Gamma whose inverse overflows at Gamma T = 0.5
@example(Gamma=1.0, t_i=0.0, t_f=1e308, t=0.0, u=0.5, omega_L=1.0, n=1)
@example(Gamma=5e-324, t_i=0.0, t_f=0.1, t=0.05, u=0.5, omega_L=1.0, n=1)
@example(Gamma=1e-310, t_i=0.0, t_f=1.0, t=0.25, u=0.5, omega_L=1.0, n=1)
@example(Gamma=1.0, t_i=-1e308, t_f=1e308, t=0.0, u=0.5, omega_L=1.0, n=1)
@example(Gamma=5e-309, t_i=-1e308, t_f=0.0, t=-1.0, u=0.5, omega_L=1.0, n=1)
# 2 omega_L / n past the float range (tau_approx was 0.0 and the derived ratio nan),
# and 1 / (Gamma + 2 omega_L / n) past it through either term (tau_approx was inf)
@example(Gamma=1.0, t_i=0.0, t_f=1.0, t=0.0, u=0.5, omega_L=1e308, n=1)
@example(Gamma=0.0, t_i=0.0, t_f=1.0, t=0.0, u=0.5, omega_L=5e-324, n=1)
@example(Gamma=1e-320, t_i=0.0, t_f=1.0, t=0.0, u=0.5, omega_L=0.0, n=1)
def test_weak_measurement_layer_raises_or_stays_bounded(Gamma, t_i, t_f, t, u, omega_L, n):
    # each call raises a library error or returns a finite value: 0 <= P_w <= 1,
    # P_w falls with t inside the band e^{-Gamma (t - t_i)} (t_f - t)/T .. (t_f - t)/T
    # that convexity gives it, 0 <= tau <= min(T/2, 1/Gamma), 0 < tau_approx <= 1/Gamma,
    # and for Gamma_dec = 0.6 < Gamma_pop = 1.2 both ratios lie in [1/2, 1]
    approx = _or_none(decay_time_approx, Gamma, omega_L, n)
    assert approx is None or 0.0 < approx <= (1.0 / Gamma if Gamma > 0.0 else math.inf)
    assert approx is None or math.isfinite(approx)
    for mode in ("derived", "paper"):
        ratio = _or_none(timescale_ratio, _RATIO_COEFFS, omega_L, n, mode)
        assert ratio is None or 0.5 <= ratio <= 1.0
    for sched in (_or_none(MeasurementSchedule, t_i, t_f),
                  _or_none(MeasurementSchedule.from_carrier, omega_L, n, t_i)):
        if sched is None:
            continue
        T = sched.window
        assert 0.0 < T < math.inf
        tau = _or_none(decay_time_exact, Gamma, sched)
        if tau is not None:
            cap = T / 2.0 if Gamma == 0.0 else min(T / 2.0, 1.0 / Gamma)
            assert 0.0 <= tau <= cap * (1.0 + 4.0 * sys.float_info.epsilon)
        if not Gamma > 0.0:
            continue
        assert weak_survival(Gamma, sched, sched.t_i) == 1.0
        assert weak_survival(Gamma, sched, sched.t_f) == 0.0
        probs = []
        for s in sorted({sched.t_i, min(sched.t_f, sched.t_i + u * T), t, sched.t_f}):
            p = _or_none(weak_survival, Gamma, sched, s)
            if p is None:
                continue
            linear = (sched.t_f - s) / T
            assert 0.0 <= p <= 1.0
            assert math.exp(-Gamma * (s - sched.t_i)) * linear - 2**-50 <= p <= linear + 2**-50
            probs.append(p)
        assert probs == sorted(probs, reverse=True)



def test_davies_amplitude_initial_value_and_unitarity():
    model = DaviesModel(Gamma=1.0, R=40, Delta_E=0.4)
    assert davies_amplitude(model, 0.0) == pytest.approx(1.0 + 0.0j, abs=1e-12)
    col = davies_propagator_column(model, 1.7)
    assert np.linalg.norm(col) == pytest.approx(1.0, abs=1e-12)


def test_davies_amplitude_scalar_array_consistency():
    model = DaviesModel(Gamma=1.0, R=30, Delta_E=0.5)
    t = np.array([0.0, 0.5, 1.0])
    arr = davies_amplitude(model, t)
    assert arr.shape == (3,)
    assert arr[1] == pytest.approx(davies_amplitude(model, 0.5), abs=1e-14)


def test_davies_amplitude_keeps_the_shape_of_t():
    model = DaviesModel(Gamma=1.0, R=30, Delta_E=0.5)
    grid = [[0.0, 1.0], [2.0, 3.0]]
    amps = davies_amplitude(model, grid)
    assert amps.shape == (2, 2)
    np.testing.assert_array_equal(amps.ravel(), davies_amplitude(model, np.ravel(grid)))


def test_davies_amplitude_blocks_match_the_full_phase_matrix():
    # 500 samples at R = 2000 run in 16 blocks of 31-32 times; each entry keeps the
    # bits of the one-shot samples x R cosine matrix
    model = DaviesModel(Gamma=1.0, R=2000, Delta_E=0.01)
    pole, offset, weights = _davies_spectrum(model, dim_cap=model.dim)
    R, times = model.R, np.linspace(0.0, 3.0, 500)
    phases = np.outer(times, model.Delta_E * (pole[R + 1:] + offset[R + 1:]))
    full = weights[R] + 2.0 * (np.cos(phases) * weights[R + 1:]).sum(axis=1)
    np.testing.assert_array_equal(davies_amplitude(model, times), full)


def test_davies_amplitude_is_the_complex_sum_over_the_whole_spectrum():
    # the mirrored cosine sum against sum_k w_k e^{-i lambda_k t} over all 2R + 1 roots,
    # the form the package used before it summed the positive half
    model = DaviesModel(Gamma=1.0, R=2000, Delta_E=0.01)
    pole, offset, weights = _davies_spectrum(model, dim_cap=model.dim)
    times = np.linspace(0.0, 3.0, 500)
    amps = davies_amplitude(model, times)
    assert amps.dtype == complex and not amps.imag.any()
    assert davies_amplitude(model, 1.0).imag == 0.0
    ref = np.exp(-1j * np.outer(times, model.Delta_E * (pole + offset))) @ weights
    np.testing.assert_allclose(amps, ref, rtol=0, atol=1e-15)


def test_davies_tracks_exponential_and_refines():
    # fixed bandwidth R Delta_E = 18, halving Delta_E must shrink the error
    coarse = davies_max_deviation(DaviesModel(Gamma=1.0, R=60, Delta_E=0.3))
    fine = davies_max_deviation(DaviesModel(Gamma=1.0, R=120, Delta_E=0.15))
    assert coarse == pytest.approx(0.08043194571772064, rel=1e-6)
    assert fine == pytest.approx(0.03650970415150776, rel=1e-6)
    assert fine < coarse


def test_davies_deviation_grid(monkeypatch):
    model = DaviesModel(Gamma=2.0, R=30, Delta_E=0.5)

    def deviation(times):
        return np.max(np.abs(davies_amplitude(model, times) - np.exp(-model.Gamma * times)))

    seen = []

    def recorded(model, t, **kwargs):
        seen.append(np.array(t))
        return davies_amplitude(model, t, **kwargs)

    monkeypatch.setattr(weakmeas, "davies_amplitude", recorded)
    got = davies_max_deviation(model)
    # the default grid covers [0, 3/Gamma] in steps of 0.25/Gamma
    (t,) = seen
    assert len(t) == 13 and t[0] == 0.0
    assert t[-1] == pytest.approx(1.5, rel=1e-12)  # 3 / Gamma
    np.testing.assert_allclose(np.diff(t), 0.125, rtol=1e-12)
    assert got == deviation(t)
    seen.clear()
    three = davies_max_deviation(model, 3)
    (t,) = seen
    np.testing.assert_array_equal(t, np.linspace(0.0, 1.5, 3))
    assert three == deviation(t)


def test_davies_resource_cap():
    model = DaviesModel(Gamma=1.0, R=100, Delta_E=0.1)
    with pytest.raises(ResourceLimitError):
        davies_amplitude(model, 1.0, dim_cap=100)
    with pytest.raises(ResourceLimitError):
        davies_propagator_column(model, 1.0, dim_cap=100)


def test_davies_amplitude_caps_samples_times_dim():
    # dimension 3 under dim_cap 3: 3 samples x 3 fit in dim_cap^2 = 9, 4 samples do not
    model = DaviesModel(Gamma=1.0, R=1, Delta_E=1.0)
    assert davies_amplitude(model, np.zeros(3), dim_cap=3) == pytest.approx(np.ones(3))
    with pytest.raises(ResourceLimitError, match="4 samples x dimension 3 exceed the cap 3 squared"):
        davies_amplitude(model, np.zeros(4), dim_cap=3)


def _dense_davies(model):
    """Reference eigensystem: dense eigh of the arrowhead Hamiltonian."""
    ladder = np.concatenate([np.arange(-model.R, 0), np.arange(1, model.R + 1)])
    h = np.diag(np.concatenate([[0.0], ladder * model.Delta_E]))
    h[0, 1:] = model.coupling
    h[1:, 0] = model.coupling
    return np.linalg.eigh(h)


@pytest.mark.parametrize(
    "model",
    [
        DaviesModel(Gamma=1.0, R=1, Delta_E=0.5),
        DaviesModel(Gamma=1.0, R=30, Delta_E=0.5),
        DaviesModel(Gamma=1.0, R=60, Delta_E=0.3),
        DaviesModel(Gamma=1.0, R=500, Delta_E=0.04),
        # c = Gamma / (pi Delta_E) << 1: every root sits just above a ladder level
        DaviesModel(Gamma=0.01, R=60, Delta_E=1.0),
        # c >> 1: the outermost roots lie far beyond the band edge
        DaviesModel(Gamma=100.0, R=30, Delta_E=0.01),
    ],
    ids=["R1", "R30", "R60", "R500", "weak", "strong"],
)
def test_davies_secular_solve_matches_dense_eigh(model):
    eigvals, eigvecs = _dense_davies(model)
    ref_weights = eigvecs[0] ** 2
    pole, offset, weights = _davies_spectrum(model, dim_cap=model.dim)
    np.testing.assert_allclose(model.Delta_E * (pole + offset), eigvals, rtol=0, atol=1e-12)
    np.testing.assert_allclose(weights, ref_weights, rtol=0, atol=1e-12)
    times = np.arange(0.0, 3.0 + 1e-9, 0.25) / model.Gamma
    ref_amps = np.exp(-1j * np.outer(times, eigvals)) @ ref_weights
    np.testing.assert_allclose(davies_amplitude(model, times), ref_amps, rtol=0, atol=1e-12)
    for t in times[[1, -1]]:
        ref_col = eigvecs @ (np.exp(-1j * eigvals * t) * eigvecs[0])
        col = davies_propagator_column(model, t)
        np.testing.assert_allclose(col, ref_col, rtol=0, atol=1e-12)


def _bisected_spectrum(model):
    """Reference offsets and weights of gaps 1..R, and the weight of the root x = 0.

    The solve the package used before its Newton step: 64 rounds of
    bisection on every gap at once, with the pole sums as digamma and
    Hurwitz-zeta differences from scipy.special.
    """
    R, c = model.R, model.coupling**2 / model.Delta_E**2
    k = np.arange(1.0, R + 1.0)

    def ladder_sum(power, d):
        if power == 1:
            def run(z, n):  # sum_{j < n} 1/(z + j)
                return special.psi(z + n) - special.psi(z)
        else:
            def run(z, n):  # sum_{j < n} 1/(z + j)^2
                return special.zeta(2, z) - special.zeta(2, z + n)
        total = run(d, k + R + 1) - (k + d) ** -power
        total[:-1] += (-1) ** power * run(1.0 - d[:-1], R - k[:-1])
        return total

    lo, hi = np.zeros(R), np.ones(R)
    hi[-1] = max(1.0, 2.0 * c)
    for _ in range(64):
        d = 0.5 * (lo + hi)
        below = k + d < c * ladder_sum(1, d)
        lo, hi = np.where(below, d, lo), np.where(below, hi, d)
    d = 0.5 * (lo + hi)
    weights = 1.0 / (1.0 + c * ladder_sum(2, d))
    w_zero = 1.0 / (1.0 + 2.0 * c * (special.zeta(2, 1.0) - special.zeta(2, R + 1.0)))
    return d, weights, w_zero


# the Newton solve against the bisection: offsets within 1e-14 absolute (or 1e-14 of an
# outer offset above 1, whose ulp exceeds 1e-14) and weights within 1e-14 relative
_SOLVE_TOL = 1e-14


@pytest.mark.parametrize(
    "model",
    [
        DaviesModel(Gamma=1.0, R=1, Delta_E=0.5),
        DaviesModel(Gamma=1.0, R=30, Delta_E=0.5),
        DaviesModel(Gamma=1.0, R=500, Delta_E=0.04),
        DaviesModel(Gamma=1.0, R=2000, Delta_E=0.01),
        # c ~ 3e-3: every root sits just above a ladder level
        DaviesModel(Gamma=0.01, R=60, Delta_E=1.0),
        # c ~ 3e3: the outer offset is about 407
        DaviesModel(Gamma=100.0, R=30, Delta_E=0.01),
        # c ~ 3e5: the outer offset is about 1.7e4
        DaviesModel(Gamma=1.0, R=500, Delta_E=1e-6),
    ],
    ids=["R1", "R30", "R500", "R2000", "weak", "strong", "tiny-spacing"],
)
def test_davies_newton_solve_matches_bisection_reference(model):
    pole, offset, weights = _davies_spectrum(model, dim_cap=model.dim)
    ref_offset, ref_weights, ref_w_zero = _bisected_spectrum(model)
    R = model.R
    np.testing.assert_array_equal(pole[R + 1:], np.arange(1.0, R + 1.0))
    np.testing.assert_array_equal(offset[:R], -offset[R + 1:][::-1])
    np.testing.assert_array_equal(weights[:R], weights[R + 1:][::-1])
    assert offset[R] == 0.0
    np.testing.assert_allclose(offset[R + 1:], ref_offset, rtol=_SOLVE_TOL, atol=_SOLVE_TOL)
    np.testing.assert_allclose(weights[R + 1:], ref_weights, rtol=_SOLVE_TOL, atol=0)
    assert weights[R] == pytest.approx(ref_w_zero, rel=_SOLVE_TOL, abs=0)


@pytest.mark.parametrize("n", [0, 1, 9, 10, 11, 500, 4001])
def test_pole_runs_match_direct_sums(n):
    # the runs sum_{j < n} (z + j)^-p over the offsets z in (0, 1] the solve uses,
    # against exactly rounded sums of the terms, to 1e-15 relative
    z = np.array([1e-100, 1e-12, 1e-6, 0.3, 0.5, 0.999, 1.0 - 2.0**-52, 1.0])
    run1, run2 = weakmeas._pole_runs(z, np.full(z.size, float(n)))
    for got1, got2, zi in zip(run1, run2, z):
        assert got1 == pytest.approx(math.fsum(1.0 / (zi + j) for j in range(n)), rel=1e-15, abs=0)
        assert got2 == pytest.approx(math.fsum((zi + j) ** -2 for j in range(n)), rel=1e-15, abs=0)


def _matrix_pole_runs(z, n):
    """Reference pole runs: the ten head terms as a (10, 2 z.size) matrix, summed over axis 0.

    The form the package used before it summed the heads one term at a time; numpy
    reduces axis 0 of a C-contiguous matrix row by row, in the same order.
    """
    w = np.concatenate([z, z + n])
    inv, v = 1.0 / (w + np.arange(10.0)[:, None]), w + 10.0
    u, series1, series2 = 1.0 / (v * v), 0.0, 0.0
    for i in range(len(weakmeas._BERNOULLI) - 1, -1, -1):
        series1 = (series1 + weakmeas._BERNOULLI[i] / (2 * i + 2)) * u
        series2 = (series2 + weakmeas._BERNOULLI[i]) * u
    run1 = inv.sum(axis=0) + 0.5 / v + series1
    run2 = (inv * inv).sum(axis=0) + (1.0 + 0.5 / v + series2) / v
    return run1[:z.size] - run1[z.size:] + np.log1p(n / v[:z.size]), run2[:z.size] - run2[z.size:]


def test_pole_runs_match_the_matrix_form_bit_for_bit():
    rng = np.random.default_rng(15)
    z = np.concatenate([[1e-100, 1e-12, 1.0 - 2.0**-52, 1.0], 1.0 - rng.random(20000)])
    n = np.concatenate([[0.0, 4001.0, 1.0, 10.0], rng.integers(0, 4002, 20000).astype(float)])
    for got, ref in zip(weakmeas._pole_runs(z, n), _matrix_pole_runs(z, n)):
        assert np.array_equal(got, ref)


_BIT_MODELS = [
    DaviesModel(Gamma=1.0, R=30, Delta_E=0.5),
    DaviesModel(Gamma=1.0, R=500, Delta_E=0.04),
    DaviesModel(Gamma=1.0, R=1000, Delta_E=0.02),
    DaviesModel(Gamma=1.0, R=2000, Delta_E=0.01),
]


@pytest.mark.parametrize("model", _BIT_MODELS, ids=["R30", "R500", "R1000", "R2000"])
def test_secular_solve_matches_the_matrix_form_bit_for_bit(model, monkeypatch):
    solved = weakmeas._solve_secular(model)
    monkeypatch.setattr(weakmeas, "_pole_runs", _matrix_pole_runs)
    for got, ref in zip(solved, weakmeas._solve_secular(model)):
        assert np.array_equal(got, ref)


def _direct_column(model, t):
    """Reference column: U_{r,0} = g sum_k w_k e^{-i lambda_k t} / (lambda_k - E_r).

    The direct O(dim^2) sum, in row blocks of about 2^20 entries.
    """
    pole, offset, weights = _davies_spectrum(model, dim_cap=model.dim)
    amps = weights * np.exp(-1j * model.Delta_E * (pole + offset) * t)
    ladder = pole[pole != 0.0]
    column = np.empty(model.dim, dtype=complex)
    column[0] = amps.sum()
    step = max(1, 2**20 // model.dim)
    for start in range(0, ladder.size, step):
        inv = 1.0 / ((pole - ladder[start:start + step, None]) + offset)
        column[1 + start:1 + start + step] = model.coupling / model.Delta_E * (inv @ amps)
    return column


# absolute tolerance of the near/far-field column against the direct sum
_COLUMN_ATOL = 1e-14


@pytest.mark.parametrize(
    "model",
    [
        DaviesModel(Gamma=1.0, R=1, Delta_E=0.5),
        DaviesModel(Gamma=1.0, R=30, Delta_E=0.5),
        DaviesModel(Gamma=1.0, R=500, Delta_E=0.04),
        DaviesModel(Gamma=1.0, R=2000, Delta_E=0.01),
        DaviesModel(Gamma=0.01, R=60, Delta_E=1.0),
        DaviesModel(Gamma=100.0, R=30, Delta_E=0.01),
    ],
    ids=["R1", "R30", "R500", "R2000", "weak", "strong"],
)
def test_davies_column_matches_direct_sum(model):
    for t in (0.0, 1.0 / model.Gamma, 3.0 / model.Gamma):
        col = davies_propagator_column(model, t)
        np.testing.assert_allclose(col, _direct_column(model, t), rtol=0, atol=_COLUMN_ATOL)
        if t == 0.0:
            e0 = np.zeros(model.dim)
            e0[0] = 1.0
            np.testing.assert_allclose(col, e0, rtol=0, atol=_COLUMN_ATOL)


def _allocating_column(model, t):
    """Reference near/far-field column with a new array for every step.

    The form the package used before its near field ran through two dim-length
    buffers and its far field through in-place kernel, moment and transforms: the
    zero-denominator mask on every diagonal and two fresh transforms per power, with
    the same power count and real-kernel transform as the package.
    """
    pole, offset, weights = _davies_spectrum(model, dim_cap=model.dim)
    amps = weights * np.exp(-1j * model.Delta_E * (pole + offset) * t)
    R, m, dim = model.R, weakmeas._NEAR, model.dim
    a, d, pad, rows = amps[1:-1], offset[1:-1], np.zeros(m + 1), np.zeros(dim, complex)
    a_pad, d_pad = np.concatenate([pad, a, pad]), np.concatenate([pad + 0.5, d, pad + 0.5])
    for j in range(max(0, m - dim), min(2 * m, m + dim) + 1):
        denom = (j - m) + d_pad[j:j + dim]
        rows += a_pad[j:j + dim] * np.reciprocal(denom, out=denom, where=denom != 0.0)
    if 2 * R - 1 > m:
        n = 1 << (4 * R).bit_length()
        u = 1.0 - np.fft.fftfreq(n, 1.0 / n)
        base = np.divide(1.0, u, out=np.zeros(n), where=np.abs(u) > m)
        kernel, moment, spectrum = base, a, np.zeros(n, complex)
        ratio = np.abs(d).max() / (m + 1)
        powers = next((p for p in range(1, weakmeas._POWERS) if ratio**p <= 1e-20),
                      weakmeas._POWERS)
        for _ in range(powers):
            half = np.fft.rfft(kernel)
            spectrum += np.fft.fft(moment, n) * np.concatenate([half, half[-2:0:-1].conj()])
            kernel, moment = kernel * base, moment * -d
        rows += np.fft.ifft(spectrum)[:dim]
    ladder = pole[pole != 0.0]
    rows = rows[pole != 0.0] + sum(amps[j] / ((pole[j] - ladder) + offset[j]) for j in (0, -1))
    return np.concatenate([[amps.sum()], model.coupling / model.Delta_E * rows])


@pytest.mark.parametrize("model", _BIT_MODELS, ids=["R30", "R500", "R1000", "R2000"])
def test_davies_column_matches_the_allocating_form_bit_for_bit(model):
    for t in (0.0, 1.0 / model.Gamma, 3.0 / model.Gamma):
        assert np.array_equal(davies_propagator_column(model, t), _allocating_column(model, t))


@pytest.mark.parametrize("r_count, delta_e", DEFAULTS["oracle"]["schedule"])
def test_secular_solve_evaluates_only_the_roots_still_moving(r_count, delta_e, monkeypatch):
    # the ladder sums of an inner root run through _pole_runs as two offsets (d and
    # 1 - d), the weight of x = 0 as one; five rounds on every root and a weights pass
    # read 6 R, each root stopping on its own about 3.1 R
    sizes, runs = [], weakmeas._pole_runs

    def counted(z, n):
        sizes.append(z.size)
        return runs(z, n)

    monkeypatch.setattr(weakmeas, "_pole_runs", counted)
    weakmeas._solve_secular(DaviesModel(Gamma=1.0, R=r_count, Delta_E=delta_e))
    assert sum(sizes) / 2 <= 3.5 * r_count


def test_oracle_solves_each_row_once_per_call(monkeypatch):
    solves, solve = [], weakmeas._solve_secular

    def counted(model):
        solves.append(model.dim)
        return solve(model)

    monkeypatch.setattr(weakmeas, "_solve_secular", counted)
    cfg = RunConfig.load(overrides={"format": "json"})
    rows = len(cfg.data["oracle"]["schedule"])
    cmd_oracle(cfg)
    assert len(solves) == rows == 3
    # a repeated call builds new models and solves again: no cross-call cache
    cmd_oracle(cfg)
    assert len(solves) == 2 * rows


def _peak_traced_mb(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


# per-row arrays at R = 2000 (dimension 4001) are O(dim): 4 MB is about 60 complex vectors
_ROW_MEMORY_MB = 4.0


def test_davies_column_memory_is_linear_in_dim():
    model = DaviesModel(Gamma=1.0, R=2000, Delta_E=0.01)
    _davies_spectrum(model, dim_cap=model.dim)  # the solve is not part of the column
    assert _peak_traced_mb(lambda: davies_propagator_column(model, 3.0)) <= _ROW_MEMORY_MB


# the solve's working set at R = 2000 is a few dozen vectors of 2R or 4R doubles (32 or
# 64 kB each): 1.08 MB; heads summed as (10, 4R) matrices of 320 kB each read 1.98 MB
_SOLVE_MEMORY_MB = 1.2


def test_davies_solve_memory_holds_no_head_matrix():
    model = DaviesModel(Gamma=1.0, R=2000, Delta_E=0.01)
    assert _peak_traced_mb(lambda: weakmeas._solve_secular(model)) <= _SOLVE_MEMORY_MB


# a multi-block amplitude holds one block of phases (at most 2^16 real entries, 0.5 MB)
# and its weighted copy at a time: 1.1 MB at 500 samples, where a third block alive
# reads 1.6 MB and the one-shot 500 x R matrix 8 MB
_BLOCK_MEMORY_MB = 1.4


@pytest.mark.parametrize("samples", [13, 500])
def test_davies_amplitude_memory_is_linear_in_dim(samples):
    model = DaviesModel(Gamma=1.0, R=2000, Delta_E=0.01)
    _davies_spectrum(model, dim_cap=model.dim)
    times = np.linspace(0.0, 3.0, samples)
    limit = _BLOCK_MEMORY_MB if samples == 500 else _ROW_MEMORY_MB
    assert _peak_traced_mb(lambda: davies_amplitude(model, times)) <= limit
