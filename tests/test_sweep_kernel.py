"""The array coefficient and sweep code against the scalar code it replaced.

reference_upsilon, reference_coefficients, reference_shifts and
reference_angular are Upsilon, effective_coefficients, the asymptotic
shift preset and the angular forms in scalar math, one point at a time:
the real formulas over the two Lorentzians A(x) = q/(x^2 + mu^2) and
B(x) = q/(x^2 + lambda^2) (q = gamma epsilon) that the coefficients
module states, with c = cos phi, s = sin phi and the half-angle forms
C = 2 cos^2(phi/2), S = 2 sin^2(phi/2), from the spectra sampled at the
carrier offsets 0 and Omega'.  reference_verdict and reference_row are
evaluate_regime and the sweep-row wrapper as they were before one array
kernel took the whole grid: one point at a time, through those
references and the scalar library functions, never through the shared
array function, with Gamma_dec in the kernel's cancellation-free form.
The library must reproduce them exactly: the same float bits (NaN where
they have NaN), the same booleans and None, and the same status text.
"""

import itertools
import math
import random
import struct
import sys
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from squeezedzeno import (
    SWEEP_COLUMNS,
    DriveParams,
    EffectiveCoefficients,
    InvalidParamsError,
    RegimeVerdict,
    SingularDenominatorError,
    SqueezedVacuumParams,
    SqueezingShifts,
    SweepGrid,
    TangentSingularityError,
    UnphysicalCoefficientsError,
    angular_condition,
    angular_theta,
    decay_time_approx,
    effective_coefficients,
    evaluate_regime,
    population_decay_rate,
    regime_sweep,
    resolve_shifts,
    sufficient_condition_margin,
    sustainable_condition,
    timescale_ratio,
)
from squeezedzeno.coefficients import _negative_n_tilde, _one_point
from squeezedzeno.spectrum import _at_offsets, _m_abs_at, _n_at


def n_at(bath, x: float) -> float:
    """N at the carrier offset x, the path spectral_n takes once it has subtracted omega_L."""
    return _at_offsets(_n_at, bath, x)


def m_abs_at(bath, x: float) -> float:
    """|M| at the carrier offset x, as n_at."""
    return _at_offsets(_m_abs_at, bath, x)


def phase_parts(phi: float) -> tuple[float, float, float, float]:
    """(c, s, C, S) = (cos phi, sin phi, 2 cos^2(phi/2), 2 sin^2(phi/2))."""
    half_c, half_s = math.cos(0.5 * phi), math.sin(0.5 * phi)
    return math.cos(phi), math.sin(phi), 2.0 * half_c * half_c, 2.0 * half_s * half_s


def lorentzians(bath, drive) -> tuple[float, float, float, float]:
    """(A(Omega'), B(Omega'), A(0) - A(Omega'), B(0) - B(Omega')), each difference
    as (q/w^2) / (1 + w^2/Omega'^2), which is 0 at Omega' = 0."""
    q, xx = bath.gamma * bath.epsilon, drive.omega_prime * drive.omega_prime
    mu2, lam2 = bath.mu ** 2, bath.lam ** 2
    d_a, d_b = (q / w2 / (1.0 + w2 / xx) if xx else 0.0 for w2 in (mu2, lam2))
    return q / (xx + mu2), q / (xx + lam2), d_a, d_b


def reference_upsilon(bath, drive) -> complex:
    _, s, C, S = phase_parts(bath.phi)
    _, _, d_a, d_b = lorentzians(bath, drive)
    return complex(S * d_a - C * d_b, -s * (d_a + d_b))


def reference_coefficients(bath, drive, shifts=SqueezingShifts(), validate=True):
    ups = reference_upsilon(bath, drive)
    dt = drive.delta_tilde
    c, s, _, _ = phase_parts(bath.phi)
    x1 = drive.omega_prime
    t = 0.5 * (1.0 - dt * dt)
    m1, shift = m_abs_at(bath, x1), dt * shifts.delta_M

    n_tilde = n_at(bath, x1) + t * ups.real
    m_tilde = complex(m1 * c - t * ups.real - shift * s, m1 * s - t * ups.imag + shift * c)
    delta = drive.Delta / bath.gamma - t * ups.imag + dt * shifts.delta_N
    g = bath.gamma * drive.omega_tilde
    beta = complex(g * (shifts.delta_N + shifts.delta_M * c + dt * ups.imag),
                   g * (shifts.delta_M * s - dt * ups.real))

    if validate and n_tilde < 0.0:
        raise _negative_n_tilde(n_tilde)
    return EffectiveCoefficients(
        gamma=bath.gamma,
        n_tilde=float(n_tilde),
        m_tilde=m_tilde,
        delta=float(delta),
        beta=beta,
    )


def reference_gamma_dec(bath, drive, shifts) -> float:
    """gamma (1/2 + N~ + Re M~) with the terms t Re Upsilon of N~ and Re M~
    cancelled: gamma (1/2 + C A(Omega') - S B(Omega') - Delta~ delta_M s)."""
    _, s, C, S = phase_parts(bath.phi)
    a1, b1, _, _ = lorentzians(bath, drive)
    return bath.gamma * (0.5 + (C * a1 - S * b1) - drive.delta_tilde * shifts.delta_M * s)


def reference_shifts(spec, bath, drive) -> SqueezingShifts:
    """resolve_shifts, with the asymptotic closed form in scalar arithmetic."""
    if not (isinstance(spec, str) and spec == "asymptotic"):
        return resolve_shifts(spec, bath, drive)
    op, lam2, mu2 = drive.omega_prime, bath.lam ** 2, bath.mu ** 2
    m = m_abs_at(bath, op)
    if m < sys.float_info.min and op != 0.0:
        # past op ~ 1e154 |M| alone goes subnormal, then to 0
        m_op = bath.gamma * bath.epsilon * (1.0 / (op + mu2 / op) + 1.0 / (op + lam2 / op))
    else:
        m_op = m * op
    return SqueezingShifts(0.0, m_op * (bath.lam + bath.mu) / (bath.lam * bath.mu))


def reference_angular(bath, drive, shifts) -> tuple[float, float]:
    """(theta, angular lhs) as angular_theta and angular_condition form them, the
    numerator hypot(x, |M|) sin(theta - phi) expanded as |M| cos phi - x sin phi."""
    m1, n1 = m_abs_at(bath, drive.omega_prime), n_at(bath, drive.omega_prime)
    dt, (c, s) = drive.delta_tilde, phase_parts(bath.phi)[:2]
    x = dt * shifts.delta_M
    theta = 0.0 if m1 == 0.0 and x == 0.0 else math.atan2(m1, x)
    numerator = m1 * c - x * s
    if numerator == 0.0:
        return theta, 0.0
    denominator = 1.0 + 2.0 * n1 + 3.0 * (1.0 - dt * dt) * reference_upsilon(bath, drive).real
    return theta, numerator / denominator


def reference_verdict(bath, drive, n, *, shifts="asymptotic") -> RegimeVerdict:
    shifts = reference_shifts(shifts, bath, drive)
    coeffs = reference_coefficients(bath, drive, shifts)
    g_dec, g_pop = reference_gamma_dec(bath, drive, shifts), population_decay_rate(coeffs)
    if g_dec <= 0.0:
        raise InvalidParamsError(f"nonpositive quadrature decay rate ({g_dec:.6g})")
    errors = []
    # where N~ >= 0 the angular denominator is bounded away from zero
    theta, lhs = reference_angular(bath, drive, shifts)
    try:
        margin = sufficient_condition_margin(bath, drive)
    except (TangentSingularityError, InvalidParamsError) as exc:
        margin = math.nan
        errors.append(("margin", exc))
    omega_L, meas = bath.omega_L, bath.omega_L / n
    return RegimeVerdict(
        Gamma_dec=g_dec,
        Gamma_pop=g_pop,
        tau_dec=decay_time_approx(g_dec, omega_L, n),
        tau_zeno=decay_time_approx(g_pop, omega_L, n),
        ratio_derived=(g_dec + 2.0 * meas) / (g_pop + 2.0 * meas),
        ratio_paper=timescale_ratio(coeffs, omega_L, n, "paper"),
        cond_derived=sustainable_condition(coeffs, "derived"),
        cond_paper=sustainable_condition(coeffs, "paper"),
        theta=theta,
        angular_lhs=lhs,
        sufficient_margin=margin,
        errors=tuple(errors),
    )


# the verdict columns of a skipped row
_SKIPPED = (math.nan,) * 6 + (None, None, math.nan, math.nan)


def reference_row(point: tuple, shifts) -> tuple:
    gamma, epsilon, Delta, Omega, phi, omega_L, n = point
    try:
        bath = SqueezedVacuumParams(gamma, epsilon, phi, omega_L)
        verdict = reference_verdict(bath, DriveParams(Omega, Delta), n, shifts=shifts)
    except (InvalidParamsError, UnphysicalCoefficientsError) as exc:
        return (*point, *_SKIPPED, f"skipped: {exc}")
    notes = "; ".join(f"{label}: {exc}" for label, exc in verdict.errors)
    values = (getattr(verdict, name) for name in SWEEP_COLUMNS[7:-1])
    return (*point, *values, "partial: " + notes if notes else "ok")


def _same(a, b) -> bool:
    """Equal as reported: the same type, and for floats the same bits (any NaN
    matching any NaN)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return (math.isnan(a) and math.isnan(b)) or struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


def _rows_match_reference(grid: SweepGrid, shifts) -> list:
    rows = regime_sweep(grid, shifts=shifts)
    assert len(rows) == grid.size
    for point, row in zip(itertools.product(*grid.axes), rows):
        want = reference_row(point, shifts)
        bad = [c for c, got, ref in zip(SWEEP_COLUMNS, row, want) if not _same(got, ref)]
        assert not bad, f"{point}: {[(c, getattr(row, c), want[SWEEP_COLUMNS.index(c)]) for c in bad]}"
    return rows


def _random_grid(seed: int, n_count: int) -> SweepGrid:
    """A grid with every status: invalid gamma, epsilon, omega_L and Omega,
    N~ < 0 near phi = 0, Gamma_dec <= 0 at epsilon ~ 0.9 gamma near phi = pi/2,
    tangent poles at Delta = +-Omega/2 and Omega = 0."""
    rng = random.Random(seed)

    def u(lo, hi):
        return round(rng.uniform(lo, hi), 6)

    omega = [u(2.0, 8.0), u(10.0, 20.0), u(25.0, 40.0)]
    k = rng.randrange(3)
    return SweepGrid(
        gamma=(u(0.95, 1.05), u(0.95, 1.05), -u(0.5, 1.0)),
        epsilon=(0.0, u(0.1, 0.3), u(0.4, 0.6), u(0.86, 0.9), u(1.2, 1.5)),
        Delta=(omega[k] / 2, -omega[(k + 1) % 3] / 2, 0.0, *(u(-10.0, 10.0) for _ in range(4))),
        Omega=(*omega, 0.0, -u(0.5, 2.0)),
        phi=(u(math.pi - 0.2, math.pi + 0.2), u(math.pi / 2 - 0.1, math.pi / 2 + 0.1),
             u(-0.1, 0.1), u(0.7 * math.pi, 0.8 * math.pi), u(-math.pi, math.pi)),
        omega_L=(u(20.0, 60.0), u(80.0, 150.0), 0.0),
        n=tuple(sorted(rng.sample(range(1, 500), n_count))),
    )


STATUS_CLASSES = (
    "ok",
    "partial: margin: pi Delta / Omega",
    "partial: margin: Omega must be > 0 for the phase profile",
    "skipped: gamma must be > 0",
    "skipped: epsilon must satisfy epsilon < gamma",
    "skipped: omega_L must be > 0",
    "skipped: Omega must be >= 0",
    "skipped: effective photon number is negative",
    "skipped: nonpositive quadrature decay rate",
)


def test_random_grid_matches_scalar_reference():
    grid = _random_grid(20251018, n_count=3)
    assert grid.size >= 20000
    rows = _rows_match_reference(grid, "asymptotic")
    seen = Counter(next((c for c in STATUS_CLASSES if r.status.startswith(c)), r.status)
                   for r in rows)
    assert set(seen) == set(STATUS_CLASSES), seen


# baths past the float range are skipped; a phase pi Delta / Omega that
# overflows leaves the row partial; finite phases keep their bits
EDGE_GRID = SweepGrid(
    gamma=(1.0, 1e77, 1e308, 3e-77, 1e-170), epsilon=(0.0, 1e-77, 0.5),
    Delta=(1.0, 3.0, -1e200), Omega=(1e-310, 10.0, 1e200), phi=(math.pi,), omega_L=(100.0,),
    n=(100,),
)


def test_float_range_edges_match_scalar_reference():
    classes = ("ok", "partial: margin: pi Delta / Omega must be finite",
               "skipped: gamma +/- epsilon must lie between about 1e-77 and 1e77",
               "skipped: epsilon must satisfy epsilon < gamma")
    rows = _rows_match_reference(EDGE_GRID, "asymptotic")
    assert {next((c for c in classes if r.status.startswith(c)), r.status) for r in rows} == set(
        classes)


# (spec, usable, id): the shift specs besides the asymptotic default
SHIFT_SPECS = [
    ("zero", True, "zero"), ({"delta_N": 0.05, "delta_M": 0.2}, True, "mapping"),
    (SqueezingShifts(0.1, -0.3), True, "record"), ("bogus", False, "bad-preset"),
    ({"delta_M": math.inf}, False, "nonfinite-mapping"),
]


@pytest.mark.parametrize("shifts, usable", [spec[:2] for spec in SHIFT_SPECS],
                         ids=[spec[2] for spec in SHIFT_SPECS])
def test_every_shift_spec_matches_scalar_reference(shifts, usable):
    rows = _rows_match_reference(_random_grid(7, n_count=1), shifts)
    # an unusable spec skips every point that has a valid bath and drive
    assert any(r.status == "ok" for r in rows) == usable


def test_evaluate_regime_matches_scalar_reference():
    grid = _random_grid(11, n_count=1)
    rng = random.Random(3)
    points = rng.sample(list(itertools.product(*grid.axes)), 600)
    outcomes = Counter()
    for gamma, epsilon, Delta, Omega, phi, omega_L, n in points:
        try:
            bath = SqueezedVacuumParams(gamma, epsilon, phi, omega_L)
            drive = DriveParams(Omega, Delta)
        except InvalidParamsError:
            continue
        try:
            want = reference_verdict(bath, drive, n)
        except (InvalidParamsError, UnphysicalCoefficientsError) as exc:
            with pytest.raises(type(exc)) as got:
                evaluate_regime(bath, drive, n)
            assert str(got.value) == str(exc)
            outcomes["raised"] += 1
            continue
        got = evaluate_regime(bath, drive, n)
        assert all(map(_same, got[:-1], want[:-1])), (got, want)
        assert [(label, type(e), str(e)) for label, e in got.errors] == [
            (label, type(e), str(e)) for label, e in want.errors
        ]
        outcomes["partial" if got.errors else "ok"] += 1
    assert set(outcomes) == {"raised", "partial", "ok"}, outcomes


def _parts(c: EffectiveCoefficients) -> tuple:
    return c.gamma, c.n_tilde, c.m_tilde.real, c.m_tilde.imag, c.delta, c.beta.real, c.beta.imag


def _assert_coefficients_match_reference(bath, drive, shifts):
    got = effective_coefficients(bath, drive, shifts, validate=False)
    want = reference_coefficients(bath, drive, shifts, validate=False)
    assert all(map(_same, _parts(got), _parts(want))), (got, want)


def _assert_upsilon_matches_reference(bath, drive):
    ups, shared = reference_upsilon(bath, drive), _one_point(bath, drive)[2]
    assert _same(shared.real, ups.real) and _same(shared.imag, ups.imag), (shared, ups)


@pytest.mark.parametrize("spec, usable",
                         [("asymptotic", True), *(spec[:2] for spec in SHIFT_SPECS)],
                         ids=["asymptotic", *(spec[2] for spec in SHIFT_SPECS)])
def test_one_point_coefficients_match_scalar_reference(spec, usable):
    # every field of effective_coefficients wherever the spec gives shifts.
    # Upsilon takes no shifts and the angular forms are written for the
    # asymptotic preset, so those two are checked under that spec only
    checked = 0
    for grid in (_random_grid(20251018, n_count=1), EDGE_GRID):
        for gamma, epsilon, Delta, Omega, phi, omega_L, _ in itertools.product(*grid.axes):
            try:
                bath = SqueezedVacuumParams(gamma, epsilon, phi, omega_L)
                drive = DriveParams(Omega, Delta)
                shifts = reference_shifts(spec, bath, drive)
            except InvalidParamsError:
                continue
            _assert_coefficients_match_reference(bath, drive, shifts)
            checked += 1
            if spec != "asymptotic":
                continue
            _assert_upsilon_matches_reference(bath, drive)
            try:
                lhs, _ = angular_condition(bath, drive, shifts)
            except SingularDenominatorError:
                continue
            want = reference_angular(bath, drive, shifts)
            assert all(map(_same, (angular_theta(bath, drive, shifts), lhs), want)), want
    # an unusable spec gives shifts nowhere
    assert checked > 2000 if usable else checked == 0, checked


_EDGES = (0.0, 5e-324, 1e-300, 1e-10, 1.0, 1e10, 1e300)
_SIGNED = st.one_of(st.sampled_from(_EDGES + tuple(-e for e in _EDGES)), st.floats(-1e3, 1e3))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    gamma=st.one_of(st.sampled_from((1e-70, 1e-30, 1e30, 1e70)), st.floats(1e-3, 1e3)),
    fraction=st.one_of(st.sampled_from((1.0 - 1e-9, 1.0 - 2.0 ** -52)),
                       st.floats(0.0, 1.0, exclude_max=True)),
    phi=st.one_of(st.sampled_from((1e300, -1e300, 1e10, math.pi)), st.floats(-10.0, 10.0)),
    omega_L=st.one_of(st.sampled_from(_EDGES[1:]), st.floats(1e-3, 1e3)),
    Omega=st.one_of(st.sampled_from(_EDGES[:3] + (1e-310, 1e300)), st.floats(0.0, 1e3)),
    Delta=_SIGNED, delta_N=_SIGNED, delta_M=_SIGNED, asymptotic=st.booleans(),
)
def test_one_point_coefficients_match_scalar_reference_on_drawn_points(
        gamma, fraction, phi, omega_L, Omega, Delta, delta_N, delta_M, asymptotic):
    try:
        bath = SqueezedVacuumParams(gamma, gamma * fraction, phi, omega_L)
        drive = DriveParams(Omega, Delta)
        shifts = (reference_shifts("asymptotic", bath, drive) if asymptotic
                  else SqueezingShifts(delta_N, delta_M))
    except InvalidParamsError:
        assume(False)
    _assert_coefficients_match_reference(bath, drive, shifts)
    _assert_upsilon_matches_reference(bath, drive)
