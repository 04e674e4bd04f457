"""The array sweep kernel against the scalar per-point code it replaced.

reference_verdict and reference_row are evaluate_regime and the sweep-row
wrapper as they were before one array kernel took the whole grid: one
point at a time, through the scalar library functions.  The kernel must
reproduce them exactly: the same float bits (NaN where they have NaN),
the same booleans and None, and the same status text.
"""

import math
import random
import struct
from collections import Counter

import pytest

from squeezedzeno import (
    SWEEP_COLUMNS,
    DriveParams,
    InvalidParamsError,
    RegimeVerdict,
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
    quadrature_decay_rate,
    regime_sweep,
    resolve_shifts,
    sufficient_condition_margin,
    sustainable_condition,
    timescale_ratio,
)


def reference_verdict(bath, drive, n, *, shifts="asymptotic") -> RegimeVerdict:
    shifts = resolve_shifts(shifts, bath, drive)
    coeffs = effective_coefficients(bath, drive, shifts)
    g_dec = quadrature_decay_rate(coeffs)
    if g_dec <= 0.0:
        raise InvalidParamsError(f"nonpositive quadrature decay rate ({g_dec:.6g})")
    errors = []
    # where N~ >= 0 the angular denominator is bounded away from zero, so
    # angular_condition does not raise here
    lhs, _holds = angular_condition(bath, drive, shifts)
    try:
        margin = sufficient_condition_margin(bath, drive)
    except (TangentSingularityError, InvalidParamsError) as exc:
        margin = math.nan
        errors.append(("margin", exc))
    omega_L = bath.omega_L
    return RegimeVerdict(
        Gamma_dec=g_dec,
        Gamma_pop=population_decay_rate(coeffs),
        tau_dec=decay_time_approx(quadrature_decay_rate(coeffs), omega_L, n),
        tau_zeno=decay_time_approx(population_decay_rate(coeffs), omega_L, n),
        ratio_derived=timescale_ratio(coeffs, omega_L, n, "derived"),
        ratio_paper=timescale_ratio(coeffs, omega_L, n, "paper"),
        cond_derived=sustainable_condition(coeffs, "derived"),
        cond_paper=sustainable_condition(coeffs, "paper"),
        theta=angular_theta(bath, drive, shifts),
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
    for point, row in zip(grid.points(), rows):
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


def test_float_range_edges_match_scalar_reference():
    # baths past the float range are skipped; a phase pi Delta / Omega that
    # overflows leaves the row partial; finite phases keep their bits
    grid = SweepGrid(
        gamma=(1.0, 1e77, 1e308, 3e-77, 1e-170), epsilon=(0.0, 1e-77, 0.5),
        Delta=(1.0, 3.0, -1e200), Omega=(1e-310, 10.0, 1e200), phi=(math.pi,), omega_L=(100.0,),
        n=(100,),
    )
    classes = ("ok", "partial: margin: pi Delta / Omega must be finite",
               "skipped: gamma +/- epsilon must lie between about 1e-77 and 1e77",
               "skipped: epsilon must satisfy epsilon < gamma")
    rows = _rows_match_reference(grid, "asymptotic")
    assert {next((c for c in classes if r.status.startswith(c)), r.status) for r in rows} == set(
        classes)


@pytest.mark.parametrize(
    "shifts, usable",
    [("zero", True), ({"delta_N": 0.05, "delta_M": 0.2}, True),
     (SqueezingShifts(0.1, -0.3), True), ("bogus", False), ({"delta_M": math.inf}, False)],
    ids=["zero", "mapping", "record", "bad-preset", "nonfinite-mapping"],
)
def test_every_shift_spec_matches_scalar_reference(shifts, usable):
    rows = _rows_match_reference(_random_grid(7, n_count=1), shifts)
    # an unusable spec skips every point that has a valid bath and drive
    assert any(r.status == "ok" for r in rows) == usable


def test_evaluate_regime_matches_scalar_reference():
    grid = _random_grid(11, n_count=1)
    rng = random.Random(3)
    points = rng.sample(list(grid.points()), 600)
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
