"""Tests for the regime classification and sweep machinery."""

import itertools
import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from squeezedzeno import (
    SWEEP_COLUMNS,
    DriveParams,
    EffectiveCoefficients,
    EmptyGridError,
    InvalidParamsError,
    SingularDenominatorError,
    SqueezedVacuumParams,
    SqueezingShifts,
    SweepGrid,
    TangentSingularityError,
    UnphysicalCoefficientsError,
    angular_condition,
    angular_theta,
    effective_coefficients,
    evaluate_regime,
    regime_sweep,
    spectral_n,
    sufficient_condition_margin,
    sustainable_condition,
    tan_theta_asymptotic,
    timescale_ratio,
)
from squeezedzeno.cli import main
from squeezedzeno.errors import MAX_OMEGA_L
from test_sweep_kernel import reference_upsilon

BATH = SqueezedVacuumParams(gamma=1.0, epsilon=0.5, phi=math.pi, omega_L=100.0)
DRIVE = DriveParams(Omega=10.0, Delta=0.0)
COEFFS = effective_coefficients(BATH, DRIVE, SqueezingShifts.asymptotic(BATH, DRIVE))


def test_ratio_frozen_both_modes():
    assert timescale_ratio(COEFFS, 100.0, 100, "derived") == pytest.approx(
        0.35624344176285416, rel=1e-13
    )
    assert timescale_ratio(COEFFS, 100.0, 100, "paper") == pytest.approx(
        0.06942987058412031, rel=1e-13
    )
    with pytest.raises(InvalidParamsError):
        timescale_ratio(COEFFS, 100.0, 100, "exact")


def test_ratio_probe_point():
    # gamma=1, N~=0, Re M~ = 1/2 with no measurement broadening separates
    # the two reductions cleanly: the literal quotient is 1, the printed
    # one 3/2
    coeffs = EffectiveCoefficients(
        gamma=1.0, n_tilde=0.0, m_tilde=0.5 + 0.0j, delta=0.0, beta=0.0j
    )
    assert timescale_ratio(coeffs, 0.0, 100, "derived") == pytest.approx(1.0, rel=1e-15)
    assert timescale_ratio(coeffs, 0.0, 100, "paper") == pytest.approx(1.5, rel=1e-15)
    assert sustainable_condition(coeffs, "derived") is True
    assert sustainable_condition(coeffs, "paper") is False


def test_ratio_rejects_what_decay_time_approx_rejects():
    # a zero population denominator, and an omega_L that decay_time_approx refuses
    singular = EffectiveCoefficients(1.0, -0.5, 0j, 0.0, 0j)
    with pytest.raises(SingularDenominatorError):
        timescale_ratio(singular, 0.0, 1)
    coeffs = EffectiveCoefficients(1.0, 0.1, 0j, 0.0, 0j)
    # past max float / 2 the measurement rate 2 omega_L/n overflows (this ratio was nan)
    for bad, message in ((math.nan, "omega_L must be finite"), (-5.0, "omega_L must be >= 0"),
                         (1e308, "omega_L must be <= ")):
        with pytest.raises(InvalidParamsError, match=message):
            timescale_ratio(coeffs, bad, 1)


def test_condition_is_the_stated_inequality():
    rng = np.random.default_rng(17)
    for _ in range(500):
        coeffs = EffectiveCoefficients(
            gamma=rng.uniform(0.5, 2.0),
            n_tilde=rng.uniform(-0.5, 3.0),
            m_tilde=complex(rng.normal(), rng.normal()),
            delta=rng.normal(),
            beta=0.0j,
        )
        lhs2 = 2.0 * coeffs.m_tilde.real
        rhs = 1.0 + 2.0 * coeffs.n_tilde
        assert sustainable_condition(coeffs, "derived") == (lhs2 <= rhs)
        assert sustainable_condition(coeffs, "paper") == (2.0 * lhs2 <= rhs)


def test_angular_theta_limits():
    shifts = SqueezingShifts.asymptotic(BATH, DRIVE)
    # Delta = 0 pins theta to pi/2
    assert angular_theta(BATH, DRIVE, shifts) == pytest.approx(math.pi / 2, rel=1e-15)
    # unsqueezed bath with no shift: zero by convention
    bare = SqueezedVacuumParams(1.0, 0.0, 0.0, 100.0)
    assert angular_theta(bare, DRIVE, SqueezingShifts()) == 0.0


def test_tan_theta_closed_form():
    drive = DriveParams(Omega=10.0, Delta=2.0)
    assert tan_theta_asymptotic(BATH, drive) == pytest.approx(0.1875, rel=1e-15)
    shifts = SqueezingShifts.asymptotic(BATH, drive)
    theta = angular_theta(BATH, drive, shifts)
    assert math.tan(theta) == pytest.approx(0.1875, rel=1e-12)
    with pytest.raises(SingularDenominatorError):
        tan_theta_asymptotic(BATH, DRIVE)  # Delta = 0


def test_angular_condition_frozen():
    shifts = SqueezingShifts.asymptotic(BATH, DRIVE)
    lhs, holds = angular_condition(BATH, DRIVE, shifts)
    assert lhs == pytest.approx(-0.0007615498196960288, rel=1e-12)
    assert holds is True


def test_angular_condition_zero_magnitude():
    bare = SqueezedVacuumParams(1.0, 0.0, 0.5, 100.0)
    lhs, holds = angular_condition(bare, DRIVE, SqueezingShifts())
    assert lhs == 0.0 and holds is True


def test_angular_matches_paper_condition_for_positive_denominator():
    # the angular reduction and the coefficient inequality rank the same
    # points whenever the shared denominator is positive
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(400):
        gamma = rng.uniform(0.5, 2.0)
        eps = rng.uniform(0.05, 0.95) * gamma
        phi = rng.uniform(-math.pi, math.pi)
        bath = SqueezedVacuumParams(gamma, eps, phi, 500.0 * gamma)
        drive = DriveParams(
            Omega=rng.uniform(100.0, 300.0) * bath.lam, Delta=rng.normal() * gamma
        )
        shifts = SqueezingShifts.asymptotic(bath, drive)
        dt = drive.delta_tilde
        den = 1.0 + 2.0 * spectral_n(
            bath, bath.omega_L + drive.omega_prime
        ) + 3.0 * (1.0 - dt * dt) * reference_upsilon(bath, drive).real
        if den <= 1e-6:
            continue
        coeffs = effective_coefficients(bath, drive, shifts, validate=False)
        _, angular_holds = angular_condition(bath, drive, shifts)
        assert angular_holds == sustainable_condition(coeffs, "paper")
        checked += 1
    assert checked > 300


def test_angular_flips_against_paper_for_negative_denominator():
    # strong squeezing near phi = 0 drives the denominator negative;
    # dividing by it flips the inequality, so the two forms must disagree
    bath = SqueezedVacuumParams(1.0, 0.6, 0.1, 1000.0)
    drive = DriveParams(Omega=500.0, Delta=0.0)
    shifts = SqueezingShifts.asymptotic(bath, drive)
    den = 1.0 + 2.0 * spectral_n(
        bath, bath.omega_L + drive.omega_prime
    ) + 3.0 * reference_upsilon(bath, drive).real
    assert den < 0.0
    coeffs = effective_coefficients(bath, drive, shifts, validate=False)
    _, angular_holds = angular_condition(bath, drive, shifts)
    assert angular_holds != sustainable_condition(coeffs, "paper")


def test_angular_denominator_can_be_exactly_zero_where_n_tilde_is_negative():
    # the singular angular reduction: reachable by a direct call only, since N~ < 0
    # there and every other entry point refuses the point first
    bath = SqueezedVacuumParams(1.0, 0.3020310004953576, 0.0, 100.0)
    drive = DriveParams(5.0, 0.0)
    shifts = SqueezingShifts.asymptotic(bath, drive)
    with pytest.raises(SingularDenominatorError, match="denominator is 0;"):
        angular_condition(bath, drive, shifts)
    with pytest.raises(UnphysicalCoefficientsError):
        effective_coefficients(bath, drive, shifts)


def test_angular_denominator_is_bounded_where_n_tilde_is_nonnegative():
    # N~ >= 0 keeps 1 + 2 N(omega_L + Omega') + 3 (1 - Delta~^2) Re Upsilon
    # above zero (the sweep kernel relies on it), also for epsilon -> gamma
    rng = np.random.default_rng(29)
    checked, smallest = 0, math.inf
    for i in range(4000):
        gamma = 10.0 ** rng.uniform(-1.0, 1.0)
        eps = gamma * (1.0 - 10.0 ** rng.uniform(-9.0, 0.0))
        # phases crowd towards 0, where Re Upsilon is least
        phi = rng.uniform(-math.pi, math.pi) * 10.0 ** rng.uniform(-3.0, 0.0)
        bath = SqueezedVacuumParams(gamma, eps, phi, 100.0 * gamma)
        omega_prime = 10.0 ** rng.uniform(-3.0, 4.0)
        Delta = 0.0 if i % 2 else omega_prime * rng.uniform(-1.0, 1.0)
        drive = DriveParams(Omega=math.sqrt(omega_prime**2 - Delta**2), Delta=Delta)
        coeffs = effective_coefficients(bath, drive, SqueezingShifts(), validate=False)
        if coeffs.n_tilde < 0.0:
            continue
        dt = drive.delta_tilde
        den = 1.0 + 2.0 * spectral_n(
            bath, bath.omega_L + drive.omega_prime
        ) + 3.0 * (1.0 - dt * dt) * reference_upsilon(bath, drive).real
        smallest = min(smallest, den)
        checked += 1
    assert checked > 3000
    assert smallest > 0.25


def test_sufficient_margin_frozen():
    bath = SqueezedVacuumParams(1.0, 0.8, 0.0, 100.0)
    drive = DriveParams(Omega=10.0, Delta=1.0)
    margin = sufficient_condition_margin(bath, drive)
    assert margin == pytest.approx(math.tan(math.pi / 10.0) - 0.18, rel=1e-14)
    assert margin == pytest.approx(0.1449196962329063, rel=1e-13)


def test_sufficient_margin_unsqueezed_limit():
    bath = SqueezedVacuumParams(2.0, 0.0, 0.0, 100.0)
    drive = DriveParams(Omega=10.0, Delta=1e-8)
    # margin -> -gamma/2 as Delta -> 0 with epsilon = 0
    assert sufficient_condition_margin(bath, drive) == pytest.approx(-1.0, abs=1e-9)


def test_sufficient_margin_singularities():
    with pytest.raises(TangentSingularityError):
        sufficient_condition_margin(BATH, DriveParams(Omega=10.0, Delta=5.0))
    with pytest.raises(InvalidParamsError):
        sufficient_condition_margin(BATH, DriveParams(Omega=0.0, Delta=0.0))


@pytest.mark.parametrize("omega, delta", [(1e-310, 1.0), (1e308, 1e308), (10.0, 1e308)])
def test_sufficient_margin_refuses_an_infinite_phase(omega, delta):
    # pi Delta / Omega overflows: recorded like Omega = 0, never a bare ValueError
    drive = DriveParams(Omega=omega, Delta=delta)
    with pytest.raises(InvalidParamsError, match="pi Delta / Omega must be finite"):
        sufficient_condition_margin(BATH, drive)
    verdict = evaluate_regime(BATH, drive, 100)
    assert verdict.errors[0][0] == "margin" and math.isnan(verdict.sufficient_margin)


def test_evaluate_regime_bundles_everything():
    verdict = evaluate_regime(BATH, DRIVE, 100)
    assert verdict.ratio_derived == pytest.approx(0.35624344176285416, rel=1e-13)
    assert verdict.ratio_paper == pytest.approx(0.06942987058412031, rel=1e-13)
    assert verdict.cond_derived is True
    assert verdict.cond_paper is True
    assert verdict.errors == ()
    assert verdict.theta == pytest.approx(math.pi / 2, rel=1e-15)
    assert verdict.angular_lhs == pytest.approx(-0.0007615498196960288, rel=1e-12)
    assert verdict.sufficient_margin == pytest.approx(-0.375, rel=1e-14)


def test_sweep_grid_geometry():
    grid = SweepGrid(
        gamma=(1.0,),
        epsilon=(0.0, 0.5),
        Delta=(0.0,),
        Omega=(10.0,),
        phi=(0.0, math.pi),
        omega_L=(100.0,),
        n=(10, 100),
    )
    assert grid.size == 8
    pts = list(itertools.product(*grid.axes))
    assert len(pts) == 8
    # n is the fastest axis
    assert pts[0][:7] == (1.0, 0.0, 0.0, 10.0, 0.0, 100.0, 10)
    assert pts[1][6] == 100
    assert pts[2][4] == math.pi


def test_sweep_grid_validation():
    with pytest.raises(EmptyGridError):
        SweepGrid((), (0.5,), (0.0,), (10.0,), (0.0,), (100.0,), (10,))
    with pytest.raises(InvalidParamsError):
        SweepGrid((1.0,), (0.5,), (0.0,), (10.0,), (0.0,), (100.0,), (0,))
    for bad_n in (math.inf, math.nan):
        with pytest.raises(InvalidParamsError):
            SweepGrid((1.0,), (0.5,), (0.0,), (10.0,), (0.0,), (100.0,), (bad_n,))
    with pytest.raises(InvalidParamsError):
        SweepGrid.from_mapping({"gamma": 1.0})
    with pytest.raises(InvalidParamsError):
        SweepGrid.from_mapping(
            dict(gamma=1.0, epsilon=0.5, Delta=0.0, Omega=10.0, phi=0.0,
                 omega_L=100.0, n=100, bogus=1)
        )


def test_sweep_grid_from_mapping_scalars():
    grid = SweepGrid.from_mapping(
        dict(gamma=1.0, epsilon=[0.0, 0.5], Delta=0.0, Omega=10.0,
             phi=math.pi, omega_L=100.0, n=100)
    )
    assert grid.size == 2
    assert grid.n == (100,)


def test_sweep_statuses():
    grid = SweepGrid(
        gamma=(1.0,),
        epsilon=(0.0, 0.5),
        Delta=(0.0, 5.0),
        Omega=(10.0,),
        phi=(0.0,),
        omega_L=(100.0,),
        n=(100,),
    )
    rows = regime_sweep(grid)
    assert len(rows) == 4
    by_key = {(r.epsilon, r.Delta): r for r in rows}
    assert by_key[(0.0, 0.0)].status == "ok"
    # pi Delta / Omega = pi/2 is a tangent pole: row survives with a note
    partial = by_key[(0.0, 5.0)]
    assert partial.status.startswith("partial: margin:")
    assert math.isnan(partial.sufficient_margin)
    assert math.isfinite(partial.ratio_derived)
    # squeezed bath at phi = 0 has N~ < 0: whole point is skipped
    skipped = by_key[(0.5, 0.0)]
    assert skipped.status.startswith("skipped:")
    assert math.isnan(skipped.Gamma_dec)
    assert skipped.cond_derived is None


def test_a_bath_reports_its_width_fault_before_its_carrier_fault(tmp_path, capsys):
    # gamma +/- epsilon past the float range and omega_L = 0 at once
    width = "gamma +/- epsilon must lie between about 1e-77 and 1e77, "
    with pytest.raises(InvalidParamsError, match=f"^{re.escape(width)}"):
        SqueezedVacuumParams(2e77, 0.0, 0.0, 0.0)
    cfg = tmp_path / "bath.json"
    cfg.write_text(json.dumps({"bath": {"gamma": 2e77, "epsilon": 0.0, "omega_L": 0.0}}))
    assert main(["timescales", "--config", str(cfg)]) == 1
    assert re.fullmatch(f"error: bath: {re.escape(width)}[^\n]*\n", capsys.readouterr().err)
    grid = SweepGrid((1.0, 2e77), (0.0,), (0.0,), (10.0,), (math.pi,), (100.0, 0.0), (100,))
    raised = []
    for row in regime_sweep(grid):
        # evaluate_regime reads the four fields of its bath, which here no record could hold
        bath = SimpleNamespace(gamma=row.gamma, epsilon=row.epsilon, phi=row.phi,
                               omega_L=row.omega_L)
        try:
            evaluate_regime(bath, DRIVE, row.n)
        except InvalidParamsError as exc:
            raised.append(str(exc))
            assert row.status == f"skipped: {exc}"
        else:
            assert row.status == "ok"
    assert [text[:len(width)] for text in raised] == [
        "omega_L must be > 0, got 0.0", width, width]


def test_sweep_row_tuple_matches_columns():
    grid = SweepGrid.from_mapping(
        dict(gamma=1.0, epsilon=0.5, Delta=0.0, Omega=10.0,
             phi=math.pi, omega_L=100.0, n=100)
    )
    row = regime_sweep(grid)[0]
    tup = tuple(row)  # a SweepRow is a NamedTuple in column order
    assert len(tup) == len(SWEEP_COLUMNS) == 18
    assert tup[0] == 1.0
    assert tup[-1] == "ok"


def _timescales(tmp_path, capsys, fmt, bath, drive, n, shifts="asymptotic"):
    """Run the timescales subcommand at one point; (exit code, parsed result)."""
    cfg = tmp_path / "point.json"
    cfg.write_text(json.dumps({
        "bath": {"gamma": bath.gamma, "epsilon": bath.epsilon, "phi": bath.phi,
                 "omega_L": bath.omega_L},
        "drive": {"Omega": drive.Omega, "Delta": drive.Delta},
        "schedule": {"n": n},
        "shifts": shifts,
    }))
    code = main(["timescales", "--format", fmt, "--config", str(cfg)])
    out = capsys.readouterr().out
    # an error document is JSON in either format
    result = json.loads(out)["result"] if fmt == "json" or code != 0 else out
    return code, result


def test_growing_coherence_point_agrees_everywhere(tmp_path, capsys):
    # |M~| above the positivity bound makes the slow quadrature grow
    # (Gamma_dec < 0): every surface reports the same error
    bath = SqueezedVacuumParams(gamma=1.0, epsilon=0.9, phi=1.5, omega_L=100.0)
    drive = DriveParams(Omega=4.0, Delta=1.0)
    message = "nonpositive quadrature decay rate (-0.497992)"
    with pytest.raises(InvalidParamsError) as exc:
        evaluate_regime(bath, drive, 100)
    assert str(exc.value) == message
    grid = SweepGrid((1.0,), (0.9,), (1.0,), (4.0,), (1.5,), (100.0,), (100,))
    (row,) = regime_sweep(grid)
    assert row.status == "skipped: " + message
    for fmt in ("csv", "json"):
        code, result = _timescales(tmp_path, capsys, fmt, bath, drive, 100)
        assert code == 2
        assert result == {"error": {"type": "InvalidParamsError", "message": message}}


@pytest.mark.parametrize(
    "shifts", ["asymptotic", "zero", {"delta_N": 0.05, "delta_M": 0.2}],
    ids=["asymptotic", "zero", "explicit"],
)
def test_timescales_sweep_and_verdict_share_every_number(tmp_path, capsys, shifts):
    # Delta = Omega/2 puts pi Delta / Omega on a tangent pole of the margin;
    # phi != pi and Delta != 0 make Re M~ depend on the shifts
    grid = SweepGrid(
        gamma=(1.0,), epsilon=(0.0, 0.3), Delta=(0.0, 1.0, 5.0), Omega=(10.0,),
        phi=(2.5,), omega_L=(100.0,), n=(10, 100),
    )
    shared = SWEEP_COLUMNS[7:-1]
    statuses = set()
    for point, row in zip(itertools.product(*grid.axes), regime_sweep(grid, shifts=shifts)):
        gamma, epsilon, Delta, Omega, phi, omega_L, n = point
        bath = SqueezedVacuumParams(gamma, epsilon, phi, omega_L)
        drive = DriveParams(Omega, Delta)
        verdict = evaluate_regime(bath, drive, n, shifts=shifts)
        # the shifts matter here (an unsqueezed bath has zero asymptotic shifts)
        if shifts != "asymptotic" and Delta != 0.0 and epsilon > 0.0:
            assert verdict.Gamma_dec != evaluate_regime(bath, drive, n).Gamma_dec
        code, result = _timescales(tmp_path, capsys, "json", bath, drive, n, shifts)
        statuses.add(row.status.split(":")[0])
        if row.status == "ok":
            assert code == 0
            assert result == verdict.report()
            assert [result[c] for c in shared] == [getattr(row, c) for c in shared]
        else:
            assert row.status.startswith("partial: margin:")
            _label, first = verdict.errors[0]
            assert code == 2
            assert result == {
                "error": {"type": type(first).__name__, "message": str(first)}
            }
    assert statuses == {"ok", "partial"}


@pytest.mark.parametrize(
    "shifts", ["zero", {"delta_N": 0.05, "delta_M": 0.2}], ids=["zero", "explicit"]
)
def test_cli_sweep_honours_shifts(tmp_path, capsys, shifts):
    bath = SqueezedVacuumParams(gamma=1.0, epsilon=0.5, phi=2.5, omega_L=100.0)
    drive = DriveParams(Omega=10.0, Delta=1.0)
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({
        "shifts": shifts,
        "sweep": {"gamma": 1.0, "epsilon": 0.5, "Delta": 1.0, "Omega": 10.0,
                  "phi": 2.5, "omega_L": 100.0, "n": 100},
    }))
    assert main(["sweep", "--format", "json", "--config", str(cfg)]) == 0
    table = json.loads(capsys.readouterr().out)["result"]
    (row,) = table["rows"]
    swept = dict(zip(table["columns"], row))
    code, result = _timescales(tmp_path, capsys, "json", bath, drive, 100, shifts)
    assert code == 0
    assert swept["status"] == "ok"
    assert {c: swept[c] for c in SWEEP_COLUMNS[7:-1]} == {
        c: result[c] for c in SWEEP_COLUMNS[7:-1]
    }


# the reported columns with no measurement rate 2 omega_L / n in them
CARRIER_FREE = ("Gamma_dec", "Gamma_pop", "cond_derived", "cond_paper", "theta", "angular_lhs",
                "sufficient_margin")


def _cli_result(tmp_path, capsys, command: str, config: dict):
    cfg = tmp_path / f"{command}.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--format", "json", "--config", str(cfg)]) == 0
    return json.loads(capsys.readouterr().out)["result"]


@pytest.mark.parametrize("omega_L", [1.0, 100.0, 1e16, 1e18, MAX_OMEGA_L])
def test_carrier_enters_only_the_measurement_rate(tmp_path, capsys, omega_L):
    # the spectra see the carrier offsets 0 and Omega' alone; at omega_L = 1e18 the
    # rounded offset (omega_L + Omega') - omega_L was 0 and Gamma_dec 0.0556, not 0.4902
    def carrier_free(carrier: float) -> str:
        point = _cli_result(tmp_path, capsys, "timescales", {"bath": {"omega_L": carrier}})
        grid = {"gamma": 1.0, "epsilon": [0.0, 0.5, 0.9], "Delta": [0.0, 1.0, 2.5],
                "Omega": 10.0, "phi": [0.0, 1.5, math.pi], "omega_L": carrier, "n": 100}
        table = _cli_result(tmp_path, capsys, "sweep", {"sweep": grid})
        rows = [dict(zip(table["columns"], row)) for row in table["rows"]]
        # json.dumps writes each float's repr, so equal texts are equal bits
        return json.dumps([[point[c] for c in CARRIER_FREE],
                           [[row[c] for c in CARRIER_FREE if c != "theta"] for row in rows]])

    assert carrier_free(omega_L) == carrier_free(100.0)
    assert json.loads(carrier_free(omega_L))[0][0] == 0.4902200488997557
