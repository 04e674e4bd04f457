"""The one-point chain against a 60-digit reference.

reference() evaluates in mpmath, at 60 digits, every number the one-point
chain reports, from the same float inputs: the spectra at the exact
carrier offsets 0 and Omega', N~, M~, delta and beta with the asymptotic
shifts, both rates, both decay times, both ratios, the angular left side
and the sufficient-condition margin.  With each value it carries a
first-order bound on the error that rounding to doubles accumulates when
the value is formed in the library's order of operations (running error
analysis, Higham, Accuracy and Stability of Numerical Algorithms, 2002,
section 3.3): every operation adds half an ulp of its result plus the
smallest subnormal, every math function two ulps, and the errors of the
operands propagate at first order.  The stated bound of each column is
FACTOR times that bound:

- Every float column is bounded from its own formula, as the library
  forms it: the spectra and N~, M~, Gamma_dec over the two Lorentzians
  A = q/(x^2 + mu^2) and B = q/(x^2 + lambda^2) with q = gamma epsilon
  (see the coefficients module), Gamma_dec as gamma (1/2 + C A(Omega') -
  S B(Omega') - Delta~ delta_M s), which carries none of the terms of
  size 1/mu^2 that N~ and Re M~ each hold near epsilon = gamma, the
  angular left side with its numerator expanded as |M| c - Delta~
  delta_M s (no rounded angle), and the margin's offset as
  mu lambda / (2 gamma) (no difference of squares).
- A condition verdict must agree with the reference wherever the
  reference's margin exceeds its bound.
- A point is skipped for N~ < 0 or Gamma_dec <= 0 only where the
  reference value is below its bound.

The offsets are Omega' itself: a carrier that rounds omega_L + Omega'
(defect A) is outside every bound.
"""

import json
import math
import random
from typing import NamedTuple

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from squeezedzeno import (
    DriveParams,
    InvalidParamsError,
    SqueezedVacuumParams,
    SqueezingShifts,
    UnphysicalCoefficientsError,
    effective_coefficients,
    evaluate_regime,
    spectral_m_abs,
    spectral_n,
    tan_theta_asymptotic,
)
from squeezedzeno.analysis import SWEEP_COLUMNS
from squeezedzeno.cli import main
from squeezedzeno.coefficients import _one_point
from squeezedzeno.errors import MAX_OMEGA_L

from make_golden import PAYLOADS

MP = mpmath.mp.clone()
MP.dps = 60
U = MP.mpf(2) ** -53  # the unit roundoff of a double
ETA = MP.mpf(2) ** -1074  # the smallest subnormal, the absolute floor of a rounding
FACTOR = 2


class Rounded(NamedTuple):
    """A value and a first-order bound on |double result - value|."""

    value: object
    bound: object

    def __add__(self, other):
        other = _lift(other)
        return _round(self.value + other.value, self.bound + other.bound)

    __radd__ = __add__

    def __sub__(self, other):
        other = _lift(other)
        return _round(self.value - other.value, self.bound + other.bound)

    def __rsub__(self, other):
        return _lift(other) - self

    def __neg__(self):
        return Rounded(-self.value, self.bound)

    def __mul__(self, other):
        other = _lift(other)
        return _round(self.value * other.value, abs(self.value) * other.bound
                      + abs(other.value) * self.bound + self.bound * other.bound)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _lift(other)
        quotient, room = self.value / other.value, abs(other.value) - other.bound
        if room <= 0:
            return Rounded(quotient, MP.inf)
        return _round(quotient, (self.bound + abs(quotient) * other.bound) / room)

    def __rtruediv__(self, other):
        return _lift(other) / self


def _lift(x) -> Rounded:
    """A double (or int) as an exact Rounded."""
    return x if isinstance(x, Rounded) else Rounded(MP.mpf(x), MP.zero)


def _round(value, bound) -> Rounded:
    """value rounded once more: half an ulp plus the subnormal floor."""
    return Rounded(value, bound + U * abs(value) + ETA)


def _function(value, propagated) -> Rounded:
    """A math-library result: two ulps of its own."""
    return Rounded(value, propagated + 2 * U * abs(value) + ETA)


def _atan2(y: Rounded, x: Rounded) -> Rounded:
    r2 = x.value ** 2 + y.value ** 2  # atan2(0, 0) is 0 in mpmath, as by the library's convention
    return _function(MP.atan2(y.value, x.value),
                     (abs(x.value) * y.bound + abs(y.value) * x.bound) / r2 if r2 else MP.zero)


def _hypot(x: Rounded, y: Rounded) -> Rounded:
    h = MP.hypot(x.value, y.value)
    return _function(h, (abs(x.value) * x.bound + abs(y.value) * y.bound) / h if h
                     else x.bound + y.bound)


def _tan(z: Rounded) -> Rounded:
    t = MP.tan(z.value)
    return _function(t, z.bound * (1 + t * t))


def _spectra(x: Rounded, q: Rounded, lam2: Rounded, mu2: Rounded) -> tuple[Rounded, Rounded]:
    """N and |M| at the carrier offset x, formed as spectrum._n_at and _m_abs_at form them."""
    xx = x * x
    return 4 * q * q / ((xx + mu2) * (xx + lam2)), q * (1 / (xx + mu2) + 1 / (xx + lam2))


def reference(bath: SqueezedVacuumParams, drive: DriveParams, n: int) -> dict:
    """Every number of the chain at this point, as a Rounded, by name."""
    gamma, epsilon, phi, omega_L = map(_lift, (bath.gamma, bath.epsilon, bath.phi, bath.omega_L))
    Omega, Delta = _lift(drive.Omega), _lift(drive.Delta)
    lam, mu, q = gamma + epsilon, gamma - epsilon, gamma * epsilon
    lam2, mu2 = lam * lam, mu * mu
    op = _hypot(Omega, Delta)
    # DriveParams' convention at the undriven corner Omega = Delta = 0
    dt, ot = (Delta / op, Omega / op) if op.value else (_lift(0.0), _lift(1.0))
    c, s, half_c, half_s = (_function(f(v), MP.zero) for f, v in (
        (MP.cos, phi.value), (MP.sin, phi.value), (MP.cos, phi.value / 2),
        (MP.sin, phi.value / 2)))
    C, S = 2 * half_c * half_c, 2 * half_s * half_s
    n1, m1 = _spectra(op, q, lam2, mu2)
    if m1.value < 2.0 ** -1022 and op.value:  # |M| goes subnormal: delta_M's far-wing form
        m_op = q * (1 / (op + mu2 / op) + 1 / (op + lam2 / op))
    else:
        m_op = m1 * op
    delta_M = m_op * (lam + mu) / (lam * mu)
    xx = op * op
    a1, b1 = q / (xx + mu2), q / (xx + lam2)
    # A(0) - A(Omega') and B(0) - B(Omega'), 0 at Omega' = 0
    d_a, d_b = ((q / mu2 / (1 + mu2 / xx), q / lam2 / (1 + lam2 / xx)) if op.value
                else (_lift(0.0), _lift(0.0)))
    ups_re, ups_im = S * d_a - C * d_b, -(s * (d_a + d_b))
    transverse = 0.5 * (1 - dt * dt)
    n_tilde = n1 + transverse * ups_re
    shift = dt * delta_M
    m_re = (m1 * c - transverse * ups_re) - shift * s
    m_im = (m1 * s - transverse * ups_im) + shift * c
    g_dec = gamma * ((0.5 + (C * a1 - S * b1)) - shift * s)
    g_pop = gamma * (1 + 2 * n_tilde)
    meas = omega_L / n
    denom = g_pop + 2 * meas
    rate = 2 * omega_L / n
    ref = {
        "n1": n1, "m1": m1, "ups_re": ups_re, "ups_im": ups_im, "delta_M": delta_M,
        "n_tilde": n_tilde, "m_re": m_re, "m_im": m_im,
        "delta": Delta / gamma - transverse * ups_im,
        "beta_re": gamma * ot * (delta_M * c + dt * ups_im),
        "beta_im": gamma * ot * (delta_M * s - dt * ups_re),
        "Gamma_dec": g_dec,
        "Gamma_pop": g_pop,
        "tau_dec": 1 / (g_dec + rate),
        "tau_zeno": 1 / (g_pop + rate),
        "ratio_derived": (g_dec + 2 * meas) / denom,
        "ratio_paper": 0.5 + (2 * gamma * m_re + meas) / denom,
        "cond_derived": (1 + 2 * n_tilde) - 2 * m_re,
        "cond_paper": (1 + 2 * n_tilde) - 4 * m_re,
        "theta": _atan2(m1, shift),
        "angular_lhs": (m1 * c - shift * s) / ((1 + 2 * n1) + 3 * (1 - dt * dt) * ups_re),
    }
    if Omega.value > 0:  # the library reports no margin at Omega = 0
        pi = Rounded(MP.pi, U * MP.pi)  # math.pi
        ref["sufficient_margin"] = Delta * _tan(pi * Delta / Omega) - mu * lam / (2 * gamma)
    return ref


def library(bath: SqueezedVacuumParams, drive: DriveParams, n: int) -> dict:
    """The same numbers from the library (a verdict column is missing where it raises)."""
    shifts = SqueezingShifts.asymptotic(bath, drive)
    co = effective_coefficients(bath, drive, shifts, validate=False)
    n1, m1, ups = _one_point(bath, drive)[:3]
    got = {
        "n1": n1, "m1": m1, "ups_re": ups.real, "ups_im": ups.imag, "delta_M": shifts.delta_M,
        "n_tilde": co.n_tilde, "m_re": co.m_tilde.real, "m_im": co.m_tilde.imag,
        "delta": co.delta, "beta_re": co.beta.real, "beta_im": co.beta.imag,
    }
    try:
        verdict = evaluate_regime(bath, drive, n)
    except (UnphysicalCoefficientsError, InvalidParamsError) as exc:
        got["skipped"] = exc
        return got
    got.update(verdict.report())
    if verdict.errors:  # a tangent pole, reported as a NaN margin
        del got["sufficient_margin"]
    return got


def errors(ref: dict, got: dict) -> dict:
    """Per float column the library reported, (|library - reference|, stated bound)."""
    return {name: (abs(MP.mpf(value) - ref[name].value), FACTOR * ref[name].bound)
            for name, value in got.items() if isinstance(value, float)}


def check_point(bath: SqueezedVacuumParams, drive: DriveParams, n: int) -> None:
    check(reference(bath, drive, n), library(bath, drive, n))


def check(ref: dict, got: dict) -> None:
    """got, a dict shaped as library()'s, within the stated bounds of ref."""
    for name, (error, bound) in errors(ref, got).items():
        assert error <= bound, f"{name}: {got[name]!r} against {ref[name].value}, bound {bound}"
    for name in ("cond_derived", "cond_paper"):
        margin = ref[name]
        if name in got and abs(margin.value) > FACTOR * margin.bound:
            assert got[name] == (margin.value >= 0), name
    skipped = got.get("skipped")
    if isinstance(skipped, UnphysicalCoefficientsError):
        assert ref["n_tilde"].value < FACTOR * ref["n_tilde"].bound
    elif skipped is not None:
        assert str(skipped).startswith("nonpositive quadrature decay rate"), skipped
        assert ref["Gamma_dec"].value <= FACTOR * ref["Gamma_dec"].bound


def _decade(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@st.composite
def points(draw):
    gamma = draw(_decade(-3.0, 3.0))
    epsilon = draw(st.one_of(
        st.just(0.0),
        _decade(-15.0, -0.01).map(lambda f: gamma * f),  # down to 1e-15 gamma
        _decade(-12.0, -1.0).map(lambda d: gamma * (1.0 - d)),  # within 1e-12 of gamma
    ))
    phi = draw(st.one_of(st.just(math.pi), st.floats(-math.pi, 2.0 * math.pi)))
    omega_L = draw(st.one_of(
        st.floats(1.0, 1e3),
        _decade(0.0, math.log10(MAX_OMEGA_L)).map(lambda w: min(w, MAX_OMEGA_L)),
        st.just(MAX_OMEGA_L),
    ))
    Omega = draw(_decade(-2.0, 150.0))
    Delta = Omega * draw(st.floats(-2.0, 2.0))
    n = draw(st.integers(1, 10 ** 6))
    return SqueezedVacuumParams(gamma, epsilon, phi, omega_L), DriveParams(Omega, Delta), n


DEFAULT_BATH = SqueezedVacuumParams(1.0, 0.5, math.pi, 100.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(points())
@example((DEFAULT_BATH, DriveParams(10.0, 0.0), 100))
@example((SqueezedVacuumParams(1.0, 0.5, math.pi, 1e18), DriveParams(10.0, 0.0), 100))
@example((SqueezedVacuumParams(1.0, 0.5, 2.5, MAX_OMEGA_L), DriveParams(10.0, 1.0), 1))
def test_one_point_chain_within_its_stated_bounds(point):
    check_point(*point)


# the golden sweeps at the asymptotic shifts, and how many rows of each are checked
CERTIFIED_SWEEPS = ("criterion-10", "mixed-6400", "wide-range", "carrier-faults", "width-faults")
CERTIFIED_ROWS = 192

# a skipped row's status, as the exception library() records for it
SKIPS = {"skipped: effective photon number is negative": UnphysicalCoefficientsError,
         "skipped: nonpositive quadrature decay rate": InvalidParamsError}


@pytest.mark.parametrize("name", CERTIFIED_SWEEPS)
def test_sweep_rows_within_their_stated_bounds(name, tmp_path):
    # rows of the CLI's own payload, as printed: every float column within its bound
    _, fmt, config = PAYLOADS[f"sweep-{name}-json"]
    path, out = tmp_path / "config.json", tmp_path / "out.json"
    path.write_text(json.dumps(config))
    assert main(["sweep", "--format", fmt, "--config", str(path), "--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    assert tuple(result["columns"]) == SWEEP_COLUMNS
    rows = random.Random(20251022).sample(result["rows"], min(CERTIFIED_ROWS,
                                                               len(result["rows"])))
    for row in rows:
        # an integral float is printed as an int: float() restores it (booleans stay)
        row = {k: float(v) if type(v) is int else v for k, v in zip(SWEEP_COLUMNS, row)}
        status = row["status"]
        try:
            bath = SqueezedVacuumParams(row["gamma"], row["epsilon"], row["phi"], row["omega_L"])
            drive = DriveParams(row["Omega"], row["Delta"])
        except InvalidParamsError:
            assert status.startswith("skipped: "), status
            continue
        skip = next((exc for prefix, exc in SKIPS.items() if status.startswith(prefix)), None)
        got = ({"skipped": skip(status.removeprefix("skipped: "))} if skip else
               {k: row[k] for k in SWEEP_COLUMNS[7:-1] if row[k] is not None})
        check(reference(bath, drive, int(row["n"])), got)


def _assert_relative(got: dict, ref: dict, names: tuple, tolerance: float) -> None:
    for name in names:
        want = ref[name].value
        assert abs(got[name] - want) <= tolerance * abs(want), (name, got[name], want)


@pytest.mark.parametrize("distance", [1e-6, 1e-7, 1e-8])
def test_gamma_dec_near_threshold_to_1e_12(distance):
    # at phi = pi, N~ and Re M~ each hold terms of size 1/mu^2 that cancel in Gamma_dec
    bath = SqueezedVacuumParams(1.0, 1.0 - distance, math.pi, 100.0)
    drive = DriveParams(10.0, 0.0)
    got = evaluate_regime(bath, drive, 100).report()
    _assert_relative(got, reference(bath, drive, 100),
                     ("Gamma_dec", "tau_dec", "ratio_derived"), 1e-12)


def test_upsilon_near_threshold_at_phi_zero_to_1e_12():
    # at phi = 0, N(0) and |M(0)| cos phi of size 1/mu^2 cancel in (n0 - n1) - (m0 - m1) cos phi
    bath = SqueezedVacuumParams(1.0, 1.0 - 1e-8, 0.0, 100.0)
    drive = DriveParams(1.0, 0.0)
    got, ref = library(bath, drive, 100), reference(bath, drive, 100)
    _assert_relative(got, ref, ("ups_re", "n_tilde", "m_re", "Gamma_dec", "Gamma_pop",
                                "ratio_derived", "ratio_paper"), 1e-12)


def test_angular_lhs_where_theta_is_near_phi_to_1e_12():
    # the sweep-wide-range row at phi = pi: sin of a rounded theta - phi was 3.2e-4 off here
    bath = SqueezedVacuumParams(1e-12, 1e-13, math.pi, 100.0)
    drive = DriveParams(10.0, 5.0)
    _assert_relative(library(bath, drive, 100), reference(bath, drive, 100),
                     ("angular_lhs",), 1e-12)


@pytest.mark.parametrize("distance", [1e-8, 1e-12])
def test_tan_theta_asymptotic_near_threshold_to_1e_15(distance):
    # gamma^2 - epsilon^2 of the rounded squares cancels as epsilon -> gamma; mu lam does not
    bath = SqueezedVacuumParams(1.0, 1.0 - distance, math.pi, 100.0)
    drive = DriveParams(10.0, 1.0)
    gamma, epsilon = MP.mpf(bath.gamma), MP.mpf(bath.epsilon)
    want = (gamma * gamma - epsilon * epsilon) / (2 * MP.mpf(drive.Delta) * gamma)
    assert abs(tan_theta_asymptotic(bath, drive) - want) <= 1e-15 * want


@pytest.mark.parametrize("fraction", [1e-6, 1e-9, 1e-12])
def test_spectra_at_weak_squeezing_to_1e_14(fraction):
    # the amplitude is q = gamma epsilon: (lambda^2 - mu^2)/4 of the rounded squares
    # would lose 1e-16 gamma/epsilon in relative accuracy
    bath = SqueezedVacuumParams(1.0, fraction, 0.3, 100.0)
    gamma, epsilon = MP.mpf(bath.gamma), MP.mpf(bath.epsilon)
    for x in (0.0, 0.5, 1.0, 7.0, 1e3):  # 100 + x and its offset from 100 are exact
        a = gamma * epsilon / (x * x + (gamma - epsilon) ** 2)
        b = gamma * epsilon / (x * x + (gamma + epsilon) ** 2)
        for got, want in ((spectral_n(bath, 100.0 + x), a - b),
                          (spectral_m_abs(bath, 100.0 + x), a + b)):
            assert abs(got - want) <= 1e-14 * want, (x, got, want)
