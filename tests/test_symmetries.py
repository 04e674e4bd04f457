"""Exact symmetries of the model, checked through the CLI.

Each relation maps one run's config to another's and says how every
reported value moves; none shares a formula with the code or with the
references the other tests compare it against.

- Units: gamma, epsilon, Delta, Omega and omega_L (and the spectrum's
  offsets, the oracle's Gamma and Delta_E) times 2**k multiply every rate,
  frequency and the margin by 2**k, every time by 2**-k, and leave every
  dimensionless number as it is.
- Measurement rate: (omega_L, n) -> (2 omega_L, 2 n) leaves everything
  reported but those two inputs as it is.
- Reflection: (Delta, phi) -> (-Delta, -phi) leaves every rate, time,
  ratio, verdict and margin as it is, takes theta to pi - theta and
  <sigma_-> to -conj(<sigma_->) (an x+ start to x-).

Multiplying by a power of two is exact in binary floating point while
nothing overflows or goes subnormal, so these relations hold bit for bit:
a failure marks a unit error or a misplaced constant, which rounding
cannot cause.  The stated exceptions: the reflected theta and angular_lhs,
which round pi - theta once more, and the oracle's fitted rates (see
test_oracle_scales_with_units).  A skipped or partial row's text carries
the values it was given, so such rows compare by status kind, the text
with every number blanked.
"""

import json
import math
import re

import pytest

from squeezedzeno.cli import main

PI = math.pi

# 1152 points with every status kind (see test_the_grid_reaches_every_status_kind)
GRID = {
    "gamma": [0.75, 1.0],
    "epsilon": [0.0, 0.5, 0.9, 1.25],
    "Delta": [-3.0, 0.0, 2.5, 5.0],
    "Omega": [-1.0, 0.0, 10.0],
    "phi": [0.0, 1.5, 2.5],
    "omega_L": [0.0, 100.0],
    "n": [1, 100],
}

BATH = {"gamma": 1.0, "epsilon": 0.5, "phi": 2.5, "omega_L": 100.0}
DRIVE = {"Omega": 10.0, "Delta": 1.5}

# one run per subcommand; timescales at an ok point, a tangent pole and N~ < 0
RUNS = {
    "sweep": ("sweep", {"sweep": GRID}),
    "timescales-ok": ("timescales", {"bath": BATH, "drive": DRIVE, "schedule": {"n": 100}}),
    "timescales-pole": ("timescales", {"bath": BATH, "drive": {**DRIVE, "Delta": 5.0},
                                       "schedule": {"n": 100}}),
    "timescales-negative": ("timescales", {"bath": {**BATH, "phi": 0.0}, "drive": DRIVE,
                                           "schedule": {"n": 100}}),
    "spectrum": ("spectrum", {"bath": BATH, "spectrum": {"x_min": -10.0, "x_max": 30.0,
                                                         "points": 41}}),
    "evolve-superoperator": ("evolve", {"bath": BATH, "drive": DRIVE, "evolve": {
        "t_end": 10.0, "samples": 40, "method": "superoperator"}}),
    "evolve-bloch": ("evolve", {"bath": BATH, "drive": DRIVE, "evolve": {
        "t_end": 10.0, "samples": 40, "method": "bloch", "initial": "x+"}}),
    "oracle": ("oracle", {"bath": BATH, "drive": DRIVE, "oracle": {
        "Gamma": 1.0, "schedule": [[60, 0.2], [120, 0.1]], "samples": 7}}),
}

# the power of 2**k by which a unit scaling multiplies each input and reported value
FREQUENCIES = ("gamma", "epsilon", "Delta", "Omega", "omega_L", "Gamma_dec", "Gamma_pop",
               "sufficient_margin", "omega", "x", "x_min", "x_max", "Gamma", "Delta_E",
               "bandwidth", "analytic", "fitted")
TIMES = ("tau_dec", "tau_zeno", "t", "t_end")
POWER = {**dict.fromkeys(FREQUENCIES, 1), **dict.fromkeys(TIMES, -1)}

NUMBER = re.compile(r"[-+]?\d+(\.\d*)?(e[-+]?\d+)?")


def _kind(status: str) -> str:
    return NUMBER.sub("#", status)


def _run(tmp_path, command: str, config: dict) -> tuple[int, list[dict]]:
    """The exit code and the records of one JSON run: table rows, the oracle's
    rows, or the one timescales report or error (its message as status).
    Every number is read as a float, so that "-0" keeps its sign."""
    path, out = tmp_path / "config.json", tmp_path / "out.json"
    path.write_text(json.dumps(config))
    code = main([command, "--format", "json", "--config", str(path), "--out", str(out)])
    result = json.loads(out.read_text(), parse_int=float)["result"]
    if "columns" in result:
        return code, [dict(zip(result["columns"], row)) for row in result["rows"]]
    if "davies" in result:
        return code, result["davies"] + result["rates"]
    if "error" in result:
        return code, [{"type": result["error"]["type"], "status": result["error"]["message"]}]
    return code, [result]


def _same(a, b) -> bool:
    """Equal as reported: the same type, and for floats the same bits."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


def _mapped(config, fn):
    """config with fn(key, value) applied to every leaf of its sections, lists elementwise."""
    def leaf(key, value):
        if isinstance(value, list) and key != "schedule":
            return [fn(key, v) for v in value]
        return fn(key, value)
    return {section: {key: leaf(key, value) for key, value in body.items()}
            for section, body in config.items()}


def _check(tmp_path, name, relation, expect, close=lambda column, got, want: None):
    """Run RUNS[name] and its image under relation: each value of the image must be
    the original's with expect(column, value) applied (a status that is not ok by
    kind), or pass close(column, got, want) where that returns a bool, not None."""
    command, config = RUNS[name]
    code, records = _run(tmp_path, command, config)
    image_code, images = _run(tmp_path, command, relation(config))
    assert (image_code, len(images)) == (code, len(records))
    for record, image in zip(records, images):
        assert list(image) == list(record)
        for column, value in record.items():
            want, got = expect(column, value), image[column]
            verdict = close(column, got, want)
            if verdict is not None:
                assert verdict, (name, column, record, image)
            elif column == "status" and value != "ok":
                assert _kind(got) == _kind(want), (name, record, image)
            else:
                assert _same(got, want), (name, column, record, image)


def _units(k: int):
    f = 2.0 ** k

    def scale(key, value):
        # a schedule entry is [R, Delta_E]
        if key == "schedule" and isinstance(value, list):
            return [[r, delta_e * f] for r, delta_e in value]
        return value * f ** POWER[key] if key in POWER and value is not None else value

    return (lambda config: _mapped(config, scale)), scale


@pytest.mark.parametrize("k", [-60, -3, 5, 60])
@pytest.mark.parametrize("name", [name for name in RUNS if name != "oracle"])
def test_units_scale_by_powers_of_two(tmp_path, name, k):
    relation, scale = _units(k)
    _check(tmp_path, name, relation, scale)


def _fit_within_rounding(column, got, want):
    # the fit's least-squares steps mix Jacobian columns in units of t and of 1,
    # so its rate is unit-free only to rounding: one ulp was seen for k from -40 to 37
    if column == "fitted":
        return abs(got - want) <= 4e-16 * abs(want)
    if column == "rel_error":
        return abs(got - want) <= 4e-16
    return None


# beyond about 2**±40 the rate column of bloch.fit_exponential's Jacobian is so far
# from the others in size that lstsq's default cutoff drops it, and the oracle
# exits 2 with "fit residual ... exceeds 0.001 of the amplitude"
UNIT_DEPENDENT_FIT = pytest.mark.xfail(strict=True, reason="the rate fit depends on the units")


@pytest.mark.parametrize("k", [pytest.param(-60, marks=UNIT_DEPENDENT_FIT), -30, -3, 5, 30,
                               pytest.param(60, marks=UNIT_DEPENDENT_FIT)])
def test_oracle_scales_with_units(tmp_path, k):
    relation, scale = _units(k)
    _check(tmp_path, "oracle", relation, scale, _fit_within_rounding)


def test_measurement_rate_depends_on_omega_L_over_n(tmp_path):
    def double(key, value):
        return 2 * value if key in ("omega_L", "n") else value

    for name in ("sweep", "timescales-ok", "timescales-pole", "timescales-negative"):
        _check(tmp_path, name, lambda config: _mapped(config, double), double)


def _reflect(key, value):
    return -value if key in ("Delta", "phi", "re_s_minus") else value


def test_reflection_keeps_every_rate_time_ratio_and_verdict(tmp_path):
    def relation(config):
        image = _mapped(config, _reflect)
        if "evolve" in image and image["evolve"].get("initial") == "x+":
            image["evolve"]["initial"] = "x-"
        return image

    def close(column, got, want):
        if want is None:
            return None
        if column == "re_s_minus":  # a zero of the start is not negated
            return got == want
        if column == "theta":  # pi - theta, rounded: atan2(m1, -x) against atan2(m1, x)
            return abs(got - (PI - want)) <= 2 * math.ulp(PI)
        if column == "angular_lhs":
            # sin(pi - theta + phi) for sin(theta - phi): 5.0e-15 relative was
            # measured here, and 6.4e-14 on a grid of 3 840 points
            return abs(got - want) <= 1e-13 * abs(want)
        return None

    for name in ("sweep", "timescales-ok", "timescales-pole", "timescales-negative",
                 "evolve-superoperator", "evolve-bloch"):
        _check(tmp_path, name, relation, _reflect, close)


def test_the_grid_reaches_every_status_kind(tmp_path):
    kinds = ("ok", "partial: margin: Omega must be > 0", "partial: margin: pi Delta / Omega",
             "skipped: epsilon must satisfy", "skipped: omega_L must be > 0",
             "skipped: Omega must be >= 0", "skipped: effective photon number is negative",
             "skipped: nonpositive quadrature decay rate")
    seen = {next((kind for kind in kinds if record["status"].startswith(kind)), record["status"])
            for record in _run(tmp_path, "sweep", {"sweep": GRID})[1]}
    assert seen == set(kinds)
