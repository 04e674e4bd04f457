"""Output checks that hold for any seed.

Each check takes one CLI payload (and the config that produced it) and
returns a list of failure messages; an empty list means the output is
correct.  The content-sha256 of a payload is recorded for information
only: a change in the last digits is not a failure.
"""

from __future__ import annotations

import csv
import io
import json
import math

SPECTRUM_RTOL = 1e-12
EVOLVE_ATOL = 1e-6
RATIO_RTOL = 1e-12
ORACLE_LAST_DEVIATION = 0.02
UNITARITY_DEFECT = 1e-10
FIT_REL_ERROR = 1e-6


def content_sha256(text: str) -> str | None:
    if text.startswith("{"):
        return json.loads(text)["provenance"]["content_sha256"]
    for line in text.splitlines():
        if line.startswith("# content-sha256: "):
            return line.split(": ", 1)[1]
    return None


def table(text: str, fmt: str) -> tuple[list[str], list[list]]:
    """Columns and rows of a tabular payload; CSV cells stay strings."""
    if fmt == "json":
        result = json.loads(text)["result"]
        return result["columns"], result["rows"]
    body = "".join(line for line in text.splitlines(True) if not line.startswith("#"))
    rows = list(csv.reader(io.StringIO(body)))
    return rows[0], rows[1:]


def _num(value) -> float:
    return math.nan if value is None else float(value)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def check_spectrum(text: str, fmt: str, config: dict) -> list[str]:
    columns, rows = table(text, fmt)
    errors = []
    if len(rows) != config["spectrum"]["points"]:
        errors.append(f"spectrum: {len(rows)} rows, expected {config['spectrum']['points']}")
    i_n, i_m = columns.index("N"), columns.index("M_abs")
    worst = max(
        (_rel(_num(r[i_m]) ** 2, _num(r[i_n]) * (_num(r[i_n]) + 1.0)) for r in rows),
        default=math.inf,
    )
    if not worst <= SPECTRUM_RTOL:
        errors.append(f"spectrum: |M|^2 = N(N+1) off by {worst:.3g} relative")
    return errors


def check_evolve(text: str, fmt: str, config_path: str) -> list[str]:
    """Final state against an expm propagation of the affine Bloch generator."""
    import numpy as np
    from scipy.linalg import expm
    from squeezedzeno import BlochState, RunConfig, bloch_generator, effective_coefficients

    cfg = RunConfig.load(config_path)
    bath, drive = cfg.bath(), cfg.drive()
    coeffs = effective_coefficients(bath, drive, cfg.shifts(bath, drive))
    spec = cfg.data["evolve"]
    initial = {
        "excited": BlochState.excited,
        "ground": BlochState.ground,
        "x+": lambda: BlochState.x_polarized(+1),
        "x-": lambda: BlochState.x_polarized(-1),
    }[spec["initial"]]()
    mat, aff = bloch_generator(coeffs, drive)
    gen = np.zeros((4, 4))
    gen[:3, :3], gen[:3, 3] = mat, aff
    y0 = [2.0 * initial.s_minus.real, 2.0 * initial.s_minus.imag, initial.s_z, 1.0]
    u, w, z, _ = expm(gen * spec["t_end"]) @ np.array(y0)

    columns, rows = table(text, fmt)
    errors = []
    if len(rows) != spec["samples"]:
        errors.append(f"evolve: {len(rows)} rows, expected {spec['samples']}")
    last = dict(zip(columns, map(_num, rows[-1])))
    if _rel(last["t"], spec["t_end"]) > 1e-12:
        errors.append(f"evolve: last sample at t = {last['t']}, expected {spec['t_end']}")
    dev = max(
        abs(last["re_s_minus"] - 0.5 * u), abs(last["im_s_minus"] - 0.5 * w), abs(last["s_z"] - z)
    )
    if not dev < EVOLVE_ATOL:
        errors.append(f"evolve: final state {dev:.3g} from the expm reference")
    return errors


def check_timescales(text: str, fmt: str, config: dict) -> list[str]:
    """tau_zeno / tau_dec = ratio_derived = (G_dec + 2w/n) / (G_pop + 2w/n)."""
    if fmt == "json":
        raw = json.loads(text)["result"]
    else:
        columns, rows = table(text, fmt)
        raw = dict(zip(columns, rows[0]))
    keys = ("tau_zeno", "tau_dec", "ratio_derived", "Gamma_dec", "Gamma_pop")
    r = {key: _num(raw[key]) for key in keys}
    meas = 2.0 * config["bath"]["omega_L"] / config["schedule"]["n"]
    errors = []
    if _rel(r["tau_zeno"] / r["tau_dec"], r["ratio_derived"]) > RATIO_RTOL:
        errors.append("timescales: tau_zeno / tau_dec != ratio_derived")
    if _rel((r["Gamma_dec"] + meas) / (r["Gamma_pop"] + meas), r["ratio_derived"]) > RATIO_RTOL:
        errors.append("timescales: ratio_derived != (G_dec + 2w/n) / (G_pop + 2w/n)")
    return errors


def check_sweep(text: str, fmt: str, size: int) -> list[str]:
    """One row per grid point.  Byte identity across thread counts and
    repetitions is checked by the caller, which holds both payloads."""
    _, rows = table(text, fmt)
    return [] if len(rows) == size else [f"sweep: {len(rows)} rows, expected {size}"]


def check_oracle(text: str, rows_expected: int) -> list[str]:
    result = json.loads(text)["result"]
    davies, rates = result["davies"], result["rates"]
    errors = []
    if len(davies) != rows_expected:
        errors.append(f"oracle: {len(davies)} Davies rows, expected {rows_expected}")
    devs = [row["max_deviation"] for row in davies]
    if any(b >= a for a, b in zip(devs, devs[1:])):
        errors.append(f"oracle: deviations not decreasing: {devs}")
    if not devs or not devs[-1] < ORACLE_LAST_DEVIATION:
        errors.append(f"oracle: last deviation {devs[-1:]} not < {ORACLE_LAST_DEVIATION}")
    if not all(row["unitarity_defect"] < UNITARITY_DEFECT for row in davies):
        errors.append("oracle: unitarity defect above 1e-10")
    if not rates or not all(row["rel_error"] < FIT_REL_ERROR for row in rates):
        errors.append("oracle: fitted rate off the analytic rate by more than 1e-6")
    return errors


def check_error(code: int, text: str, stderr: str, expect: dict) -> list[str]:
    """Exit code and error type of an expected-error run."""
    if code != expect["exit"]:
        return [f"{expect['error']}: exit {code}, expected {expect['exit']}"]
    if expect["error"] == "ConfigError":
        # usage and config errors print a one-line diagnostic and no payload
        if text or not stderr.startswith("error: "):
            return ["ConfigError: expected no payload and an 'error:' diagnostic"]
        return []
    kind = json.loads(text)["result"]["error"]["type"]
    return [] if kind == expect["error"] else [f"error type {kind}, expected {expect['error']}"]
