"""Command-line front end.

Five subcommands expose the library: spectrum (squeezing spectra on a
frequency grid), evolve (trajectory propagation), timescales
(decay-rate and condition report for one parameter point), sweep (grid
classification), and oracle (discrete-bath convergence study plus
fit-versus-analytic rate checks).

Every output starts with a provenance block: tool version, the fully
resolved configuration, and a sha256 over the data section.  No
timestamps are written, so identical inputs give byte-identical files.
The output format (scalar texts, JSON layout, CSV quoting, provenance)
lives in config, where RunConfig.render writes every document as chunks
of bytes, which main writes out one after another.  Exit
codes: 0 success, 1 usage error, 2 computation error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .analysis import SWEEP_COLUMNS, evaluate_regime, regime_sweep
from .bloch import BlochState, evolve, fit_decay_rate, population_decay_rate
from .coefficients import DriveParams, SqueezingShifts, _one_point, effective_coefficients
from .config import _RULES, DEFAULTS, RunConfig, canonical_json
from .errors import ConfigError, SqueezedZenoError
from .spectrum import _at_offsets, _m_abs_at, _n_at
from .weakmeas import DaviesModel, davies_max_deviation, davies_propagator_column

def cmd_spectrum(cfg: RunConfig) -> tuple[list[bytes], int]:
    """Tabulate N and M at carrier offsets x; the omega column is omega_L + x."""
    bath = cfg.bath()
    spec = cfg.data["spectrum"]
    x = np.linspace(spec["x_min"], spec["x_max"], spec["points"])
    m_abs = _at_offsets(_m_abs_at, bath, x)
    table = (bath.omega_L + x, x, _at_offsets(_n_at, bath, x), m_abs,
             m_abs * math.cos(bath.phi), m_abs * math.sin(bath.phi))
    return cfg.render(table, ("omega", "x", "N", "M_abs", "M_re", "M_im")), 0


def cmd_evolve(cfg: RunConfig) -> tuple[list[bytes], int]:
    """Propagate one trajectory and tabulate it."""
    bath = cfg.bath()
    drive = cfg.drive()
    coeffs = effective_coefficients(bath, drive, cfg.shifts(bath, drive))
    ev = cfg.data["evolve"]
    traj = evolve(
        cfg.initial_state(),
        coeffs,
        drive,
        (0.0, ev["t_end"]),
        n_samples=ev["samples"],
        method=ev["method"],
    )
    table = (traj.t, traj.s_minus.real, traj.s_minus.imag, traj.s_z, traj.trace_error)
    return cfg.render(table, ("t", "re_s_minus", "im_s_minus", "s_z", "trace_error")), 0


def cmd_timescales(cfg: RunConfig) -> tuple[list[bytes], int]:
    """Report rates, timescales, ratios, and all conditions for one point."""
    bath = cfg.bath()
    drive = cfg.drive()
    try:
        verdict = evaluate_regime(
            bath, drive, cfg.data["schedule"]["n"], shifts=cfg.data["shifts"]
        )
        if verdict.errors:
            raise verdict.errors[0][1]
    except SqueezedZenoError as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        return cfg.render(error), 2
    result = verdict.report()
    if cfg.data["format"] == "json":
        return cfg.render(result), 0
    return cfg.render([[value] for value in result.values()], tuple(result)), 0


def cmd_sweep(cfg: RunConfig) -> tuple[list[bytes], int]:
    """Classify the configured grid; skipped points stay in the table."""
    table = regime_sweep(cfg.sweep_grid(), shifts=cfg.data["shifts"])
    return cfg.render(table, SWEEP_COLUMNS), 0


def _rate_comparisons(cfg: RunConfig) -> list[dict]:
    """Deterministic fit-versus-analytic probes for both decay rates.

    Both probes pin the squeezing phase to pi and the detuning to zero;
    that puts Im M~ + delta = 0 exactly, so each observable is a clean
    single exponential and the fit isolates the analytic rate.  The
    analytic Gamma_dec is the one timescales and sweep report, in its
    cancellation-free form, not the sum of the record's N~ and Re M~.
    """
    bath = dataclasses.replace(cfg.bath(), phi=math.pi)
    rows = []
    for label, observable, omega, initial in (
        ("Gamma_pop", "sigma_z", 0.0, BlochState.excited()),
        ("Gamma_dec", "sigma_x", cfg.drive().Omega, BlochState.x_polarized()),
    ):
        drive = DriveParams(omega, 0.0)
        shifts = SqueezingShifts.asymptotic(bath, drive)
        coeffs = effective_coefficients(bath, drive, shifts)
        analytic = (population_decay_rate(coeffs) if label == "Gamma_pop"
                    else _one_point(bath, drive, shifts)[7])
        traj = evolve(
            initial, coeffs, drive, (0.0, 3.0 / analytic), n_samples=600, method="bloch"
        )
        fitted = fit_decay_rate(traj, observable).rate
        rows.append({
            "rate": label,
            "observable": observable,
            "Omega": drive.Omega,
            "analytic": analytic,
            "fitted": fitted,
            "rel_error": abs(fitted - analytic) / abs(analytic),
        })
    return rows


def cmd_oracle(cfg: RunConfig) -> tuple[list[bytes], int]:
    """Discrete-bath convergence table plus rate-fit cross-checks."""
    if cfg.data["format"] == "csv":
        raise ConfigError("the oracle report is structured; use --format json")
    rates = _rate_comparisons(cfg)  # first, so a bad bath or drive fails before any solve
    o = cfg.data["oracle"]
    davies_rows = []
    for r_count, delta_e in o["schedule"]:
        model = DaviesModel(o["Gamma"], r_count, delta_e)
        max_dev = davies_max_deviation(model, o["samples"], dim_cap=o["dim_cap"])
        column = davies_propagator_column(model, 3.0 / o["Gamma"], dim_cap=o["dim_cap"])
        defect = abs(float(np.sum(np.abs(column) ** 2)) - 1.0)
        davies_rows.append({
            "R": r_count,
            "Delta_E": delta_e,
            "bandwidth": model.bandwidth,
            "max_deviation": max_dev,
            "unitarity_defect": defect,
        })
    result = {"davies": davies_rows, "rates": rates}
    return cfg.render(result), 0


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures map to exit code 1."""

    def error(self, message: str):
        raise ConfigError(message)


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built on the first call and shared by every later one:
    parsing reads it and never changes it."""
    parser = _Parser(
        prog="squeezedzeno",
        description="Squeezed-bath atom dynamics: spectra, trajectories, "
        "weak-measurement timescales, and regime classification.",
        epilog="Defaults (override via --config file or flags):\n"
        + canonical_json(DEFAULT_SUMMARY, indent=True),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"squeezedzeno {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    descriptions = {
        "spectrum": "tabulate N(omega) and M(omega) on a grid around the carrier",
        "evolve": "propagate the master equation and emit the trajectory",
        "timescales": "report decay rates, timescales, and coherence conditions",
        "sweep": "classify a parameter grid into coherence regimes",
        "oracle": "discrete-bath convergence study and rate-fit cross-checks",
    }
    for name, help_text in descriptions.items():
        sp = sub.add_parser(name, help=help_text, description=help_text)
        sp.add_argument("--config", metavar="PATH", help="JSON or YAML config file")
        sp.add_argument("--out", metavar="PATH", help="output file (default stdout)")
        sp.add_argument("--format", choices=_RULES["format"], help="output format")
        sp.add_argument("--threads", type=int, metavar="N",
                        help="accepted and validated (>= 1); sweeps run on one thread")
    return parser


# what --help advertises; the full resolved config lands in every output
DEFAULT_SUMMARY = {
    key: DEFAULTS[key]
    for key in ("bath", "drive", "shifts", "schedule", "mode", "format")
}


def _check_threads(threads: int | None) -> None:
    """Validate --threads; it does not change the work."""
    if threads is not None and threads < 1:
        raise ConfigError(f"thread count must be >= 1, got {threads}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = RunConfig.load(
            args.config,
            overrides={"format": args.format, "out": args.out},
        )
        _check_threads(args.threads)
        # looked up at call time, so a command rebound on this module is the one that runs
        content, code = globals()[f"cmd_{args.command}"](cfg)
        if cfg.data["out"] is None:
            sys.stdout.writelines(chunk.decode("utf-8") for chunk in content)
        else:
            with Path(cfg.data["out"]).open("wb") as out:
                out.writelines(content)
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SqueezedZenoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
