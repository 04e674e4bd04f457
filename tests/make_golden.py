"""Write tests/_artifacts/golden_sha256.json, the pinned hashes of CLI payloads.

    PYTHONPATH=src python tests/make_golden.py [--missing]

Every entry of PAYLOADS is one in-process CLI run (subcommand, format,
config).  The table keeps, per run, the exit code, the payload's
content-sha256 (the digest the CLI prints over the data section) and
the sha256 of the whole output, provenance included; tests/test_golden.py
regenerates each run and compares.  A change that moves numbers on
purpose reruns this script and states the tolerance; a change to the
provenance alone (tool version, config keys) moves only the document
hashes.  The help-* entries pin the --help texts, top level and per
subcommand, at a 100-column terminal: their exit code and the sha256 of
the text.  With --missing only the entries the table lacks are run, added
and named; every existing entry and the recorded versions keep their
bytes, so a new entry can be hashed with an earlier commit's code.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy

from squeezedzeno.cli import main

TABLE = Path(__file__).parent / "_artifacts" / "golden_sha256.json"

PI = 3.141592653589793

# the 1000-point grid of acceptance criterion 10
CRITERION_10 = {
    "gamma": 1.0,
    "epsilon": {"min": 0.0, "max": 0.9, "count": 10},
    "Delta": {"min": 0.0, "max": 5.0, "count": 10},
    "Omega": 10.0,
    "phi": {"min": 0.0, "max": PI, "count": 10},
    "omega_L": 100.0,
    "n": 100,
}

# 200 points where the shift spec moves Re M~ (squeezed, detuned, phi off
# pi), with a tangent pole at Delta = Omega / 2 and N~ < 0 near phi = 0
SHIFTED = {
    "gamma": 1.0,
    "epsilon": {"min": 0.0, "max": 0.9, "count": 4},
    "Delta": {"min": -3.0, "max": 5.0, "count": 5},
    "Omega": 10.0,
    "phi": [0.1, 1.5, 2.5, PI, 4.0],
    "omega_L": 100.0,
    "n": [10, 100],
}

# the 6400-point mixed-status grid of the sweep-grid benchmark at seed 7
MIXED_6400 = {
    "gamma": [0.964767, 1.013005],
    "epsilon": [0.062792, 0.400468, 0.85179, 0.63056, 1.422934],
    "Delta": [2.5485335, -6.7611535, -5.18674, 1.020945, -8.81779, 1.309074, 8.948994,
              2.612518],
    "Omega": [5.097067, 8.173997, 13.522307, 16.112487, 21.300937],
    "phi": [2.966337, 1.587905, -0.090082, 2.300411],
    "omega_L": [42.266596, 89.322237],
    "n": [74, 215],
}

# an oracle ladder away from Gamma = 1, on a 7-point sample grid
ORACLE_SCALED = {
    "Gamma": 0.37,
    "schedule": [[500, 0.0148], [1000, 0.0074], [2000, 0.0037]],
    "samples": 7,
}

# 480 points whose float cells reach both ranges of the output formatter
# (config._column): gamma from 1e-12 to 1e20 puts rates and times below 1e-4
# and at or above 1e16 as well as between, with skipped points (N~ < 0 at
# phi = 0, epsilon past gamma) and partial ones (the tangent pole at Delta = Omega / 2)
WIDE_RANGE = {
    "gamma": [1e-12, 3.7e-7, 2.5e-4, 1.0, 7.25e4, 1.0e9, 3.3e15, 1e16, 4.4e17, 1e20],
    "epsilon": [0.0, 1e-13, 0.5],
    "Delta": [0.0, 5.0],
    "Omega": 10.0,
    "phi": [0.0, PI],
    "omega_L": [1e-3, 100.0],
    "n": [1, 100],
}

# spectra over 34 decades of offset: most cells below 1e-4 or at or above 1e16
SPECTRUM_WIDE = {
    "bath": {"gamma": 1e4, "epsilon": 5e3, "omega_L": 1e-2},
    "spectrum": {"x_min": -1e17, "x_max": 1e17, "points": 2001},
}

# 192 points whose bath faults come from the carrier (omega_L = 0 and 1e308
# beside 100) or from (gamma, epsilon) alone (epsilon at and past gamma), with
# Omega = 0, a tangent pole at Delta = Omega / 2 and N~ < 0 at phi = 0
CARRIER_FAULTS = {
    "gamma": [1.0, 2.0],
    "epsilon": [0.0, 0.5, 1.0, 1.5],
    "Delta": [0.0, 5.0],
    "Omega": [0.0, 10.0],
    "phi": [0.0, PI],
    "omega_L": [0.0, 100.0, 1e308],
    "n": 10,
}

# 64 points at a valid carrier whose gamma +/- epsilon leave the float range
# (gamma 2e77 and 1e-78) or whose gamma is negative, beside gamma = 1
WIDTH_FAULTS = {
    "gamma": [-1.0, 1e-78, 1.0, 2e77],
    "epsilon": [0.0, 0.5],
    "Delta": [0.0, 5.0],
    "Omega": [0.0, 10.0],
    "phi": [0.0, PI],
    "omega_L": 100.0,
    "n": 10,
}

# timescales points that end in an error document
ERRORS = {
    "negative-n-tilde": {"bath": {"phi": 0.0}},
    "nonpositive-gamma-dec": {
        "bath": {"gamma": 1.0, "epsilon": 0.9, "phi": 1.5, "omega_L": 100.0},
        "drive": {"Omega": 4.0, "Delta": 1.0},
    },
    "tangent-pole": {"drive": {"Omega": 10.0, "Delta": 5.0}},
    "omega-zero": {"drive": {"Omega": 0.0, "Delta": 1.0}},
}

# a timescales point 1e-8 below threshold at phi = pi, where N~ and Re M~ each
# carry terms of size 1/mu^2 that cancel in Gamma_dec
NEAR_THRESHOLD = {"bath": {"epsilon": 1.0 - 1e-8, "phi": PI}, "drive": {"Omega": 10.0}}

# spectra at epsilon = 1e-12 gamma, whose amplitude gamma epsilon is not the
# difference of the two squared widths
WEAK_SQUEEZING = {"bath": {"epsilon": 1e-12}}


COMMANDS = ("spectrum", "evolve", "timescales", "sweep", "oracle")


def _payloads() -> dict[str, tuple[str, str, dict]]:
    runs: dict[str, tuple[str, str, dict]] = {"help": ("", "help", {})}
    for command in COMMANDS:
        runs[f"help-{command}"] = (command, "help", {})
    for fmt in ("csv", "json"):
        for command in ("spectrum", "evolve", "timescales", "sweep"):
            runs[f"{command}-default-{fmt}"] = (command, fmt, {})
        runs[f"evolve-bloch-{fmt}"] = ("evolve", fmt, {"evolve": {"method": "bloch"}})
        runs[f"sweep-criterion-10-{fmt}"] = ("sweep", fmt, {"sweep": CRITERION_10})
        runs[f"sweep-shifts-zero-{fmt}"] = ("sweep", fmt, {"shifts": "zero", "sweep": SHIFTED})
        runs[f"sweep-shifts-explicit-{fmt}"] = (
            "sweep", fmt, {"shifts": {"delta_N": 0.05, "delta_M": 0.2}, "sweep": SHIFTED}
        )
        runs[f"sweep-mixed-6400-{fmt}"] = ("sweep", fmt, {"sweep": MIXED_6400})
        runs[f"sweep-wide-range-{fmt}"] = ("sweep", fmt, {"sweep": WIDE_RANGE})
        runs[f"sweep-carrier-faults-{fmt}"] = ("sweep", fmt, {"sweep": CARRIER_FAULTS})
        runs[f"sweep-width-faults-{fmt}"] = ("sweep", fmt, {"sweep": WIDTH_FAULTS})
        runs[f"spectrum-wide-range-{fmt}"] = ("spectrum", fmt, SPECTRUM_WIDE)
    runs["oracle-default-json"] = ("oracle", "json", {})
    runs["oracle-scaled-json"] = ("oracle", "json", {"oracle": ORACLE_SCALED})
    runs["timescales-near-threshold-json"] = ("timescales", "json", NEAR_THRESHOLD)
    runs["spectrum-weak-squeezing-json"] = ("spectrum", "json", WEAK_SQUEEZING)
    for name, config in ERRORS.items():
        runs[f"timescales-error-{name}-json"] = ("timescales", "json", config)
    return runs


PAYLOADS = _payloads()


def versions() -> dict[str, str]:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _help(argv: list[str]) -> dict:
    """The exit code of a --help run at COLUMNS=100 and the sha256 of its text."""
    text = io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="100"), contextlib.redirect_stdout(text):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "document_sha256": hashlib.sha256(text.getvalue().encode()).hexdigest()}


def run(name: str, workdir: Path) -> dict:
    """One payload's exit code and hashes."""
    command, fmt, config = PAYLOADS[name]
    if fmt == "help":
        return _help([command, "--help"] if command else ["--help"])
    out = workdir / f"{name}.out"
    argv = [command, "--format", fmt, "--out", str(out)]
    if config:
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    code = main(argv)
    text = out.read_text()
    if text.startswith("{"):
        content = json.loads(text)["provenance"]["content_sha256"]
    else:
        content = text.split("# content-sha256: ", 1)[1].split("\n", 1)[0]
    return {
        "exit": code,
        "content_sha256": content,
        "document_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    }


def main_(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Write the pinned CLI payload hashes.")
    parser.add_argument("--missing", action="store_true",
                        help="run only the payloads the table lacks and add them")
    missing = parser.parse_args(argv).missing
    table = json.loads(TABLE.read_text()) if missing else {"versions": versions(), "payloads": {}}
    names = sorted(set(PAYLOADS) - set(table["payloads"]))
    with tempfile.TemporaryDirectory() as tmp:
        table["payloads"].update((name, run(name, Path(tmp))) for name in names)
    table["payloads"] = dict(sorted(table["payloads"].items()))
    TABLE.write_text(json.dumps(table, indent=2) + "\n")
    if missing:
        print("\n".join(f"added {name}" for name in names))
    print(f"wrote {len(table['payloads'])} hashes to {TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main_())
