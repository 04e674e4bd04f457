"""Write tests/_artifacts/golden_sha256.json, the pinned hashes of CLI payloads.

    PYTHONPATH=src python tests/make_golden.py

Every entry of PAYLOADS is one in-process CLI run (subcommand, format,
config).  The table keeps, per run, the exit code, the payload's
content-sha256 (the digest the CLI prints over the data section) and
the sha256 of the whole output, provenance included; tests/test_golden.py
regenerates each run and compares.  A change that moves numbers on
purpose reruns this script and states the tolerance; a change to the
provenance alone (tool version, config keys) moves only the document
hashes.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

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


def _payloads() -> dict[str, tuple[str, str, dict]]:
    runs: dict[str, tuple[str, str, dict]] = {}
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
    runs["oracle-default-json"] = ("oracle", "json", {})
    for name, config in ERRORS.items():
        runs[f"timescales-error-{name}-json"] = ("timescales", "json", config)
    return runs


PAYLOADS = _payloads()


def versions() -> dict[str, str]:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run(name: str, workdir: Path) -> dict:
    """One payload's exit code and hashes."""
    command, fmt, config = PAYLOADS[name]
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


def main_() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        table = {
            "versions": versions(),
            "payloads": {name: run(name, Path(tmp)) for name in sorted(PAYLOADS)},
        }
    TABLE.write_text(json.dumps(table, indent=2) + "\n")
    print(f"wrote {len(table['payloads'])} hashes to {TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main_())
