"""Run configuration: defaults, file parsing, and canonical serialization.

Configs are nested key/value documents. JSON is accepted everywhere;
YAML is accepted for hand-written files. Every omitted key falls back
to a documented default, flag overrides win over file values, and the
fully resolved config is echoed into each output's provenance header.
Serialization is canonical (fixed key order, 17 significant digits) so
that parse -> serialize -> parse is the identity and outputs are
byte-stable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

import numpy as np
import yaml

from .analysis import SweepGrid
from .bloch import BlochState
from .coefficients import SHIFT_PRESETS, DriveParams, SqueezingShifts, resolve_shifts
from .errors import ConfigError, InvalidParamsError
from .spectrum import SqueezedVacuumParams

DEFAULTS: dict[str, Any] = {
    "bath": {"gamma": 1.0, "epsilon": 0.5, "phi": math.pi, "omega_L": 100.0},
    "drive": {"Omega": 10.0, "Delta": 0.0},
    "shifts": "asymptotic",
    "schedule": {"n": 100},
    "mode": "derived",
    "format": "csv",
    "out": None,
    "spectrum": {"x_min": -10.0, "x_max": 10.0, "points": 201},
    "evolve": {
        "initial": "excited",
        "t_end": 10.0,
        "samples": 400,
        "method": "superoperator",
    },
    "sweep": {
        "gamma": [1.0],
        "epsilon": [0.5],
        "Delta": [0.0],
        "Omega": [10.0],
        "phi": [math.pi],
        "omega_L": [100.0],
        "n": [100],
    },
    "oracle": {
        "Gamma": 1.0,
        "schedule": [[500, 0.04], [1000, 0.02], [2000, 0.01]],
        "samples": 13,
        "dim_cap": 6000,
    },
}

# the named evolve.initial states
_INITIAL_STATES = {
    "excited": BlochState.excited,
    "ground": BlochState.ground,
    "x+": lambda: BlochState.x_polarized(+1),
    "x-": lambda: BlochState.x_polarized(-1),
}


def canonical_json(value: Any, *, indent: int | None = None) -> str:
    """Serialize with a fixed layout and 17-significant-digit floats.

    Non-finite floats become null; dict key order is preserved (configs
    are normalized to the DEFAULTS ordering before serialization).
    """
    return _json(value, indent, 0)


def _json(value: Any, indent: int | None, level: int) -> str:
    text = _json_scalar(value)
    if text is not None:
        return text
    if isinstance(value, Mapping):
        sep = ": " if indent else ":"
        items = [json.dumps(str(k)) + sep + _json(v, indent, level + 1) for k, v in value.items()]
        return _bracket("{}", items, indent, level)
    if isinstance(value, (list, tuple, np.ndarray)):
        return _bracket("[]", _json_items(list(value), indent, level), indent, level)
    raise ConfigError(f"cannot serialize value of type {type(value).__name__}")


def _bracket(pair: str, items: list[str], indent: int | None, level: int) -> str:
    if not items:
        return pair
    pad = "" if indent is None else "\n" + " " * (indent * (level + 1))
    closepad = "" if indent is None else "\n" + " " * (indent * level)
    return pair[0] + pad + ("," + pad).join(items) + closepad + pair[1]


def _json_items(seq: list, indent: int | None, level: int) -> list[str]:
    """The texts of a list's items.  A list of scalars, or of equal-length
    rows of scalars (a table), is rendered column by column."""
    table = bool(seq) and all(isinstance(v, (list, tuple)) for v in seq) \
        and len(set(map(len, seq))) == 1
    columns = [_format_column(c, _json_scalar, "null") for c in (zip(*seq) if table else [seq])]
    if columns and all(None not in texts for texts in columns):
        if not table:
            return columns[0]
        return [_bracket("[]", list(row), indent, level + 1) for row in zip(*columns)]
    return [_json(v, indent, level + 1) for v in seq]


def _json_scalar(value: Any) -> str | None:
    """The JSON text of a scalar; None for anything else."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return format(v, ".17g") if math.isfinite(v) else "null"
    if isinstance(value, str):
        return json.dumps(value)
    return None


def _format_column(values, scalar, nonfinite: str | None = None) -> list:
    """The texts of one column of scalars, one formatter for the column.

    Floats take format(v, ".17g") (nonfinite for nan and inf, if given)
    once per distinct bit pattern, so 0.0 and -0.0 stay apart; strings
    take scalar once per distinct string, anything else per value.
    """
    kinds = set(map(type, values))
    if kinds == {float}:
        bits, where = np.unique(np.array(values).view(np.int64), return_inverse=True)
        texts = [format(v, ".17g") if nonfinite is None or math.isfinite(v) else nonfinite
                 for v in bits.view(np.float64).tolist()]
        return np.array(texts, dtype=object)[where].tolist()
    if kinds == {str}:
        texts = {v: scalar(v) for v in set(values)}
        return [texts[v] for v in values]
    return list(map(scalar, values))


def _merge(base: Any, override: Any, path: str) -> Any:
    if isinstance(base, dict):
        if not isinstance(override, dict):
            raise ConfigError(f"{path or 'config'}: expected a mapping, got {override!r}")
        unknown = set(override) - set(base)
        if unknown:
            raise ConfigError(
                f"unknown config key{'s' if len(unknown) > 1 else ''}: "
                + ", ".join(sorted(f"{path + '.' if path else ''}{k}" for k in unknown))
            )
        merged = {}
        for key, default in base.items():
            sub = f"{path}.{key}" if path else key
            if key in override:
                merged[key] = _merge(default, override[key], sub)
            else:
                merged[key] = default
        return merged
    # a numeric leaf takes its type from its default
    if isinstance(base, float):
        return _as_float(override, path)
    if isinstance(base, int):
        return _as_int(override, path)
    return override


def _as_float(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite")
    return value


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return int(value)


def _normalize_axis(value: Any, path: str, integer: bool = False) -> list:
    """One sweep axis: scalar, explicit list, or {min, max, count} range."""
    if isinstance(value, dict):
        if set(value) != {"min", "max", "count"}:
            raise ConfigError(f"{path}: range spec needs exactly min, max, count")
        lo = _as_float(value["min"], f"{path}.min")
        hi = _as_float(value["max"], f"{path}.max")
        count = _as_int(value["count"], f"{path}.count")
        if count < 1:
            raise ConfigError(f"{path}.count: must be >= 1")
        values = np.linspace(lo, hi, count).tolist()
    elif isinstance(value, (list, tuple)):
        values = list(value)
    else:
        values = [value]
    if not values:
        raise ConfigError(f"{path}: axis is empty")
    if integer:
        return [_as_int(v, path) for v in values]
    return [_as_float(v, path) for v in values]


def _normalize(cfg: dict) -> dict:
    if cfg["mode"] not in ("paper", "derived"):
        raise ConfigError(f"mode: must be 'paper' or 'derived', got {cfg['mode']!r}")
    if cfg["format"] not in ("csv", "json"):
        raise ConfigError(f"format: must be 'csv' or 'json', got {cfg['format']!r}")
    if cfg["out"] is not None and not isinstance(cfg["out"], str):
        raise ConfigError("out: must be a path string")

    shifts = cfg["shifts"]
    if isinstance(shifts, str):
        if shifts not in SHIFT_PRESETS:
            raise ConfigError(
                f"shifts: preset must be 'asymptotic' or 'zero', got {shifts!r}"
            )
    elif isinstance(shifts, dict):
        extra = set(shifts) - {"delta_N", "delta_M"}
        if extra:
            raise ConfigError(f"shifts: unknown keys {sorted(extra)}")
        cfg["shifts"] = {
            "delta_N": _as_float(shifts.get("delta_N", 0.0), "shifts.delta_N"),
            "delta_M": _as_float(shifts.get("delta_M", 0.0), "shifts.delta_M"),
        }
    else:
        raise ConfigError("shifts: must be a preset name or {delta_N, delta_M}")

    if cfg["schedule"]["n"] < 1:
        raise ConfigError("schedule.n: must be >= 1")

    if cfg["spectrum"]["points"] < 2:
        raise ConfigError("spectrum.points: must be >= 2")
    if cfg["evolve"]["samples"] < 2:
        raise ConfigError("evolve.samples: must be >= 2")
    if cfg["evolve"]["t_end"] <= 0.0:
        raise ConfigError("evolve.t_end: must be > 0")
    if cfg["evolve"]["method"] not in ("superoperator", "bloch"):
        raise ConfigError("evolve.method: must be 'superoperator' or 'bloch'")
    initial = cfg["evolve"]["initial"]
    if isinstance(initial, dict):
        extra = set(initial) - {"s_minus", "s_z"}
        if extra:
            raise ConfigError(f"evolve.initial: unknown keys {sorted(extra)}")
        sm = initial.get("s_minus", [0.0, 0.0])
        if not (isinstance(sm, (list, tuple)) and len(sm) == 2):
            raise ConfigError("evolve.initial.s_minus: expected [re, im]")
        cfg["evolve"]["initial"] = {
            "s_minus": [_as_float(sm[0], "evolve.initial.s_minus[0]"),
                        _as_float(sm[1], "evolve.initial.s_minus[1]")],
            "s_z": _as_float(initial.get("s_z", 0.0), "evolve.initial.s_z"),
        }
    elif not (isinstance(initial, str) and initial in _INITIAL_STATES):
        raise ConfigError(
            f"evolve.initial: must be {'/'.join(_INITIAL_STATES)} or an explicit "
            f"state, got {initial!r}"
        )

    sweep = cfg["sweep"]
    for axis, defaults in DEFAULTS["sweep"].items():
        integer = isinstance(defaults[0], int)  # the axis type comes from its default
        sweep[axis] = _normalize_axis(sweep[axis], f"sweep.{axis}", integer)

    oracle = cfg["oracle"]
    if oracle["Gamma"] <= 0.0:
        raise ConfigError("oracle.Gamma: must be > 0")
    if oracle["samples"] < 2:
        raise ConfigError("oracle.samples: must be >= 2")
    if oracle["dim_cap"] < 3:
        raise ConfigError("oracle.dim_cap: must be >= 3")
    schedule = oracle["schedule"]
    if not isinstance(schedule, (list, tuple)) or not schedule:
        raise ConfigError("oracle.schedule: expected a non-empty list of [R, Delta_E]")
    rows = []
    for i, item in enumerate(schedule):
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise ConfigError(f"oracle.schedule[{i}]: expected [R, Delta_E]")
        rows.append([
            _as_int(item[0], f"oracle.schedule[{i}][0]"),
            _as_float(item[1], f"oracle.schedule[{i}][1]"),
        ])
    oracle["schedule"] = rows
    return cfg


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration with typed accessors.

    data holds the canonical nested dict (defaults merged with the file
    and flag overrides, every value normalized); it is what provenance
    headers echo and what round-trips through canonical_json.
    """

    data: dict

    @classmethod
    def load(
        cls,
        path: str | Path | None = None,
        overrides: Mapping[str, Any] | None = None,
    ) -> "RunConfig":
        """Read a config file (JSON or YAML), merge defaults and overrides."""
        raw: dict = {}
        if path is not None:
            text = Path(path).read_text()
            try:
                if str(path).endswith(".json") or text.lstrip().startswith("{"):
                    raw = json.loads(text)
                else:
                    raw = yaml.safe_load(text) or {}
            except (json.JSONDecodeError, yaml.YAMLError) as exc:
                raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
            if not isinstance(raw, dict):
                raise ConfigError(f"config file {path} must contain a mapping")
        cfg = _merge(DEFAULTS, raw, "")
        if overrides:
            for key, value in overrides.items():
                if value is None:
                    continue
                if key not in cfg:
                    raise ConfigError(f"unknown override key: {key}")
                cfg[key] = value
        return cls(_normalize(cfg))

    def to_json(self, *, indent: int | None = 2) -> str:
        return canonical_json(self.data, indent=indent)

    # typed accessors; parameter errors surface as config errors naming
    # the section so the CLI can map them to a usage failure

    def bath(self) -> SqueezedVacuumParams:
        try:
            return SqueezedVacuumParams(**self.data["bath"])
        except InvalidParamsError as exc:
            raise ConfigError(f"bath: {exc}") from exc

    def drive(self) -> DriveParams:
        try:
            return DriveParams(**self.data["drive"])
        except InvalidParamsError as exc:
            raise ConfigError(f"drive: {exc}") from exc

    def shifts(self, bath: SqueezedVacuumParams, drive: DriveParams) -> SqueezingShifts:
        return resolve_shifts(self.data["shifts"], bath, drive)

    def initial_state(self) -> BlochState:
        spec = self.data["evolve"]["initial"]
        if isinstance(spec, dict):
            re, im = spec["s_minus"]
            return BlochState(complex(re, im), spec["s_z"])
        return _INITIAL_STATES[spec]()

    @property
    def n_measurements(self) -> int:
        return self.data["schedule"]["n"]

    @property
    def out(self) -> str | None:
        return self.data["out"]

    @property
    def format(self) -> str:
        return self.data["format"]

    def sweep_grid(self) -> SweepGrid:
        try:
            return SweepGrid.from_mapping(self.data["sweep"])
        except InvalidParamsError as exc:
            raise ConfigError(f"sweep: {exc}") from exc
