"""Run configuration: defaults, file parsing, and the output format.

Configs are nested key/value documents. JSON is accepted everywhere;
YAML is accepted for hand-written files, its floats read by the YAML 1.2
rule as JSON reads them (YAML 1.1 reads 1e5 as a string). DEFAULTS
holds each default once (the default sweep grid is the default point)
and types each numeric key; sections and a shifts mapping merge over it
key by key into a copy, flag overrides win over file values, and the
fully resolved config is echoed into each output's provenance header.

This module is the one place that decides how output looks: the text
of each scalar in JSON and in CSV (_column formats a whole column, an
array in one pass, and _scalar one value), the JSON layout, CSV quoting
and the provenance header.  RunConfig.render writes every CLI document,
taking tables as columns; canonical_json is the serializer on its own.
Serialization is canonical (fixed key order, 17 significant digits) so
that parse -> serialize -> parse is the identity and outputs are
byte-stable.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Mapping, Sequence

import numpy as np

from .analysis import SWEEP_COLUMNS, SweepGrid
from .bloch import BlochState
from .coefficients import SHIFT_PRESETS, DriveParams, SqueezingShifts, resolve_shifts
from .errors import ConfigError, InvalidParamsError
from .spectrum import SqueezedVacuumParams
from .weakmeas import DEFAULT_DIM_CAP

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
    "sweep": {},  # the default point as a one-point grid, filled in below
    "oracle": {
        "Gamma": 1.0,
        "schedule": [[500, 0.04], [1000, 0.02], [2000, 0.01]],
        "samples": 13,
        "dim_cap": DEFAULT_DIM_CAP,
    },
}
_POINT = {**DEFAULTS["bath"], **DEFAULTS["drive"], **DEFAULTS["schedule"]}
DEFAULTS["sweep"] = {axis: [_POINT[axis]] for axis in SWEEP_COLUMNS[:7]}

# the named evolve.initial states
_INITIAL_STATES = {
    "excited": BlochState.excited,
    "ground": BlochState.ground,
    "x+": lambda: BlochState.x_polarized(+1),
    "x-": lambda: BlochState.x_polarized(-1),
}


def canonical_json(value: Any, *, indent: bool = False) -> str:
    """Serialize with a fixed layout and 17-significant-digit floats.

    Compact by default; with indent, one item per line and two spaces
    per level.  Non-finite floats become null; dict key order is
    preserved (configs are normalized to the DEFAULTS ordering before
    serialization).
    """
    return _layout(value, 0)[1 if indent else 0]


def _layout(value: Any, level: int) -> tuple[str, str]:
    """The compact and the indented text of value at a nesting level.

    One pass: each scalar is formatted once and its text joined into
    both layouts.
    """
    text = _scalar(value)
    if text is not None:
        return text, text
    if isinstance(value, _Columns):
        return _rows([_column(c) for c in value], level)
    if isinstance(value, Mapping):
        keys = [json.dumps(str(k)) for k in value]
        texts = [_layout(v, level + 1) for v in value.values()]
        return _join("{}", [k + ":" + c for k, (c, _) in zip(keys, texts)],
                     [k + ": " + i for k, (_, i) in zip(keys, texts)], level)
    if isinstance(value, (list, tuple, np.ndarray)):
        return _layout_items(list(value), level)
    raise ConfigError(f"cannot serialize value of type {type(value).__name__}")


def _join(pair: str, compact: list[str], indented: list[str], level: int) -> tuple[str, str]:
    """Both layouts of one bracketed sequence, from its items' texts."""
    if not compact:
        return pair, pair
    pad = "\n" + "  " * (level + 1)
    return (pair[0] + ",".join(compact) + pair[1],
            pair[0] + pad + ("," + pad).join(indented) + pad[:-2] + pair[1])


def _layout_items(seq: list, level: int) -> tuple[str, str]:
    """Both layouts of a list; a list of scalars is formatted as one column."""
    texts = _column(seq)
    if None not in texts:
        return _join("[]", texts, texts, level)
    texts = [_layout(v, level + 1) for v in seq]
    return _join("[]", [c for c, _ in texts], [i for _, i in texts], level)


def _rows(columns: list[list[str]], level: int) -> tuple[str, str]:
    """Both layouts of a table, a list of rows, from its columns' texts."""
    pad = "\n" + "  " * (level + 2)
    return _join("[]", ["[" + ",".join(row) + "]" for row in zip(*columns)],
                 ["[" + pad + ("," + pad).join(row) + pad[:-2] + "]" for row in zip(*columns)],
                 level)


class _Columns(tuple):
    """A table of scalars given as its columns; laid out as a list of rows."""


# quotes every string cell: writerow returns what write returns, here the row's text
_CELL_WRITER = csv.writer(SimpleNamespace(write=str), lineterminator="\n")


def _scalar(value: Any, cell: bool = False) -> str | None:
    """The JSON text of a scalar, None for anything else; with cell, its CSV cell.

    The two differ only for None (nan), non-finite floats (nan, inf,
    -inf) and strings, which are quoted as csv.writer quotes them; a
    cell of any other type is its str, quoted the same way.
    """
    if isinstance(value, float):
        return format(value, ".17g") if cell or math.isfinite(value) else "null"
    if value is None:
        return "nan" if cell else "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if cell:
        # the empty second field keeps csv.writer from quoting an empty first one
        return _CELL_WRITER.writerow([str(value), ""])[:-2]
    return json.dumps(value) if isinstance(value, str) else None


def _column(values, cell: bool = False) -> list:
    """_scalar of each value of one column (a JSON text, or with cell a CSV cell).

    A float64 array is formatted once per distinct bit pattern, so 0.0
    and -0.0 stay apart, and an int64 array once per distinct value, each
    in one %-format pass ('%.17g' % x is format(x, '.17g')).  A column of
    None, strings and either bools or ints goes through _scalar once per
    distinct value (a column of both would take True for 1), anything
    else, a list of floats included, once per value.
    """
    if isinstance(values, np.ndarray) and values.dtype not in (np.float64, np.int64):
        values = values.tolist()
    if isinstance(values, np.ndarray):
        floats = values.dtype == np.float64
        keys, where = np.unique(values.view(np.int64), return_inverse=True)
        distinct = (keys.view(np.float64) if floats else keys).tolist()
        texts = (" ".join(["%.17g" if floats else "%d"] * len(distinct)) % tuple(distinct)).split()
        if floats and not cell:
            texts = ["null" if t in ("nan", "inf", "-inf") else t for t in texts]
        return np.array(texts, dtype=object)[where].tolist()
    kinds = set(map(type, values))
    if kinds <= {type(None), str, bool} or kinds <= {type(None), str, int}:
        texts = {v: _scalar(v, cell) for v in set(values)}
        return list(map(texts.__getitem__, values))
    return [_scalar(v, cell) for v in values]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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
                # a copy, so that no loaded config shares an object with DEFAULTS
                merged[key] = copy.deepcopy(default)
        return merged
    # a numeric leaf takes its type from its default
    if isinstance(base, float):
        return _as_float(override, path)
    if isinstance(base, int):
        return _as_int(override, path)
    return override


def _overlay(defaults: Any, doc: Any, override: Any) -> Any:
    """override laid over a config document the way _merge lays one over
    DEFAULTS: a section (a mapping in DEFAULTS) key by key, any other value whole."""
    if not all(isinstance(v, dict) for v in (defaults, doc, override)):
        return override
    return {**doc, **{k: _overlay(defaults.get(k), doc.get(k), v) for k, v in override.items()}}


def _as_float(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    value = _float(value, path)
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite")
    return value


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    _float(value, path)
    return int(value)


def _float(value: Any, path: str) -> float:
    """float(value), refused for an integer that no float can hold (too long to print)."""
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{path}: must lie within the float range (about 1.8e308)") from None


def _normalize_axis(value: Any, path: str, default: Any) -> list:
    """One sweep axis (scalar, explicit list or {min, max, count} range), typed by its default."""
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
    cast = _as_int if isinstance(default, int) else _as_float
    return [cast(v, path) for v in values]


def _normalize(cfg: dict) -> dict:
    if cfg["mode"] not in ("paper", "derived"):
        raise ConfigError(f"mode: must be 'paper' or 'derived', got {cfg['mode']!r}")
    if cfg["format"] not in ("csv", "json"):
        raise ConfigError(f"format: must be 'csv' or 'json', got {cfg['format']!r}")
    if cfg["out"] is not None and not isinstance(cfg["out"], str):
        raise ConfigError("out: must be a path string")

    shifts = cfg["shifts"]
    if not isinstance(shifts, str):
        cfg["shifts"] = _merge({"delta_N": 0.0, "delta_M": 0.0}, shifts, "shifts")
    elif shifts not in SHIFT_PRESETS:
        presets = " or ".join(map(repr, SHIFT_PRESETS))
        raise ConfigError(f"shifts: preset must be {presets}, got {shifts!r}")

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
    if not (isinstance(initial, str) and initial in _INITIAL_STATES):
        raise ConfigError(f"evolve.initial: must be {'/'.join(_INITIAL_STATES)}, got {initial!r}")

    for axis, (default,) in DEFAULTS["sweep"].items():
        cfg["sweep"][axis] = _normalize_axis(cfg["sweep"][axis], f"sweep.{axis}", default)

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
        r_count = _as_int(item[0], f"oracle.schedule[{i}][0]")
        delta_e = _as_float(item[1], f"oracle.schedule[{i}][1]")
        if r_count < 1:
            raise ConfigError(f"oracle.schedule[{i}][0]: R must be >= 1")
        if delta_e <= 0.0:
            raise ConfigError(f"oracle.schedule[{i}][1]: Delta_E must be > 0")
        rows.append([r_count, delta_e])
    oracle["schedule"] = rows
    return cfg


# the YAML 1.2 floats that are not integers, as this rule is tried before the integer one:
# a dot or an exponent (its sign optional, where YAML 1.1 requires it), .inf and .nan
_YAML_FLOAT = re.compile(r"^(?:[-+]?(?:\.[0-9]+|[0-9]+\.[0-9]*)(?:[eE][-+]?[0-9]+)?|[-+]?[0-9]+"
                         r"[eE][-+]?[0-9]+|[-+]?\.(?:inf|Inf|INF)|\.(?:nan|NaN|NAN))$")


def _yaml_loader(yaml):
    """yaml.SafeLoader with _YAML_FLOAT in place of its YAML 1.1 float rule."""
    rules = {first: [(tag, _YAML_FLOAT if tag == "tag:yaml.org,2002:float" else rule)
                     for tag, rule in tagged]
             for first, tagged in yaml.SafeLoader.yaml_implicit_resolvers.items()}
    return type("Loader", (yaml.SafeLoader,), {"yaml_implicit_resolvers": rules})


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
        """Read a config file (JSON or YAML), merge defaults and overrides (None skipped)."""
        raw: dict = {}
        if path is not None:
            # the parse failures; matched when raised, so YAMLError joins once yaml is
            # imported (YAML files only).  ValueError covers UnicodeDecodeError,
            # json.JSONDecodeError and an integer past the parser's digit limit; a
            # too-deep document raises RecursionError
            errors: tuple = (ValueError, RecursionError)
            try:
                text = Path(path).read_text(encoding="utf-8")
                if str(path).endswith(".json") or text.lstrip().startswith("{"):
                    raw = json.loads(text)
                else:
                    import yaml
                    errors += (yaml.YAMLError,)
                    raw = yaml.load(text, Loader=_yaml_loader(yaml)) or {}
            except errors as exc:
                raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
            if not isinstance(raw, dict):
                raise ConfigError(f"config file {path} must contain a mapping")
        overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
        unknown = sorted(set(overrides) - set(DEFAULTS))
        if unknown:
            raise ConfigError(f"unknown override key: {', '.join(unknown)}")
        return cls(_normalize(_merge(DEFAULTS, _overlay(DEFAULTS, raw, overrides), "")))

    def render(self, result: Any, columns: Sequence[str] | None = None) -> str:
        """The output document of result: a provenance header, then the data.

        With columns (the column names), result is a table given as its
        columns, 1-D arrays or lists parallel to the names, written as a
        CSV table or, in JSON, as {"columns": [...], "rows": [...]};
        without, it is written as JSON whatever the configured format.
        The provenance names the tool, echoes the resolved config and
        gives the sha256 of the data section (the CSV body, or the compact
        JSON of the payload).  It holds no timestamp, so equal inputs give
        equal bytes.
        """
        from . import __version__  # not at import: the package imports this module first

        tool = f"squeezedzeno {__version__}"
        # the output path is where the result goes, not part of what it is
        config = {k: v for k, v in self.data.items() if k != "out"}
        if columns is not None and self.data["format"] == "csv":
            # chain, not a tuple display, so zip reuses one row tuple throughout
            rows = chain([_column(columns, cell=True)],
                         zip(*(_column(column, cell=True) for column in result)))
            body = "\n".join(map(",".join, rows)) + "\n"
            return (f"# tool: {tool}\n# config: {canonical_json(config)}\n"
                    f"# content-sha256: {_sha256(body)}\n{body}")
        if columns is not None:
            result = {"columns": list(columns), "rows": _Columns(result)}
        compact, indented = _layout(result, 1)
        provenance = {"tool": tool, "config": config, "content_sha256": _sha256(compact)}
        return f'{{\n  "provenance": {_layout(provenance, 1)[1]},\n  "result": {indented}\n}}\n'

    # typed accessors; parameter errors surface as config errors naming
    # the section so the CLI can map them to a usage failure

    def _record(self, section: str, build):
        """build(**section), an InvalidParamsError raised as a ConfigError naming it."""
        try:
            return build(**self.data[section])
        except InvalidParamsError as exc:
            raise ConfigError(f"{section}: {exc}") from exc

    def bath(self) -> SqueezedVacuumParams:
        return self._record("bath", SqueezedVacuumParams)

    def drive(self) -> DriveParams:
        return self._record("drive", DriveParams)

    def shifts(self, bath: SqueezedVacuumParams, drive: DriveParams) -> SqueezingShifts:
        return resolve_shifts(self.data["shifts"], bath, drive)

    def initial_state(self) -> BlochState:
        return _INITIAL_STATES[self.data["evolve"]["initial"]]()

    def sweep_grid(self) -> SweepGrid:
        return self._record("sweep", SweepGrid)
