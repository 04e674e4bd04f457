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
taking tables as columns and writing them SLAB_ROWS rows at a time as
chunks of UTF-8 bytes; canonical_json is the serializer on its own.
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
from itertools import chain, repeat
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .analysis import SLAB_ROWS, SWEEP_COLUMNS, SweepGrid
from .bloch import BlochState
from .coefficients import SHIFT_PRESETS, DriveParams, SqueezingShifts, resolve_shifts
from .errors import OPERATORS, ConfigError, InvalidParamsError
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

# each bounded or enumerated leaf's rule, in DEFAULTS order: a bound (op, limit) or the choices
_RULES: dict[str, tuple] = {
    "schedule.n": (">=", 1), "mode": ("paper", "derived"), "format": ("csv", "json"),
    "spectrum.points": (">=", 2),
    "evolve.initial": tuple(_INITIAL_STATES), "evolve.t_end": (">", 0),
    "evolve.samples": (">=", 2), "evolve.method": ("superoperator", "bloch"),
    "oracle.Gamma": (">", 0), "oracle.samples": (">=", 2), "oracle.dim_cap": (">=", 3),
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
    texts = _column(seq).tolist()
    if None not in texts:
        return _join("[]", texts, texts, level)
    texts = [_layout(v, level + 1) for v in seq]
    return _join("[]", [c for c, _ in texts], [i for _, i in texts], level)


# quotes a string cell: writerow returns what write returns, here the row's text.  It
# leaves a text with no comma, quote or line break as it is, so _scalar skips those
_CELL_WRITER = csv.writer(SimpleNamespace(write=str), lineterminator="\n")
_QUOTED = re.compile('[,"\r\n]')


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
        text = str(value)
        return _CELL_WRITER.writerow([text])[:-1] if _QUOTED.search(text) else text
    return json.dumps(value) if isinstance(value, str) else None


def _column(values, cell: bool = False) -> np.ndarray:
    """_scalar of each value of one column (a JSON text, or with cell a CSV cell),
    as a 1-D array of objects (an array's values in C order).

    A float64 array is formatted once per distinct bit pattern, so 0.0
    and -0.0 stay apart, and an int64 array once per distinct value, each
    in one %-format pass ('%.17g' % x is format(x, '.17g')).  A column of
    None, strings and either bools or ints goes through _scalar once per
    distinct value (a column of both would take True for 1), anything
    else, a list of floats included, once per value.
    """
    if isinstance(values, np.ndarray) and values.dtype not in (np.float64, np.int64):
        values = values.ravel().tolist()
    if isinstance(values, np.ndarray):
        floats = values.dtype == np.float64
        keys, where = np.unique(values.ravel().view(np.int64), return_inverse=True)
        distinct = (keys.view(np.float64) if floats else keys).tolist()
        texts = (" ".join(["%.17g" if floats else "%d"] * len(distinct)) % tuple(distinct)).split()
        if floats and not cell:
            texts = ["null" if t in ("nan", "inf", "-inf") else t for t in texts]
        return np.array(texts, dtype=object)[where]
    kinds = set(map(type, values))
    if kinds <= {type(None), str, bool} or kinds <= {type(None), str, int}:
        texts = {v: _scalar(v, cell) for v in set(values)}
        return np.array(list(map(texts.__getitem__, values)), dtype=object)
    return np.array([_scalar(v, cell) for v in values], dtype=object)


def _texts(columns: Sequence, cell: bool) -> list[np.ndarray]:
    """The texts of a block of parallel columns, each an array of objects over its rows.

    The columns are arrays that broadcast together, or lists (1-D), and the
    rows are the points of their common shape in C order.  Each column is
    formatted at its own shape, once per distinct value as by _column (the
    float64 arrays together, in one pass), and its texts are broadcast to
    the rows as references to the same strings.
    """
    shapes = [c.shape if isinstance(c, np.ndarray) else (len(c),) for c in columns]
    floats = [i for i, c in enumerate(columns) if getattr(c, "dtype", None) == np.float64]
    texts = [None if i in floats else _column(c, cell) for i, c in enumerate(columns)]
    if floats:
        joint = _column(np.concatenate([columns[i].ravel() for i in floats]), cell)
        for i, part in zip(floats, np.split(joint, np.cumsum([columns[i].size for i in floats]))):
            texts[i] = part
    shape = np.broadcast_shapes(*shapes)
    return [np.broadcast_to(t.reshape(s), shape).ravel() for t, s in zip(texts, shapes)]


def _slabs(blocks: Iterable[Sequence], cell: bool) -> Iterator[list[tuple]]:
    """The rows of a table given as blocks of parallel columns (see _texts), each
    the tuple of its texts, SLAB_ROWS at a time (the last of a block shorter).

    Nothing here, nor in the writers that take the slabs, holds a block or
    its text once its last slab is passed on (map, chain and yield from bind
    no name), so a sweep's next block is computed after the last one is freed."""
    return chain.from_iterable(map(_slabs_of, blocks, repeat(cell)))


def _slabs_of(columns: Sequence, cell: bool) -> Iterator[list[tuple]]:
    texts = _texts(columns, cell)
    return (list(zip(*(t[start:start + SLAB_ROWS].tolist() for t in texts)))
            for start in range(0, len(texts[0]), SLAB_ROWS))


def _csv_table(names: Sequence[str], slabs: Iterable) -> Iterator[tuple[str, None]]:
    """The CSV text of a table: the line of names, then a chunk per slab.  The
    data section is this text itself (None in the place of _json_table's compact)."""
    yield ",".join(_column(names, cell=True)) + "\n", None
    yield from map(_csv_slab, slabs)


def _csv_slab(rows: list[tuple]) -> tuple[str, None]:
    """A slab's CSV rows."""
    return "\n".join(map(",".join, rows)) + "\n", None


# the pads before a table's rows and cells in the indented layout (the result is at level 1)
_ROW, _CELL = "\n" + "  " * 3, "\n" + "  " * 4


def _json_table(names: Sequence[str], slabs: Iterable) -> Iterator[tuple[str, str]]:
    """The indented JSON of a table, {"columns": [...], "rows": [...]}: a head,
    a chunk per slab and a tail, each paired with its part of the compact text."""
    compact, indented = _layout(list(names), 2)
    yield ('{\n    "columns": ' + indented + ',\n    "rows": [',
           '{"columns":' + compact + ',"rows":[')
    # the comma before every slab but the first; map takes one per slab, so what
    # is left tells whether there were any rows
    leads = chain([""], repeat(","))
    yield from map(_json_slab, slabs, leads)
    yield ("\n    ]" if next(leads) else "]") + "\n  }", "]}"


def _json_slab(rows: list[tuple], lead: str) -> tuple[str, str]:
    """A slab's rows in the indented and in the compact layout, each after lead."""
    return (lead + _ROW + "[" + _CELL
            + (_ROW + "]," + _ROW + "[" + _CELL).join(map(("," + _CELL).join, rows)) + _ROW + "]",
            lead + "[" + "],[".join(map(",".join, rows)) + "]")


class _Document(list):
    """An output document as its chunks of UTF-8 bytes in order (the header,
    then the data a slab at a time), written one after another, never joined."""

    def encode(self, encoding: str = "utf-8") -> bytes:
        """The whole document's bytes, as str.encode gives them for its text (for
        a caller that counts a command's output the way it did when it was a str)."""
        return b"".join(self).decode("utf-8").encode(encoding)


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
    # a numeric leaf takes its type from its default; a leaf with a rule obeys it
    if type(base) in (int, float):
        override = _number(override, path, type(base))
    return _obey(override, _RULES[path], path) if path in _RULES else override


def _obey(value: Any, rule: tuple, path: str, name: str = "") -> Any:
    """value, unless it breaks rule (as in _RULES): then a ConfigError naming path (and name)."""
    if rule[0] not in OPERATORS:
        if value not in rule:
            raise ConfigError(f"{path}: {name}must be {'/'.join(rule)}, got {value!r}")
    elif not OPERATORS[rule[0]](value, rule[1]):
        raise ConfigError(f"{path}: {name}must be {rule[0]} {rule[1]}")
    return value


def _require_span(path: str, lo: float, hi: float) -> None:
    """Refuse a range whose width overflows (np.linspace would fill it with inf and nan)."""
    if not math.isfinite(hi - lo):
        raise ConfigError(f"{path}: the range {lo!r} to {hi!r} is wider than the largest float")


def _overlay(defaults: Any, doc: Any, override: Any) -> Any:
    """override laid over a config document the way _merge lays one over
    DEFAULTS: a section (a mapping in DEFAULTS) key by key, any other value whole."""
    if not all(isinstance(v, dict) for v in (defaults, doc, override)):
        return override
    return {**doc, **{k: _overlay(defaults.get(k), doc.get(k), v) for k, v in override.items()}}


def _number(value: Any, path: str, kind: type = float) -> Any:
    """value as a float, or with kind int as an int (an integral float counts); a
    ConfigError unless it is a number of that kind, finite and held by a float."""
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    types = (int, np.integer) if kind is int else (int, float, np.integer, np.floating)
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{path}: expected {'an integer' if kind is int else 'a number'}, "
                          f"got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer that no float can hold (too long to print)
        raise ConfigError(f"{path}: must lie within the float range (about 1.8e308)") from None
    if not math.isfinite(number):
        raise ConfigError(f"{path}: must be finite")
    return int(value) if kind is int else number


def _normalize_axis(value: Any, path: str, default: Any) -> list:
    """One sweep axis (scalar, explicit list or {min, max, count} range), typed by its default."""
    if isinstance(value, dict):
        if set(value) != {"min", "max", "count"}:
            raise ConfigError(f"{path}: range spec needs exactly min, max, count")
        lo, hi = _number(value["min"], f"{path}.min"), _number(value["max"], f"{path}.max")
        count = _obey(_number(value["count"], f"{path}.count", int), (">=", 1), f"{path}.count")
        _require_span(path, lo, hi)
        values = np.linspace(lo, hi, count).tolist()
    elif isinstance(value, (list, tuple)):
        values = list(value)
    else:
        values = [value]
    if not values:
        raise ConfigError(f"{path}: axis is empty")
    return [_number(v, path, type(default)) for v in values]


def _normalize(cfg: dict) -> dict:
    """What the leaf rules of _merge leave: out, shifts, the ranges and oracle.schedule."""
    if cfg["out"] is not None and not isinstance(cfg["out"], str):
        raise ConfigError("out: must be a path string")

    shifts = cfg["shifts"]
    if not isinstance(shifts, str):
        cfg["shifts"] = _merge({"delta_N": 0.0, "delta_M": 0.0}, shifts, "shifts")
    else:
        _obey(shifts, SHIFT_PRESETS, "shifts", "preset ")

    _require_span("spectrum", cfg["spectrum"]["x_min"], cfg["spectrum"]["x_max"])
    for axis, (default,) in DEFAULTS["sweep"].items():
        cfg["sweep"][axis] = _normalize_axis(cfg["sweep"][axis], f"sweep.{axis}", default)

    schedule = cfg["oracle"]["schedule"]
    if not isinstance(schedule, (list, tuple)) or not schedule:
        raise ConfigError("oracle.schedule: expected a non-empty list of [R, Delta_E]")
    rows = []
    for i, item in enumerate(schedule):
        path = f"oracle.schedule[{i}]"
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise ConfigError(f"{path}: expected [R, Delta_E]")
        rows.append([_obey(_number(item[0], path + "[0]", int), (">=", 1), path + "[0]", "R "),
                     _obey(_number(item[1], path + "[1]"), (">", 0), path + "[1]", "Delta_E ")])
    cfg["oracle"]["schedule"] = rows
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


def _problem(exc: Exception) -> str:
    """A parse error on one line: a YAML error's problem and where it was found
    (PyYAML's own text adds the context and the source lines, each on its own)."""
    mark = getattr(exc, "problem_mark", None)
    if getattr(exc, "problem", None) and mark is not None:
        return f"{exc.problem} at line {mark.line + 1}, column {mark.column + 1}"
    return " ".join(str(exc).split())


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
                raise ConfigError(f"cannot parse config file {path}: {_problem(exc)}") from exc
            if not isinstance(raw, dict):
                raise ConfigError(f"config file {path} must contain a mapping")
        overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
        unknown = sorted(set(overrides) - set(DEFAULTS))
        if unknown:
            raise ConfigError(f"unknown override key: {', '.join(unknown)}")
        return cls(_normalize(_merge(DEFAULTS, _overlay(DEFAULTS, raw, overrides), "")))

    def render(self, result: Any, columns: Sequence[str] | None = None) -> "_Document":
        """The output document of result: a provenance header, then the data.

        With columns (the column names), result is a table: its columns,
        1-D arrays or lists parallel to the names (formatted a slab at a
        time), or an object whose blocks() gives them a block of rows at a
        time as arrays that broadcast together (a sweep).  It is written as
        a CSV table or, in JSON, as {"columns": [...], "rows": [...]},
        SLAB_ROWS rows at a time: each slab is formatted and
        encoded once, its bytes are one chunk of the document, and the
        hash of the data section is updated slab by slab, so no text of
        the whole body is ever formed.  Without columns, result is
        written as JSON whatever the configured format.  The provenance
        names the tool, echoes the resolved config and gives the sha256
        of the data section (the CSV body, or the compact JSON of the
        payload).  It holds no timestamp, so equal inputs give equal bytes.
        """
        from . import __version__  # not at import: the package imports this module first

        tool = f"squeezedzeno {__version__}"
        # the output path is where the result goes, not part of what it is
        config = {k: v for k, v in self.data.items() if k != "out"}
        digest = hashlib.sha256()
        if columns is None:
            compact, indented = _layout(result, 1)
            digest.update(compact.encode("utf-8"))
            body = [indented.encode("utf-8")]
        else:
            csv_format = self.data["format"] == "csv"
            blocks = result.blocks() if hasattr(result, "blocks") else (
                [c[i:i + SLAB_ROWS] for c in result] for i in range(0, len(result[0]), SLAB_ROWS))
            slabs = _slabs(blocks, csv_format)
            body = []
            for text, compact in (_csv_table if csv_format else _json_table)(columns, slabs):
                body.append(text.encode("utf-8"))
                digest.update(body[-1] if compact is None else compact.encode("utf-8"))
                del text, compact  # not held while the next slab is made (see _slabs)
            if csv_format:
                return _Document([f"# tool: {tool}\n# config: {canonical_json(config)}\n"
                                  f"# content-sha256: {digest.hexdigest()}\n".encode("utf-8"),
                                  *body])
        provenance = {"tool": tool, "config": config, "content_sha256": digest.hexdigest()}
        return _Document([f'{{\n  "provenance": {_layout(provenance, 1)[1]},\n  "result": '
                          .encode("utf-8"), *body, b"\n}\n"])

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
