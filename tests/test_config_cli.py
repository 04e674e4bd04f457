"""Tests for config loading, canonical serialization and the command line."""

import copy
import csv
import hashlib
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import squeezedzeno
import squeezedzeno.cli as cli
from squeezedzeno import BlochState, SweepGrid
from squeezedzeno.analysis import SWEEP_COLUMNS
from squeezedzeno.cli import build_parser, main
from squeezedzeno.config import (
    _RULES,
    DEFAULTS,
    ConfigError,
    RunConfig,
    _column,
    _obey,
    _scalar,
    canonical_json,
)
from test_weakmeas import DAVIES_PAST_THE_FLOAT_RANGE


def test_defaults_round_trip(tmp_path):
    cfg = RunConfig.load()
    path = tmp_path / "dump.json"
    path.write_text(canonical_json(cfg.data, indent=True))
    again = RunConfig.load(path)
    assert again.data == cfg.data


def test_yaml_and_json_agree(tmp_path):
    jpath = tmp_path / "c.json"
    ypath = tmp_path / "c.yaml"
    jpath.write_text('{"bath": {"gamma": 2.0}, "mode": "paper"}')
    ypath.write_text("bath:\n  gamma: 2.0\nmode: paper\n")
    assert RunConfig.load(jpath).data == RunConfig.load(ypath).data


@pytest.mark.parametrize("text, value", [("1e5", 1e5), ("1.0e200", 1e200), ("2E-3", 2e-3)])
def test_yaml_exponent_floats_load_as_in_json(tmp_path, text, value):
    # YAML 1.1 reads an exponent without a dot or a sign as a string
    ypath, jpath = tmp_path / "c.yaml", tmp_path / "c.json"
    ypath.write_text(f"drive:\n  Omega: {text}\n")
    jpath.write_text(f'{{"drive": {{"Omega": {text}}}}}')
    assert RunConfig.load(ypath).data == RunConfig.load(jpath).data
    assert RunConfig.load(ypath).data["drive"]["Omega"] == value


def test_yaml_infinity_is_still_rejected(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("drive:\n  Omega: .inf\n")
    with pytest.raises(ConfigError, match="drive.Omega: must be finite"):
        RunConfig.load(path)


def test_utf8_config_loads_under_an_ascii_locale(tmp_path):
    # a fresh interpreter whose locale encoding is ASCII: C locale, with UTF-8
    # mode and locale coercion off
    path = tmp_path / "c.yaml"
    path.write_bytes("# squeezing ε = 0.5\nbath:\n  epsilon: 0.25\n".encode("utf-8"))
    src = str(Path(squeezedzeno.__file__).resolve().parents[1])
    env = {
        **os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    probe = (
        "import codecs, locale, sys\nfrom squeezedzeno.config import RunConfig\n"
        "print(codecs.lookup(locale.getpreferredencoding(False)).name,"
        " RunConfig.load(sys.argv[1]).data['bath'])"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, str(path)], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    encoding, bath = out.stdout.split(" ", 1)
    assert encoding == "ascii"
    assert "'epsilon': 0.25" in bath


def test_defaults_are_not_mutated():
    cfg = RunConfig.load(overrides={"mode": "paper"})
    assert cfg.data["mode"] == "paper"
    assert DEFAULTS["mode"] == "derived"


def test_loads_share_nothing_with_defaults():
    before = copy.deepcopy(DEFAULTS)
    cfg = RunConfig.load()
    cfg.data["bath"]["gamma"] = 7.0
    cfg.data["sweep"]["gamma"].append(7.0)
    cfg.data["oracle"]["schedule"][0][0] = 7
    cfg.data["oracle"]["schedule"].append([7, 0.5])
    assert DEFAULTS == before
    assert RunConfig.load().data == before


def test_overrides_merge_like_a_config_file(tmp_path):
    # a section override replaces only the keys it names, as a config file does
    cfg = RunConfig.load(overrides={"oracle": {"schedule": [[500, 0.04]]}})
    assert cfg.data["oracle"] == {**DEFAULTS["oracle"], "schedule": [[500, 0.04]]}
    path = tmp_path / "c.json"
    path.write_text('{"oracle": {"samples": 7}, "bath": {"gamma": 2.0}, '
                    '"shifts": {"delta_N": 0.5}}')
    cfg = RunConfig.load(path, overrides={
        "oracle": {"dim_cap": 100}, "shifts": {"delta_M": 0.1}, "out": None,
    })
    assert cfg.data["oracle"] == {**DEFAULTS["oracle"], "samples": 7, "dim_cap": 100}
    assert cfg.data["bath"]["gamma"] == 2.0
    # a value that is not a section (explicit shifts) is replaced whole
    assert cfg.data["shifts"] == {"delta_N": 0.0, "delta_M": 0.1}
    with pytest.raises(ConfigError, match="unknown config key: oracle.dim_cp"):
        RunConfig.load(overrides={"oracle": {"dim_cp": 100}})
    with pytest.raises(ConfigError, match="unknown override key: orcale"):
        RunConfig.load(overrides={"orcale": {"dim_cap": 100}})
    with pytest.raises(ConfigError, match="oracle.samples: expected an integer"):
        RunConfig.load(overrides={"oracle": {"samples": "many"}})


def test_unknown_keys_are_reported_with_path(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"bath": {"gamm": 1.0}}')
    with pytest.raises(ConfigError, match="bath.gamm"):
        RunConfig.load(path)


def test_malformed_file_raises(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"bath": ')
    with pytest.raises(ConfigError):
        RunConfig.load(path)
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        RunConfig.load(path)


@pytest.mark.parametrize(
    "name, content",
    [
        ("c.cfg", b"\xff\xfe{bad"),  # not UTF-8
        ("c.json", b"[" * 100_000 + b"]" * 100_000),  # too deep to decode
        ("c.yaml", b"bath: [1, 2"),  # malformed YAML
        # an integer past Python's 4300-digit parse limit, in either format
        ("c.json", b'{"schedule": {"n": 1' + b"0" * 5000 + b"}}"),
        ("c.yaml", b"schedule: {n: 1" + b"0" * 5000 + b"}"),
    ],
    ids=["undecodable", "too-deep", "malformed-yaml", "json-digit-limit", "yaml-digit-limit"],
)
def test_unparsable_config_file_exits_1(tmp_path, capsys, name, content):
    path = tmp_path / name
    path.write_bytes(content)
    assert main(["timescales", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot parse config file {path}: ")
    assert err.count("\n") == 1 and err.endswith("\n"), err


def test_malformed_yaml_names_the_problem_and_where(tmp_path, capsys):
    path = tmp_path / "c.yaml"
    path.write_text("bath: [1, 2")
    assert main(["timescales", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot parse config file {path}: expected ',' or ']', but got "
        "'<stream end>' at line 1, column 12\n"
    )


# a 401-digit integer, past the float range, at each count and one real
@pytest.mark.parametrize("command, key", [
    ("timescales", "schedule.n"), ("sweep", "sweep.n"), ("evolve", "evolve.samples"),
    ("oracle", "oracle.samples"), ("spectrum", "spectrum.points"), ("spectrum", "bath.gamma"),
])
def test_cli_integer_past_the_float_range_exits_1(tmp_path, capsys, command, key):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(_nested(key, 10**400)))
    assert main([command, "--format", "json", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {key}: must lie within the float range (about 1.8e308)\n"


@pytest.mark.xfail(strict=True, raises=IndexError,
                   reason="no cap on spectrum.points or evolve.samples yet (ROADMAP item 6)")
def test_cli_count_past_the_array_size_limit_exits_2_with_one_error_line(tmp_path, capsys):
    # 2**63 is held by a float, so the config takes it; np.linspace then fails on it
    # (the same oracle.samples is refused by the oracle's cap)
    for command, key in (("spectrum", "spectrum.points"), ("evolve", "evolve.samples")):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(_nested(key, 2**63)))
        assert main([command, "--format", "json", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: [^\n]+\n", captured.err), key


@pytest.mark.filterwarnings("error")
def test_value_validation(tmp_path, capsys):
    path = tmp_path / "c.json"
    for payload in (
        '{"mode": "exact"}',
        '{"format": "xml"}',
        '{"tolerance": 0.0}',
        '{"schedule": {"n": 0}}',
        '{"schedule": {"n": 5, "t_i": 0.0, "t_f": 1.0}}',
        '{"evolve": {"initial": "sideways"}}',
        '{"spectrum": {"points": 1}}',
    ):
        path.write_text(payload)
        with pytest.raises(ConfigError):
            RunConfig.load(path)
    # through the CLI: exit 1 and one error line naming the key
    for payload, start in (
        ('{"bath": 5}', "bath: expected a mapping"),
        ('{"bath": {"gamma": 1e999}}', "bath.gamma: must be finite"),
        ('{"sweep": {"gamma": {"min": 0.5, "max": 1.0}}}', "sweep.gamma: range spec"),
        ('{"sweep": {"gamma": {"min": 0.5, "max": 1.0, "count": 0}}}', "sweep.gamma.count"),
        # a range whose width overflows: np.linspace made inf and nan of it, with warnings
        ('{"sweep": {"gamma": {"min": -1e308, "max": 1e308, "count": 3}}}',
         "sweep.gamma: the range -1e+308 to 1e+308 is wider than the largest float"),
        ('{"spectrum": {"x_min": -1e308, "x_max": 1e308, "points": 3}}',
         "spectrum: the range -1e+308 to 1e+308 is wider than the largest float"),
        ('{"sweep": {"gamma": []}}', "sweep.gamma: axis is empty"),
        ('{"out": 5}', "out: must be a path string"),
        ('{"shifts": 5}', "shifts: expected a mapping"),
        ('{"shifts": {"delta_X": 1}}', "unknown config key: shifts.delta_X"),
        ('{"evolve": {"samples": 1}}', "evolve.samples: must be >= 2"),
        ('{"evolve": {"t_end": 0}}', "evolve.t_end: must be > 0"),
        ('{"evolve": {"method": "rk4"}}', "evolve.method: must be"),
        ('{"evolve": {"initial": {"s_z": 0.5}}}', "evolve.initial: must be excited/ground/x+/x-"),
        ('{"oracle": {"Gamma": 0}}', "oracle.Gamma: must be > 0"),
        ('{"oracle": {"samples": 1}}', "oracle.samples: must be >= 2"),
        ('{"oracle": {"dim_cap": 2}}', "oracle.dim_cap: must be >= 3"),
        ('{"oracle": {"schedule": []}}', "oracle.schedule: expected a non-empty list"),
        ('{"oracle": {"schedule": [[1]]}}', "oracle.schedule[0]: expected [R, Delta_E]"),
        ('{"sweep": {"n": [0]}}', "sweep: n must be a positive integer"),
    ):
        path.write_text(payload)
        assert main(["sweep", "--config", str(path)]) == 1, payload
        captured = capsys.readouterr()
        assert captured.out == "", payload
        assert re.fullmatch(re.escape(f"error: {start}") + r"[^\n]*\n", captured.err), payload
    # the spectrum range, through the command that uses it
    path.write_text('{"spectrum": {"x_min": -1e308, "x_max": 1e308, "points": 3}}')
    assert main(["spectrum", "--config", str(path)]) == 1
    assert capsys.readouterr() == ("", "error: spectrum: the range -1e+308 to 1e+308 is wider "
                                       "than the largest float\n")


def _leaves(tree, path=""):
    """The dotted path of every leaf of a DEFAULTS tree, in order."""
    for key, value in tree.items():
        sub = f"{path}.{key}" if path else key
        yield from _leaves(value, sub) if isinstance(value, dict) else [sub]


def _at(tree, path):
    for key in path.split("."):
        tree = tree[key]
    return tree


def test_rules_name_defaults_leaves_in_order_and_the_defaults_obey_them():
    leaves = list(_leaves(DEFAULTS))
    assert set(_RULES) <= set(leaves)
    assert list(_RULES) == [leaf for leaf in leaves if leaf in _RULES]
    for path, rule in _RULES.items():
        assert _obey(_at(DEFAULTS, path), rule, path) == _at(DEFAULTS, path)


def _step(value, default, direction):
    """The next value of default's type after value, up (+1) or down (-1)."""
    if isinstance(default, int):
        return value + direction
    return math.nextafter(value, direction * math.inf)


def _edges(path):
    """The values at the edge of a rule that load, and the value one step past it
    with its exact error."""
    rule, default = _RULES[path], _at(DEFAULTS, path)
    if rule[0] not in (">", ">="):
        return list(rule), ("bogus", f"{path}: must be {'/'.join(rule)}, got 'bogus'")
    op, limit = rule
    if op == ">=":
        return [limit], (_step(limit, default, -1), f"{path}: must be >= {limit}")
    return [_step(limit, default, +1)], (limit, f"{path}: must be > {limit}")


@pytest.mark.parametrize("path", _RULES)
def test_each_rule_admits_its_edge_and_refuses_one_step_past(tmp_path, path):
    config = tmp_path / "c.json"
    good, (bad, message) = _edges(path)
    for value in good:
        config.write_text(json.dumps(_nested(path, value)))
        loaded = _at(RunConfig.load(config).data, path)
        assert loaded == value and type(loaded) is type(_at(DEFAULTS, path))
    config.write_text(json.dumps(_nested(path, bad)))
    with pytest.raises(ConfigError) as caught:
        RunConfig.load(config)
    assert str(caught.value) == message


def test_format_flag_takes_the_choices_of_the_rule():
    for choice in _RULES["format"]:
        assert build_parser().parse_args(["sweep", "--format", choice]).format == choice
    with pytest.raises(ConfigError, match="invalid choice: 'xml'"):
        build_parser().parse_args(["sweep", "--format", "xml"])


def _numeric_leaves(tree, path=""):
    """(dotted path, default) for every int and float leaf of a DEFAULTS tree."""
    for key, value in tree.items():
        sub = f"{path}.{key}" if path else key
        if isinstance(value, dict):
            yield from _numeric_leaves(value, sub)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield sub, value


def _nested(path, value):
    head, _, rest = path.partition(".")
    return {head: _nested(rest, value) if rest else value}


NUMERIC_LEAVES = dict(_numeric_leaves(DEFAULTS))


@pytest.mark.parametrize("path", NUMERIC_LEAVES)
def test_numeric_config_leaves_take_their_type_from_defaults(tmp_path, path):
    config = tmp_path / "c.json"
    for bad in ("1", True):
        config.write_text(json.dumps(_nested(path, bad)))
        with pytest.raises(ConfigError, match=f"^{re.escape(path)}: expected"):
            RunConfig.load(config)
    default = NUMERIC_LEAVES[path]
    # an integral float is accepted for an int key, an int for a float key
    other = float(default) if isinstance(default, int) else int(default)
    config.write_text(json.dumps(_nested(path, other)))
    loaded = RunConfig.load(config).data
    for key in path.split("."):
        loaded = loaded[key]
    assert loaded == other and type(loaded) is type(default)


def test_physics_validation_happens_in_accessors(tmp_path):
    # structural checks run at load; parameter physics surfaces when the
    # section is materialized, still as a ConfigError naming the section
    path = tmp_path / "c.json"
    path.write_text('{"bath": {"gamma": -1.0}}')
    cfg = RunConfig.load(path)
    with pytest.raises(ConfigError, match="bath"):
        cfg.bath()
    path.write_text('{"bath": {"epsilon": 2.0}}')
    with pytest.raises(ConfigError, match="bath"):
        RunConfig.load(path).bath()


def test_initial_states(tmp_path):
    path = tmp_path / "c.json"
    for name, state in (
        ("excited", BlochState(0.0, 1.0)),
        ("ground", BlochState(0.0, -1.0)),
        ("x+", BlochState(0.5, 0.0)),
        ("x-", BlochState(-0.5, 0.0)),
    ):
        path.write_text(json.dumps({"evolve": {"initial": name}}))
        assert RunConfig.load(path).initial_state() == state
    path.write_text('{"evolve": {"initial": ["excited"]}}')
    with pytest.raises(ConfigError, match="must be excited/ground/x\\+/x-, got \\['excited'\\]"):
        RunConfig.load(path)


def test_axis_normalization(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(
        '{"sweep": {"gamma": 1.0, "epsilon": {"min": 0.0, "max": 0.9, "count": 4},'
        ' "Delta": [0.0, 1.0], "Omega": 10.0, "phi": 0.0, "omega_L": 100.0, "n": 100}}'
    )
    grid = RunConfig.load(path).sweep_grid()
    assert grid.epsilon == (0.0, 0.3, 0.6, 0.9)
    assert grid.gamma == (1.0,)
    assert grid.size == 8


def test_shift_presets(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"shifts": {"delta_N": 0.1, "delta_M": -0.2}}')
    cfg = RunConfig.load(path)
    bath = cfg.bath()
    drive = cfg.drive()
    sh = cfg.shifts(bath, drive)
    assert sh.delta_N == 0.1 and sh.delta_M == -0.2
    path.write_text('{"shifts": "zero"}')
    cfg = RunConfig.load(path)
    sh = cfg.shifts(cfg.bath(), cfg.drive())
    assert sh.delta_N == 0.0 and sh.delta_M == 0.0
    path.write_text('{"shifts": "sideways"}')
    with pytest.raises(ConfigError):
        RunConfig.load(path)


def test_canonical_json_formatting():
    blob = canonical_json({"a": 0.1, "b": [1, True, None], "c": float("nan"), "d": "x,y"})
    assert blob == '{"a":0.10000000000000001,"b":[1,true,null],"c":null,"d":"x,y"}'
    assert canonical_json(math.pi) == "3.1415926535897931"
    assert canonical_json(1.0) == "1"
    nested = canonical_json({"z": 1, "a": 2})
    # key order is preserved, not sorted: the resolved config is already canonical
    assert nested == '{"z":1,"a":2}'
    with pytest.raises(ConfigError, match="cannot serialize value of type object"):
        canonical_json({"a": [object()]})


# value, its JSON text, its CSV cell
SCALAR_TEXTS = [
    (None, "null", "nan"),
    (True, "true", "true"),
    (False, "false", "false"),
    (7, "7", "7"),
    (np.int64(-3), "-3", "-3"),
    (0.0, "0", "0"),
    (-0.0, "-0", "-0"),
    (1e-300, "1e-300", "1e-300"),
    (float("nan"), "null", "nan"),
    (float("inf"), "null", "inf"),
    (float("-inf"), "null", "-inf"),
    ("a,b", '"a,b"', '"a,b"'),
    ('say "hi"', '"say \\"hi\\""', '"say ""hi"""'),
    ("two\nlines", '"two\\nlines"', '"two\nlines"'),
    ("", '""', ""),
    ("\u00b5s", '"\\u00b5s"', "\u00b5s"),
]


@pytest.mark.parametrize("value, text, cell", SCALAR_TEXTS)
def test_scalar_json_text_and_csv_cell(value, text, cell):
    assert canonical_json(value) == text
    # a list is formatted column by column, floats once per bit pattern
    assert canonical_json([value, value]) == f"[{text},{text}]"
    document = b"".join(RunConfig.load().render([[value, value]], ("v",))).decode()
    assert document.split("\n", 3)[3] == f"v\n{cell}\n{cell}\n"


def test_csv_cells_are_quoted_as_csv_writer_quotes_them():
    # _scalar hands csv.writer only the texts holding a comma, a quote or a line break
    def written(text):
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerow([text, ""])
        return out.getvalue()[:-2]

    specials = ["\u0085", "\u2028", "\u2029", "\ufeff", "\U0001f600", "a\r\nb", '""', " ,"]
    for text in [*map(chr, range(0x800)), *specials]:
        for cell in (text, f"x{text}y", f"{text} {text}"):
            assert _scalar(cell, cell=True) == written(cell), repr(cell)


def test_zero_and_negative_zero_stay_apart_in_a_column():
    assert canonical_json([0.0, -0.0, 0.0, -0.0]) == "[0,-0,0,-0]"
    document = b"".join(RunConfig.load().render([[0.0, -0.0], [-0.0, 0.0]], ("a", "b"))).decode()
    assert document.split("\n", 3)[3] == "a,b\n0,-0\n-0,0\n"


def _reference_column(values, cell: bool) -> list:
    """The per-value loop that _column replaces: _scalar of each value in turn."""
    return [_scalar(v, cell) for v in (values.tolist() if isinstance(values, np.ndarray) else values)]


def _float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


EDGE_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
    _float(0xFFF8_0000_DEAD_BEEF),  # a NaN with the sign bit and payload bits set
    _float(0x7FF0_0000_0000_0001),  # a signalling NaN
    5e-324, -5e-324, _float(0x000F_FFFF_FFFF_FFFF), 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1e17, -1e16, 1e-5, 0.1, 1.0,
]


def _reference_columns() -> dict:
    """Columns in every form _column takes: float64 and int64 arrays of random
    bit patterns with repeats, subnormals and the edge values, and lists."""
    rng = np.random.default_rng(20261018)
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, 20000,
                        dtype=np.int64, endpoint=True)
    subnormal = rng.integers(1, 1 << 52, 2000, dtype=np.int64) * rng.choice([1, -1], 2000)
    subnormal[subnormal < 0] = (-subnormal[subnormal < 0]) | np.int64(-1 << 63)
    floats = np.concatenate([bits.view(np.float64), subnormal.view(np.float64), EDGE_FLOATS])
    floats = rng.permutation(np.concatenate([floats, rng.choice(floats, 5000)]))
    ints = np.concatenate([bits[:3000], bits[:100], [0, -1, 1, np.iinfo(np.int64).min,
                                                     np.iinfo(np.int64).max]])
    strings = ["a,b", 'say "hi"', "two\nlines", "", "\u00b5s", "ok", " lead", "x"]
    return {
        "float64": floats,
        "float-list": floats[:3000].tolist(),
        "int64": rng.permutation(ints),
        "int-list": ints[:500].tolist(),
        "bool-none": [[True, False, None][i] for i in rng.integers(0, 3, 500)],
        "str-none": [(strings + [None])[i] for i in rng.integers(0, len(strings) + 1, 500)],
    }


@pytest.mark.parametrize("cell", [False, True], ids=["json", "csv"])
def test_column_matches_the_per_value_reference(cell):
    for kind, values in _reference_columns().items():
        got, want = _column(values, cell), _reference_column(values, cell)
        assert len(got) == len(want), kind
        bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
        assert not bad, f"{kind}: {[(values[i], got[i], want[i]) for i in bad[:5]]}"


def test_cli_sweep_rows_keep_the_sequence_contract(monkeypatch, tmp_path, capsys):
    # what a caller wrapping cli.regime_sweep may rely on: one call with the grid
    # first, and a sequence of SweepRows of Python values whose statuses are the CSV's
    calls = []
    regime_sweep = cli.regime_sweep

    def spy(*args, **kwargs):
        calls.append((args, kwargs, regime_sweep(*args, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(cli, "regime_sweep", spy)
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"sweep": {
        "gamma": [1.0], "epsilon": [0.0, 0.5, 2.0], "Delta": [0.0, 5.0], "Omega": [10.0],
        "phi": [math.pi, 0.0], "omega_L": [100.0], "n": [7, 100],
    }}))
    assert main(["sweep", "--config", str(config), "--format", "csv"]) == 0
    ((args, kwargs, rows),) = calls
    grid = args[0]
    assert isinstance(grid, SweepGrid) and kwargs == {"shifts": "asymptotic"}
    assert len(rows) == grid.size == 24
    body = capsys.readouterr().out.split("\n", 3)[3]
    table = list(csv.reader(io.StringIO(body)))
    assert table[0] == list(SWEEP_COLUMNS)
    first, *_, last = rows
    listed = list(rows)
    assert repr(rows[0]) == repr(first) == repr(listed[0])
    assert repr(rows[-1]) == repr(last) == repr(listed[-1])
    assert [repr(r) for r in rows[1:3]] == [repr(r) for r in listed[1:3]]
    with pytest.raises(IndexError):
        rows[len(rows)]
    types = {name: {float} for name in SWEEP_COLUMNS}
    types.update(n={int}, cond_derived={bool, type(None)}, cond_paper={bool, type(None)},
                 status={str})
    for i, row in enumerate(rows):
        assert row._fields == SWEEP_COLUMNS
        assert all(type(v) in types[name] for name, v in zip(SWEEP_COLUMNS, row)), row
        assert all(type(v) in types[name] for name, v in zip(SWEEP_COLUMNS, rows[i])), i
    statuses = [row.status for row in rows]
    assert statuses == [line[-1] for line in table[1:]]
    assert {s.split(":")[0] for s in statuses} == {"ok", "partial", "skipped"}


def test_indented_and_compact_json_hold_the_same_value():
    value = {
        "table": [[1.5, None, "x"], [float("nan"), True, "y,z"]],
        "empty_list": [],
        "empty_dict": {},
        "mixed": [1, {"a": [2.0, -0.0]}, "s", {}, None],
    }
    compact = canonical_json(value)
    indented = canonical_json(value, indent=True)
    assert "\n" not in compact and indented.startswith('{\n  "table": [\n    [\n      1.5,')
    assert json.loads(indented) == json.loads(compact)
    assert json.loads(compact)["mixed"] == [1, {"a": [2.0, -0.0]}, "s", {}, None]


def test_cli_spectrum_provenance(tmp_path, capsys):
    rc = main(["spectrum"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("# tool: squeezedzeno ")
    assert lines[1].startswith("# config: {")
    assert lines[2].startswith("# content-sha256: ")
    body = "\n".join(lines[3:]) + "\n"
    digest = hashlib.sha256(body.encode()).hexdigest()
    assert lines[2] == f"# content-sha256: {digest}"
    assert lines[3] == "omega,x,N,M_abs,M_re,M_im"


def test_cli_json_provenance(capsys):
    rc = main(["timescales", "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"provenance", "result"}
    prov = doc["provenance"]
    digest = hashlib.sha256(canonical_json(doc["result"]).encode()).hexdigest()
    assert prov["content_sha256"] == digest
    assert "out" not in prov["config"]
    assert doc["result"]["Gamma_dec"] == pytest.approx(0.4902200488997557, rel=1e-12)


def test_cli_output_path_does_not_enter_provenance(tmp_path):
    out1 = tmp_path / "a" / "r1.csv"
    out2 = tmp_path / "b" / "r2.csv"
    out1.parent.mkdir()
    out2.parent.mkdir()
    assert main(["spectrum", "--out", str(out1)]) == 0
    assert main(["spectrum", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_config_mode_is_echoed_and_changes_nothing(tmp_path, capsys):
    cfgp = tmp_path / "c.json"
    cfgp.write_text('{"mode": "paper"}')
    assert main(["timescales", "--format", "json", "--config", str(cfgp)]) == 0
    paper = json.loads(capsys.readouterr().out)
    assert main(["timescales", "--format", "json"]) == 0
    default = json.loads(capsys.readouterr().out)
    assert paper["provenance"]["config"]["mode"] == "paper"
    assert default["provenance"]["config"]["mode"] == "derived"
    assert paper["result"] == default["result"]
    # the key stays; the flag that only set it is gone
    assert main(["timescales", "--mode", "paper"]) == 1


def test_cli_exit_codes(tmp_path, capsys):
    # usage problems -> 1
    assert main(["bogus"]) == 1
    assert main(["sweep", "--threads", "zero"]) == 1
    assert main(["sweep", "--threads", "0"]) == 1
    assert main(["oracle", "--format", "csv"]) == 1
    capsys.readouterr()
    # config validation -> 1
    bad = tmp_path / "bad.json"
    bad.write_text('{"bath": {"gamma": -1.0}}')
    assert main(["timescales", "--config", str(bad)]) == 1
    # computation failure on a valid config -> 2
    unphysical = tmp_path / "unphysical.json"
    unphysical.write_text('{"bath": {"phi": 0.0}}')
    assert main(["timescales", "--config", str(unphysical)]) == 2
    # missing input file -> 3
    assert main(["timescales", "--config", str(tmp_path / "nope.json")]) == 3
    err = capsys.readouterr().err
    assert "error:" in err


def test_cli_evolve_csv_columns(capsys, tmp_path):
    cfgp = tmp_path / "c.json"
    cfgp.write_text('{"evolve": {"t_end": 1.0, "samples": 3}}')
    assert main(["evolve", "--config", str(cfgp)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[3] == "t,re_s_minus,im_s_minus,s_z,trace_error"
    assert len(lines) == 7
    first = lines[4].split(",")
    assert float(first[0]) == 0.0
    assert float(first[3]) == 1.0


def test_cli_oracle_small_schedule(tmp_path, capsys):
    cfgp = tmp_path / "c.json"
    cfgp.write_text('{"oracle": {"Gamma": 1.0, "schedule": [[40, 0.45], [80, 0.225]]}}')
    assert main(["oracle", "--format", "json", "--config", str(cfgp)]) == 0
    doc = json.loads(capsys.readouterr().out)
    davies = doc["result"]["davies"]
    assert [row["R"] for row in davies] == [40, 80]
    assert davies[1]["max_deviation"] < davies[0]["max_deviation"]
    for row in davies:
        assert row["unitarity_defect"] < 1e-10
    rates = doc["result"]["rates"]
    assert {r["rate"] for r in rates} == {"Gamma_pop", "Gamma_dec"}
    for r in rates:
        assert r["rel_error"] < 1e-6


def test_cli_oracle_row_above_dim_cap_exits_2(tmp_path, capsys):
    # the second row has dimension 161, above the configured cap of 100
    cfgp = tmp_path / "c.json"
    cfgp.write_text('{"oracle": {"schedule": [[40, 0.45], [80, 0.225]], "dim_cap": 100}}')
    assert main(["oracle", "--format", "json", "--config", str(cfgp)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "model dimension 161 exceeds the cap 100" in captured.err


def test_cli_oracle_samples_times_dim_above_cap_squared_exits_2(tmp_path, capsys):
    # 4 samples x dimension 3 exceed dim_cap^2 = 9; refused before the time grid is built
    cfgp = tmp_path / "c.json"
    cfgp.write_text('{"oracle": {"schedule": [[1, 1.0]], "dim_cap": 3, "samples": 4}}')
    assert main(["oracle", "--format", "json", "--config", str(cfgp)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "4 samples x dimension 3 exceed the cap 3 squared" in captured.err
    # a grid of 10^12 times would not fit in memory: the cap refuses it first
    cfgp.write_text(json.dumps({"oracle": {"schedule": [[1, 1.0]], "dim_cap": 3,
                                           "samples": 10**12}}))
    assert main(["oracle", "--format", "json", "--config", str(cfgp)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: 1000000000000 samples x dimension 3 exceed [^\n]+\n", captured.err)
    # 3 samples x dimension 3 are within it
    cfgp.write_text('{"oracle": {"schedule": [[1, 1.0]], "dim_cap": 3, "samples": 3}}')
    assert main(["oracle", "--format", "json", "--config", str(cfgp)]) == 0


@pytest.mark.parametrize(
    "payload, key",
    [('{"bath": {"gamma": -1}}', "bath"),
     ('{"drive": {"Omega": -1}}', "drive"),
     ('{"oracle": {"schedule": [[0, 0.04]]}}', "oracle.schedule[0][0]"),
     ('{"oracle": {"schedule": [[500, 0.0]]}}', "oracle.schedule[0][1]")],
    ids=["bath-gamma", "drive-Omega", "schedule-R", "schedule-Delta_E"],
)
def test_cli_oracle_config_errors_exit_1_naming_the_key(tmp_path, capsys, payload, key):
    cfgp = tmp_path / "c.json"
    cfgp.write_text(payload)
    assert main(["oracle", "--format", "json", "--config", str(cfgp)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(re.escape(f"error: {key}: ") + r"[^\n]+\n", captured.err)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gamma, delta_e", DAVIES_PAST_THE_FLOAT_RANGE)
def test_cli_oracle_coupling_past_the_float_range_exits_2(tmp_path, capsys, gamma, delta_e):
    # these exited 1 with a ZeroDivisionError or OverflowError traceback, or 0 with
    # null deviations and numpy warnings
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps({"oracle": {"Gamma": gamma, "schedule": [[1, delta_e]]}}))
    assert main(["oracle", "--format", "json", "--config", str(cfgp)]) == 2
    assert capsys.readouterr() == ("", "error: g^2 / Delta_E^2 is past the float range, "
                                       f"got Gamma={gamma}, Delta_E={delta_e}\n")


@pytest.mark.filterwarnings("error")
def test_cli_oracle_gamma_whose_window_overflows_exits_2_naming_gamma(tmp_path, capsys):
    # 3/Gamma overflowed: a numpy warning, then "t must be finite", a key never set
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps({"oracle": {"Gamma": 1e-320}}))
    assert main(["oracle", "--format", "json", "--config", str(cfgp)]) == 2
    assert capsys.readouterr() == ("", "error: Gamma must be above about 1.7e-308 so that the "
                                       "window 3/Gamma is finite, got Gamma=1e-320\n")


def test_cli_oracle_at_a_tiny_gamma_is_quiet(tmp_path, capsys):
    # 1/d^2 overflows at root offsets d ~ c ~ 8e-300; the inf is the right limit
    # (weight 1/(1 + c inf) = 0), and no overflow warning may reach stderr
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps({"oracle": {"Gamma": 1e-300}}))
    assert main(["oracle", "--format", "json", "--config", str(cfgp)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    for row in json.loads(out)["result"]["davies"]:
        assert row["max_deviation"] == pytest.approx(-math.expm1(-3.0), rel=0.0, abs=1e-12)


# baths whose spectra leave the float range: lambda^4 overflows or mu^4 is subnormal
FLOAT_RANGE_BATHS = {
    "1e100": {"gamma": 1e100, "epsilon": 5e99},
    "1e300": {"gamma": 1e300, "epsilon": 5e299},
    "1e308": {"gamma": 1e308},
    "1e-100": {"gamma": 1e-100, "epsilon": 5e-101},
    "1e-170": {"gamma": 1e-170, "epsilon": 5e-171},
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bath", FLOAT_RANGE_BATHS)
@pytest.mark.parametrize("command", ["spectrum", "evolve", "timescales", "oracle"])
def test_cli_bath_outside_the_float_range_exits_1(tmp_path, capsys, command, bath):
    # one error line naming the section, no traceback, no NaN payload
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps({"bath": FLOAT_RANGE_BATHS[bath]}))
    assert main([command, "--format", "json", "--config", str(cfgp)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: bath: gamma \+/- epsilon must lie between about 1e-77 and "
                        r"1e77, got [^\n]+\n", captured.err)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["spectrum", "evolve", "timescales", "oracle"])
def test_cli_carrier_past_half_the_float_range_exits_1(tmp_path, capsys, command):
    # 2 omega_L / n overflowed: timescales exited 0 with taus of 0 and a null ratio
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps({"bath": {"omega_L": 1e308}, "schedule": {"n": 1}}))
    assert main([command, "--format", "json", "--config", str(cfgp)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: bath: omega_L must be <= 8.988465674311579e+307 so that "
                            "2 omega_L / n is finite, got 1e+308\n")


@pytest.mark.filterwarnings("error")
def test_cli_sweep_skips_a_carrier_past_half_the_float_range(tmp_path, capsys):
    # both rows were ok, with taus of 0 and ratio_derived nan at n = 1
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps({"sweep": {"omega_L": [1e308], "n": [1, 3]}}))
    assert main(["sweep", "--config", str(cfgp)]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()[3:]))
    assert [row[-1].startswith("skipped: omega_L must be <= ") for row in rows[1:]] == [True] * 2


@pytest.mark.filterwarnings("error")
def test_cli_carrier_at_half_the_float_range_is_accepted(tmp_path, capsys):
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps({"bath": {"omega_L": sys.float_info.max / 2},
                                "schedule": {"n": 1}}))
    assert main(["timescales", "--format", "json", "--config", str(cfgp)]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert 0.0 < result["tau_dec"] < math.inf and 0.0 < result["tau_zeno"] < math.inf
    assert result["ratio_derived"] == result["ratio_paper"] == 1.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("drive", [{"Omega": 1e-310, "Delta": 1.0}, {"Omega": 1e308, "Delta": 1e308}])
def test_cli_margin_with_an_infinite_phase_is_a_computation_error(tmp_path, capsys, drive):
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps({"drive": drive}))
    assert main(["timescales", "--format", "json", "--config", str(cfgp)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["result"] == {"error": {
        "type": "InvalidParamsError", "message": "pi Delta / Omega must be finite, got inf"}}
    cfgp.write_text(json.dumps({"sweep": {**drive, "gamma": [1.0, 1e308]}}))
    assert main(["sweep", "--config", str(cfgp)]) == 0
    statuses = [row[-1] for row in csv.reader(capsys.readouterr().out.splitlines()[4:])]
    assert statuses == ["partial: margin: pi Delta / Omega must be finite, got inf",
                        "skipped: gamma +/- epsilon must lie between about 1e-77 and 1e77, "
                        "got lambda=1e+308, mu=1e+308"]


@pytest.mark.filterwarnings("error")
def test_cli_theta_far_in_the_wing_keeps_the_closed_form(tmp_path, capsys):
    # Delta~ delta_M < 0 and |M| = 0 in floats: theta = atan2(|M|, Delta~ delta_M) = pi
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps({"drive": {"Omega": 1e200, "Delta": -1e200}}))
    assert main(["timescales", "--format", "json", "--config", str(cfgp)]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["theta"] == math.pi


@pytest.mark.parametrize("method", ["superoperator", "bloch"])
def test_cli_evolve_past_the_squaring_limit_exits_2(tmp_path, method):
    # in a fresh interpreter, so that a numpy overflow warning would show on stderr
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps({"evolve": {"t_end": 1e308, "method": method}}))
    src = str(Path(squeezedzeno.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-m", "squeezedzeno.cli", "evolve", "--config", str(cfgp)],
        env=env, capture_output=True, text=True,
    )
    assert (run.returncode, run.stdout) == (2, "")
    assert re.fullmatch(r"error: t_span too long: [^\n]+\n", run.stderr)


def test_help_epilog_matches_defaults():
    header, summary = build_parser().epilog.split("\n", 1)
    assert header.startswith("Defaults")
    advertised = json.loads(summary)
    assert advertised == {key: DEFAULTS[key] for key in advertised}


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "squeezedzeno" in capsys.readouterr().out


def test_one_parser_per_process_answers_like_a_fresh_interpreter(monkeypatch, capsys):
    # main parses with one parser per process; a failed parse (exit 1, raised inside the
    # sweep subparser) leaves nothing behind for the next call: every call gives the exit
    # code, stdout and stderr of the same argv in a fresh interpreter
    assert build_parser() is build_parser()
    monkeypatch.setenv("COLUMNS", "100")  # the help text wraps to the terminal width
    src = str(Path(squeezedzeno.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    fresh = {}
    calls = [["sweep", "--threads", "zero"], ["timescales", "--format", "json"], ["--help"]]
    for argv in calls + calls[:2]:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        got = (code, *capsys.readouterr())
        if tuple(argv) not in fresh:
            run = subprocess.run([sys.executable, "-m", "squeezedzeno.cli", *argv],
                                 env=env, capture_output=True, text=True)
            fresh[tuple(argv)] = (run.returncode, run.stdout, run.stderr)
        assert got == fresh[tuple(argv)]
    assert [fresh[tuple(argv)][0] for argv in calls] == [1, 0, 0]
