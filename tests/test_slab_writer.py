"""RunConfig.render's slab writer against the whole-table assembly it replaced.

reference_document is RunConfig.render as it was before tables were written
a slab at a time: every column formatted whole, the CSV body joined into
one text and hashed in one piece, and the JSON result laid out as one
value (a list of row lists is laid out exactly as the table was).  The
writer must give the same bytes at any row count: at and around each edge
of a SLAB_ROWS slab and of a sweep's kernel block, with skipped and
partial rows on those edges.  The sweep's reference columns are read row
by row from the sequence regime_sweep returns, so its indexing across
block edges is checked on the way.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from squeezedzeno import __version__
from squeezedzeno.analysis import _BLOCK_SLABS, SLAB_ROWS, SWEEP_COLUMNS, SweepGrid, regime_sweep
from squeezedzeno.cli import main
from squeezedzeno.config import RunConfig, _column, _layout, canonical_json

S = SLAB_ROWS
BLOCK = _BLOCK_SLABS * SLAB_ROWS


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference_document(cfg: RunConfig, columns, names) -> str:
    """The document of a table as one text, assembled whole."""
    tool = f"squeezedzeno {__version__}"
    config = {k: v for k, v in cfg.data.items() if k != "out"}
    if cfg.data["format"] == "csv":
        rows = [_column(names, cell=True), *zip(*(_column(c, cell=True) for c in columns))]
        body = "\n".join(map(",".join, rows)) + "\n"
        return (f"# tool: {tool}\n# config: {canonical_json(config)}\n"
                f"# content-sha256: {_sha256(body)}\n{body}")
    values = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    result = {"columns": list(names), "rows": [list(row) for row in zip(*values)]}
    compact, indented = _layout(result, 1)
    provenance = {"tool": tool, "config": config, "content_sha256": _sha256(compact)}
    return f'{{\n  "provenance": {_layout(provenance, 1)[1]},\n  "result": {indented}\n}}\n'


def _grid(**axes) -> dict:
    """A sweep config section: the default point with the given axes."""
    point = {"gamma": [1.0], "epsilon": [0.5], "Delta": [1.0], "Omega": [10.0],
             "phi": [math.pi], "omega_L": [100.0], "n": [100]}
    return {**point, **axes}


def _n(count: int) -> list:
    return list(range(1, count + 1))


SWEEPS = {
    # one kernel block: the row counts around one and two slab edges
    **{f"rows-{label}": _grid(n=_n(count)) for label, count in (
        ("1", 1), ("S-1", S - 1), ("S", S), ("S+1", S + 1), ("2S+3", 2 * S + 3))},
    # the first slab all skipped (epsilon > gamma), the second all ok
    "skipped-slab": _grid(epsilon=[2.0, 0.5], n=_n(S)),
    # partial rows (Delta = Omega / 2 is a tangent pole) from the first row of the
    # second slab, and from the last row of the first
    "partial-opens-slab": _grid(Delta=[1.0, 5.0], n=_n(S)),
    "partial-closes-slab": _grid(Delta=[1.0, 5.0], n=_n(S - 1)),
    # kernel blocks: one row past a block of the n axis alone, and blocks of
    # whole 300-row runs of n, whose edges fall inside render slabs
    "block+1": _grid(n=_n(BLOCK + 1)),
    "blocks-of-300": _grid(epsilon=[0.3, 2.0], Delta=[5.0, *np.linspace(-9.0, 9.0, 19).tolist()],
                           n=_n(300)),
    # two values or more on every axis, so each column has its own shape in a block, with
    # ok, partial (Delta = 5) and skipped (phi near 0, N~ < 0) rows
    "every-axis": _grid(gamma=[1.0, 1.2], epsilon=[0.3, 0.5], Delta=[1.0, 5.0], Omega=[10.0, 12.0],
                        phi=[math.pi, 0.05], omega_L=[100.0, 50.0], n=[1, 7, 100]),
    # every point skipped (epsilon above gamma): no number in any reported column
    "all-skipped": _grid(epsilon=[2.0, 3.0], n=_n(3)),
    # an n past int64, an axis of Python ints printed exactly
    "n-past-int64": _grid(n=[1, 2**64]),
    # an invalid carrier (above half the largest float), so only some baths fail
    "one-bad-carrier": _grid(omega_L=[100.0, 1e308], phi=[math.pi, 1.0], n=_n(3)),
    # a long phi axis with an invalid bath, whose record is built once for every phi
    "long-phi-bad-bath": _grid(epsilon=[0.5, 2.0], phi=np.linspace(0.0, 6.0, 700).tolist(),
                               n=[1, 2]),
}


def _sweep_columns(section: dict) -> list:
    """The sweep's columns, read row by row from regime_sweep's sequence."""
    rows = regime_sweep(SweepGrid.from_mapping(section))
    return [list(column) for column in zip(*(tuple(row) for row in rows))]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", list(SWEEPS))
def test_sweep_document_matches_the_whole_table_assembly(tmp_path, name, fmt):
    config, out = tmp_path / "c.json", tmp_path / "out"
    config.write_text(json.dumps({"sweep": SWEEPS[name], "format": fmt}))
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    cfg = RunConfig.load(config, {"out": str(out)})
    want = reference_document(cfg, _sweep_columns(cfg.data["sweep"]), SWEEP_COLUMNS)
    assert out.read_bytes() == want.encode("utf-8")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command, section, key", [
    ("spectrum", "spectrum", "points"), ("evolve", "evolve", "samples"),
])
@pytest.mark.parametrize("count", [S - 1, S + 1], ids=["S-1", "S+1"])
def test_table_document_matches_the_whole_table_assembly(
    monkeypatch, tmp_path, command, section, key, count, fmt
):
    tables = []
    render = RunConfig.render

    def spy(cfg, result, columns=None):
        tables.append((cfg, result, columns))
        return render(cfg, result, columns)

    monkeypatch.setattr(RunConfig, "render", spy)
    config, out = tmp_path / "c.json", tmp_path / "out"
    config.write_text(json.dumps({section: {key: count}, "format": fmt}))
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    ((cfg, columns, names),) = tables
    assert len(columns[0]) == count
    assert out.read_bytes() == reference_document(cfg, columns, names).encode("utf-8")


def test_a_render_is_its_chunks_one_slab_each():
    cfg = RunConfig.load()
    column = np.arange(2 * S + 3, dtype=float) / 7.0
    document = cfg.render([column], ("x",))
    # the header, the line of names, then one chunk per slab
    assert [len(chunk.split(b"\n")) - 1 for chunk in document] == [3, 1, S, S, 3]
    assert b"".join(document).decode() == reference_document(cfg, [column], ("x",))


def _same(a, b) -> bool:
    return repr(a) == repr(b)  # SweepRows with NaN fields compare by their text


def test_sweep_rows_by_index_and_slice_across_slab_and_block_edges():
    grid = SweepGrid.from_mapping(SWEEPS["blocks-of-300"])
    rows = regime_sweep(grid)
    listed = list(rows)
    size = len(listed)
    assert len(rows) == grid.size == size == 2 * 20 * 300
    # a block holds as many whole 300-row runs as fit (the rest of an epsilon's
    # 20 in the next); slabs are cut from each block
    block = BLOCK // 300 * 300
    edges = [S, 2 * S, block, 6000, 6000 + block, size - S]
    for edge in edges:
        for i in (edge - 1, edge, edge + 1, edge - size - 1, edge - size, edge - size + 1):
            assert _same(rows[i], listed[i]), i
    assert _same(rows[-1], listed[-1]) and _same(rows[-size], listed[0])
    for start, stop, step in (
        (S - 2, S + 2, None), (block - 5, block + 5, None), (S - size - 1, S - size + 2, None),
        (block - size - 5, block - size + 5, None), (block - 10, block + 10, 3),
        (block + 5, block - 5, -1), (None, None, -997),
    ):
        want = [repr(r) for r in listed[start:stop:step]]
        assert [repr(r) for r in rows[start:stop:step]] == want
    for i in (size, -size - 1):
        with pytest.raises(IndexError):
            rows[i]


# runs the CLI on argv in a fresh interpreter and prints its exit code and its own
# peak resident set (VmHWM, which starts afresh at exec; wait4's ru_maxrss would
# start at the RSS of the forking test process)
_PEAK_PROBE = """
import sys
from squeezedzeno.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    peak = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(code, peak * 1024)
"""


def _range(lo, hi, count) -> dict:
    return {"min": lo, "max": hi, "count": count}


# a mix of ok, partial and skipped rows: 300 000 points as CSV, 48 000 as JSON
_LARGE = {
    "csv": _grid(gamma=[0.9, 1.0, 1.1], epsilon=_range(0.0, 1.35, 10), Delta=_range(-6.0, 6.0, 20),
                 Omega=[5.0, 8.0, 10.0, 12.0, 20.0], phi=_range(0.0, 6.0, 10), n=_range(1, 10, 10)),
    "json": _grid(gamma=[0.9, 1.0, 1.1], epsilon=_range(0.0, 1.35, 10), Delta=_range(-6.0, 6.0, 10),
                  Omega=[5.0, 8.0, 10.0, 12.0, 20.0], phi=_range(0.0, 6.0, 4), n=_range(1, 8, 8)),
}


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_large_sweeps_peak_below_a_one_point_sweep_plus_twice_their_output(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    runs = {}
    for fmt, section in _LARGE.items():
        for label, sweep in ((fmt, section), (f"{fmt}-one-point", _grid())):
            config, out = tmp_path / f"{label}.json", tmp_path / f"{label}.out"
            config.write_text(json.dumps({"sweep": sweep, "format": fmt}))
            argv = ["sweep", "--config", str(config), "--out", str(out)]
            runs[label] = subprocess.Popen([sys.executable, "-c", _PEAK_PROBE, *argv], env=env,
                                           stdout=subprocess.PIPE, text=True)
    peaks = {}
    for label, child in runs.items():
        code, peak = child.communicate(timeout=120)[0].split()
        assert (child.returncode, code) == (0, "0"), label
        peaks[label] = int(peak)
    for fmt in _LARGE:
        size = (tmp_path / f"{fmt}.out").stat().st_size
        bound = peaks[f"{fmt}-one-point"] + 2 * size
        assert peaks[fmt] < bound, (fmt, peaks[fmt] / 2**20, bound / 2**20)
