"""Every pinned CLI payload keeps the hashes in tests/_artifacts/golden_sha256.json.

The table was made by tests/make_golden.py on the stack it records.  On
another Python/numpy stack a mismatch may come from the stack, so
the failure names both; the test runs everywhere.
"""

import json

import pytest

import make_golden
from make_golden import PAYLOADS, TABLE, run, versions

GOLDEN = json.loads(TABLE.read_text())


def test_table_covers_every_payload():
    assert sorted(GOLDEN["payloads"]) == sorted(PAYLOADS)


@pytest.mark.parametrize("name", sorted(PAYLOADS))
def test_payload_matches_golden_hash(name, tmp_path):
    got = run(name, tmp_path)
    stack = versions()
    where = (
        "" if stack == GOLDEN["versions"]
        else f" (table made with {GOLDEN['versions']}, running on {stack})"
    )
    assert got == GOLDEN["payloads"][name], f"{name} moved{where}"


def test_missing_runs_only_the_absent_entries(tmp_path, monkeypatch, capsys):
    partial = json.loads(TABLE.read_text())
    del partial["payloads"]["help-sweep"]
    table = tmp_path / "golden_sha256.json"
    table.write_text(json.dumps(partial, indent=2) + "\n")
    monkeypatch.setattr(make_golden, "TABLE", table)
    ran = []
    monkeypatch.setattr(make_golden, "run",
                        lambda name, workdir: ran.append(name) or GOLDEN["payloads"][name])
    assert make_golden.main_(["--missing"]) == 0
    assert ran == ["help-sweep"]
    assert table.read_text() == TABLE.read_text()
    assert capsys.readouterr().out.startswith("added help-sweep\n")
