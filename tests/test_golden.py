"""Every pinned CLI payload keeps the hashes in tests/_artifacts/golden_sha256.json.

The table was made by tests/make_golden.py on the stack it records.  On
another Python/numpy stack a mismatch may come from the stack, so
the failure names both; the test runs everywhere.
"""

import json

import pytest

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
