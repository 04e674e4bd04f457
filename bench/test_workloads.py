"""Tests of the benchmark's seeded input generators.

Run with the package on the path:

    PYTHONPATH=src python -m pytest -q bench/test_workloads.py
"""

from __future__ import annotations

import collections

import pytest

import tracing
import workloads
from squeezedzeno.analysis import SweepGrid, regime_sweep


@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_same_seed_same_inputs(seed):
    assert workloads.cli_invocations(seed, 3) == workloads.cli_invocations(seed, 3)
    assert workloads.sweep_grid(seed) == workloads.sweep_grid(seed)
    assert workloads.oracle_config(seed) == workloads.oracle_config(seed)


def test_different_seed_different_inputs():
    assert workloads.cli_invocations(1, 2) != workloads.cli_invocations(2, 2)
    assert workloads.sweep_grid(1) != workloads.sweep_grid(2)
    assert workloads.oracle_config(1) != workloads.oracle_config(2)


def test_cli_cycles_have_a_fixed_mix():
    runs = workloads.cli_invocations(3, 4)
    per_cycle = collections.Counter((r["cycle"], r["kind"]) for r in runs)
    for cycle in range(4):
        error = "timescales-unphysical" if cycle % 2 == 0 else "oracle-csv"
        assert per_cycle[(cycle, "evolve")] == 2
        assert per_cycle[(cycle, "timescales")] == 2
        assert per_cycle[(cycle, "spectrum")] == 1
        assert per_cycle[(cycle, "sweep")] == 2
        assert per_cycle[(cycle, error)] == 1
    sweeps = [r for r in runs if r["kind"] == "sweep"]
    for t1, t2 in zip(sweeps[::2], sweeps[1::2]):
        assert (t1["threads"], t2["threads"]) == (1, 2)
        assert t1["config"] is t2["config"] and t1["format"] == t2["format"]
        assert workloads.grid_size(t1["config"]["sweep"]) <= 200


def test_oracle_scaling_keeps_the_ladder():
    for seed in range(5):
        oracle = workloads.oracle_config(seed)["oracle"]
        scale = oracle["Gamma"]
        assert 0.25 <= scale <= 4.0
        for (r, delta_e), (r0, delta_e0) in zip(oracle["schedule"], workloads.ORACLE_LADDER):
            assert r == r0
            assert delta_e == pytest.approx(delta_e0 * scale, rel=1e-9)


@pytest.mark.parametrize("seed", [0, 1])
def test_every_grid_has_every_status_class(seed):
    grid = workloads.sweep_grid(seed)
    rows = regime_sweep(SweepGrid.from_mapping(grid))
    assert len(rows) == workloads.grid_size(grid)
    reasons = collections.Counter(tracing.status_reason(r.status) for r in rows)
    for reason in (
        "ok",
        "partial: margin",
        "skipped: N~<0",
        "skipped: nonpositive Gamma_dec",
        "skipped: invalid parameters",
    ):
        assert reasons[reason] > 0, (reason, dict(reasons))
