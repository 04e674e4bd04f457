"""Shared pytest hooks: a per-criterion summary for the acceptance suite."""

import pytest


@pytest.fixture
def time_budget(record_property):
    """Declare a criterion's time budget in seconds; returns it.

    The value is recorded on the test report, so the summary below
    prints the same budget the test asserts against.
    """

    def declare(seconds: float) -> float:
        record_property("budget_s", seconds)
        return seconds

    return declare


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" in nodeid and "criterion" in nodeid:
                budget = dict(rep.user_properties).get("budget_s")
                rows.append((nodeid.split("::")[-1], outcome, rep.duration, budget))
    if not rows:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, outcome, duration, budget in sorted(rows):
        label = "PASS" if outcome == "passed" else "FAIL"
        limit = "      -" if budget is None else f"{budget:7g}"
        terminalreporter.write_line(f"{label}  {duration:7.2f} s of {limit} s  {name}")
