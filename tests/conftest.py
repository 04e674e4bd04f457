"""Shared pytest hooks: a per-criterion summary for the acceptance suite."""


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" in nodeid and "criterion" in nodeid:
                rows.append((nodeid.split("::")[-1], outcome, rep.duration))
    if not rows:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, outcome, duration in sorted(rows):
        label = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{label}  {duration:7.2f} s  {name}")
