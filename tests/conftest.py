"""Shared pytest plumbing: one ``hypothesis`` settings profile, and
acceptance summary lines on the terminal.

Property tests run under the ``tier1`` profile: examples are derived from
each test's source rather than drawn at random, no per-example deadline
applies, and the example count is bounded, so they neither flake nor
outgrow the suite's time on a small machine.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None,
                          max_examples=30, database=None)
settings.load_profile("tier1")

ACCEPTANCE_LINES = []


def record(num: int, name: str, ok: bool, detail: str) -> str:
    line = f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
