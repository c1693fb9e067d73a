"""Shared pytest plumbing: one ``hypothesis`` settings profile, the
rotated-ellipse metric family of the anisotropic tests, and acceptance
summary lines on the terminal.

Property tests run under the ``tier1`` profile: examples are derived from
each test's source rather than drawn at random, no per-example deadline
applies, and the example count is bounded, so they neither flake nor
outgrow the suite's time on a small machine.
"""

import numpy as np
import pytest
from hypothesis import settings

from microloc.metric import MetricField

settings.register_profile("tier1", derandomize=True, deadline=None,
                          max_examples=30, database=None)
settings.load_profile("tier1")

ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def rotated_ellipse():
    """Factory of the 2D metrics G_x = R(theta) diag(1, 3 + amp cos x1)
    R(theta)^T with theta = x1 + sin(x2) / 2 + theta0 and 0 <= amp <= 1:
    anisotropic at every point, eigenvalues in [1, 4]."""

    def build(theta0: float = 0.0, amp: float = 1.0) -> MetricField:
        def g(x):
            th = x[:, 0] + 0.5 * np.sin(x[:, 1]) + theta0
            c, s = np.cos(th), np.sin(th)
            lam = 3.0 + amp * np.cos(x[:, 0])
            off = c * s * (1.0 - lam)
            return np.stack([np.stack([c * c + lam * s * s, off], -1),
                             np.stack([off, s * s + lam * c * c], -1)], -2)

        return MetricField(evaluator=g, dim=2, lambda_min=1.0,
                           lambda_max=4.0)

    return build


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
