"""Shared pytest plumbing: in-place build of the compiled kernels, one
``hypothesis`` settings profile, and acceptance summary lines on the
terminal.

Before any test module imports ``microloc``, ``python setup.py build_ext
--inplace`` runs from the repository root, so a fresh checkout tested with
``PYTHONPATH=src`` gets ``microloc._kernels`` from the committed sources.
The build is a no-op when the extension is up to date.  Its output is kept
in ``BUILD_OUTPUT`` for the backend tests to show when the build failed.

Property tests run under the ``tier1`` profile: examples are derived from
each test's source rather than drawn at random, no per-example deadline
applies, and the example count is bounded, so they neither flake nor
outgrow the suite's time on a small machine.
"""

import os
import shutil
import shlex
import subprocess
import sys
import sysconfig
from pathlib import Path

from hypothesis import settings

ROOT = Path(__file__).resolve().parent.parent


def _c_compiler():
    """Path of the C compiler ``build_ext`` would use, or None if absent."""
    cc = shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "")
    return shutil.which(cc[0]) if cc else None


def _build_kernels() -> str:
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return f"build_ext exited {proc.returncode}\n{proc.stdout}"


settings.register_profile("tier1", derandomize=True, deadline=None,
                          max_examples=30, database=None)
settings.load_profile("tier1")

HAVE_C_COMPILER = _c_compiler() is not None
BUILD_OUTPUT = _build_kernels()

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
