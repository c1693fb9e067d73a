"""Golden reports: each ``tests/golden/<experiment>.json`` config runs
through ``python -m microloc.cli`` in a child process at one BLAS thread,
and its report files must match those kept in ``tests/golden/<experiment>/``:
integers, strings and CSV headers exactly, floats to rtol 1e-12.

After a change meant to move the numbers, regenerate the files with

    python tests/test_golden.py
"""

import csv
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("golden")
SRC = Path(__file__).resolve().parents[1] / "src"
EXPERIMENTS = sorted(p.stem for p in GOLDEN.glob("*.json"))


def run(experiment: str, out: Path) -> None:
    """Run one golden config into out, at one BLAS and OpenMP thread."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(SRC)] + ([path] if path
                                                        else [])))
    subprocess.run([sys.executable, "-m", "microloc.cli", experiment,
                    "--config", str(GOLDEN / f"{experiment}.json"),
                    "--out", str(out)], env=env, check=True,
                   capture_output=True)


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _read(path: Path):
    """A JSON report, or a CSV table as its header and its parsed rows."""
    if path.suffix == ".json":
        return json.loads(path.read_text())
    header, *rows = csv.reader(path.read_text().splitlines())
    return [header] + [[_cell(c) for c in row] for row in rows]


def _same(got, want) -> bool:
    if isinstance(want, float) and isinstance(got, float):
        return (math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)
                or math.isnan(got) and math.isnan(want))
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_same(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(map(_same, got, want)))
    return type(got) is type(want) and got == want


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_reports_match_the_golden_files(tmp_path, experiment):
    run(experiment, tmp_path)
    want = GOLDEN / experiment
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        p.name for p in want.iterdir())
    for path in want.iterdir():
        assert _same(_read(tmp_path / path.name), _read(path)), path.name


if __name__ == "__main__":
    for experiment in EXPERIMENTS:
        shutil.rmtree(GOLDEN / experiment, ignore_errors=True)
        run(experiment, GOLDEN / experiment)
