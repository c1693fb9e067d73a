"""The benchmark's workloads: one microloc CLI config each, plus its check.

Each check compares the invocation's report with reference values measured
with the pure kernel backend at the commit that introduced this benchmark.
Floating-point references must agree to ``RTOL`` relative; anything looser
would let a wrong answer pass, anything tighter would fail a faithful
reordering of floating-point sums.
"""

from __future__ import annotations

import json
import math
import os

RTOL = 1e-6
PI = math.pi


def _close(name, got, want, problems):
    if not (isinstance(got, (int, float))
            and math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0)):
        problems.append(f"{name} = {got!r}, reference {want!r}")


def _report(outdir, name):
    with open(os.path.join(outdir, name)) as fh:
        return json.load(fh)


def check_parametrix(outdir):
    rep = _report(outdir, "parametrix.json")
    problems = []
    _close("max_rel_error", rep["max_rel_error"], 0.025039911581352246,
           problems)
    if rep["excluded_patches"] or rep["rejected"]:
        problems.append("excluded patches or rejected test functions")
    return problems


def check_radon_block(outdir):
    rep = _report(outdir, "radon_block.json")
    problems = []
    _close("slope", rep["slope"], 0.4783669932695375, problems)
    norms = [r["norm"] for r in rep["rows"]]
    want = [3.040719786695348, 5.247251454522235, 5.901766569456149]
    if len(norms) != len(want):
        problems.append(f"{len(norms)} band norms, reference {len(want)}")
    for k, (got, ref) in enumerate(zip(norms, want), start=1):
        _close(f"norm[k={k}]", got, ref, problems)
    return problems


def check_cotlar(outdir):
    rep = _report(outdir, "cotlar.json")
    problems = []
    if rep["blocks"] != 56:
        problems.append(f"blocks = {rep['blocks']}, reference 56")
    _close("achieved", rep["achieved"], 1.247411051296386, problems)
    _close("A", rep["A"], 3.1671424662067054, problems)
    return problems


def _grid(dim, half_width, n_grid):
    return {"dim": dim, "half_width": half_width, "n_grid": n_grid}


# name -> (experiment, config without its seed, output check)
WORKLOADS = {
    "parametrix-aniso": (
        "parametrix",
        {"grid": _grid(1, PI, 32),
         "metric": {"kind": "conformal", "expr": "2 + sin(x1)",
                    "lambda_min": 1.0, "lambda_max": 3.0},
         "bands": {"k_min": 1, "k_max": 4}, "low_freq_cap": True,
         "symbol": "(2 + sin(x1)) * xi1^2 + 1", "m2": 2.0, "order": 3,
         "cutoff": {"r_one": 3.0, "r_zero": 3.1},
         "tests": {"xi0_list": [[8.0], [-8.0]], "sigma": 0.7}},
        check_parametrix,
    ),
    "radon-block-2d": (
        "radon-block",
        {"grid": _grid(2, PI / 2, 16),
         "metric": {"kind": "identity"},
         "bands": {"k_min": 0, "k_max": 4}, "k_range": [1, 3],
         "radon": {"n_angles": 60, "n_offsets": 65},
         "symbol": "sqrt(1 + xi1^2 + xi2^2)", "m2": 1.0,
         "cutoff": {"r_one": 1.0, "r_zero": 1.3}},
        check_radon_block,
    ),
    "cotlar-1d": (
        "cotlar",
        {"grid": _grid(1, PI, 64),
         "metric": {"kind": "identity"},
         "bands": {"k_min": 1, "k_max": 3},
         "symbol": "(1 + 0.3*cos(x1)) * exp(-((abs(xi1)-12)/8)^2)",
         "active_bands": [1, 2, 3]},
        check_cotlar,
    ),
}


def make_config(name: str, seed: int) -> tuple[str, dict]:
    """The experiment name and full CLI config of a workload for a seed."""
    experiment, body, _ = WORKLOADS[name]
    return experiment, {"schema_version": 1, "experiment": experiment,
                        "seed": seed, **body}


def check_outputs(name: str, outdir: str) -> list[str]:
    """Differences between an invocation's report and the references."""
    try:
        return WORKLOADS[name][2](outdir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"report unreadable: {exc!r}"]
