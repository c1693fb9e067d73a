"""Benchmark of microloc's CLI experiments, end to end and per layer.

Usage:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; nothing needs installing, because
each invocation gets ``src/`` on its ``PYTHONPATH``.  One client runs a
closed loop: a fresh ``microloc`` process per invocation, the next started
only after the previous one exited, until ``--seconds`` are used up.  Each
invocation's report is checked against reference values (workloads.py).

``--trace 0`` reports the end-to-end metrics of untraced invocations.
``--trace 1`` alternates traced and untraced invocations and reports
per-layer metrics: span counts and times recorded by tracer.py around the
public functions of every layer, span coverage of the wall time after
set-up, and the tracing overhead.  ``--smoke`` runs every workload once in
each mode and checks that every metric named in BENCHMARK.json is emitted
with its unit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same numbers for a reader, with sample counts, the failure ratio
and the run's provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, check_outputs, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
# an invocation running longer than this is killed and counted as failed
INVOCATION_TIMEOUT_S = 120.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

# per-layer metrics: "<layer>.<function>.<calls|s|self_s|rss_rise_mb>" are
# read from the span of that function; the rest are computed below
PER_LAYER = [
    ("metric.sqrt_at.calls", "count"), ("metric.sqrt_at.s", "s"),
    ("partition.sigma_pairs.calls", "count"),
    ("partition.sigma_pairs.s", "s"),
    ("partition.localizer_symbol.calls", "count"),
    ("partition.localizer_symbol.s", "s"),
    ("partition.band_sum_symbol.s", "s"),
    ("partition.build_partition.s", "s"),
    ("parametrix.bandwise_inverse.s", "s"),
    ("parametrix.fiber_norm_pairs.s", "s"),
    ("parametrix.build_parametrix.self_s", "s"),
    ("backend.greedy_select.s", "s"),
    ("grids.sample_on.s", "s"),
    ("quantize.weyl_quantize.calls", "count"),
    ("quantize.weyl_quantize.s", "s"),
    ("quantize.weyl_quantize.rss_rise_mb", "MB"),
    ("quantize.operator_norm.calls", "count"),
    ("quantize.operator_norm.s", "s"),
    ("quantize.assemble_block.s", "s"),
    ("linalg.svd.calls", "count"), ("linalg.svd.s", "s"),
    ("recombine.cotlar_bounds.s", "s"),
    ("recombine.recombine_sum.self_s", "s"),
    ("recombine.blocks", "count"),
    ("moyal.moyal_truncated.s", "s"),
    ("radon.radon_matrix.s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.coverage", "ratio"), ("trace.overhead_s", "s"),
]
# metrics that must read the same on every traced invocation of a run
EXACT_UNITS = {"count", "bytes"}


@dataclass
class Invocation:
    """Measurements of one finished child process."""

    traced: bool
    wall_s: float
    cpu_s: float
    setup_s: float
    peak_rss_mb: float
    problems: list
    output_bytes: int
    blocks: int
    result: dict


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    for var in THREAD_VARS:
        env[var] = str(nproc)
    return env


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _report_blocks(out: Path) -> int:
    """Blocks recombined, from the cotlar report; 0 for other experiments."""
    try:
        return json.loads((out / "cotlar.json").read_text())["blocks"]
    except (OSError, ValueError, KeyError):
        return 0


def invoke(workload, experiment, config_path, inv_dir, env, traced):
    """Run one fresh CLI process and check what it wrote."""
    out = inv_dir / "out"
    out.mkdir(parents=True)
    result_path = inv_dir / "result.json"
    cmd = [sys.executable, str(CHILD), experiment, str(config_path),
           str(out), str(result_path), "1" if traced else "0"]
    with open(inv_dir / "stdout.txt", "w") as fout, \
            open(inv_dir / "stderr.txt", "w") as ferr:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=fout, stderr=ferr, env=env,
                                cwd=str(ROOT))
        killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        t_end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall = t_end - t_spawn
    cpu = usage.ru_utime + usage.ru_stime
    peak_mb = usage.ru_maxrss / 1024.0

    problems = []
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}")
    result = {}
    try:
        result = json.loads(result_path.read_text())
    except (OSError, ValueError):
        problems.append("child wrote no result")
    if not problems:
        problems += check_outputs(workload, str(out))
    if problems:
        # the CLI's last stdout line names the checks that failed
        tails = "\n".join((inv_dir / f).read_text()[-2000:]
                          for f in ("stdout.txt", "stderr.txt"))
        print(f"invocation failed: {problems}\n{tails}", file=sys.stderr)
    setup = result.get("setup_done", t_end) - t_spawn
    return Invocation(traced, wall, cpu, setup, peak_mb, problems,
                      _tree_bytes(out), _report_blocks(out), result)


def run_loop(workload, seed, seconds, trace, run_dir):
    """Closed loop of fresh invocations until the time budget is used."""
    experiment, cfg = make_config(workload, seed)
    run_dir.mkdir(parents=True)
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(cfg, indent=2, sort_keys=True))
    env = child_env(len(os.sched_getaffinity(0)))
    invocations = []
    deadline = time.monotonic() + seconds
    while True:
        traced = trace and len(invocations) % 2 == 0
        inv_dir = run_dir / f"inv{len(invocations)}"
        invocations.append(invoke(workload, experiment, config_path, inv_dir,
                                  env, traced))
        shutil.rmtree(inv_dir)
        kinds = {inv.traced for inv in invocations}
        enough = kinds == {True, False} if trace else True
        predicted = statistics.median(inv.wall_s for inv in invocations)
        if enough and time.monotonic() + predicted > deadline:
            return cfg, invocations


def tail_percentile(samples):
    """Highest integer percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in range(99, 0, -1):
        rank = math.ceil(q * n / 100)
        if rank >= 1 and n - rank >= 10:
            return q, ordered[rank - 1]
    return None


def span_metric(result, name):
    layer_fn, _, field = name.rpartition(".")
    span = result.get("spans", {}).get(layer_fn)
    return 0 if span is None else span[field]


def per_layer_values(inv):
    values = {}
    for name, _ in PER_LAYER:
        if name == "recombine.blocks":
            values[name] = inv.blocks
        elif name == "cli.output_bytes":
            values[name] = inv.output_bytes
        elif name == "trace.coverage":
            # share of the time after set-up that top-level spans cover
            values[name] = (inv.result.get("top_level_s", 0.0)
                            / (inv.wall_s - inv.setup_s))
        elif not name.startswith("trace."):
            values[name] = span_metric(inv.result, name)
    return values


def summarize(invocations, trace):
    """Metric values of a run, and the problems that make it incorrect."""
    problems = []
    plain = [inv for inv in invocations if not inv.traced]
    if not trace:
        return {"wall_s": statistics.median(i.wall_s for i in plain),
                "setup_s": statistics.median(i.setup_s for i in plain),
                "peak_rss_mb": statistics.median(i.peak_rss_mb
                                                 for i in plain)}, problems
    traced = [per_layer_values(inv) for inv in invocations if inv.traced]
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            metrics[name] = (
                statistics.median(i.wall_s for i in invocations if i.traced)
                - statistics.median(i.wall_s for i in plain))
        elif unit in EXACT_UNITS:
            seen = {t[name] for t in traced}
            if len(seen) > 1:
                problems.append(f"{name} differs between traced invocations: "
                                f"{sorted(seen)}")
            metrics[name] = traced[0][name]
        else:
            metrics[name] = statistics.median(t[name] for t in traced)
    return metrics, problems


def provenance(cfg, seed, invocations, nproc):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                             capture_output=True, text=True, timeout=30,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = None
    compiled = {inv.result.get("compiled") for inv in invocations}
    backend = {True: "compiled", False: "pure"}.get(
        compiled.pop() if len(compiled) == 1 else None, "unknown")
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return {
        "git_sha": sha, "backend": backend, "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "blas": blas,
        "thread_caps": {var: str(nproc) for var in THREAD_VARS},
        "seed": seed,
        "config_sha256": hashlib.sha256(canon.encode()).hexdigest()[:16],
        "loop": "closed, one client, one fresh process per invocation",
    }


def report(workload, seed, seconds, trace):
    """Run one workload; print the readable lines, return the result."""
    run_dir = ROOT / ".perfbench_out" / f"{workload}-{os.getpid()}"
    try:
        cfg, invocations = run_loop(workload, seed, seconds, trace, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    metrics, problems = summarize(invocations, trace)
    failed = sum(1 for inv in invocations if inv.problems)
    units = dict(PER_LAYER if trace else END_TO_END)

    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"invocations {len(invocations)}")
    plain_walls = [inv.wall_s for inv in invocations if not inv.traced]
    tail = tail_percentile(plain_walls)
    tail_text = (f"p{tail[0]} {tail[1]:.4f} s" if tail else
                 "no percentile has ten samples beyond it")
    print(f"  wall_s (untraced) median {statistics.median(plain_walls):.4f} s"
          f"  n={len(plain_walls)}  {tail_text}")
    plain_cpu = statistics.median(inv.cpu_s for inv in invocations
                                  if not inv.traced)
    print(f"  cpu_s (untraced, user+sys) median {plain_cpu:.4f} s")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    print(f"  fail_ratio {failed / len(invocations):.4g} "
          f"({failed}/{len(invocations)})")
    for problem in problems:
        print(f"  problem: {problem}")
    nproc = len(os.sched_getaffinity(0))
    print("provenance " + json.dumps(provenance(cfg, seed, invocations, nproc),
                                     sort_keys=True))
    return {"correct": failed == 0 and not problems,
            "attempted": len(invocations), "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def smoke() -> int:
    """One invocation per workload and mode; every named metric present."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = report(workload, 0, 0.0, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != want or not result["correct"]:
                ok = False
                print(f"SMOKE FAIL {workload} trace={int(trace)}: "
                      f"correct={result['correct']} "
                      f"missing={sorted(set(want) - set(got))} "
                      f"extra={sorted(set(got) - set(want))}")
    print("smoke ok" if ok else "smoke failed")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "microloc" / "cli.py").is_file():
        print(f"no microloc sources under {ROOT / 'src'}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result = report(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
