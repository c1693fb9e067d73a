"""Timing comparison of the compiled kernels against the numpy ones.

Runs each kernel (greedy net selection, Radon line-integral gathering, and
the dense per-angle Radon matrix) on identical inputs through both
implementations, checks that the outputs agree, and prints a timing table.
Net construction uses the numpy greedy on both backends; it is timed on the
2D k=4 annulus lattice against the extension's greedy, while one is built.

Usage: python benchmarks/bench_backends.py
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from microloc import _kernels_py

try:
    from microloc import _kernels
except ImportError:
    _kernels = None

from microloc.grids import GridSpec
from microloc.partition import _annulus_lattice
from microloc.radon import RadonConfig, _angle_geometry


def _time(fn, repeats=5):
    best = np.inf
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def bench_greedy(rows):
    cands = _annulus_lattice(4, 2, 0.125)
    for name, mod in (("compiled", _kernels), ("pure", _kernels_py)):
        if mod is None:
            continue
        idx, t = _time(lambda m=mod: np.asarray(m.greedy_select(cands, 0.5),
                                                dtype=np.int64))
        rows.append((f"greedy_select 2D k=4 annulus, {len(cands)} cands",
                     name, hashlib.sha256(idx.tobytes()).hexdigest(), t))


def bench_radon(rows):
    g = GridSpec(dim=2, half_width=np.pi, n_grid=128)
    cfg = RadonConfig(grid=g, n_angles=180, n_offsets=185)
    rng = np.random.default_rng(1)
    img = np.pad(rng.standard_normal((128, 128)), 2)
    geoms = [_angle_geometry(cfg, th) for th in cfg.angles()]

    for name, mod in (("compiled", _kernels), ("pure", _kernels_py)):
        if mod is None:
            continue

        def run(m=mod):
            return [np.asarray(m.radon_gather(img, *geo, cfg.dt))
                    for geo in geoms]

        out, t = _time(run, repeats=3)
        rows.append(("radon_gather 180 angles 128^2", name,
                     round(float(np.sum(out)), 6), t))

    ix, iy, wx, wy = geoms[7]
    for name, mod in (("compiled", _kernels), ("pure", _kernels_py)):
        if mod is None:
            continue
        out, t = _time(lambda m=mod: np.asarray(
            m.radon_matrix_block(ix, iy, wx, wy, cfg.dt, 132)), repeats=3)
        rows.append(("radon_matrix_block one angle", name,
                     round(float(out.sum()), 6), t))


def main():
    rows = []
    bench_greedy(rows)
    bench_radon(rows)

    # correctness cross-check: identical checksums per kernel
    by_kernel = {}
    for kernel, name, checksum, _ in rows:
        by_kernel.setdefault(kernel, set()).add(checksum)
    for kernel, sums in by_kernel.items():
        if len(sums) > 1:
            raise SystemExit(f"backend disagreement in {kernel}: {sums}")

    width = max(len(r[0]) for r in rows)
    print(f"{'kernel':<{width}}  {'backend':<8}  {'time':>10}")
    base = {}
    for kernel, name, _, t in rows:
        if name == "pure":
            base[kernel] = t
    for kernel, name, _, t in rows:
        speed = f"  ({base[kernel] / t:.1f}x vs pure)" \
            if name == "compiled" and kernel in base else ""
        print(f"{kernel:<{width}}  {name:<8}  {t * 1e3:8.2f} ms{speed}")
    if _kernels is None:
        print("compiled extension unavailable; only the fallback was timed")


if __name__ == "__main__":
    main()
