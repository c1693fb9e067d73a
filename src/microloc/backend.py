"""Greedy net selection: the lattice scan behind ``build_net``.

Every net is scanned on the lattice of step STEP = 1/8, so the points
within 1/2 of a lattice point are one fixed table of offsets.  microloc
has one kernel backend, numpy; there is no compiled extension.
"""

from __future__ import annotations

import numpy as np

# The benchmark's child process (perfbench/child.py) records this flag in
# its provenance, and perfbench/tracer.py times this module as the
# ``backend`` layer, so both the flag and the module stay.
COMPILED = False

# Step of the lattice each annulus net is scanned on.
STEP = 0.125
# Lattice offsets within 1/2 of a point: entry dr is the largest w >= 0
# with dr^2 + w^2 < 16, that is (dr^2 + w^2) STEP^2 < 1/4.
_HALF_WIDTHS = (3, 3, 3, 2)


def greedy_select(k: int, dim: int) -> np.ndarray:
    """Centers of the scan-order greedy 1/2-separated net of the lattice
    points in C_k = {2^k <= |zeta| < 2^{k+1}} (dim 1 or 2).

    The lattice is ``arange(-2^{k+1}, 2^{k+1}]`` at STEP per axis, scanned
    row-major, with |zeta| formed as ``np.linalg.norm`` forms it.  A point
    is admitted unless an admitted point lies at a lattice offset (dr, w)
    of _HALF_WIDTHS, which at the dyadic STEP is exactly the float test
    ``dx*dx + dy*dy < 1/4``.  Each row is a uint8 raster (1 = free):
    ``bytes.find`` jumps from one admitted center to the next free point
    beyond its reach, and one fancy-index store per later row offset
    clears the stencils of the row's centers.  The raster is a ring of the
    rows one center reaches.
    """
    lo, hi = 2.0 ** k, 2.0 ** (k + 1)
    axis = np.arange(-hi, hi + STEP / 2, STEP)
    n = len(axis)
    skip, pad = _HALF_WIDTHS[0] + 1, _HALF_WIDTHS[0]
    stencils = [np.arange(-w, w + 1) + pad
                for w in _HALF_WIDTHS[1:]] if dim == 2 else []
    ring = len(stencils) + 1
    free = np.ones((ring, n + 2 * pad), dtype=np.uint8)
    sq = axis * axis
    cols = []
    for i in range(n if dim == 2 else 1):
        r = sq + (sq[i] if dim == 2 else 0.0)
        np.sqrt(r, out=r)
        row = free[i % ring, pad:pad + n]
        row &= (r >= lo) & (r < hi)
        line, at = row.tobytes(), []
        c = line.find(1)
        while c >= 0:
            at.append(c)
            c = line.find(1, c + skip)
        at = np.array(at, dtype=np.intp)
        for dr, stencil in enumerate(stencils, 1):
            free[(i + dr) % ring, (at[:, None] + stencil).ravel()] = 0
        free[i % ring] = 1
        cols.append(at)
    y = axis[np.concatenate(cols)]
    if dim == 1:
        return y[:, None]
    return np.stack([np.repeat(axis, [len(c) for c in cols]), y], axis=-1)
