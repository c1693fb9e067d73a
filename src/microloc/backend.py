"""Greedy net selection: the numpy row-wise scan behind ``build_net``.

microloc has one kernel backend, numpy; there is no compiled extension.
"""

from __future__ import annotations

import bisect

import numpy as np

# The benchmark's child process (perfbench/child.py) records this flag in
# its provenance, and perfbench/tracer.py times this module as the
# ``backend`` layer, so both the flag and the module stay.
COMPILED = False


def greedy_select(cands: np.ndarray, min_sep: float) -> np.ndarray:
    """Indices of the scan-order greedy min_sep-separated subset of cands.

    A candidate is admitted when every admitted point lies at float
    ``dx*dx + dy*dy >= min_sep**2``.  Points (dim 1 or 2) must come in
    row-major order, as ``build_net``'s lexicographic lattice scan gives
    them: rows of equal first coordinate, each sorted by the second.  A row
    is decided at once.  Earlier rows within ``min_sep`` block a candidate
    through their admitted points nearest it on either side (the float test
    is monotone in ``|dy|``); inside the row, ``bisect`` jumps from each
    admitted point to the next free candidate it does not block.  So Python
    loops once per admitted point, not once per candidate.
    """
    cands = np.asarray(cands, dtype=np.float64)
    m, n = cands.shape
    if n not in (1, 2):
        raise ValueError(f"greedy_select takes points of dim 1 or 2, not {n}")
    xs = cands[:, 0] if n == 2 else np.zeros(m)
    ys = cands[:, -1]
    new_row = xs[1:] != xs[:-1]
    if not (np.all(xs[1:] >= xs[:-1])
            and np.all(new_row | (ys[1:] >= ys[:-1]))):
        raise ValueError("candidates are not in row-major order")
    if m == 0:
        return np.zeros(0, dtype=np.int64)
    sep2 = min_sep * min_sep
    starts = np.concatenate(([0], np.flatnonzero(new_row) + 1, [m])).tolist()
    admitted: list[int] = []
    rows: list[tuple[float, np.ndarray]] = []  # (x, admitted ys), nonempty
    for lo, hi in zip(starts[:-1], starts[1:]):
        x, y = xs[lo], ys[lo:hi]
        free = np.ones(hi - lo, dtype=bool)
        for rx, ry in reversed(rows):
            dx2 = (x - rx) * (x - rx)
            if dx2 >= sep2:
                break
            pos = np.searchsorted(ry, y, side="right")
            for near in (ry[np.maximum(pos - 1, 0)],
                         ry[np.minimum(pos, ry.size - 1)]):
                free &= dx2 + (y - near) * (y - near) >= sep2
        open_ = np.flatnonzero(free).tolist()
        if not open_:
            continue
        yl = y.tolist()
        row = []
        j = open_[0]
        while True:
            row.append(j)
            yj = yl[j]
            # first candidate after j outside its min_sep: bisect, then
            # settle the float test at the boundary
            p = bisect.bisect_left(yl, yj + min_sep, j + 1)
            while p > j + 1 and (yl[p - 1] - yj) * (yl[p - 1] - yj) >= sep2:
                p -= 1
            while p < len(yl) and (yl[p] - yj) * (yl[p] - yj) < sep2:
                p += 1
            q = bisect.bisect_left(open_, p)
            if q == len(open_):
                break
            j = open_[q]
        rows.append((x, y[row]))
        admitted.extend(lo + r for r in row)
    return np.asarray(admitted, dtype=np.int64)
