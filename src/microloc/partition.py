"""Dyadic annulus nets and normalized phase-space microlocalizers.

The construction: for each band k, a maximal 1/2-separated net of centers
zeta_{j,k} in the annulus C_k = {2^k <= |zeta| < 2^{k+1}}; precuts
u_{j,k}(x, xi) = T_x xi - zeta_{j,k}; cutoffs
chi_{j,k}(x, xi) = rho(2^{-k}|xi|) * phi(u_{j,k}); the normalizer
Sigma = sum of all chi (plus an optional low-frequency cap); and the
localizers Lambda_{j,k} = chi_{j,k} / Sigma, which sum to 1 wherever
Sigma > 0.  The profiles phi and rho are built from one C-infinity step,
so every localizer derivative exists.

The partition is evaluated in two ways: on a quantization grid
(localizer_symbol, band_sum_symbol), and on the product of a set of
points x and a set of frequencies xi (chi_pairs, sigma_pairs,
overlap_pairs), which with one row each gives a single point's value.
Evaluation is lazy: per-point sums prune to the few bands and centers
whose supports can reach the point (at most 5 radial bands, at most 5^n
centers per band), and only the distinct T_x and Sigma of a quantization
grid are tabulated, once per grid.  Each band is one stacked query over
the fiber coordinates T_x xi of every distinct T_x, cut into slices whose
cell blocks hold at most _CHUNK entries, so an x-dependent metric costs
one neighbor search per band and slice, not one per T_x.  The centers
near a point come from a cell index: cells of side below 1/(2 sqrt 2)
hold at most one center of a 1/2-separated net, so each band's index is
one flat table, and a fixed block of cells around a point holds every
center within distance 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import backend
from .grids import GridSpec, GridSymbol
from .metric import MetricField, _fd_derivative, sqrt_metric


class EmptyNetError(ValueError):
    """The annulus contains no lattice candidates for the requested band."""


def _smoothstep_exp(t: np.ndarray) -> np.ndarray:
    """C-infinity step from the standard exp(-1/t) mollifier."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return a / (a + b)


def phi_profile(r) -> np.ndarray:
    """Radial profile P of the mother cut phi(eta) = P(|eta|): 1 on
    [0, 1/2], 0 on [1, inf); accepts inf (maps to 0)."""
    r = np.asarray(r, dtype=float)
    finite = np.isfinite(r)
    out = np.zeros_like(r)
    out[finite] = 1.0 - _smoothstep_exp(2.0 * r[finite] - 1.0)
    return out


def rho(r) -> np.ndarray:
    """Annular profile: 1 on [1/2, 2], 0 outside (1/4, 4)."""
    r = np.asarray(r, dtype=float)
    rising = _smoothstep_exp((r - 0.25) * 4.0)
    falling = 1.0 - _smoothstep_exp((r - 2.0) / 2.0)
    return rising * falling


@dataclass(frozen=True)
class DyadicNet:
    """Maximal 1/2-separated net of centers in the annulus C_k."""

    k: int
    centers: np.ndarray

    @property
    def size(self) -> int:
        return self.centers.shape[0]


def packing_bound(k: int, dim: int) -> int:
    """Upper bound on net size: disjoint 1/4-balls inside B(0, 2^{k+1}+1/4)."""
    return int(np.floor(((2.0 ** (k + 1) + 0.25) / 0.25) ** dim))


def _lattice(axis: np.ndarray, dim: int) -> np.ndarray:
    """The points of the product lattice axis^dim, one per row."""
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _annulus_lattice(k: int, dim: int, lattice_step: float) -> np.ndarray:
    """The lattice points in C_k, in lexicographic (row-major) order."""
    lo, hi = 2.0 ** k, 2.0 ** (k + 1)
    axis = np.arange(-hi, hi + lattice_step / 2, lattice_step)
    pts = _lattice(axis, dim)
    r = np.linalg.norm(pts, axis=1)
    return np.ascontiguousarray(pts[(r >= lo) & (r < hi)])


def build_net(k: int, dim: int, lattice_step: float = 0.125) -> DyadicNet:
    """Greedy maximal 1/2-separated net over a lexicographic lattice scan."""
    if lattice_step > 0.125:
        raise ValueError("lattice_step must be <= 1/8 for covering maximality")
    if dim not in (1, 2):
        raise ValueError("only dim 1 and 2 are supported")
    cands = _annulus_lattice(k, dim, lattice_step)
    if cands.shape[0] == 0:
        raise EmptyNetError(f"annulus C_{k} holds no lattice points at "
                            f"step {lattice_step}")
    idx = backend.greedy_select(cands, 0.5)
    return DyadicNet(k=k, centers=cands[idx])


# Side of an index cell: its diagonal is below 1/2 in dim 1 and 2, so it
# holds at most one center of a 1/2-separated net.
_CELL = 0.35
# A block of cells reaching r cells to each side of a point's cell holds
# every center within r * _CELL of the point: reach 3 covers distance 1.
_REACH = 3
# Entries of one block array in a chunked scan: 512 KiB of float64.  On a
# 2-core x86-64 machine, scans over blocks of 2^20 entries (8 MiB) ran up
# to 1.5 times slower.
_CHUNK = 2 ** 16
_BROKEN = "neighbor budget exceeded; net separation broken"


class _CellIndex:
    """The centers of a 1/2-separated net binned into cells of side _CELL.

    ``coords[i]`` holds coordinate i of the center in each cell, and inf in
    an empty cell, over the centers' bounding box widened by _REACH empty
    cells per side.  A query reads a fixed block of cells around each point
    with one fancy index.  A point outside the box reads the block of the
    nearest cell inside it, which holds every center its own block would.
    """

    def __init__(self, centers: np.ndarray):
        n, dim = centers.shape
        self.origin = centers.min(axis=0)
        cells = self._cells(centers).astype(np.intp)
        self.shape = cells.max(axis=0) + 1 + _REACH
        self.strides = np.r_[np.cumprod(self.shape[::-1])[::-1][1:], 1]
        flat = cells @ self.strides
        if np.unique(flat).size < n:
            raise RuntimeError(_BROKEN)
        self.coords = []
        for i in range(dim):
            col = np.full(int(np.prod(self.shape)), np.inf)
            col[flat] = centers[:, i]
            self.coords.append(col)
        # flat offsets of the blocks, in lexicographic order
        self.offsets = {r: _lattice(np.arange(-r, r + 1), dim) @ self.strides
                        for r in (2, _REACH)}

    def _cells(self, pts: np.ndarray) -> np.ndarray:
        return np.floor((pts - self.origin) / _CELL) + _REACH

    def block(self, u: np.ndarray, reach: int) -> np.ndarray:
        """Squared distances (M, (2 reach + 1)^dim) from each row of u to the
        centers of its block of cells, inf for an empty cell.  For a point
        inside the box the middle column is its own cell."""
        q = self._cells(u)
        np.maximum(q, _REACH, out=q)
        np.minimum(q, self.shape - 1 - _REACH, out=q)
        flat = q.astype(np.intp) @ self.strides
        return _sq_dist([c[flat[:, None] + self.offsets[reach]]
                         for c in self.coords], u)


def _sq_dist(cols, u: np.ndarray) -> np.ndarray:
    """sum_i (cols[i] - u[:, i])^2 accumulated in axis order, computed in
    place over the arrays of cols."""
    d2 = cols[0]
    for i, c in enumerate(cols):
        c -= u[:, i:i + 1]
        c *= c
        if i:
            d2 += c
    return d2


def _nearest(centers: np.ndarray, index, pts: np.ndarray,
             skip_self: bool = False) -> np.ndarray:
    """Distance from each row of pts to its nearest center.

    With skip_self the points are the centers themselves, and each skips
    its own.  The cell index (None for a net it cannot hold) settles every
    point with a center inside its reach-2 block; the rest are scanned
    against every center.
    """
    best = np.full(len(pts), np.inf)
    if index is not None:
        step = _CHUNK // 5 ** centers.shape[1]
        for lo in range(0, len(pts), step):
            d2 = index.block(pts[lo:lo + step], 2)
            if skip_self:
                d2[:, d2.shape[1] // 2] = np.inf
            best[lo:lo + step] = d2.min(axis=1)
    # a center at just under 2 * _CELL may round out of the block
    far = np.flatnonzero(~(best < (2 * _CELL - 1e-9) ** 2))
    step = max(1, _CHUNK // len(centers))
    for lo in range(0, len(far), step):
        rows = far[lo:lo + step]
        d2 = _sq_dist([np.tile(c, (len(rows), 1)) for c in centers.T],
                      pts[rows])
        if skip_self:
            d2[np.arange(len(rows)), rows] = np.inf
        best[rows] = d2.min(axis=1)
    return np.sqrt(best)


def validate_net(net: DyadicNet, dim: int, lattice_step: float = 0.125) -> dict:
    """Exhaustive separation and covering check on the construction lattice."""
    try:
        index = _CellIndex(net.centers)
    except RuntimeError:  # two centers share a cell: closer than 1/2
        index = None
    sep = _nearest(net.centers, index, net.centers, skip_self=True)
    min_sep = float(sep.min()) if net.size > 1 else np.inf
    cover = _nearest(net.centers, index,
                     _annulus_lattice(net.k, dim, lattice_step))
    return {
        "min_separation": min_sep,
        "covering_radius": float(cover.max()),
        "size": net.size,
        "packing_bound": packing_bound(net.k, dim),
        "separation_ok": bool(min_sep >= 0.5 - 1e-12),
        "covering_ok": bool(cover.max() <= 0.5 + 1e-12),
    }


class Partition:
    """Built family of nets and metric over a band range."""

    def __init__(self, metric: MetricField, k_min: int, k_max: int,
                 nets: dict[int, DyadicNet],
                 low_freq_cap: bool = False, lattice_step: float = 0.125):
        if k_min > k_max:
            raise ValueError("k_min must be <= k_max")
        self.metric = metric
        self.k_min = k_min
        self.k_max = k_max
        self.nets = nets
        self.low_freq_cap = low_freq_cap
        self.lattice_step = lattice_step
        self.dim = metric.dim
        self._indexes: dict[int, _CellIndex] = {}
        self._grid_samples: dict[GridSpec, tuple] = {}

    @property
    def bands(self) -> list[int]:
        return list(range(self.k_min, self.k_max + 1))

    # vectorized core ----------------------------------------------------

    def fiber_transforms(self, x_arr: np.ndarray):
        """T_x for each row of x_arr, compressed to unique matrices.

        Returns (t_unique (U, n, n), inverse (P,)) so t_unique[inverse]
        reproduces the full family.
        """
        x_arr = np.atleast_2d(np.asarray(x_arr, dtype=float))
        mats = sqrt_metric(np.stack([self.metric(p) for p in x_arr]))
        flat = np.round(mats.reshape(len(x_arr), -1), 12)
        _, first, inv = np.unique(flat, axis=0, return_index=True,
                                  return_inverse=True)
        return mats[first], inv

    def _band_eval(self, t_uniq: np.ndarray, xi_arr: np.ndarray, bands,
                   term, dtype=float) -> np.ndarray:
        """Sum over k in bands of term(k, rho_k, u), per distinct T_x.

        For each band, only the frequencies where rho(2^{-k}|xi|) > 0 are
        evaluated; the rest get nothing from that band.  The distinct T_x
        are stacked in slices: term receives the fiber coordinates
        u = T_x xi of every T_x of a slice, one row per (T_x, frequency)
        pair, T_x-major, with the rho value of each row, and returns one
        value per row.  A slice holds one T_x, or as many as keep a
        neighbor search's cell block (7^n entries per row) within _CHUNK
        entries.  Returns shape (len(t_uniq), len(xi_arr)).
        """
        xi_norm = np.linalg.norm(xi_arr, axis=1)
        out = np.zeros((len(t_uniq), len(xi_arr)), dtype=dtype)
        for k in bands:
            radial = rho(xi_norm / 2.0 ** k)
            act = radial > 0.0
            xi_act, radial = xi_arr[act], radial[act]
            if not len(xi_act):
                continue
            step = max(1, _CHUNK // ((2 * _REACH + 1) ** self.dim
                                     * len(xi_act)))
            for lo in range(0, len(t_uniq), step):
                t = t_uniq[lo:lo + step]
                u = (xi_act @ t.transpose(0, 2, 1)).reshape(-1, self.dim)
                vals = term(k, np.tile(radial, len(t)), u)
                out[lo:lo + step, act] += vals.reshape(len(t), -1)
        return out

    def _neighbor_distances(self, k: int, u: np.ndarray) -> np.ndarray:
        """Distances from each row of u to the band-k centers within 1.

        Shape (M, kq), ascending per row; entries beyond distance 1 are
        inf.  The band's cell index is built on its first query.
        """
        net = self.nets[k]
        # separation 1/2 packs at most 5^n centers within distance 1
        kq = min(net.size, 5 ** self.dim + 2)
        if kq == 0:
            return np.empty((len(u), 0))
        if k not in self._indexes:
            self._indexes[k] = _CellIndex(net.centers)
        d2 = self._indexes[k].block(u, _REACH)
        d2.sort(axis=1)
        d2 = d2[:, :kq]
        d2[d2 >= 1.0] = np.inf
        if kq < net.size and (d2[:, -1] < np.inf).any():
            raise RuntimeError(_BROKEN)
        return np.sqrt(d2)

    def _chi_band_sum(self, k: int, rho: np.ndarray, u: np.ndarray) -> np.ndarray:
        """rho * sum over band-k centers of phi(|u - zeta|)."""
        return rho * phi_profile(
            self._neighbor_distances(k, u)).sum(axis=1)

    def _sigma(self, t_uniq: np.ndarray, xi_arr: np.ndarray,
               term=None) -> np.ndarray:
        """Sigma on distinct T_x rows: band sums of term plus the cap."""
        out = self._band_eval(t_uniq, xi_arr, self.bands,
                              term or self._chi_band_sum)
        if self.low_freq_cap:
            out += phi_profile(
                np.linalg.norm(xi_arr, axis=1) / 2.0 ** self.k_min)
        return out

    def _grid_sample(self, grid: GridSpec):
        """(xi points, distinct T_x, inverse, Sigma on those rows) of a grid.

        x runs over the doubled lattice and xi over the refined one, as
        Weyl quantization samples symbols.  Computed once per grid and
        shared by every caller, which must not modify the arrays.
        """
        if grid not in self._grid_samples:
            xi_pts = _lattice(grid.xi_axis_refined(), grid.dim)
            t_uniq, inv = self.fiber_transforms(
                _lattice(grid.x_axis_doubled(), grid.dim))
            self._grid_samples[grid] = (xi_pts, t_uniq, inv,
                                        self._sigma(t_uniq, xi_pts))
        return self._grid_samples[grid]

    def _normalized(self, k: int, term, grid: GridSpec) -> GridSymbol:
        """(band-k sum of term) / Sigma on the grid; 0 where the sum is 0."""
        xi_pts, t_uniq, inv, sigma = self._grid_sample(grid)
        num = self._band_eval(t_uniq, xi_pts, [k], term)
        out = np.zeros_like(num)
        mask = num > 0.0
        out[mask] = num[mask] / sigma[mask]
        shape = (2 * grid.n_grid,) * (2 * grid.dim)
        return GridSymbol(grid=grid, values=out[inv].reshape(shape))

    def _chi_term(self, j: int, k: int):
        """Band term of chi_{j,k}: rho * phi(|u - zeta_{j,k}|)."""
        zeta = self.nets[k].centers[j]

        def term(_, rho, u):
            return rho * phi_profile(np.linalg.norm(u - zeta, axis=1))

        return term

    def sigma_pairs(self, x_arr: np.ndarray, xi_arr: np.ndarray) -> np.ndarray:
        """Sigma(x, xi) on the product of point sets; shape (P, Q)."""
        xi_arr = np.atleast_2d(np.asarray(xi_arr, dtype=float))
        t_uniq, inv = self.fiber_transforms(x_arr)
        return self._sigma(t_uniq, xi_arr)[inv]

    def chi_pairs(self, j: int, k: int, x_arr: np.ndarray,
                  xi_arr: np.ndarray) -> np.ndarray:
        """chi_{j,k}(x, xi) on the product of point sets; shape (P, Q)."""
        term = self._chi_term(j, k)
        xi_arr = np.atleast_2d(np.asarray(xi_arr, dtype=float))
        t_uniq, inv = self.fiber_transforms(x_arr)
        return self._band_eval(t_uniq, xi_arr, [k], term)[inv]

    def overlap_pairs(self, x_arr: np.ndarray, xi_arr: np.ndarray) -> np.ndarray:
        """Number of (j,k) with chi_{j,k} > 0, per (x, xi) pair."""
        xi_arr = np.atleast_2d(np.asarray(xi_arr, dtype=float))
        t_uniq, inv = self.fiber_transforms(x_arr)

        def count(k, rho, u):
            return (phi_profile(
                self._neighbor_distances(k, u)) > 0.0).sum(axis=1)

        return self._band_eval(t_uniq, xi_arr, self.bands, count,
                               dtype=np.int64)[inv]

    def radial_band_count(self, xi_arr: np.ndarray) -> np.ndarray:
        """Number of integers k (all of Z) with rho(2^{-k}|xi|) > 0."""
        xi_arr = np.atleast_2d(np.asarray(xi_arr, dtype=float))
        xi_norm = np.linalg.norm(xi_arr, axis=1)
        counts = np.zeros(len(xi_arr), dtype=np.int64)
        pos = xi_norm > 0.0
        if pos.any():
            lo = np.ceil(np.log2(xi_norm[pos]) - 2.0).astype(int)
            hi = np.floor(np.log2(xi_norm[pos]) + 2.0).astype(int)
            sub = np.zeros(pos.sum(), dtype=np.int64)
            for off in range(5):
                kk = lo + off
                ok = kk <= hi
                if not ok.any():
                    continue
                sub[ok] += (rho(xi_norm[pos][ok] / 2.0 ** kk[ok]) > 0)
            counts[pos] = sub
        return counts


def build_partition(metric: MetricField, k_min: int, k_max: int,
                    lattice_step: float = 0.125,
                    low_freq_cap: bool = False) -> Partition:
    """Build nets for every band in [k_min, k_max] and bundle the family."""
    nets = {k: build_net(k, metric.dim, lattice_step)
            for k in range(k_min, k_max + 1)}
    return Partition(metric, k_min, k_max, nets,
                     low_freq_cap=low_freq_cap, lattice_step=lattice_step)


# grid sampling ----------------------------------------------------------

def localizer_symbol(part: Partition, j: int, k: int,
                     grid: GridSpec) -> GridSymbol:
    """Lambda_{j,k} = chi/Sigma as a GridSymbol, exactly 0 off supp chi."""
    return part._normalized(k, part._chi_term(j, k), grid)


def band_sum_symbol(part: Partition, k: int, grid: GridSpec) -> GridSymbol:
    """sum_j Lambda_{j,k} sampled as a GridSymbol."""
    return part._normalized(k, part._chi_band_sum, grid)


# verification scans -----------------------------------------------------

def pou_deviation(part: Partition, x_arr: np.ndarray,
                  xi_arr: np.ndarray) -> float:
    """max |sum_{j,k} Lambda + cap/Sigma - 1| over sample pairs with Sigma > 0.

    The numerator accumulates per-patch cutoff values by direct distance
    evaluation, independently of the cell-indexed normalizer path.  NaN
    when no pair has Sigma > 0: the samples miss the support, and nothing
    was checked.
    """
    xi_arr = np.atleast_2d(np.asarray(xi_arr, dtype=float))

    def direct(k, rho, u):
        acc = np.zeros(len(u))
        for zeta in part.nets[k].centers:
            r = np.linalg.norm(u - zeta, axis=1)
            near = r < 1.0
            if near.any():
                vals = np.zeros(len(u))
                vals[near] = phi_profile(r[near])
                acc += rho * vals
        return acc

    t_uniq, _ = part.fiber_transforms(x_arr)
    num = part._sigma(t_uniq, xi_arr, direct)
    sigma = part._sigma(t_uniq, xi_arr)
    mask = sigma > 0.0
    if not mask.any():
        return float("nan")
    return float(np.abs(num[mask] / sigma[mask] - 1.0).max())


def overlap_scan(part: Partition, x_arr: np.ndarray,
                 xi_arr: np.ndarray) -> dict:
    """Exhaustive overlap statistics over the sample product set."""
    counts = part.overlap_pairs(x_arr, xi_arr)
    radial = part.radial_band_count(xi_arr)
    hist_vals, hist_counts = np.unique(counts, return_counts=True)
    return {
        "max_overlap": int(counts.max()),
        "overlap_bound": 5 ** (part.dim + 1),
        "max_radial_bands": int(radial.max()),
        "histogram": {int(v): int(c) for v, c in zip(hist_vals, hist_counts)},
    }


def verify_localizer_derivatives(part: Partition, samples) -> dict:
    """Finite-difference derivative constants of Lambda on test patches.

    For each representative patch and each multi-index gamma = (alpha, beta)
    with |gamma| <= 2, reports the empirical sup over samples of
    |Delta^gamma Lambda| / (<x>^{|alpha|+|gamma|} <xi>^{|beta|+1+|gamma|}),
    with a Richardson stability flag (estimates at steps 1e-3 and 5e-4
    agree within a factor of 2).
    """
    n = part.dim
    samples = [(np.atleast_1d(np.asarray(x, float)),
                np.atleast_1d(np.asarray(xi, float))) for x, xi in samples]

    reps = []
    for k in part.bands:
        centers = part.nets[k].centers
        j = int(np.argmin(np.linalg.norm(
            centers - np.r_[1.5 * 2.0 ** k, np.zeros(n - 1)], axis=1)))
        reps.append((j, k))

    def lam(j, k):
        def f(z):
            """Lambda_{j,k} at z = (x, xi), exactly 0 off supp chi."""
            x, xi = z[None, :n], z[None, n:]
            chi = float(part.chi_pairs(j, k, x, xi)[0, 0])
            if chi == 0.0:
                return 0.0
            return chi / float(part.sigma_pairs(x, xi)[0, 0])
        return f

    from itertools import product as iproduct
    gammas = [g for g in iproduct(range(3), repeat=2 * n) if 1 <= sum(g) <= 2]

    per_patch: dict[str, dict] = {}
    for j, k in reps:
        f = lam(j, k)
        consts, stable = {}, {}
        for g in gammas:
            a_ord = sum(g[:n])
            b_ord = sum(g[n:])
            tot = a_ord + b_ord
            ests = []
            for h in (1e-3, 5e-4):
                sup = 0.0
                for x, xi in samples:
                    z = np.concatenate([x, xi])
                    w = ((1.0 + x @ x) ** ((a_ord + tot) / 2.0)
                         * (1.0 + xi @ xi) ** ((b_ord + 1 + tot) / 2.0))
                    sup = max(sup, abs(_fd_derivative(f, z, g, h)) / w)
                ests.append(sup)
            key = str(g)
            consts[key] = ests[1]
            floor = 1e-9
            stable[key] = bool(0.5 <= (ests[1] + floor) / (ests[0] + floor) <= 2.0)
        per_patch[f"j{j}_k{k}"] = {"constants": consts, "stable": stable}

    # with every constant at the floor, no sample met a support and the
    # spread says nothing
    spread_ok = any(c > 1e-9 for patch in per_patch.values()
                    for c in patch["constants"].values())
    for g in gammas:
        key = str(g)
        vals = [p["constants"][key] for p in per_patch.values()]
        lo, hi = min(vals), max(vals)
        if lo > 1e-9 and hi / lo > 10.0:
            spread_ok = False
    return {"patches": per_patch, "uniform_spread_ok": spread_ok,
            "fd_step": 1e-3, "max_order": 2}
