"""Discrete Weyl quantization, Sobolev norms, seminorms, band experiments.

On the periodic box the Weyl kernel is built from the symbol's mixed
Fourier series: the spatial harmonic q pairs with frequencies xi in
Z*dxi + q*dxi/2, the only combinations for which e^{i q (x+y)/2 + i
xi (x-y)} is 2X-periodic in x and y separately.  The symbol is sampled on
(doubled x-lattice) x (refined xi-lattice), 2n points per axis; keeping
only the parity-matched (q, p) checkerboard of its x-transform, with
weight 2, is the mask 1 + (-1)^q (-1)^(p-n), and multiplying an
x-transform by (-1)^q shifts x by half the doubled period.  So the
masked symbol is, along each spatial axis,

    a(x_j, p) + (-1)^(p-n) a(x_{j+n mod 2n}, p),

and no x-transform is computed.  Folded row x + n is (-1)^(p-n) times
row x, so only the rows x < n of each spatial axis are transformed, and
rows x >= n are read from them shifted by n in xi.  The operator is then
an inverse FFT over xi plus an index gather at (m + m', m - m'), taken a
few rows of the first spatial axis at a time.  An optional real weight
(a localizer) is multiplied into each chunk, so assembly holds the
symbol, the weight, the output and one chunk.  This keeps Op(1) = Id,
multipliers, and frequency locality exact; without the parity pairing,
odd harmonics leak across the whole frequency lattice with 1/d tails.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

import numpy as np

from .grids import GridSpec, GridSymbol
from .partition import Partition, _smoothstep_exp, localizer_symbol


class DegenerateResultError(ValueError):
    """The numbers of a run leave nothing to report: an operator with
    non-finite entries, or too few nonzero norms for a slope fit."""


@dataclass
class DiscreteOperator:
    """Dense matrix acting on flattened grid samples (row-major lattice)."""

    matrix: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        npts = self.grid.npoints()
        if self.matrix.shape != (npts, npts):
            raise ValueError(f"matrix shape {self.matrix.shape}, "
                             f"expected {(npts, npts)}")
        if not np.all(np.isfinite(self.matrix)):
            raise DegenerateResultError("non-finite matrix entries")


def _along(v: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    """View a 1-D array as lying along ``axis`` of an ``ndim``-D array."""
    shape = [1] * ndim
    shape[axis] = -1
    return v.reshape(shape)


def weyl_quantize(a: GridSymbol,
                  weight: np.ndarray | None = None) -> DiscreteOperator:
    """Assemble the dense Weyl operator of a grid symbol.

    ``weight`` (a real array shaped like ``a.values``, such as a localizer's
    samples) is multiplied into each chunk of symbol rows, so the result is
    Op^w(a * weight) without the product array.
    """
    g = a.grid
    d, n = g.dim, g.n_grid
    vals = a.values
    if weight is not None and weight.shape != vals.shape:
        raise ValueError(f"weight shape {weight.shape}, "
                         f"expected {vals.shape}")
    xi_axes = tuple(range(d, 2 * d))
    # (-1)^(p - n) on the refined xi index p, for the half-period fold
    sign = 1.0 - 2.0 * ((np.arange(2 * n) - n) % 2)
    # about one output's worth of symbol rows per chunk (each read with its
    # partner n rows on): n/2 rows of a 1D symbol, a few rows of a 2D one
    rows = max(1, n ** (2 * d) // (2 * n) ** (2 * d - 1))

    # After the fold, spatial row x + n is (-1)^(p - n) times row x, so its
    # xi transform is row x's shifted by n: only rows x < n are transformed.
    # Each output entry (m, m') reads x = m + m', p = m - m', or x - n and
    # p + n when x >= n; on the first axis the pairs are listed per chunk,
    # the other axes are broadcast whole.
    m = np.arange(n)
    nd = 2 * d - 1
    mi = [_along(m, k, nd) for k in range(1, d)]
    mj = [_along(m, d - 1 + k, nd) for k in range(1, d)]
    src_x, src_p = [], []
    for u, v in zip(mi, mj):
        high = n * (u + v >= n)
        src_x.append(u + v - high)
        src_p.append((u - v + high) % (2 * n))

    out = np.empty((n,) * (2 * d),
                   dtype=np.result_type(vals.dtype, np.complex128))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        top, bottom = vals[lo:hi], vals[lo + n:hi + n]
        if weight is not None:
            top = top * weight[lo:hi]
            bottom = bottom * weight[lo + n:hi + n]
        c = top + bottom * _along(sign, d, 2 * d)
        for ax in range(1, d):
            lower, upper = np.split(c, 2, axis=ax)
            c = lower + upper * _along(sign, d + ax, 2 * d)
        b = np.fft.ifftn(np.fft.ifftshift(c, axes=xi_axes), axes=xi_axes)
        # x = m0 + m0' runs over the chunk's rows and the same rows + n;
        # row x holds the pairs m0 = first .. first + count - 1
        x = np.concatenate([np.arange(lo, hi),
                            np.arange(lo + n, min(hi + n, 2 * n - 1))])
        first = np.maximum(0, x - n + 1)
        count = np.minimum(x, n - 1) - first + 1
        x = np.repeat(x, count)
        u = np.arange(x.size) + np.repeat(first - np.cumsum(count) + count,
                                          count)
        high = n * (x >= n)
        r, u, v, p = (_along(w, 0, nd) for w in
                      (x - high - lo, u, x - u, (2 * u - x + high) % (2 * n)))
        out[(u, *mi, v, *mj)] = b[(r, *src_x, p, *src_p)]
    return DiscreteOperator(matrix=out.reshape(n ** d, n ** d), grid=g)


def semiclassical_quantize(a: GridSymbol, h: float) -> DiscreteOperator:
    """Op_h^w(a): Weyl quantization of the rescaled symbol a(x, h eta)."""
    if not 0.0 < h <= 1.0:
        raise ValueError("h must lie in (0, 1]")
    if h == 1.0:
        return weyl_quantize(a)
    return weyl_quantize(a.resampled(h))


def fourier_multiplier(weights: np.ndarray, grid: GridSpec) -> DiscreteOperator:
    """Dense matrix of the multiplier with the given lattice weights.

    ``weights`` is sampled on the xi lattice in ascending order, one axis
    per dimension, shape ``(n_grid,) * dim``.
    """
    d, n = grid.dim, grid.n_grid
    if weights.shape != (n,) * d:
        raise ValueError(f"weights shape {weights.shape}, expected {(n,) * d}")
    c = np.fft.ifftn(np.fft.ifftshift(weights))
    m = np.meshgrid(*([np.arange(n)] * d), indexing="ij")
    m = [ax.ravel() for ax in m]
    idx = tuple((ax[:, None] - ax[None, :]) % n for ax in m)
    return DiscreteOperator(matrix=c[idx], grid=grid)


def bracket_weights(grid: GridSpec, s: float, xi_scale: float = 1.0) -> np.ndarray:
    """<xi_scale * xi_p>^s on the frequency lattice."""
    mesh = grid.xi_mesh()
    q = sum(np.square(xi_scale * ax) for ax in mesh)
    return (1.0 + q) ** (s / 2.0)


def sobolev_multiplier(s: float, grid: GridSpec,
                       xi_scale: float = 1.0) -> DiscreteOperator:
    """<D>^s (or its semiclassically scaled variant) as a dense matrix."""
    return fourier_multiplier(bracket_weights(grid, s, xi_scale), grid)


def _specnorm(m: np.ndarray) -> float:
    """Largest singular value of a dense matrix by full SVD."""
    return float(np.linalg.svd(m, compute_uv=False)[0])


def operator_norm(t: DiscreteOperator, s_in: float = 0.0, s_out: float = 0.0,
                  xi_scale: float = 1.0) -> float:
    """Weighted spectral norm ||<D>^{s_out} T <D>^{-s_in}|| by dense SVD.

    The weights use <xi_scale * xi_p>; xi_scale = 2^{-k} gives the
    semiclassical Sobolev scale of a dyadic band.
    """
    m = t.matrix
    if m.shape[0] > 4096:
        raise ValueError("svd norm limited to dimension 4096")
    if s_out != 0.0:
        m = sobolev_multiplier(s_out, t.grid, xi_scale).matrix @ m
    if s_in != 0.0:
        m = m @ sobolev_multiplier(-s_in, t.grid, xi_scale).matrix
    return _specnorm(m)


def _central_diff(values: np.ndarray, axis: int, spacing: float) -> np.ndarray:
    return (np.roll(values, -1, axis=axis)
            - np.roll(values, 1, axis=axis)) / (2.0 * spacing)


def seminorm(a: GridSymbol, i: int, l: int,
             orders: tuple[float, float] = (0.0, 0.0)) -> float:
    """Truncated symbol-class seminorm by lattice central differences.

    Empirical sup over the lattice (boundary margin excluded, since roll
    wraps non-periodic symbol content) of
    |Delta_x^alpha Delta_xi^beta a| / (<x>^{m1-|alpha|} <xi>^{m2-|beta|})
    over |alpha| <= i, |beta| <= l.
    """
    if i + l > 4:
        raise ValueError("i + l must be <= 4")
    g = a.grid
    d = g.dim
    m1, m2 = orders
    xd = g.x_axis_doubled()
    xa = g.xi_axis_refined()
    x_sq = sum(np.square(xd.reshape([-1 if ax == j else 1
                                     for j in range(2 * d)]))
               for ax in range(d))
    xi_sq = sum(np.square(xa.reshape([-1 if j == d + ax else 1
                                      for j in range(2 * d)]))
                for ax in range(d))
    bx = (1.0 + x_sq) ** 0.5
    bxi = (1.0 + xi_sq) ** 0.5

    depth = i + l
    interior = tuple(slice(depth, None if depth == 0 else -depth)
                     for _ in range(2 * d))

    best = 0.0
    for alpha in iproduct(range(i + 1), repeat=d):
        if sum(alpha) > i:
            continue
        for beta in iproduct(range(l + 1), repeat=d):
            if sum(beta) > l:
                continue
            vals = a.values
            for ax in range(d):
                for _ in range(alpha[ax]):
                    vals = _central_diff(vals, ax, g.dx / 2)
                for _ in range(beta[ax]):
                    vals = _central_diff(vals, d + ax, g.dxi / 2)
            w = bx ** (m1 - sum(alpha)) * bxi ** (m2 - sum(beta))
            ratio = np.abs(vals) / w
            best = max(best, float(ratio[interior].max()))
    return best


def make_cutoff(grid: GridSpec, r_one: float, r_zero: float) -> np.ndarray:
    """Smooth radial spatial cutoff: 1 for |x| <= r_one, 0 for |x| >= r_zero."""
    if not 0.0 < r_one < r_zero:
        raise ValueError("need 0 < r_one < r_zero")
    mesh = grid.x_mesh()
    r = np.sqrt(sum(np.square(ax) for ax in mesh))
    return 1.0 - _smoothstep_exp((r - r_one) / (r_zero - r_one))


def representative_patch(part: Partition, k: int) -> int:
    """Index j of the band-k center closest to the positive first axis."""
    centers = part.nets[k].centers
    norms = np.linalg.norm(centers, axis=1)
    angle = np.arccos(np.clip(centers[:, 0] / norms, -1.0, 1.0))
    radial = np.abs(norms - 1.5 * 2.0 ** k)
    return int(np.lexsort((radial, np.round(angle, 9)))[0])


def assemble_block(a: GridSymbol, part: Partition, j: int, k: int,
                   chi: np.ndarray, chi_prime: np.ndarray) -> DiscreteOperator:
    """T_{j,k} = chi * Op^w(a Lambda_{j,k}) * chi' on the grid of a."""
    lam = localizer_symbol(part, j, k, a.grid)
    op = weyl_quantize(a, weight=lam.values)
    m = chi.ravel()[:, None] * op.matrix * chi_prime.ravel()[None, :]
    return DiscreteOperator(matrix=m, grid=a.grid)


def fit_log2_slope(ks, vals) -> float:
    """Least-squares slope of log2(vals) against k."""
    ks = np.asarray(ks, dtype=float)
    vals = np.asarray(vals, dtype=float)
    mask = vals > 1e-14
    if mask.sum() < 2:
        raise DegenerateResultError(
            "not enough nonzero values for a slope fit")
    return float(np.polyfit(ks[mask], np.log2(vals[mask]), 1)[0])


def band_bound_experiment(a: GridSymbol, part: Partition, chi: np.ndarray,
                          chi_prime: np.ndarray, s: float, k_range,
                          mode: str, m2: float) -> list[dict]:
    """Per-band block norms against the 2^{k m2} scale.

    Semiclassical mode measures the block in semiclassically weighted
    Sobolev norms (weights <2^{-k} xi>, O(1) on the band), which realizes
    the 2^{k m2} band factor.  Conservative mode reports the certified
    bound 2^{3k} times the same measured norm (N_xi = 3), the loss a
    truncated-seminorm estimate cannot avoid; it is never below the
    semiclassical value.
    """
    if mode not in ("conservative", "semiclassical"):
        raise ValueError(f"unknown mode {mode!r}")
    rows = []
    for k in k_range:
        if k not in part.nets or part.nets[k].size == 0:
            rows.append({"k": k, "j": -1, "norm": float("nan"),
                         "renorm_ratio": float("nan"), "mode": mode,
                         "skipped": True})
            continue
        j = representative_patch(part, k)
        block = assemble_block(a, part, j, k, chi, chi_prime)
        measured = operator_norm(block, s_in=s, s_out=s - m2,
                                 xi_scale=2.0 ** (-k))
        value = measured if mode == "semiclassical" \
            else measured * 2.0 ** (3 * k)
        rows.append({"k": k, "j": j, "norm": value,
                     "renorm_ratio": value / 2.0 ** (k * m2),
                     "mode": mode, "skipped": False})
    return rows
