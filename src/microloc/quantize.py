"""Discrete Weyl quantization, Fourier weighting, spectral norms, band
experiments.

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

import numpy as np

from .grids import GridSpec, GridSymbol
from .partition import Partition, _smoothstep_exp, localizer_symbol


class DegenerateResultError(ValueError):
    """The numbers of a run leave nothing to report: an operator or a
    multiplier with non-finite entries, or too few nonzero norms for a
    slope fit."""


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


def fourier_multiplier(weights: np.ndarray, grid: GridSpec) -> DiscreteOperator:
    """Dense matrix of the multiplier with the given lattice weights.

    ``weights`` is sampled on the xi lattice in ascending order, one axis
    per dimension, shape ``(n_grid,) * dim``.
    """
    d, n = grid.dim, grid.n_grid
    if weights.shape != (n,) * d:
        raise ValueError(f"weights shape {weights.shape}, expected {(n,) * d}")
    if not np.all(np.isfinite(weights)):
        raise DegenerateResultError("non-finite multiplier weights")
    c = np.fft.ifftn(np.fft.ifftshift(weights))
    m = np.meshgrid(*([np.arange(n)] * d), indexing="ij")
    m = [ax.ravel() for ax in m]
    idx = tuple((ax[:, None] - ax[None, :]) % n for ax in m)
    return DiscreteOperator(matrix=c[idx], grid=grid)


def bracket_weights(grid: GridSpec, s: float, xi_scale: float = 1.0) -> np.ndarray:
    """<xi_scale * xi_p>^s on the frequency lattice; inf where it overflows."""
    mesh = grid.xi_mesh()
    q = sum(np.square(xi_scale * ax) for ax in mesh)
    with np.errstate(over="ignore"):
        return (1.0 + q) ** (s / 2.0)


def fourier_weighted(m: np.ndarray, grid: GridSpec,
                     w_out: np.ndarray | None = None,
                     w_in: np.ndarray | None = None) -> np.ndarray:
    """W_out m W_in for the multipliers with lattice weights w_out, w_in.

    Weights are sampled as for ``fourier_multiplier``; ``None`` is the
    identity.  A multiplier is diagonal in the DFT basis, so each side is
    a transform over that side's lattice axes and no multiplier matrix
    is formed.
    """
    for w in (w_out, w_in):
        if w is not None and not np.all(np.isfinite(w)):
            raise DegenerateResultError("non-finite multiplier weights")
    d, lat = grid.dim, (grid.n_grid,) * grid.dim
    rows, cols = tuple(range(d)), tuple(range(d, 2 * d))
    t = m.reshape(lat + lat)
    if w_out is not None:
        w = np.fft.ifftshift(w_out).reshape(lat + (1,) * d)
        t = np.fft.ifftn(np.fft.fftn(t, axes=rows) * w, axes=rows)
    if w_in is not None:
        t = np.fft.fftn(np.fft.ifftn(t, axes=cols) * np.fft.ifftshift(w_in),
                        axes=cols)
    return t.reshape(m.shape)


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value of a dense matrix by full SVD."""
    if m.shape[0] > 4096:
        raise ValueError("svd norm limited to dimension 4096")
    if not np.all(np.isfinite(m)):
        raise DegenerateResultError("non-finite matrix entries")
    return float(np.linalg.svd(m, compute_uv=False)[0])


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
    bound 2^{3k} times the same measured norm (N_xi = 3), the loss an
    estimate through finitely many xi-derivatives of the symbol cannot
    avoid; it is never below the semiclassical value.
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
        w_out, w_in = (bracket_weights(a.grid, t, 2.0 ** -k) if t else None
                       for t in (s - m2, -s))
        measured = spectral_norm(
            fourier_weighted(block.matrix, a.grid, w_out, w_in))
        value = measured if mode == "semiclassical" \
            else measured * 2.0 ** (3 * k)
        rows.append({"k": k, "j": j, "norm": value,
                     "renorm_ratio": value / 2.0 ** (k * m2),
                     "mode": mode, "skipped": False})
    return rows
