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
row x, so only rows x < n of each spatial axis (row 0 where no factor
varies) are transformed, and rows x >= n are read from them shifted by n
in xi.  The operator is then an inverse FFT over xi plus an index gather
at (m + m', m - m'), a few rows of the first spatial axis at a time.  An
optional real weight (a localizer) is multiplied into each chunk, so
assembly holds the symbol, the weight, the output and one chunk.  This
keeps Op(1) = Id, multipliers, and frequency locality exact; without the
parity pairing, odd harmonics leak across the whole frequency lattice
with 1/d tails.
``spectral_norm`` and the Radon block norms are roots of Hermitian top
eigenvalues: of a Gram matrix, and of C^H G C.
"""

from __future__ import annotations

import numpy as np

from .grids import DegenerateResultError, GridSpec, GridSymbol
from .partition import (Partition, _smoothstep_exp, localizer_symbol,
                        representative_patch)


def _along(v: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    """View a 1-D array as lying along ``axis`` of an ``ndim``-D array."""
    shape = [1] * ndim
    shape[axis] = -1
    return v.reshape(shape)


def weyl_quantize(a: GridSymbol,
                  weight: np.ndarray | None = None) -> np.ndarray:
    """Dense Weyl matrix of a grid symbol, acting on flattened grid samples
    (row-major lattice).

    ``weight`` (a real array shaped like ``a.values``, such as a localizer's
    samples) is multiplied into each chunk of symbol rows, so the result is
    Op^w(a * weight) without the product array.  Either may be a read-only
    broadcast view (stride 0 along the axes it does not vary on); a chunk
    at a time is written out, at length 1 on spatial axes where both have
    stride 0.  Non-finite entries raise DegenerateResultError.
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
    # a spatial axis where both factors have stride 0 is kept at length 1
    flat = [vals.strides[ax] == 0
            and (weight is None or weight.strides[ax] == 0) for ax in range(d)]
    one = tuple(slice(0, 1) if f else slice(None) for f in flat)
    vals, weight = vals[one], None if weight is None else weight[one]
    # about one output's worth of symbol rows per chunk (each read with its
    # partner n rows on): n/2 rows of a 1D symbol, a few rows of a 2D one
    rows = n if flat[0] else max(1, n ** (2 * d) // (2 * n) ** (2 * d - 1))

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
        pair = [slice(0, 1)] * 2 if flat[0] else [slice(lo, hi),
                                                   slice(lo + n, hi + n)]
        top, bottom = (vals[s] if weight is None else vals[s] * weight[s]
                       for s in pair)
        c = top + bottom * _along(sign, d, 2 * d)
        for ax in range(1, d):
            lower, upper = (c, c) if flat[ax] else np.split(c, 2, axis=ax)
            c = lower + upper * _along(sign, d + ax, 2 * d)
        b = np.fft.ifftn(np.fft.ifftshift(c, axes=xi_axes), axes=xi_axes)
        b = np.broadcast_to(b, (hi - lo,) + (n,) * (d - 1) + b.shape[d:])
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
    if not np.all(np.isfinite(out)):
        raise DegenerateResultError("non-finite matrix entries")
    return out.reshape(n ** d, n ** d)


def fourier_multiplier(weights: np.ndarray, grid: GridSpec) -> np.ndarray:
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
    m = [ax.ravel() for ax in np.meshgrid(*([np.arange(n)] * d),
                                          indexing="ij")]
    idx = tuple((ax[:, None] - ax[None, :]) % n for ax in m)
    return c[idx]


def bracket_weights(grid: GridSpec, s: float, xi_scale: float) -> np.ndarray:
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


def _top_eigenvalue(h: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each Hermitian matrix in h, clamped at 0."""
    if not np.all(np.isfinite(h)):
        raise DegenerateResultError("non-finite matrix entries")
    return np.linalg.eigvalsh(h).max(axis=-1, initial=0.0)


def spectral_norm(m: np.ndarray):
    """Largest singular value of each matrix (at most 4096 rows) in m: the
    root of the top eigenvalue of its Gram matrix on the smaller side, after
    scaling to a largest entry of 1 so that no finite input overflows."""
    if m.shape[-2] > 4096:
        raise ValueError("svd norm limited to dimension 4096")
    peak = np.abs(m).max(axis=(-2, -1), keepdims=True)
    if not np.all(np.isfinite(peak)):
        raise DegenerateResultError("non-finite matrix entries")
    u = m / np.where(peak > 0.0, peak, 1.0)
    uh = np.swapaxes(u.conj(), -1, -2)
    gram = uh @ u if m.shape[-1] <= m.shape[-2] else u @ uh
    norm = peak[..., 0, 0] * np.sqrt(_top_eigenvalue(gram))
    return float(norm) if m.ndim == 2 else norm


def make_cutoff(grid: GridSpec, r_one: float, r_zero: float) -> np.ndarray:
    """Smooth radial spatial cutoff: 1 for |x| <= r_one, 0 for |x| >= r_zero."""
    if not 0.0 < r_one < r_zero:
        raise ValueError("need 0 < r_one < r_zero")
    mesh = grid.x_mesh()
    r = np.sqrt(sum(np.square(ax) for ax in mesh))
    return 1.0 - _smoothstep_exp((r - r_one) / (r_zero - r_one))


def cut(m: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """chi m chi for a spatial cutoff sampled on the grid of m."""
    c = chi.ravel()
    return c[:, None] * m * c[None, :]


def assemble_block(a: GridSymbol, part: Partition, j: int, k: int,
                   chi: np.ndarray) -> np.ndarray:
    """T_{j,k} = chi Op^w(a Lambda_{j,k}) chi on the grid of a."""
    lam = localizer_symbol(part, j, k, a.grid)
    return cut(weyl_quantize(a, weight=lam.values), chi)


def fit_log2_slope(rows) -> float:
    """Least-squares slope of log2(norm) against k over band rows; NaN for
    a single row."""
    if len(rows) < 2:
        return float("nan")
    ks = np.asarray([r["k"] for r in rows], dtype=float)
    vals = np.asarray([r["norm"] for r in rows], dtype=float)
    mask = vals > 1e-14
    if mask.sum() < 2:
        raise DegenerateResultError(
            "not enough nonzero values for a slope fit")
    return float(np.polyfit(ks[mask], np.log2(vals[mask]), 1)[0])


def band_bound_experiment(a: GridSymbol, part: Partition, chi: np.ndarray,
                          k_range, m2: float) -> tuple[list[dict], float]:
    """Per-band block norms against the 2^{k m2} scale, and their slope.

    Each block T is measured as ||<2^{-k} D>^{-m2} T||, in the
    semiclassically weighted Sobolev norm whose weights <2^{-k} xi>^{-m2}
    (none when m2 = 0) are O(1) on the band, which realizes the 2^{k m2}
    band factor.  Every k of k_range must be a built band.
    """
    if not set(k_range) <= set(part.nets):
        raise ValueError(f"k_range reaches past bands "
                         f"{part.k_min}..{part.k_max}")
    rows = []
    for k in k_range:
        j = representative_patch(part, k)
        block = assemble_block(a, part, j, k, chi)
        w = bracket_weights(a.grid, -m2, 2.0 ** -k) if m2 else None
        norm = spectral_norm(fourier_weighted(block, a.grid, w))
        rows.append({"k": k, "j": j, "norm": norm,
                     "renorm_ratio": norm / 2.0 ** (k * m2)})
    return rows, fit_log2_slope(rows)
