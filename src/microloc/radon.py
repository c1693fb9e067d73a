"""2D Radon transform, exact discrete adjoint, FBP inversion, block scaling.

Lines x . omega = s, omega on the half circle, are sampled at half-pixel
steps with bilinear interpolation (an interpolating projector of the
Joseph 1982 family), one angle at a time.  R has one row layout, ray
``angle * n_offsets + offset``, and two builders.  ``radon-block`` sums
R^T R from the samples in dense blocks of rays.  Otherwise a geometry is
built once into a ``scipy.sparse`` CSR matrix (the latest is cached):
the forward map is ``R @ f``, the adjoint under the quadrature inner
products (dA on images, ds dtheta on sinograms) is the quadrature scale
times ``R.T @ g``, an exact transpose by construction, and
``radon_recombine`` applies R to image-space blocks.  Filtered
backprojection applies the ramp |sigma| per angle and divides by a
constant fitted once per geometry.
"""

from __future__ import annotations

import functools
import mmap
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .grids import GridSpec, GridSymbol
from .partition import Partition, band_sum_symbol
from .quantize import _top_eigenvalue, cut, fit_log2_slope, weyl_quantize
from .recombine import recombine_sum

if TYPE_CHECKING:
    from scipy import sparse


@dataclass(frozen=True)
class RadonConfig:
    """Sampling geometry: image grid, angles in [0, pi), offsets in [-S, S]."""

    grid: GridSpec
    n_angles: int
    n_offsets: int

    def __post_init__(self):
        if self.grid.dim != 2:
            raise ValueError("the Radon transform is implemented for dim 2")

    @property
    def s_max(self) -> float:
        return self.grid.half_width * np.sqrt(2.0)

    @property
    def ds(self) -> float:
        return 2.0 * self.s_max / (self.n_offsets - 1)

    @property
    def dtheta(self) -> float:
        return np.pi / self.n_angles

    @property
    def dt(self) -> float:
        return self.grid.dx / 2.0

    def offsets(self) -> np.ndarray:
        return np.linspace(-self.s_max, self.s_max, self.n_offsets)

    def angles(self) -> np.ndarray:
        return self.dtheta * np.arange(self.n_angles)


def _angle_geometry(cfg: RadonConfig, theta: float):
    """Bilinear samples of the lines at one angle, as flat arrays.

    Returns ``(rows, a, b, wx, wy)``: the offset index of each sample
    whose interpolation cell meets the image, and the cell's lower-left
    pixel ``(a, b)`` (either may be -1) with its bilinear weights.
    """
    g = cfg.grid
    n = g.n_grid
    s = cfg.offsets()
    nt = int(np.ceil(2.0 * cfg.s_max / cfg.dt)) + 1
    t = np.linspace(-cfg.s_max, cfg.s_max, nt)
    cos, sin = np.cos(theta), np.sin(theta)
    f1 = (s[:, None] * cos - t * sin + g.half_width) / g.dx
    f2 = (s[:, None] * sin + t * cos + g.half_width) / g.dx
    a = np.floor(f1).astype(np.int32)
    b = np.floor(f2).astype(np.int32)
    inside = (a >= -1) & (a <= n - 1) & (b >= -1) & (b <= n - 1)
    rows = np.nonzero(inside)[0].astype(np.int32)
    return (rows, a[inside], b[inside],
            f1[inside] - a[inside], f2[inside] - b[inside])


def _corners(cfg: RadonConfig, theta: float):
    """One angle's samples merged per line and cell: ``(rows, pix, w)``,
    ascending offsets and (4, samples) corners (pixel or -1) and weights."""
    n = cfg.grid.n_grid
    rows, a, b, wx, wy = _angle_geometry(cfg, theta)
    cell = (rows.astype(np.int64) * (n + 1) + a + 1) * (n + 1) + b + 1
    run = np.flatnonzero(np.diff(cell, prepend=-1))
    w = np.add.reduceat(np.stack(((1.0 - wx) * (1.0 - wy), wx * (1.0 - wy),
                                  (1.0 - wx) * wy, wx * wy)), run, axis=1)
    rows, a, b = rows[run], a[run], b[run]
    i, j = np.stack((a, a + 1, a, a + 1)), np.stack((b, b, b + 1, b + 1))
    inside = (i >= 0) & (i < n) & (j >= 0) & (j < n)
    return rows, np.where(inside, i * n + j, -1), w


@functools.lru_cache(maxsize=1)
def _operator(cfg: RadonConfig) -> sparse.csr_array:
    """The forward map as a scipy CSR matrix, built in numpy once per
    geometry; scipy.sparse is imported here, so only a Radon product loads
    scipy.

    Row ``angle * n_offsets + offset`` holds ``dt`` times the bilinear
    weights of that line's samples, summed per pixel, at column
    ``i * n_grid + j`` for pixel ``(i, j)``; its columns increase.  Per
    angle, the entries of ``_corners`` are keyed by ``offset * n_grid^2 +
    column`` (int64: the product can pass 2^31), sorted, summed per key
    with ``np.add.reduceat`` and counted per row with ``np.bincount``,
    straight into growing entry buffers, which the matrix wraps without a
    copy.  Only the most recent geometry is kept, so a large operator is
    freed once a caller moves on to another.
    """
    from scipy import sparse

    n2 = cfg.grid.n_grid ** 2
    data, indices, nnz = np.empty(0), np.empty(0, dtype=np.int32), 0
    row_nnz = [np.zeros(1, dtype=np.int64)]
    for theta in cfg.angles():
        rows, pix, w = _corners(cfg, theta)
        keep = pix >= 0
        key = (rows.astype(np.int64) * n2 + pix)[keep]
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.flatnonzero(np.diff(key, prepend=-1))
        end = nnz + first.size
        data, indices = _grow(data, nnz, end), _grow(indices, nnz, end)
        np.add.reduceat(w[keep][order], first, out=data[nnz:end])
        data[nnz:end] *= cfg.dt
        key = key[first]
        indices[nnz:end] = key % n2
        row_nnz.append(np.bincount(key // n2, minlength=cfg.n_offsets))
        nnz = end
    if nnz >= 2 ** 31:
        raise ValueError(f"{nnz} entries overflow 32-bit CSR indices")
    indptr = np.cumsum(np.concatenate(row_nnz)).astype(np.int32)
    return sparse.csr_array((data[:nnz], indices[:nnz], indptr),
                            shape=(cfg.n_angles * cfg.n_offsets, n2))


def _grow(buf: np.ndarray, used: int, size: int) -> np.ndarray:
    """``buf`` with room for ``size`` entries (capacity doubles), keeping
    its first ``used``.  Each buffer is its own anonymous memory map: the
    cached operator stays out of the malloc heap, where it would keep the
    build's freed temporaries resident, and unwritten pages cost nothing.
    """
    if size <= buf.size:
        return buf
    cap = max(2 * buf.size, size)
    out = np.frombuffer(mmap.mmap(-1, cap * buf.itemsize), dtype=buf.dtype)
    out[:used] = buf[:used]
    return out


def radon_forward(image: np.ndarray, cfg: RadonConfig) -> np.ndarray:
    """Line integrals of a grid image, bilinear sampling at half-pixel steps:
    the sinogram, shape (n_offsets, n_angles)."""
    g = cfg.grid
    n = g.n_grid
    if image.shape != (n, n):
        raise ValueError(f"image shape {image.shape}, expected {(n, n)}")
    vals = _operator(cfg) @ np.asarray(image, dtype=float).ravel()
    return vals.reshape(cfg.n_angles, cfg.n_offsets).T


def _check_sinogram(g: np.ndarray, cfg: RadonConfig) -> None:
    want = (cfg.n_offsets, cfg.n_angles)
    if g.shape != want:
        raise ValueError(f"sinogram shape {g.shape}, expected {want}")


def _support_touches_boundary(image: np.ndarray, cfg: RadonConfig) -> bool:
    """Whether the image exceeds 1e-12 of its peak within two pixels of
    the largest offset s_max, the edge of the sampled lines."""
    g = cfg.grid
    r = np.sqrt(sum(np.square(ax) for ax in g.x_mesh()))
    return bool(np.any((r > cfg.s_max - 2 * g.dx)
                       & (np.abs(image) > 1e-12 * max(np.abs(image).max(),
                                                      1e-300))))


def radon_adjoint(g: np.ndarray, cfg: RadonConfig) -> np.ndarray:
    """Exact discrete adjoint under the quadrature inner products."""
    _check_sinogram(g, cfg)
    n = cfg.grid.n_grid
    scale = cfg.ds * cfg.dtheta / cfg.grid.l2_weight()
    return scale * (_operator(cfg).T @ g.T.ravel()).reshape(n, n)


def ramp_filter(g: np.ndarray, cfg: RadonConfig) -> np.ndarray:
    """Per-angle 1D ramp filter in the offset variable.

    Uses the band-limited discrete ramp (Ram-Lak) kernel applied by
    zero-padded linear convolution; unlike a plain |sigma| multiplier on
    the circular FFT, it keeps the correct DC weight and avoids wrap
    artifacts.
    """
    _check_sinogram(g, cfg)
    n = cfg.n_offsets
    npad = 1 << int(np.ceil(np.log2(2 * n)))
    lag = np.fft.fftfreq(npad, d=1.0 / npad).astype(np.int64)
    kern = np.zeros(npad)
    kern[lag == 0] = 1.0 / (4.0 * cfg.ds ** 2)
    odd = lag % 2 != 0
    kern[odd] = -1.0 / (np.pi * lag[odd] * cfg.ds) ** 2
    filt = np.fft.fft(kern)[:, None]
    padded = np.zeros((npad, cfg.n_angles))
    padded[:n] = g
    vals = np.fft.ifft(filt * np.fft.fft(padded, axis=0), axis=0).real[:n]
    vals *= 2.0 * np.pi * cfg.ds
    return vals


@functools.cache
def fbp_constant(cfg: RadonConfig) -> float:
    """Inversion constant fitted once per geometry on a calibration Gaussian."""
    truth = phantom("gaussian", cfg.grid)
    recon = radon_adjoint(ramp_filter(radon_forward(truth, cfg), cfg), cfg)
    return float((recon * recon).sum() / (recon * truth).sum())


def fbp_invert(g: np.ndarray, cfg: RadonConfig) -> np.ndarray:
    """Filtered backprojection: ramp filter, backproject, fixed constant."""
    return radon_adjoint(ramp_filter(g, cfg), cfg) / fbp_constant(cfg)


# Rays per dense block of the Gram sum (8 MiB at n_grid 32): at n_grid 32,
# 180 angles, 129 offsets and 553 columns, 0.14 s on 2-core x86-64.
_GRAM_ROWS = 1024


def _gram(cfg: RadonConfig, cols: np.ndarray) -> np.ndarray:
    """R^T R restricted to the given pixel columns, summed as B^T B over
    dense blocks B of _GRAM_ROWS rays, each filled by ``np.add.at`` from
    the samples of the angles it spans; neither R nor its CSR is formed."""
    where = np.full(cfg.grid.n_grid ** 2 + 1, -1)  # where[-1]: off the image
    where[cols] = np.arange(cols.size)
    gram, lo = np.zeros((cols.size, cols.size)), 0
    block = np.zeros(_GRAM_ROWS * cols.size)
    for angle, theta in enumerate(cfg.angles()):
        rows, pix, w = _corners(cfg, theta)
        rays, end = angle * cfg.n_offsets + rows, (angle + 1) * cfg.n_offsets
        while lo < end:
            hi = min(lo + _GRAM_ROWS, cfg.n_angles * cfg.n_offsets)
            s = slice(*np.searchsorted(rays, [lo, hi]))
            col = where[pix[:, s]]
            np.add.at(block, ((rays[s] - lo) * cols.size + col)[col >= 0],
                      w[:, s][col >= 0])
            if hi > end:  # the next angle continues this block
                break
            b = block[:(hi - lo) * cols.size].reshape(hi - lo, -1)
            gram += b.T @ b
            b[:] = 0.0
            lo = hi
    return gram * cfg.dt ** 2


def phantom(name: str, grid: GridSpec) -> np.ndarray:
    """Built-in test images: unit-disc indicator, Gaussian, two Gaussians."""
    mesh = grid.x_mesh()
    r2 = sum(np.square(ax) for ax in mesh)
    if name == "disc":
        return (r2 <= 1.0).astype(float)
    if name == "gaussian":
        sigma = 0.2 * grid.half_width
        return np.exp(-r2 / (2.0 * sigma ** 2))
    if name == "two-bumps":
        sigma = 0.12 * grid.half_width
        c = 0.4 * grid.half_width
        q1 = sum(np.square(ax - (c if i == 0 else 0.0))
                 for i, ax in enumerate(mesh))
        q2 = sum(np.square(ax + (c if i == 1 else 0.0))
                 for i, ax in enumerate(mesh))
        return np.exp(-q1 / (2 * sigma ** 2)) + 0.7 * np.exp(-q2 / (2 * sigma ** 2))
    raise ValueError(f"unknown phantom {name!r}")


def normal_operator_exponent(cfg: RadonConfig) -> dict:
    """Fourier-domain power fit of R*R applied to a broadband Gaussian."""
    g = cfg.grid
    sigma = 0.06 * g.half_width
    mesh = g.x_mesh()
    f = np.exp(-sum(np.square(ax) for ax in mesh) / (2.0 * sigma ** 2))
    nf = radon_adjoint(radon_forward(f, cfg), cfg)
    fh = np.fft.fftshift(np.fft.fftn(f))
    nh = np.fft.fftshift(np.fft.fftn(nf))
    xi = np.meshgrid(g.xi_axis(), g.xi_axis(), indexing="ij")
    xin = np.sqrt(sum(np.square(ax) for ax in xi))
    nyq = g.xi_max
    mask = (np.abs(fh) > 1e-3 * np.abs(fh).max()) \
        & (xin > 0.03 * nyq) & (xin < 0.4 * nyq)
    ratio = np.abs(nh[mask]) / np.abs(fh[mask])
    slope, _ = np.polyfit(np.log(xin[mask]), np.log(ratio), 1)
    return {"exponent": float(slope), "points": int(mask.sum())}


def radon_block_experiment(a: GridSymbol, part: Partition, chi: np.ndarray,
                           k_range, cfg: RadonConfig,
                           m2: float) -> tuple[list[dict], float]:
    """Norms of the bandwise Radon blocks R chi Op^w(a sum_j Lambda_{j,k}) chi
    against the 2^{k(m2 - 1/2)} scale.

    Blocks aggregate each band's patches through sum_j Lambda_{j,k}: at
    desk-scale frequency lattices the unit patch bumps are sub-grid, while
    the band aggregate is faithfully sampled; per-band scaling is what the
    slope fit measures.  Norms are L2(dA) -> L2(ds dtheta).

    R is the same for every band, so only ``G = R^T R`` is kept:
    ``||R C|| = sqrt(lambda_max(C^H G C))`` for ``C = chi op chi``, scaled
    to a largest entry of 1 first.  C is zero off the rows and columns
    where chi > 0, and so is the rest of C^H G C, so only those rows and
    columns are kept, and G is summed on them from the sparse operator
    (``_gram``).  Every k of k_range must be a built band.
    """
    if not set(k_range) <= set(part.nets):
        raise ValueError(f"k_range reaches past bands "
                         f"{part.k_min}..{part.k_max}")
    on = np.flatnonzero(chi)
    gram = _gram(cfg, on)
    scale = np.sqrt(cfg.ds * cfg.dtheta / cfg.grid.l2_weight())
    rows = []
    for k in k_range:
        lam = band_sum_symbol(part, k, a.grid)
        c = cut(weyl_quantize(a, weight=lam.values)[np.ix_(on, on)],
                chi.ravel()[on])
        del lam  # two band localizers are never alive at once
        peak = np.abs(c).max(initial=0.0)
        c /= peak if peak > 0.0 else 1.0
        norm = scale * peak * float(
            np.sqrt(_top_eigenvalue(c.conj().T @ (gram @ c))))
        rows.append({"k": k, "norm": norm,
                     "renorm_ratio": norm / 2.0 ** (k * (m2 - 0.5))})
    return rows, fit_log2_slope(rows)


def radon_recombine(blocks, reference: np.ndarray, cfg: RadonConfig,
                    active_bands=None) -> dict:
    """Cotlar certificate, discrepancy and tails for the blocks R T.

    ``blocks`` is a stream of ``((j, k), dense image-space block T)``
    pairs, read once; blocks and reference are already composed with
    their cutoffs.  The cached R and the quadrature scale are applied
    here, one block at a time, so pair norms are adjoint-consistent
    L2(dA) -> L2(ds dtheta) norms.
    """
    r = _operator(cfg)
    scale = np.sqrt(cfg.ds * cfg.dtheta / cfg.grid.l2_weight())
    return recombine_sum(((idx, scale * (r @ m)) for idx, m in blocks),
                         scale * (r @ reference), active_bands)
