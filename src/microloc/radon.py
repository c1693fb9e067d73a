"""2D Radon transform, exact discrete adjoint, FBP inversion, block scaling.

Lines x . omega = s, omega on the half circle, are sampled at half-pixel
steps with bilinear interpolation (an interpolating projector of the
Joseph 1982 family).  Each geometry is built once, in numpy, into the
CSR arrays of a sparse matrix R; the latest geometry's arrays are cached.
``radon_matrix`` fills a dense R from them, so ``radon-block`` needs no
scipy.  The forward map ``R @ f`` and the adjoint under the quadrature
inner products (dA on images, ds dtheta on sinograms), the quadrature
scale times ``R.T @ g``, wrap the same arrays in a ``scipy.sparse`` matrix
at call time; the adjoint is an exact transpose by construction.  Filtered
backprojection applies the ramp |sigma| per angle and divides by a
constant fitted once per geometry.
"""

from __future__ import annotations

import functools
import json
import mmap
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .grids import GridSpec, GridSymbol
from .partition import Partition, band_sum_symbol
from .quantize import fit_log2_slope, spectral_norm, weyl_quantize
from .recombine import _recombination

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


@dataclass
class Sinogram:
    values: np.ndarray
    config: RadonConfig
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        want = (self.config.n_offsets, self.config.n_angles)
        if self.values.shape != want:
            raise ValueError(f"sinogram shape {self.values.shape}, "
                             f"expected {want}")


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


@functools.lru_cache(maxsize=1)
def _operator(cfg: RadonConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The forward map as CSR arrays ``(data, indices, indptr)``, built in
    numpy once per geometry.

    Row ``angle * n_offsets + offset`` holds ``dt`` times the bilinear
    weights of that line's samples, summed per pixel, at column
    ``i * n_grid + j`` for pixel ``(i, j)``; its columns increase.  Per
    angle, consecutive samples of a line in the same cell share their four
    corners and are merged first; the corner entries are then keyed by
    ``offset * n_grid^2 + column`` (int64: the product can pass 2^31),
    sorted, summed per key with ``np.add.reduceat`` and counted per row
    with ``np.bincount``, straight into growing entry buffers.  Only the
    most recent geometry is kept, so a large operator is freed once a
    caller moves on to another geometry.
    """
    n = cfg.grid.n_grid
    n2 = n * n
    data, indices, nnz = np.empty(0), np.empty(0, dtype=np.int32), 0
    row_nnz = [np.zeros(1, dtype=np.int64)]
    for theta in cfg.angles():
        rows, a, b, wx, wy = _angle_geometry(cfg, theta)
        cell = (rows.astype(np.int64) * (n + 1) + a + 1) * (n + 1) + b + 1
        run = np.flatnonzero(np.diff(cell, prepend=-1))
        w = np.add.reduceat(np.stack(((1.0 - wx) * (1.0 - wy),
                                      wx * (1.0 - wy),
                                      (1.0 - wx) * wy, wx * wy)),
                            run, axis=1).ravel()
        rows, a, b = rows[run], a[run], b[run]
        i = np.concatenate((a, a + 1, a, a + 1))
        j = np.concatenate((b, b, b + 1, b + 1))
        keep = (i >= 0) & (i < n) & (j >= 0) & (j < n)
        key = (np.tile(rows, 4).astype(np.int64) * n2 + i * n + j)[keep]
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
    return data[:nnz], indices[:nnz], indptr


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


def _csr(cfg: RadonConfig) -> sparse.csr_array:
    """The cached operator's arrays wrapped, without a copy, as a scipy CSR
    matrix for the forward and adjoint products.  scipy.sparse is imported
    here, so only a matrix-vector product loads scipy."""
    from scipy import sparse

    n = cfg.grid.n_grid
    return sparse.csr_array(_operator(cfg),
                            shape=(cfg.n_angles * cfg.n_offsets, n * n))


def radon_forward(image: np.ndarray, cfg: RadonConfig) -> Sinogram:
    """Line integrals of a grid image; bilinear sampling at half-pixel steps."""
    g = cfg.grid
    n = g.n_grid
    if image.shape != (n, n):
        raise ValueError(f"image shape {image.shape}, expected {(n, n)}")
    mesh = g.x_mesh()
    r = np.sqrt(sum(np.square(ax) for ax in mesh))
    boundary = bool(np.any((r > cfg.s_max - 2 * g.dx)
                           & (np.abs(image) > 1e-12 * max(np.abs(image).max(),
                                                          1e-300))))
    vals = _csr(cfg) @ np.asarray(image, dtype=float).ravel()
    return Sinogram(values=vals.reshape(cfg.n_angles, cfg.n_offsets).T,
                    config=cfg, meta={"support_touches_boundary": boundary})


def radon_adjoint(g: Sinogram) -> np.ndarray:
    """Exact discrete adjoint under the quadrature inner products."""
    cfg = g.config
    n = cfg.grid.n_grid
    scale = cfg.ds * cfg.dtheta / cfg.grid.l2_weight()
    return scale * (_csr(cfg).T @ g.values.T.ravel()).reshape(n, n)


def ramp_filter(g: Sinogram, kind: str = "ramp") -> Sinogram:
    """Per-angle 1D ramp filter in the offset variable.

    Uses the band-limited discrete ramp (Ram-Lak) kernel applied by
    zero-padded linear convolution; unlike a plain |sigma| multiplier on
    the circular FFT, it keeps the correct DC weight and avoids wrap
    artifacts.
    """
    if kind == "none":
        return Sinogram(values=g.values.copy(), config=g.config,
                        meta=dict(g.meta))
    if kind != "ramp":
        raise ValueError(f"unknown filter {kind!r}")
    cfg = g.config
    n = cfg.n_offsets
    npad = 1 << int(np.ceil(np.log2(2 * n)))
    lag = np.fft.fftfreq(npad, d=1.0 / npad).astype(np.int64)
    kern = np.zeros(npad)
    kern[lag == 0] = 1.0 / (4.0 * cfg.ds ** 2)
    odd = lag % 2 != 0
    kern[odd] = -1.0 / (np.pi * lag[odd] * cfg.ds) ** 2
    filt = np.fft.fft(kern)[:, None]
    padded = np.zeros((npad, cfg.n_angles))
    padded[:n] = g.values
    vals = np.fft.ifft(filt * np.fft.fft(padded, axis=0), axis=0).real[:n]
    vals *= 2.0 * np.pi * cfg.ds
    return Sinogram(values=vals, config=cfg, meta=dict(g.meta))


@functools.cache
def fbp_constant(cfg: RadonConfig) -> float:
    """Inversion constant fitted once per geometry on a calibration Gaussian."""
    truth = phantom("gaussian", cfg.grid)
    recon = radon_adjoint(ramp_filter(radon_forward(truth, cfg)))
    return float((recon * recon).sum() / (recon * truth).sum())


def fbp_invert(g: Sinogram, kind: str = "ramp") -> np.ndarray:
    """Filtered backprojection: ramp filter, backproject, fixed constant."""
    return radon_adjoint(ramp_filter(g, kind)) / fbp_constant(g.config)


def radon_matrix(cfg: RadonConfig) -> np.ndarray:
    """Dense forward matrix, shape (n_offsets * n_angles, n_grid^2); row
    ``offset * n_angles + angle`` matches flattened (n_offsets, n_angles)
    sinograms.  Filled straight from the CSR arrays."""
    data, indices, indptr = _operator(cfg)
    rays = np.arange(cfg.n_angles * cfg.n_offsets)
    dest = rays % cfg.n_offsets * cfg.n_angles + rays // cfg.n_offsets
    dense = np.zeros((rays.size, cfg.grid.n_grid ** 2))
    dense[np.repeat(dest, np.diff(indptr)), indices] = data
    return dense


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


def save_array(path: str, arr: np.ndarray, extent: float) -> None:
    """Flat binary float64 with a JSON sidecar header."""
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    tmp = path + ".tmp"
    arr.tofile(tmp)
    os.replace(tmp, path)
    header = {"shape": list(arr.shape), "extent": extent,
              "dtype": "float64", "order": "row-major"}
    htmp = path + ".json.tmp"
    with open(htmp, "w") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
    os.replace(htmp, path + ".json")


def load_array(path: str) -> tuple[np.ndarray, dict]:
    with open(path + ".json") as fh:
        header = json.load(fh)
    arr = np.fromfile(path, dtype=np.float64).reshape(header["shape"])
    return arr, header


def normal_operator_exponent(cfg: RadonConfig) -> dict:
    """Fourier-domain power fit of R*R applied to a broadband Gaussian."""
    g = cfg.grid
    sigma = 0.06 * g.half_width
    mesh = g.x_mesh()
    f = np.exp(-sum(np.square(ax) for ax in mesh) / (2.0 * sigma ** 2))
    nf = radon_adjoint(radon_forward(f, cfg))
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


def radon_block_experiment(a: GridSymbol, part: Partition,
                           chi_sino: np.ndarray, chi_img: np.ndarray,
                           chi_img_prime: np.ndarray, k_range,
                           cfg: RadonConfig,
                           m2: float) -> tuple[list[dict], float]:
    """Norms of bandwise Radon blocks against the 2^{k(m2 - 1/2)} scale.

    Blocks aggregate each band's patches through sum_j Lambda_{j,k}: at
    desk-scale frequency lattices the unit patch bumps are sub-grid, while
    the band aggregate is faithfully sampled; per-band scaling is what the
    slope fit measures.  Norms are L2(dA) -> L2(ds dtheta).

    The sinogram cutoff side ``M = chi_sino R`` is the same for every band,
    so it is reduced once to a square factor of its Gram matrix: with
    ``M^T M = V W V^T``, ``R0 = W^{1/2} V^T`` has ``R0^T R0 = M^T M``, so
    ``||M X|| = ||R0 X||``.  Unlike a QR factor, this makes no working
    copy of the dense ``M``.
    """
    m = radon_matrix(cfg)
    m *= chi_sino.ravel()[:, None]
    w, v = np.linalg.eigh(m.T @ m)
    del m  # not resident through the band loop
    r0 = np.sqrt(np.maximum(w, 0.0))[:, None] * v.T
    scale = np.sqrt(cfg.ds * cfg.dtheta / cfg.grid.l2_weight())
    rows = []
    for k in k_range:
        if k not in part.nets or part.nets[k].size == 0:
            rows.append({"k": k, "norm": float("nan"),
                         "renorm_ratio": float("nan"), "skipped": True})
            continue
        lam = band_sum_symbol(part, k, a.grid)
        op = weyl_quantize(a, weight=lam.values)
        del lam  # two band localizers are never alive at once
        norm = scale * spectral_norm(r0 @ (chi_img.ravel()[:, None]
                                           * op.matrix
                                           * chi_img_prime.ravel()[None, :]))
        rows.append({"k": k, "norm": norm,
                     "renorm_ratio": norm / 2.0 ** (k * (m2 - 0.5)),
                     "skipped": False})
    ks = [r["k"] for r in rows if not r["skipped"]]
    vals = [r["norm"] for r in rows if not r["skipped"]]
    slope = fit_log2_slope(ks, vals) if len(ks) >= 2 else float("nan")
    return rows, slope


def radon_recombine(blocks: list[tuple[tuple[int, int], np.ndarray]],
                    reference: np.ndarray, cfg: RadonConfig,
                    active_bands=None) -> dict:
    """Cotlar certificate and discrepancy for sinogram-valued blocks.

    Blocks and reference are dense (sinogram x image) matrices already
    composed with their cutoffs; quadrature weights are applied here so
    pair norms are adjoint-consistent.
    """
    scale = np.sqrt(cfg.ds * cfg.dtheta / cfg.grid.l2_weight())
    return _recombination([scale * m for (_, m) in blocks], scale * reference,
                          [idx for (idx, _) in blocks], active_bands)
