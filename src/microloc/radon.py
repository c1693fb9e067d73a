"""2D Radon transform, exact discrete adjoint, FBP inversion, block scaling.

Lines are parametrized as x . omega = s with omega on the half circle;
line integrals use bilinear interpolation with half-pixel stepping.  The
adjoint is the exact transpose of the interpolating forward map under the
quadrature inner products (dA on images, ds dtheta on sinograms), so the
duality defect is at rounding level.  Filtered backprojection applies the
ramp |sigma| per angle and divides by a constant fitted once on a
calibration Gaussian.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import backend
from .grids import GridSpec, GridSymbol
from .partition import Partition, band_sum_symbol
from .quantize import _specnorm, fit_log2_slope, weyl_quantize
from .recombine import CoverageGapError, _cotlar_certificate

_PAD = 2


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
    """Padded-image bilinear indices and weights for one angle."""
    g = cfg.grid
    n = g.n_grid
    s = cfg.offsets()
    nt = int(np.ceil(2.0 * cfg.s_max / cfg.dt)) + 1
    t = np.linspace(-cfg.s_max, cfg.s_max, nt)
    omega = np.array([np.cos(theta), np.sin(theta)])
    perp = np.array([-omega[1], omega[0]])
    x1 = s[:, None] * omega[0] + t[None, :] * perp[0]
    x2 = s[:, None] * omega[1] + t[None, :] * perp[1]
    f1 = (x1 + g.half_width) / g.dx
    f2 = (x2 + g.half_width) / g.dx
    a = np.floor(f1).astype(np.int64)
    b = np.floor(f2).astype(np.int64)
    wx = f1 - a
    wy = f2 - b
    inside = (a >= -1) & (a <= n - 1) & (b >= -1) & (b <= n - 1)
    ix = np.where(inside, a + _PAD, 0)
    iy = np.where(inside, b + _PAD, 0)
    wx = np.where(inside, wx, 0.0)
    wy = np.where(inside, wy, 0.0)
    return np.ascontiguousarray(ix), np.ascontiguousarray(iy), \
        np.ascontiguousarray(wx), np.ascontiguousarray(wy)


def _pad(image: np.ndarray) -> np.ndarray:
    return np.pad(image, _PAD)


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
    padded = _pad(np.asarray(image, dtype=float))
    out = np.empty((cfg.n_offsets, cfg.n_angles))
    for ai, theta in enumerate(cfg.angles()):
        ix, iy, wx, wy = _angle_geometry(cfg, theta)
        out[:, ai] = backend.radon_gather(padded, ix, iy, wx, wy, cfg.dt)
    return Sinogram(values=out, config=cfg,
                    meta={"support_touches_boundary": boundary})


def radon_adjoint(g: Sinogram) -> np.ndarray:
    """Exact discrete adjoint under the quadrature inner products."""
    cfg = g.config
    n = cfg.grid.n_grid
    npad = n + 2 * _PAD
    acc = np.zeros(npad * npad)
    for ai, theta in enumerate(cfg.angles()):
        ix, iy, wx, wy = _angle_geometry(cfg, theta)
        col = g.values[:, ai][:, None] * cfg.dt
        flat = ix * npad + iy
        acc += np.bincount(flat.ravel(),
                           ((1.0 - wx) * (1.0 - wy) * col).ravel(),
                           minlength=npad * npad)
        acc += np.bincount((flat + npad).ravel(),
                           (wx * (1.0 - wy) * col).ravel(),
                           minlength=npad * npad)
        acc += np.bincount((flat + 1).ravel(),
                           ((1.0 - wx) * wy * col).ravel(),
                           minlength=npad * npad)
        acc += np.bincount((flat + npad + 1).ravel(),
                           (wx * wy * col).ravel(),
                           minlength=npad * npad)
    scale = cfg.ds * cfg.dtheta / cfg.grid.l2_weight()
    img = acc.reshape(npad, npad)[_PAD:_PAD + n, _PAD:_PAD + n]
    return scale * img


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


_CALIBRATION: dict[tuple, float] = {}


def fbp_constant(cfg: RadonConfig) -> float:
    """Inversion constant fitted once per geometry on a calibration Gaussian."""
    key = (cfg.grid.n_grid, cfg.grid.half_width, cfg.n_angles, cfg.n_offsets)
    if key not in _CALIBRATION:
        sigma = 0.2 * cfg.grid.half_width
        mesh = cfg.grid.x_mesh()
        truth = np.exp(-sum(np.square(ax) for ax in mesh)
                       / (2.0 * sigma ** 2))
        recon = radon_adjoint(ramp_filter(radon_forward(truth, cfg)))
        _CALIBRATION[key] = float((recon * recon).sum() / (recon * truth).sum())
    return _CALIBRATION[key]


def fbp_invert(g: Sinogram, kind: str = "ramp") -> np.ndarray:
    """Filtered backprojection: ramp filter, backproject, fixed constant."""
    return radon_adjoint(ramp_filter(g, kind)) / fbp_constant(g.config)


def radon_matrix(cfg: RadonConfig) -> np.ndarray:
    """Dense forward matrix, shape (n_offsets * n_angles, n_grid^2).

    Row order is offset-major per angle, matching flattened sinograms of
    shape (n_offsets, n_angles) in column slices.
    """
    n = cfg.grid.n_grid
    npad = n + 2 * _PAD
    cols_keep = (np.arange(npad) >= _PAD) & (np.arange(npad) < _PAD + n)
    keep = np.outer(cols_keep, cols_keep).ravel()
    rows = []
    for theta in cfg.angles():
        ix, iy, wx, wy = _angle_geometry(cfg, theta)
        block = backend.radon_matrix_block(ix, iy, wx, wy, cfg.dt, npad)
        rows.append(np.asarray(block)[:, keep])
    # interleave so flat index = offset * n_angles + angle
    stacked = np.stack(rows, axis=1)
    return stacked.reshape(cfg.n_offsets * cfg.n_angles, n * n)


def phantom(name: str, grid: GridSpec, radius: float = 1.0) -> np.ndarray:
    """Built-in test images: disc indicator, Gaussian, two Gaussians."""
    mesh = grid.x_mesh()
    r2 = sum(np.square(ax) for ax in mesh)
    if name == "disc":
        return (r2 <= radius ** 2).astype(float)
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


def normal_operator_exponent(cfg: RadonConfig,
                             sigma: float | None = None) -> dict:
    """Fourier-domain power fit of R*R applied to a broadband Gaussian."""
    g = cfg.grid
    if sigma is None:
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

    The sinogram cutoff side ``chi_sino R`` is the same for every band, so
    it is reduced once to its triangular QR factor ``R0``:
    ``||chi_sino R X|| = ||R0 X||``, since ``Q`` has orthonormal columns.
    """
    r0 = np.linalg.qr(chi_sino.ravel()[:, None] * radon_matrix(cfg),
                      mode="r")
    scale = np.sqrt(cfg.ds * cfg.dtheta / cfg.grid.l2_weight())
    rows = []
    for k in k_range:
        if k not in part.nets or part.nets[k].size == 0:
            rows.append({"k": k, "norm": float("nan"),
                         "renorm_ratio": float("nan"), "skipped": True})
            continue
        lam = band_sum_symbol(part, k, a.grid)
        op = weyl_quantize(GridSymbol(grid=a.grid,
                                      values=a.values * lam.values))
        norm = scale * _specnorm(r0 @ (chi_img.ravel()[:, None] * op.matrix
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
    if active_bands is not None:
        have = {k for ((_, k), _) in blocks}
        missing = set(active_bands) - have
        if missing:
            raise CoverageGapError(missing)
    scale = np.sqrt(cfg.ds * cfg.dtheta / cfg.grid.l2_weight())
    mats = [scale * m for (_, m) in blocks]
    cert = _cotlar_certificate(mats, [idx for (idx, _) in blocks])
    ref = scale * reference
    ref_norm = _specnorm(ref)
    disc = _specnorm(sum(mats) - ref)
    return {
        "certificate": cert,
        "reference_norm": ref_norm,
        "discrepancy": disc,
        "relative_discrepancy": disc / ref_norm if ref_norm > 0 else 0.0,
    }
