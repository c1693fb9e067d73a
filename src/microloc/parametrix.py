"""Patchwise microlocal parametrix with truncated-Moyal corrections.

Per patch the leading symbol is q0 = Lambda_{j,k} / p (with the
ellipticity floor checked on the patch support).  The patch symbols share
one pair of spatial cutoffs, so the block sum collapses to
Q = chi0 Op^w(sum_j q_{j,k}) chi0'; the optional Neumann corrections are
therefore applied to the aggregate, q <- q + (Lambda_sum - q # p)_N / p,
each step damped (rejected unless it lowers the operator residual on
covered frequencies).  Correcting per patch instead would break the
cancellation between neighboring localizers (their derivatives telescope
only in the sum) and amplify discretization noise.  Parametrix quality
is measured by ||Q Op^w(p) u - u|| / ||u|| on microlocalized test
functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import GridSpec, GridSymbol
from .moyal import MoyalTruncation, moyal_truncated
from .partition import Partition, localizer_symbol, rho
from .quantize import (DiscreteOperator, fourier_weighted, spectral_norm,
                       weyl_quantize)


class PatchRejectedError(ValueError):
    """Ellipticity floor violated on a patch support."""


@dataclass(frozen=True)
class EllipticSymbol:
    """Symbol p with ellipticity floor c0 beyond fiber radius big_r."""

    symbol: GridSymbol
    m2: float
    c0: float
    big_r: float


@dataclass
class Parametrix:
    operator: DiscreteOperator
    composition: np.ndarray  # the matrix of Q Op^w(p)
    order: int
    partition: Partition
    chi0: np.ndarray
    chi0_prime: np.ndarray
    covered_bands: list[int]
    excluded: list[tuple[int, int]] = field(default_factory=list)
    step_residuals: dict = field(default_factory=dict)


def _below_floor(p: EllipticSymbol, part: Partition,
                 grid: GridSpec) -> np.ndarray:
    """Lattice points where |p| < c0 (1 + |T_x xi|)^m2 / 2 and |T_x xi| >= big_r.

    Shape (x points, xi points) of the doubled lattice.  The mask does not
    depend on the patch, so it is computed once per grid.
    """
    xi_pts, t_uniq, inv, _ = part._grid_sample(grid)
    fn = np.linalg.norm(xi_pts @ t_uniq.transpose(0, 2, 1), axis=-1)[inv]
    floor = 0.5 * p.c0 * (1.0 + fn) ** p.m2
    return (np.abs(p.symbol.values.reshape(fn.shape)) < floor) \
        & (fn >= p.big_r)


def bandwise_inverse(p: EllipticSymbol, lam: GridSymbol,
                     below_floor: np.ndarray) -> GridSymbol:
    """(p^{-1})_{j,k} = Lambda_{j,k} / p, zero off the patch support.

    ``lam`` is the patch's sampled localizer and ``below_floor`` the
    ellipticity-floor mask of ``_below_floor`` on the same grid; a patch
    whose support meets the mask is rejected.
    """
    sup = np.abs(lam.values) > 0.0
    bad = sup.reshape(below_floor.shape) & below_floor
    if bad.any():
        x_idx, xi_idx = np.argwhere(bad)[0]
        raise PatchRejectedError(
            "|p| below the ellipticity floor on the patch support at flat "
            f"grid point (x={int(x_idx)}, xi={int(xi_idx)})")
    vals = np.zeros(lam.values.shape,
                    dtype=np.result_type(lam.values, p.symbol.values))
    vals[sup] = lam.values[sup] / p.symbol.values[sup]
    return GridSymbol(grid=lam.grid, values=vals)


def _plateau(chi0: np.ndarray, chi0_prime: np.ndarray) -> np.ndarray:
    """Lattice points where both cutoffs equal 1."""
    return (chi0 >= 1.0 - 1e-9) & (chi0_prime >= 1.0 - 1e-9)


def build_parametrix(p: EllipticSymbol, part: Partition, order: int,
                     chi0: np.ndarray, chi0_prime: np.ndarray,
                     grid: GridSpec) -> Parametrix:
    """Assemble Q = sum chi0 Op^w(q^N_{j,k}) chi0' over accepted patches."""
    if not 1 <= order <= 3:
        raise ValueError("correction order must lie in 1..3")
    trunc = MoyalTruncation(order=order, h=1.0)
    excluded: list[tuple[int, int]] = []
    covered = set()

    below_floor = _below_floor(p, part, grid)
    q_sum = lam_sum = None
    for k in part.bands:
        for j in range(part.nets[k].size):
            lam = localizer_symbol(part, j, k, grid)
            try:
                q0 = bandwise_inverse(p, lam, below_floor)
            except PatchRejectedError:
                excluded.append((j, k))
                continue
            if q_sum is None:
                q_sum, lam_sum = q0.values, lam.values
            else:
                q_sum += q0.values
                lam_sum += lam.values
            covered.add(k)
    if not covered:
        raise PatchRejectedError("every patch was rejected; no parametrix")

    # the damping judges each candidate by the operator residual
    # ||(Q Op(p) - I) restricted to covered frequencies and the cutoff
    # plateau||; symbol-level residual sups are unreliable here because
    # spectral derivatives of the aggregate symbol ring off the coverage
    # boundary
    kp = weyl_quantize(p.symbol).matrix
    eye = np.eye(grid.npoints())
    plateau = _plateau(chi0, chi0_prime).ravel()
    xi_ok = covered_xi_mask(part, grid, sorted(covered))

    def assemble(sym: GridSymbol):
        """Q = chi0 Op^w(sym) chi0', Q Op^w(p) and the operator residual
        ||(Q Op^w(p) - I) plateau Pi_covered||."""
        total = chi0.ravel()[:, None] * weyl_quantize(sym).matrix \
            * chi0_prime.ravel()[None, :]
        comp = total @ kp
        return total, comp, spectral_norm(
            fourier_weighted((comp - eye) * plateau, grid, w_in=xi_ok))

    q = GridSymbol(grid=grid, values=q_sum)
    total, comp, first = assemble(q)
    hist = [first]
    for _ in range(order - 1):
        res = lam_sum - moyal_truncated(q, p.symbol, trunc).values
        corr = np.zeros_like(res)
        nz = np.abs(res) > 0.0
        corr[nz] = res[nz] / p.symbol.values[nz]
        cand = GridSymbol(grid=grid, values=q.values + corr)
        cand_total, cand_comp, cand_res = assemble(cand)
        if not cand_res < hist[-1] * (1.0 - 1e-12):
            # damping: keep the previous iterate unless the residual drops
            # by more than rounding
            break
        q, total, comp = cand, cand_total, cand_comp
        hist.append(cand_res)
    return Parametrix(operator=DiscreteOperator(matrix=total, grid=grid),
                      composition=comp, order=order, partition=part, chi0=chi0,
                      chi0_prime=chi0_prime,
                      covered_bands=sorted(covered), excluded=excluded,
                      step_residuals={"aggregate": hist})


def covered_xi_mask(part: Partition, grid: GridSpec,
                    covered_bands) -> np.ndarray:
    """Lattice frequencies whose every active band is built and covered.

    Uses the metric's spectral window, so the mask is valid for every
    base point at once.
    """
    bands = set(covered_bands)
    mesh = grid.xi_mesh()
    xin = np.sqrt(sum(np.square(ax) for ax in mesh))
    lo = np.sqrt(part.metric.lambda_min) * xin
    hi = np.sqrt(part.metric.lambda_max) * xin
    mask = (lo >= 2.0 ** min(bands)) & (hi < 2.0 ** (max(bands) + 1))
    for k in range(min(bands) - 4, max(bands) + 5):
        needed = (rho(xin / 2.0 ** k) > 0.0) \
            & (2.0 ** k <= hi + 1.0) & (2.0 ** (k + 1) > lo - 1.0)
        if k not in bands:
            mask &= ~needed
    return mask


def gaussian_wavepacket(grid: GridSpec, x0, xi0, sigma: float) -> np.ndarray:
    """bump(x - x0) e^{i xi0 . x} test function on the spatial lattice."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    xi0 = np.atleast_1d(np.asarray(xi0, dtype=float))
    mesh = grid.x_mesh()
    q = sum(np.square(ax - c) for ax, c in zip(mesh, x0))
    phase = sum(ax * c for ax, c in zip(mesh, xi0))
    return np.exp(-q / (2.0 * sigma ** 2)) * np.exp(1j * phase)


def parametrix_residual(px: Parametrix, test_functions,
                        grid: GridSpec) -> dict:
    """Relative errors ||Q Op(p) u - u|| / ||u|| over admissible u.

    Test functions must be frequency-supported (to 1e-8 energy fraction)
    in the covered-band region and spatially supported on the plateau of
    both cutoffs; others are rejected with a reason.  The operator
    residual is the accepted iterate's, as ``build_parametrix`` computed it.
    """
    comp = px.composition
    xi_ok = covered_xi_mask(px.partition, grid, px.covered_bands)
    plateau = _plateau(px.chi0, px.chi0_prime)

    rels, rejected = [], []
    for idx, u in enumerate(test_functions):
        u = np.asarray(u, dtype=complex)
        total = float(np.vdot(u, u).real)
        if total == 0.0:
            rejected.append({"index": idx, "reason": "zero function"})
            continue
        uh = np.fft.fftshift(np.fft.fftn(u))
        out_freq = float(np.sum(np.abs(uh[~xi_ok]) ** 2) / np.sum(np.abs(uh) ** 2))
        if out_freq > 1e-8:
            rejected.append({"index": idx,
                             "reason": f"frequency leakage {out_freq:.2e} "
                                       "outside covered bands"})
            continue
        out_sp = float(np.sum(np.abs(u[~plateau]) ** 2) / total)
        if out_sp > 1e-8:
            rejected.append({"index": idx,
                             "reason": f"spatial leakage {out_sp:.2e} "
                                       "outside the cutoff plateau"})
            continue
        v = comp @ u.ravel()
        rels.append(float(np.linalg.norm(v - u.ravel())
                          / np.linalg.norm(u.ravel())))

    return {
        "rel_errors": rels,
        "max_rel_error": max(rels) if rels else float("nan"),
        "median_rel_error": float(np.median(rels)) if rels else float("nan"),
        "rejected": rejected,
        "operator_residual": px.step_residuals["aggregate"][-1],
        "excluded_patches": px.excluded,
    }
