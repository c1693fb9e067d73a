"""Cotlar-Stein bookkeeping for families of microlocalized blocks.

Pair norms ||T_i* T_j||^{1/2} and ||T_i T_j*||^{1/2} are bounded from
above through low-rank factors.  Each block is factored once by a thin
SVD, T_i = U_i S_i V_i*, and truncated to the r_i singular values above
a fixed fraction of its largest one, F_i = U_i S_i and G_i = V_i S_i.
With t_i the largest discarded singular value,

    ||T_i* T_j|| <= ||F_i* F_j|| + e_ij,   ||T_i T_j*|| <= ||G_i* G_j|| + e_ij,
    e_ij = t_i ||T_j|| + ||T_i|| t_j + t_i t_j,

so every pair norm comes from an r_i x r_j core plus a tail term, and the
certificate can fail falsely but never pass falsely; so the factors take
an SVD, since t_i can sit at 1e-13 of sigma_1, below what a Gram
eigenvalue resolves (about 1e-8 relative).  The diagonal is
sigma_1(T_i) exactly.  The certificate is sqrt(A B) with A, B the
row-sup sums, and the achieved norm of the full sum is checked against
it.  A block family is one dict ``{(j, k): matrix}``, in the order its
pair-matrix rows are reported.  ``recombine_sum`` conjugates every block
and the reference to plain L2 by the Sobolev weights <D>^s and <D>^{-s},
applied by FFT (``fourier_weighted``), so all pair norms are plain
spectral norms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import GridSpec
from .quantize import (DegenerateResultError, bracket_weights,
                       fourier_weighted, spectral_norm)


class CoverageGapError(ValueError):
    """The block family misses bands active on the reference symbol."""

    def __init__(self, missing):
        self.missing = sorted(missing)
        super().__init__(f"block family misses active bands {self.missing}")


@dataclass
class CotlarCertificate:
    a_bound: float
    b_bound: float
    bound: float
    achieved: float
    star_pair_matrix: np.ndarray
    adj_pair_matrix: np.ndarray
    indices: list[tuple[int, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.achieved <= self.bound * (1.0 + 1e-8)


# Singular values at or below this fraction of a block's largest one are
# dropped from its factors and accounted for by the tail term e_ij.
_RANK_TOL = 1e-13


def _truncated_factors(b: np.ndarray):
    """F = U S and G = V S cut to rank r, with sigma_1 and sigma_{r+1}."""
    u, s, vh = np.linalg.svd(b, full_matrices=False)
    top = float(s[0])
    r = int(np.count_nonzero(s > _RANK_TOL * top))
    tail = float(s[r]) if r < s.size else 0.0
    return u[:, :r] * s[:r], vh[:r].conj().T * s[:r], top, tail


def _core_norms(factors) -> np.ndarray:
    """||F_i* F_j|| for i != j, from the r_i x r_j cores F_i* F_j.

    Row i takes one stacked spectral_norm of its cores with the zero-padded
    factors of blocks j > i; padding leaves each core's norm unchanged.  The
    diagonal is left 0.  Cores that overflow raise DegenerateResultError.
    """
    p = len(factors)
    rmax = max(f.shape[1] for f in factors)
    pad = np.zeros((p, factors[0].shape[0], rmax),
                   dtype=np.result_type(*factors))
    for i, f in enumerate(factors):
        pad[i, :, :f.shape[1]] = f
    norms = np.zeros((p, p))
    for i, f in enumerate(factors):
        if f.shape[1]:
            with np.errstate(over="ignore", invalid="ignore"):
                cores = f.conj().T @ pad[i + 1:]
            if not np.all(np.isfinite(cores)):
                raise DegenerateResultError("Cotlar pair cores overflow")
            norms[i, i + 1:] = spectral_norm(cores)
    return norms + norms.T


def _cotlar_certificate(blocks: dict) -> CotlarCertificate:
    """Factored pair-norm bounds, row sums A and B, and sqrt(AB).

    ``blocks`` maps each index (j, k) to a plain-L2 block; blocks may be
    non-square, and all share one shape.  An empty family, or numbers that
    overflow the pair bounds, raise DegenerateResultError.
    """
    if not blocks:
        raise DegenerateResultError("empty block family")
    mats = list(blocks.values())
    f, g, top, tail = zip(*map(_truncated_factors, mats))
    top, tail = np.array(top), np.array(tail)
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.outer(tail, top) + np.outer(top, tail) + np.outer(tail, tail)
    if not np.all(np.isfinite(e)):
        raise DegenerateResultError("Cotlar tail terms overflow")
    star = np.sqrt(_core_norms(f) + e)
    adj = np.sqrt(_core_norms(g) + e)
    np.fill_diagonal(star, top)
    np.fill_diagonal(adj, top)
    a_bound = float(star.sum(axis=1).max())
    b_bound = float(adj.sum(axis=1).max())
    return CotlarCertificate(
        a_bound=a_bound, b_bound=b_bound,
        bound=float(np.sqrt(a_bound * b_bound)),
        achieved=spectral_norm(sum(mats)),
        star_pair_matrix=star, adj_pair_matrix=adj,
        indices=list(blocks))


def _recombination(blocks: dict, reference: np.ndarray,
                   active_bands) -> dict:
    """Cotlar certificate of plain-L2 blocks ``{(j, k): matrix}`` and the
    discrepancy of their sum from the reference.

    ``active_bands`` lists the bands the reference symbol can excite; a
    band with no block raises CoverageGapError.
    """
    if active_bands is not None:
        missing = set(active_bands) - {k for (_, k) in blocks}
        if missing:
            raise CoverageGapError(missing)
    ref_norm = spectral_norm(reference)
    disc = spectral_norm(sum(blocks.values()) - reference)
    return {
        "certificate": _cotlar_certificate(blocks),
        "reference_norm": ref_norm,
        "discrepancy": disc,
        "relative_discrepancy": disc / ref_norm if ref_norm > 0 else 0.0,
    }


def recombine_sum(blocks: dict, reference: np.ndarray, grid: GridSpec,
                  s: float = 0.0, active_bands=None) -> dict:
    """Compare the block sum with the directly quantized reference.

    ``blocks`` maps each index (j, k) to a block on ``grid``; blocks and
    reference are measured as <D>^s T <D>^{-s}.  The report carries the
    relative discrepancy and the Cotlar certificate (see
    ``_recombination``, which also checks ``active_bands``), and the tail
    norms ||sum_{k >= K} T|| for each truncation level K.
    """
    w_out, w_in = (bracket_weights(grid, t) if t else None for t in (s, -s))
    weighted = {idx: fourier_weighted(m, grid, w_out, w_in)
                for idx, m in blocks.items()}
    ref = fourier_weighted(reference, grid, w_out, w_in)
    report = _recombination(weighted, ref, active_bands)

    order = sorted(weighted, key=lambda jk: (jk[1], jk[0]))
    ks = sorted({k for (_, k) in weighted})
    report["tails"] = [{"K": level, "norm": spectral_norm(sum(
        (weighted[jk] for jk in order if jk[1] >= level), np.zeros_like(ref)))}
        for level in ks + [max(ks) + 1]]
    return report
