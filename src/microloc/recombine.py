"""Cotlar-Stein bookkeeping for families of microlocalized blocks.

Pair norms ||T_i* T_j||^{1/2} and ||T_i T_j*||^{1/2} are bounded from
above through low-rank factors.  Each block is factored once by a thin
SVD, T_i = U_i S_i V_i*, and truncated to the r_i singular values above
a fixed fraction of its largest one, F_i = U_i S_i and G_i = V_i S_i.
With t_i the largest discarded singular value,

    ||T_i* T_j|| <= ||F_i* F_j|| + e_ij,   ||T_i T_j*|| <= ||G_i* G_j|| + e_ij,
    e_ij = t_i ||T_j|| + ||T_i|| t_j + t_i t_j,

so every pair norm comes from an r_i x r_j core plus a tail term, and the
certificate can fail falsely but never pass falsely.  The diagonal is
sigma_1(T_i) exactly.  The certificate is sqrt(A B) with A, B the
row-sup sums, and the achieved norm of the full sum is checked against
it.  Sobolev weighting is applied once per block up front so all pair
norms reduce to plain spectral norms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import GridSpec
from .quantize import DiscreteOperator, _specnorm, sobolev_multiplier


class CoverageGapError(ValueError):
    """The block family misses bands active on the reference symbol."""

    def __init__(self, missing):
        self.missing = sorted(missing)
        super().__init__(f"block family misses active bands {self.missing}")


@dataclass
class BlockFamily:
    """Blocks T_{j,k} on a shared grid with shared Sobolev orders."""

    indices: list[tuple[int, int]]
    matrices: list[np.ndarray]
    grid: GridSpec
    s_in: float = 0.0
    s_out: float = 0.0

    def __post_init__(self):
        if len(self.indices) != len(self.matrices):
            raise ValueError("indices and matrices length mismatch")
        npts = self.grid.npoints()
        for m in self.matrices:
            if m.shape != (npts, npts):
                raise ValueError("block dimension mismatch")

    def __len__(self) -> int:
        return len(self.matrices)

    def weighted(self) -> list[np.ndarray]:
        """Blocks conjugated to plain L2: <D>^{s_out} T <D>^{-s_in}."""
        return _weighted(self.matrices, self.grid, self.s_in, self.s_out)


def _weighted(mats: list[np.ndarray], grid: GridSpec, s_in: float,
              s_out: float) -> list[np.ndarray]:
    """<D>^{s_out} M <D>^{-s_in} for each matrix M."""
    out = list(mats)
    if s_out != 0.0:
        w = sobolev_multiplier(s_out, grid).matrix
        out = [w @ m for m in out]
    if s_in != 0.0:
        wi = sobolev_multiplier(-s_in, grid).matrix
        out = [m @ wi for m in out]
    return out


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

    Row i takes one batched SVD of its cores with the zero-padded factors
    of blocks j > i; padding leaves each core's norm unchanged.  The
    diagonal is left 0.
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
            norms[i, i + 1:] = np.linalg.svd(f.conj().T @ pad[i + 1:],
                                             compute_uv=False)[:, 0]
    return norms + norms.T


def _cotlar_certificate(blocks: list[np.ndarray],
                        indices) -> CotlarCertificate:
    """Factored pair-norm bounds, row sums A and B, and sqrt(AB).

    Blocks are plain-L2 and may be non-square; all share one shape.
    """
    if not blocks:
        raise ValueError("empty block family")
    f, g, top, tail = zip(*map(_truncated_factors, blocks))
    top, tail = np.array(top), np.array(tail)
    e = np.outer(tail, top) + np.outer(top, tail) + np.outer(tail, tail)
    star = np.sqrt(_core_norms(f) + e)
    adj = np.sqrt(_core_norms(g) + e)
    np.fill_diagonal(star, top)
    np.fill_diagonal(adj, top)
    a_bound = float(star.sum(axis=1).max())
    b_bound = float(adj.sum(axis=1).max())
    return CotlarCertificate(
        a_bound=a_bound, b_bound=b_bound,
        bound=float(np.sqrt(a_bound * b_bound)),
        achieved=_specnorm(sum(blocks)),
        star_pair_matrix=star, adj_pair_matrix=adj,
        indices=list(indices))


def cotlar_bounds(fam: BlockFamily) -> CotlarCertificate:
    """Pair-norm bounds, row sums A and B, and the sqrt(AB) certificate."""
    return _cotlar_certificate(fam.weighted(), fam.indices)


def _recombination(blocks: list[np.ndarray], reference: np.ndarray,
                   indices, active_bands) -> dict:
    """Cotlar certificate of plain-L2 blocks and the discrepancy of their
    sum from the reference.

    ``active_bands`` lists the bands the reference symbol can excite; a
    band with no block raises CoverageGapError.
    """
    if active_bands is not None:
        missing = set(active_bands) - {k for (_, k) in indices}
        if missing:
            raise CoverageGapError(missing)
    ref_norm = _specnorm(reference)
    disc = _specnorm(sum(blocks) - reference)
    return {
        "certificate": _cotlar_certificate(blocks, indices),
        "reference_norm": ref_norm,
        "discrepancy": disc,
        "relative_discrepancy": disc / ref_norm if ref_norm > 0 else 0.0,
    }


def recombine_sum(fam: BlockFamily, reference: DiscreteOperator,
                  active_bands=None) -> dict:
    """Compare the block sum with the directly quantized reference.

    The report carries the relative discrepancy and the Cotlar certificate
    (see ``_recombination``, which also checks ``active_bands``), and the
    tail norms ||sum_{k >= K} T|| for each truncation level K.
    """
    *blocks, ref = _weighted([*fam.matrices, reference.matrix], fam.grid,
                             fam.s_in, fam.s_out)
    report = _recombination(blocks, ref, fam.indices, active_bands)

    order = sorted(range(len(fam)), key=lambda i: (fam.indices[i][1],
                                                   fam.indices[i][0]))
    ks = sorted({k for (_, k) in fam.indices})
    tails = []
    for cut in ks + [max(ks) + 1]:
        idx = [i for i in order if fam.indices[i][1] >= cut]
        tail = sum(blocks[i] for i in idx) if idx \
            else np.zeros_like(blocks[0])
        tails.append({"K": cut, "norm": _specnorm(tail)})

    report["trivial"] = report["reference_norm"] == 0.0
    report["tails"] = tails
    return report
