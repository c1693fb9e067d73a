"""Cotlar-Stein bookkeeping for families of microlocalized blocks.

Pair norms ||T_i* T_j||^{1/2} and ||T_i T_j*||^{1/2} are computed exactly
by SVD; the certificate is sqrt(A B) with A, B the row-sup sums, and the
achieved norm of the full sum is checked against it.  Sobolev weighting
is applied once per block up front so all pair norms reduce to plain
spectral norms.
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


def _cotlar_certificate(blocks: list[np.ndarray],
                        indices) -> CotlarCertificate:
    """Exact pair norms, row sums A and B, and sqrt(AB) for plain-L2 blocks.

    Blocks may be non-square; each pair product is formed as given.
    """
    if not blocks:
        raise ValueError("empty block family")
    p = len(blocks)
    star = np.zeros((p, p))
    adj = np.zeros((p, p))
    for i in range(p):
        for j in range(i, p):
            star[i, j] = np.sqrt(_specnorm(blocks[i].conj().T @ blocks[j]))
            adj[i, j] = np.sqrt(_specnorm(blocks[i] @ blocks[j].conj().T))
            star[j, i] = star[i, j]
            adj[j, i] = adj[i, j]
    a_bound = float(star.sum(axis=1).max())
    b_bound = float(adj.sum(axis=1).max())
    return CotlarCertificate(
        a_bound=a_bound, b_bound=b_bound,
        bound=float(np.sqrt(a_bound * b_bound)),
        achieved=_specnorm(sum(blocks)),
        star_pair_matrix=star, adj_pair_matrix=adj,
        indices=list(indices))


def cotlar_bounds(fam: BlockFamily) -> CotlarCertificate:
    """Exact pairwise norms, row sums A and B, and the sqrt(AB) certificate."""
    return _cotlar_certificate(fam.weighted(), fam.indices)


def recombine_sum(fam: BlockFamily, reference: DiscreteOperator,
                  active_bands=None) -> dict:
    """Compare the block sum with the directly quantized reference.

    ``active_bands`` lists the bands the reference symbol can excite; a
    band missing from the family raises CoverageGapError.  The report
    carries the relative discrepancy, the Cotlar certificate, and the
    tail norms ||sum_{k >= K} T|| for each truncation level K.
    """
    if active_bands is not None:
        have = {k for (_, k) in fam.indices}
        missing = set(active_bands) - have
        if missing:
            raise CoverageGapError(missing)

    *blocks, ref = _weighted([*fam.matrices, reference.matrix], fam.grid,
                             fam.s_in, fam.s_out)

    total = sum(blocks)
    ref_norm = _specnorm(ref)
    disc = _specnorm(total - ref)
    cert = _cotlar_certificate(blocks, fam.indices)

    order = sorted(range(len(fam)), key=lambda i: (fam.indices[i][1],
                                                   fam.indices[i][0]))
    ks = sorted({k for (_, k) in fam.indices})
    tails = []
    for cut in ks + [max(ks) + 1]:
        idx = [i for i in order if fam.indices[i][1] >= cut]
        tail = sum(blocks[i] for i in idx) if idx \
            else np.zeros_like(blocks[0])
        tails.append({"K": cut, "norm": _specnorm(tail)})

    return {
        "reference_norm": ref_norm,
        "discrepancy": disc,
        "relative_discrepancy": disc / ref_norm if ref_norm > 0 else 0.0,
        "trivial": ref_norm == 0.0,
        "certificate": cert,
        "tails": tails,
    }
