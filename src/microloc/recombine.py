"""Cotlar-Stein bookkeeping for streams of microlocalized blocks.

Pair norms ||T_i* T_j||^{1/2} and ||T_i T_j*||^{1/2} are bounded from
above through low-rank factors.  Each block is factored once from an
adaptive range finder (Halko, Martinsson and Tropp, SIAM Review 2011,
Alg. 4.2): an orthonormal Q grows until ||T_i - Q Q* T_i||_F is a fixed
fraction of ||T_i||_F, and the thin SVD of the small C = Q* T_i = U S V*,
truncated to the r_i singular values above that fraction of its largest
one, gives F_i = Q U S and G_i = V S.  With t_i the Frobenius norm of
T_i - (Q U) S V*, the measured residual and the dropped singular values
together, t_i >= ||T_i - (Q U) S V*||, whatever the probe, and

    ||T_i* T_j|| <= ||F_i* F_j|| + e_ij,   ||T_i T_j*|| <= ||G_i* G_j|| + e_ij,
    e_ij = t_i ||T_j|| + ||T_i|| t_j + t_i t_j,

so every pair norm comes from an r_i x r_j core plus a tail term, and the
certificate can fail falsely but never pass falsely.  A factor costs
O(m n r) rather than a full SVD's O(m n min(m, n)).  The diagonal is
sigma_1(C) + t_i >= sigma_1(T_i).  The certificate is sqrt(A B) with A, B
the row-sup sums, and the achieved norm of the full sum is checked
against it.

A block family is a stream of ``((j, k), matrix)`` pairs, read once, in
the order its pair-matrix rows are reported: a dict's ``.items()``, or a
generator that assembles each block when it is asked for.  Each block is
factored as it arrives, added to the sums below and dropped, so of the
family only these are kept:

- the factors F_i and G_i, zero-padded to the widest rank in one stack per
  side, with the diagonal entry sigma_1(C) + t_i and t_i;
- one level sum sum_{k >= K} T_{j,k} for each band K present, for the
  tail norms; the lowest is the sum of the family, for the achieved norm
  and the discrepancy from the reference.

A family costs O(levels n^{2d}) plus its factors, not O(blocks n^{2d}).
All norms are plain L2 spectral norms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .quantize import DegenerateResultError, spectral_norm


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


# The range finder stops once ||B - QQ*B||_F is at most this fraction of
# ||B||_F, and singular values of Q*B at or below this fraction of its
# largest one are dropped; both are accounted for by the tail term e_ij.
_RANK_TOL = 1e-13

# Columns the range finder adds to Q per step.
_STEP = 8


def _probe(n: int, start: int, width: int) -> np.ndarray:
    """Columns start .. start + width of one fixed n-row probe matrix:
    entry (i, c) is output c n + i + 1 of splitmix64 from seed 0, mapped
    to [-1, 1).  Any probe keeps the bound, since t is measured after the
    fact; a generic one lets Q stop at the block's numerical rank."""
    z = np.arange(start * n, (start + width) * n, dtype=np.uint64) \
        + np.uint64(1)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return ((z >> np.uint64(11)) * 2.0 ** -52 - 1.0).reshape(width, n).T


def _truncated_factors(b: np.ndarray):
    """F = Q U S and G = V S of rank r from the thin SVD U S V* of Q*B,
    with sigma_1(Q*B) + t and t, where t >= ||B - Q U S V*||.

    B is scaled to a largest entry of 1 first, so that no finite block
    overflows, and Q = qr([Q, B Omega]) grows _STEP columns at a time,
    by Householder QR of the whole concatenation so that it stays
    orthonormal when a step finds fewer new directions than its width.
    """
    scale = float(np.abs(b).max()) or 1.0
    b = b / scale
    width, floor = min(b.shape), _RANK_TOL * np.linalg.norm(b)
    q = np.zeros((b.shape[0], 0), b.dtype)
    while True:
        step = min(_STEP, width - q.shape[1])
        q = np.linalg.qr(np.hstack((q, b @ _probe(b.shape[1], q.shape[1],
                                                  step))))[0]
        c = q.conj().T @ b
        resid = q @ c
        rest = float(np.linalg.norm(np.subtract(b, resid, out=resid)))
        if rest <= floor or q.shape[1] == width:
            break
    u, s, vh = np.linalg.svd(c, full_matrices=False)
    r = int(np.count_nonzero(s > _RANK_TOL * s[0]))
    tail = float(np.hypot(rest, np.linalg.norm(s[r:])))
    with np.errstate(over="ignore"):
        return (scale * (q @ (u[:, :r] * s[:r])),
                scale * (vh[:r].conj().T * s[:r]),
                scale * (float(s[0]) + tail), scale * tail)


class _FactorStack:
    """Factors (m, r_i) of one side, transposed and zero-padded to the
    widest r_i in one (blocks, r_max, m) array that doubles its length when
    full, so that the factors of blocks i.. are one (blocks r_max, m) view."""

    def __init__(self):
        self.ranks = []
        self._data = None

    def append(self, f: np.ndarray) -> None:
        p, (m, r) = len(self.ranks), f.shape
        old = self._data if self._data is not None \
            else np.zeros((0, 0, m), f.dtype)
        dtype = np.result_type(old, f)
        if p == len(old) or r > old.shape[1] or dtype != old.dtype:
            length = len(old) if p < len(old) else max(2 * p, 1)
            self._data = np.zeros((length, max(old.shape[1], r), m), dtype)
            self._data[:p, :old.shape[1]] = old[:p]
        self._data[p, :r] = f.T
        self.ranks.append(r)

    def padded(self) -> np.ndarray:
        return self._data[:len(self.ranks)]


def _plus(acc, b: np.ndarray):
    """acc + b, written into acc when acc is an array of the sum's dtype.

    Overflow is left to the norms' finiteness checks, without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(acc, np.ndarray) and acc.dtype == np.result_type(acc, b):
            return np.add(acc, b, out=acc)
        return acc + b


class _Family:
    """One pass over a stream of ``((j, k), block)`` pairs.

    Keeps each block's factors, diagonal entry and tail and, per band K
    present, ``levels[K]``, the sum of the blocks with k >= K.  A band
    first seen below bands already present starts from the smallest level
    above it, so the level sums hold whatever the order of the stream; a
    stream in (k, j) order is summed in that order.  Blocks may be
    non-square, and all share one shape.
    """

    def __init__(self, blocks):
        self.indices, self.top, self.tail = [], [], []
        self.f, self.g = _FactorStack(), _FactorStack()
        self.levels = {}
        for (j, k), b in blocks:
            f, g, top, tail = _truncated_factors(b)
            self.f.append(f)
            self.g.append(g)
            self.indices.append((j, k))
            self.top.append(top)
            self.tail.append(tail)
            if k not in self.levels:
                above = [level for level in self.levels if level > k]
                self.levels[k] = self.levels[min(above)].copy() \
                    if above else 0.0
            for level in self.levels:
                if level <= k:
                    self.levels[level] = _plus(self.levels[level], b)


def _core_norms(stack: _FactorStack) -> np.ndarray:
    """||F_i* F_j|| for i != j, from the r_i x r_j cores F_i* F_j.

    Row i takes the transposed cores with the padded factors of blocks
    j > i from one product with a view of the stack, and their norms from
    one stacked spectral_norm; neither padding nor transposition changes a
    norm.  The diagonal is left 0.  Overflow raises DegenerateResultError.
    """
    pad = stack.padded()
    norms = np.zeros((len(pad), len(pad)))
    for i, r in enumerate(stack.ranks):
        if r:
            with np.errstate(over="ignore", invalid="ignore"):
                cores = pad[i + 1:].reshape(-1, pad.shape[2]) \
                    @ pad[i, :r].conj().T
            if not np.all(np.isfinite(cores)):
                raise DegenerateResultError("Cotlar pair cores overflow")
            norms[i, i + 1:] = spectral_norm(
                cores.reshape(-1, pad.shape[1], r))
    return norms + norms.T


def _cotlar_certificate(fam: _Family) -> CotlarCertificate:
    """Factored pair-norm bounds, row sums A and B, and sqrt(AB).

    The achieved norm is that of the lowest level, the sum of the family.
    An empty family, or numbers that overflow the pair bounds, raise
    DegenerateResultError.
    """
    if not fam.indices:
        raise DegenerateResultError("empty block family")
    top, tail = np.array(fam.top), np.array(fam.tail)
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.outer(tail, top) + np.outer(top, tail) + np.outer(tail, tail)
    if not np.all(np.isfinite(e)):
        raise DegenerateResultError("Cotlar tail terms overflow")
    star = np.sqrt(_core_norms(fam.f) + e)
    adj = np.sqrt(_core_norms(fam.g) + e)
    np.fill_diagonal(star, top)
    np.fill_diagonal(adj, top)
    a_bound = float(star.sum(axis=1).max())
    b_bound = float(adj.sum(axis=1).max())
    return CotlarCertificate(
        a_bound=a_bound, b_bound=b_bound,
        bound=float(np.sqrt(a_bound * b_bound)),
        achieved=spectral_norm(fam.levels[min(fam.levels)]),
        star_pair_matrix=star, adj_pair_matrix=adj,
        indices=fam.indices)


def recombine_sum(blocks, reference: np.ndarray, active_bands=None) -> dict:
    """Cotlar certificate of a stream of blocks, the discrepancy of their
    sum from the directly quantized reference, and the tail norms.

    ``blocks`` is a stream of ``((j, k), block)`` pairs, read once.
    ``active_bands`` lists the bands the reference symbol can excite; a
    band with no block raises CoverageGapError.  The tails are
    ||sum_{k >= K} T|| for each band K present and for K one past the top.
    """
    fam = _Family(blocks)
    if active_bands is not None:
        missing = set(active_bands) - set(fam.levels)
        if missing:
            raise CoverageGapError(missing)
    ref_norm = spectral_norm(reference)
    cert = _cotlar_certificate(fam)
    ks = sorted(fam.levels)
    with np.errstate(over="ignore", invalid="ignore"):
        disc = spectral_norm(fam.levels[ks[0]] - reference)
    return {
        "certificate": cert,
        "reference_norm": ref_norm,
        "discrepancy": disc,
        "relative_discrepancy": disc / ref_norm if ref_norm > 0 else 0.0,
        "tails": [{"K": level, "norm": spectral_norm(fam.levels[level])}
                  for level in ks] + [{"K": ks[-1] + 1, "norm": 0.0}],
    }
