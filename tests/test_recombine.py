from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from microloc import recombine
from microloc.grids import GridSpec
from microloc.quantize import (DiscreteOperator, bracket_weights,
                               fourier_multiplier, spectral_norm)
from microloc.recombine import (BlockFamily, CotlarCertificate,
                                CoverageGapError, _cotlar_certificate,
                                recombine_sum)

G = GridSpec(dim=1, half_width=np.pi, n_grid=16)


def _multiplier(mask):
    return fourier_multiplier(mask.astype(float), G).matrix


def test_family_validation():
    with pytest.raises(ValueError):
        BlockFamily(indices=[(0, 0)], matrices=[], grid=G)
    with pytest.raises(ValueError):
        BlockFamily(indices=[(0, 0)], matrices=[np.eye(4)], grid=G)
    with pytest.raises(ValueError):
        _cotlar_certificate([], [])


def test_single_block_certificate_is_tight():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((16, 16))
    cert = _cotlar_certificate([m], [(0, 0)])
    norm = float(np.linalg.norm(m, 2))
    assert cert.achieved == pytest.approx(norm, rel=1e-12)
    assert cert.bound == pytest.approx(norm, rel=1e-10)
    assert cert.ok


def test_orthogonal_multipliers_certificate():
    # disjoint frequency supports: cross pair norms vanish, and the
    # certificate collapses to the largest single-block norm
    xi = G.xi_axis()
    lo = _multiplier((np.abs(xi) < 4) * 2.0)
    hi = _multiplier((np.abs(xi) >= 4) * 3.0)
    cert = _cotlar_certificate([lo, hi], [(0, 1), (0, 2)])
    assert cert.star_pair_matrix[0, 1] < 1e-6
    assert cert.bound == pytest.approx(3.0, rel=1e-6)
    assert cert.achieved == pytest.approx(3.0, rel=1e-10)
    assert cert.ok


def test_random_families_obey_cotlar():
    rng = np.random.default_rng(5)
    for _ in range(5):
        mats = [rng.standard_normal((16, 16)) for _ in range(4)]
        cert = _cotlar_certificate(mats, [(j, 0) for j in range(4)])
        assert cert.achieved <= cert.bound * (1.0 + 1e-8)
        assert cert.ok


def test_recombine_sum_and_tails():
    xi = G.xi_axis()
    masks = [np.abs(xi) < 4, np.abs(xi) >= 4]
    mats = [_multiplier(m) for m in masks]
    fam = BlockFamily(indices=[(0, 1), (0, 2)], matrices=mats, grid=G)
    ref = DiscreteOperator(matrix=np.eye(16), grid=G)
    rep = recombine_sum(fam, ref, active_bands=[1, 2])
    assert rep["relative_discrepancy"] < 1e-12
    assert rep["certificate"].ok
    tails = {t["K"]: t["norm"] for t in rep["tails"]}
    assert tails[3] == 0.0
    assert tails[2] == pytest.approx(1.0, rel=1e-10)


def test_weighted_recombination_matches_dense_multipliers():
    # recombine_sum at s = 1 measures <D> T <D>^{-1}; its certificate and
    # discrepancy equal those of blocks weighted by dense multipliers
    rng = np.random.default_rng(11)
    mats = [rng.standard_normal((16, 16)) for _ in range(3)]
    ref = sum(mats) + 1e-3 * rng.standard_normal((16, 16))
    fam = BlockFamily(indices=[(0, 1), (1, 1), (0, 2)], matrices=mats,
                      grid=G, s=1.0)
    rep = recombine_sum(fam, DiscreteOperator(matrix=ref, grid=G))
    w_out = fourier_multiplier(bracket_weights(G, 1.0), G).matrix
    w_in = fourier_multiplier(bracket_weights(G, -1.0), G).matrix
    dense = [w_out @ m @ w_in for m in mats]
    want = _cotlar_certificate(dense, fam.indices)
    got = rep["certificate"]
    for g, w in ((got.star_pair_matrix, want.star_pair_matrix),
                 (got.adj_pair_matrix, want.adj_pair_matrix)):
        assert np.abs(g - w).max() <= 1e-12 * w.max()
    for name in ("a_bound", "b_bound", "bound", "achieved"):
        assert getattr(got, name) == pytest.approx(getattr(want, name),
                                                   rel=1e-12)
    disc = spectral_norm(sum(dense) - w_out @ ref @ w_in)
    assert rep["discrepancy"] == pytest.approx(disc, rel=1e-9)
    # the weights are not unitary, so the weighted norms differ from L2
    assert got.achieved != pytest.approx(spectral_norm(sum(mats)), rel=1e-3)


def test_recombine_coverage_gap():
    mats = [_multiplier(np.abs(G.xi_axis()) < 4)]
    fam = BlockFamily(indices=[(0, 1)], matrices=mats, grid=G)
    ref = DiscreteOperator(matrix=np.eye(16), grid=G)
    with pytest.raises(CoverageGapError) as err:
        recombine_sum(fam, ref, active_bands=[1, 2])
    assert err.value.missing == [2]


def test_certificate_ok_flag():
    cert = CotlarCertificate(a_bound=1.0, b_bound=1.0, bound=1.0,
                             achieved=1.5, star_pair_matrix=np.eye(1),
                             adj_pair_matrix=np.eye(1))
    assert not cert.ok


def dense_pair_matrices(blocks):
    """sqrt ||B_i* B_j|| and sqrt ||B_i B_j*|| by one SVD per product."""
    star = np.array([[np.sqrt(spectral_norm(bi.conj().T @ bj)) for bj in blocks]
                     for bi in blocks])
    adj = np.array([[np.sqrt(spectral_norm(bi @ bj.conj().T)) for bj in blocks]
                    for bi in blocks])
    return star, adj


def assert_never_below_dense(cert, blocks):
    star, adj = dense_pair_matrices(blocks)
    assert np.all(cert.star_pair_matrix >= star * (1.0 - 1e-12))
    assert np.all(cert.adj_pair_matrix >= adj * (1.0 - 1e-12))
    assert cert.bound >= cert.achieved * (1.0 - 1e-12)
    return star, adj


@st.composite
def low_rank_families(draw, noise_levels):
    """Rank-r blocks plus scaled noise, one zero block and one full-rank one.

    Blocks are square or not, real or complex, in random order.
    """
    m = draw(st.integers(2, 12))
    n = draw(st.one_of(st.just(m), st.integers(2, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cplx = draw(st.booleans())
    noise = draw(st.sampled_from(noise_levels))

    def gauss(*shape):
        g = rng.standard_normal(shape)
        return g + 1j * rng.standard_normal(shape) if cplx else g

    ranks = draw(st.lists(st.integers(1, min(m, n)), min_size=1, max_size=4))
    blocks = [gauss(m, r) @ gauss(r, n) + noise * gauss(m, n) for r in ranks]
    blocks += [np.zeros((m, n)), gauss(m, n)]
    order = draw(st.permutations(range(len(blocks))))
    return [blocks[i] for i in order], noise


# noise levels straddling the truncation threshold: some draws keep every
# singular value, others discard a nonzero tail
@given(low_rank_families([0.0, 1e-15, 1e-14, 1e-13, 1e-12, 1e-8, 1e-3]))
def test_factored_certificate_never_below_dense(family):
    blocks, noise = family
    cert = _cotlar_certificate(blocks, range(len(blocks)))
    star, adj = assert_never_below_dense(cert, blocks)
    if noise == 0.0:
        for got, want in ((cert.star_pair_matrix, star),
                          (cert.adj_pair_matrix, adj)):
            assert np.abs(got - want).max() <= 1e-12 * want.max()


@given(low_rank_families([1e-6, 1e-5, 1e-4, 1e-3, 1e-2]))
def test_discarded_tail_keeps_the_bound(family):
    # at a coarse threshold the discarded singular values move pair norms
    # far beyond rounding, so only the tail term keeps the bound above
    blocks, _ = family
    with mock.patch.object(recombine, "_RANK_TOL", 1e-3):
        cert = _cotlar_certificate(blocks, range(len(blocks)))
    assert_never_below_dense(cert, blocks)
