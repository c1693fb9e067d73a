import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from microloc import recombine
from microloc.grids import GridSpec
from microloc.quantize import (DegenerateResultError, fourier_multiplier,
                               spectral_norm)
from microloc.recombine import (CotlarCertificate, CoverageGapError,
                                _cotlar_certificate, _Family, recombine_sum)

G = GridSpec(dim=1, half_width=np.pi, n_grid=16)


def _multiplier(mask):
    return fourier_multiplier(mask.astype(float), G)


def _family(mats):
    return _Family(((j, 0), m) for j, m in enumerate(mats))


def test_family_validation():
    with pytest.raises(DegenerateResultError):
        _cotlar_certificate(_family([]))


def test_overflowing_pair_bounds_are_refused():
    # the cores F_i* F_j of blocks near 1e300 overflow; they are refused
    # before their norms are taken, without a floating-point warning
    rng = np.random.default_rng(2)
    mats = [1e300 * rng.standard_normal((16, 16)) for _ in range(2)]
    with pytest.raises(DegenerateResultError, match="overflow"):
        _cotlar_certificate(_family(mats))


def test_single_block_certificate_is_tight():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((16, 16))
    cert = _cotlar_certificate(_family([m]))
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
    cert = _cotlar_certificate(_Family([((0, 1), lo), ((0, 2), hi)]))
    assert cert.star_pair_matrix[0, 1] < 1e-6
    assert cert.bound == pytest.approx(3.0, rel=1e-6)
    assert cert.achieved == pytest.approx(3.0, rel=1e-10)
    assert cert.ok


def test_random_families_obey_cotlar():
    rng = np.random.default_rng(5)
    for _ in range(5):
        mats = [rng.standard_normal((16, 16)) for _ in range(4)]
        cert = _cotlar_certificate(_family(mats))
        assert cert.achieved <= cert.bound * (1.0 + 1e-8)
        assert cert.ok


def test_recombine_sum_and_tails():
    xi = G.xi_axis()
    masks = [np.abs(xi) < 4, np.abs(xi) >= 4]
    blocks = {(0, 1): _multiplier(masks[0]), (0, 2): _multiplier(masks[1])}
    rep = recombine_sum(blocks.items(), np.eye(16), active_bands=[1, 2])
    assert rep["relative_discrepancy"] < 1e-12
    assert rep["certificate"].ok
    tails = {t["K"]: t["norm"] for t in rep["tails"]}
    assert tails[3] == 0.0
    assert tails[2] == pytest.approx(1.0, rel=1e-10)


def test_recombine_coverage_gap():
    blocks = {(0, 1): _multiplier(np.abs(G.xi_axis()) < 4)}
    with pytest.raises(CoverageGapError) as err:
        recombine_sum(blocks.items(), np.eye(16), active_bands=[1, 2])
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
    cert = _cotlar_certificate(_family(blocks))
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
        cert = _cotlar_certificate(_family(blocks))
    assert_never_below_dense(cert, blocks)


def dense_recombination(blocks: dict, reference):
    """The recombination of a dict of dense blocks as it was computed before
    families were streamed: all blocks held, padded factors copied once,
    each tail summed in (k, j) order from zeros shaped like the reference."""
    mats = list(blocks.values())
    f, g, top, tail = zip(*map(recombine._truncated_factors, mats))
    top, tail = np.array(top), np.array(tail)
    e = np.outer(tail, top) + np.outer(top, tail) + np.outer(tail, tail)

    def core_norms(factors):
        p = len(factors)
        rmax = max(x.shape[1] for x in factors)
        pad = np.zeros((p, factors[0].shape[0], rmax),
                       dtype=np.result_type(*factors))
        for i, x in enumerate(factors):
            pad[i, :, :x.shape[1]] = x
        norms = np.zeros((p, p))
        for i, x in enumerate(factors):
            if x.shape[1]:
                norms[i, i + 1:] = spectral_norm(x.conj().T @ pad[i + 1:])
        return norms + norms.T

    star, adj = np.sqrt(core_norms(f) + e), np.sqrt(core_norms(g) + e)
    np.fill_diagonal(star, top)
    np.fill_diagonal(adj, top)
    order = sorted(blocks, key=lambda jk: (jk[1], jk[0]))
    ks = sorted({k for (_, k) in blocks})
    return {
        "star": star, "adj": adj,
        "A": float(star.sum(axis=1).max()), "B": float(adj.sum(axis=1).max()),
        "achieved": spectral_norm(sum(mats)),
        "discrepancy": spectral_norm(sum(mats) - reference),
        "tails": [spectral_norm(sum(
            (blocks[jk] for jk in order if jk[1] >= level),
            np.zeros_like(reference))) for level in ks + [max(ks) + 1]],
    }


def _band_family(seed, bands=(1, 2, 3), per_band=4, n=16):
    """Complex rank-2 blocks plus noise, in band order: bands ascending,
    j ascending within a band."""
    rng = np.random.default_rng(seed)

    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return {(j, k): gauss(n, 2) @ gauss(2, n) + 1e-13 * gauss(n, n)
            for k in bands for j in range(per_band)}


def _streamed(blocks: dict, reference):
    rep = recombine_sum((item for item in blocks.items()), reference)
    cert = rep["certificate"]
    return {"star": cert.star_pair_matrix, "adj": cert.adj_pair_matrix,
            "A": cert.a_bound, "B": cert.b_bound, "achieved": cert.achieved,
            "discrepancy": rep["discrepancy"],
            "tails": [t["norm"] for t in rep["tails"]]}


def test_band_ordered_stream_matches_dense_bitwise():
    blocks = _band_family(7)
    ref = sum(blocks.values()) + 1e-3 * np.eye(16)
    got, want = _streamed(blocks, ref), dense_recombination(blocks, ref)
    assert got["tails"][-1] == 0.0
    for name, value in want.items():
        if name in ("star", "adj", "A", "B"):
            # the library takes a row's cores from one GEMM, the reference
            # from one product per pair; BLAS rounds the two differently
            np.testing.assert_allclose(got[name], value, rtol=1e-13, atol=0,
                                       err_msg=name)
        else:
            assert np.array_equal(got[name], value), name


def test_shuffled_stream_matches_dense():
    # bands arrive out of order, so lower levels are seeded from the
    # smallest level above them
    blocks = _band_family(8)
    order = np.random.default_rng(9).permutation(len(blocks))
    items = list(blocks.items())
    shuffled = dict(items[i] for i in order)
    assert [k for (_, k) in shuffled][:3] != sorted(
        [k for (_, k) in shuffled][:3])
    ref = sum(blocks.values()) + 1e-3 * np.eye(16)
    got, want = _streamed(shuffled, ref), dense_recombination(shuffled, ref)
    for name, value in want.items():
        assert np.allclose(got[name], value, rtol=1e-12, atol=0.0), name


def test_streamed_family_holds_few_blocks():
    # 64 rank-1 blocks of 512 KiB: a stream keeps their factors and two
    # level sums, never the family; its peak, at a block's range finder
    # (its scaled copy and residual), is about 5.8 blocks
    n, count = 256, 64
    rng = np.random.default_rng(4)
    ref = np.zeros((n, n))

    def blocks():
        for i in range(count):
            yield (i, 1 + i % 2), \
                rng.standard_normal((n, 1)) @ rng.standard_normal((1, n))

    tracemalloc.start()
    try:
        rep = recombine_sum(blocks(), ref, active_bands=[1, 2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rep["certificate"].indices) == count
    assert peak < 8 * ref.nbytes


def test_stream_errors():
    ref = np.eye(16)
    with pytest.raises(DegenerateResultError, match="empty"):
        recombine_sum((b for b in []), ref)
    blocks = ((jk, m) for jk, m in _band_family(1, bands=(1, 3)).items())
    with pytest.raises(CoverageGapError) as err:
        recombine_sum(blocks, ref, active_bands=[1, 2, 3])
    assert err.value.missing == [2]


def test_overflowing_block_sum_is_refused_without_warning():
    # each block is finite, their sum is not
    b = np.zeros((16, 16))
    b[0, 0] = 1.5e308
    family = (((j, 1), b.copy()) for j in range(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateResultError):
            recombine_sum(family, np.eye(16))


@st.composite
def wide_rank_blocks(draw):
    """A block of rank above one range-finder step, plus noise, and a
    truncation threshold."""
    m, n = draw(st.integers(10, 24)), draw(st.integers(10, 24))
    rank = draw(st.integers(recombine._STEP + 1, min(m, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cplx = draw(st.booleans())

    def gauss(*shape):
        g = rng.standard_normal(shape)
        return g + 1j * rng.standard_normal(shape) if cplx else g

    noise = draw(st.sampled_from([0.0, 1e-14, 1e-10, 1e-3]))
    tol = draw(st.sampled_from([1e-13, 1e-3]))
    return gauss(m, rank) @ gauss(rank, n) + noise * gauss(m, n), tol


@given(wide_rank_blocks())
def test_range_finder_bounds_blocks_wider_than_a_step(block):
    # Q grows over more than one step; the diagonal entry bounds sigma_1
    # and t bounds the spectral norm of what the factors leave out
    b, tol = block
    with mock.patch.object(recombine, "_RANK_TOL", tol):
        f, g, top, tail = recombine._truncated_factors(b)
    s = np.linalg.svd(b, compute_uv=False)
    kept = np.linalg.norm(g, axis=0)  # G = V S: column norms are S
    rest = np.linalg.norm(b - (f / kept) @ g.conj().T, 2)
    slack = 1e-12 * s[0]  # rounding of sigma_1(B) and of the residual
    assert top >= s[0] - slack
    assert tail >= rest - slack
    if tol == 1e-13:
        assert f.shape[1] > recombine._STEP


def test_low_rank_block_takes_one_step():
    # a 64 x 64 block of rank 3 is captured by the first 8 probe columns
    rng = np.random.default_rng(3)
    b = rng.standard_normal((64, 3)) @ rng.standard_normal((3, 64))
    with mock.patch.object(np.linalg, "qr", wraps=np.linalg.qr) as qr:
        f, _, top, tail = recombine._truncated_factors(b)
    assert qr.call_count == 1
    assert f.shape[1] == 3
    assert tail < 1e-13 * top


def test_zero_tail_mutant_falls_below_dense():
    # with t forced to 0, the factors of noisy blocks truncated at 1e-3
    # give pair norms below the dense ones; with t the bound holds
    rng = np.random.default_rng(6)
    blocks = [rng.standard_normal((12, 2)) @ rng.standard_normal((2, 12))
              + 1e-2 * rng.standard_normal((12, 12)) for _ in range(4)]
    factors = recombine._truncated_factors

    def untailed(b):
        f, g, top, tail = factors(b)
        return f, g, top - tail, 0.0

    with mock.patch.object(recombine, "_RANK_TOL", 1e-3):
        assert_never_below_dense(_cotlar_certificate(_family(blocks)),
                                 blocks)
        with mock.patch.object(recombine, "_truncated_factors", untailed):
            cert = _cotlar_certificate(_family(blocks))
    star, adj = dense_pair_matrices(blocks)
    assert np.any(cert.star_pair_matrix < star * (1.0 - 1e-6)) \
        or np.any(cert.adj_pair_matrix < adj * (1.0 - 1e-6))
