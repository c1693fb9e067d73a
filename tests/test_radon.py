import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from microloc import radon
from microloc.cli import load_array, save_array
from microloc.grids import GridSpec, sample_on
from microloc.metric import identity_field
from microloc.partition import band_sum_symbol, build_partition
from microloc.quantize import make_cutoff, spectral_norm, weyl_quantize
from microloc.radon import (RadonConfig, _angle_geometry, _operator,
                            _support_touches_boundary, fbp_invert, phantom,
                            radon_adjoint, radon_block_experiment,
                            radon_forward, radon_matrix, radon_recombine,
                            ramp_filter)

G = GridSpec(dim=2, half_width=np.pi, n_grid=64)
CFG = RadonConfig(grid=G, n_angles=90, n_offsets=129)


def test_config_validation():
    with pytest.raises(ValueError):
        RadonConfig(grid=GridSpec(dim=1, half_width=np.pi, n_grid=16),
                    n_angles=10, n_offsets=11)
    assert CFG.s_max == pytest.approx(np.pi * np.sqrt(2.0))
    assert len(CFG.offsets()) == 129
    assert len(CFG.angles()) == 90
    assert CFG.angles()[-1] < np.pi


def test_zero_image_and_linearity():
    z = radon_forward(np.zeros((64, 64)), CFG)
    assert z.shape == (CFG.n_offsets, CFG.n_angles)
    assert np.abs(z).max() == 0.0
    rng = np.random.default_rng(0)
    f1 = rng.standard_normal((64, 64))
    f2 = rng.standard_normal((64, 64))
    lhs = radon_forward(2.0 * f1 - f2, CFG)
    rhs = 2.0 * radon_forward(f1, CFG) - radon_forward(f2, CFG)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_disc_sinogram_against_analytic():
    # chord length of the unit disc: 2 sqrt(1 - s^2), independent of angle
    img = phantom("disc", G)
    sino = radon_forward(img, CFG)
    s = CFG.offsets()
    true = np.where(np.abs(s) < 1.0,
                    2.0 * np.sqrt(np.clip(1.0 - s ** 2, 0.0, None)),
                    0.0)[:, None] * np.ones(CFG.n_angles)
    rel = np.linalg.norm(sino - true) / np.linalg.norm(true)
    assert rel < 0.04


def test_radial_image_gives_angle_independent_even_sinogram():
    sino = radon_forward(phantom("gaussian", G), CFG)
    assert np.abs(sino - sino[:, :1]).max() < 1e-2 * sino.max()
    assert np.abs(sino - sino[::-1]).max() < 1e-4 * sino.max()


def test_adjointness():
    rng = np.random.default_rng(4)
    for _ in range(5):
        f = rng.standard_normal((64, 64))
        g = rng.standard_normal((CFG.n_offsets, CFG.n_angles))
        lhs = (radon_forward(f, CFG) * g).sum() * CFG.ds * CFG.dtheta
        rhs = (f * radon_adjoint(g, CFG)).sum() * G.l2_weight()
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_matrix_matches_forward():
    g = GridSpec(dim=2, half_width=np.pi, n_grid=16)
    cfg = RadonConfig(grid=g, n_angles=12, n_offsets=17)
    img = np.random.default_rng(0).standard_normal((16, 16))
    m = radon_matrix(cfg)
    via = (m @ img.ravel()).reshape(cfg.n_offsets, cfg.n_angles)
    assert np.abs(via - radon_forward(img, cfg)).max() < 1e-12


@given(n=st.sampled_from([4, 8, 16]), n_angles=st.integers(1, 24),
       n_offsets=st.integers(2, 40), half_width=st.floats(0.5, 4.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_adjoint_is_exact(n, n_angles, n_offsets, half_width, seed):
    g = GridSpec(dim=2, half_width=half_width, n_grid=n)
    cfg = RadonConfig(grid=g, n_angles=n_angles, n_offsets=n_offsets)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((n, n))
    gv = rng.standard_normal((n_offsets, n_angles))
    rf = radon_forward(f, cfg)
    lhs = (rf * gv).sum() * cfg.ds * cfg.dtheta
    rhs = (f * radon_adjoint(gv, cfg)).sum() * g.l2_weight()
    # defect in units of the Cauchy-Schwarz bound |<Rf, g>| <= |Rf| |g|
    norms = np.sqrt((rf * rf).sum() * (gv * gv).sum()) * cfg.ds * cfg.dtheta
    assert abs(lhs - rhs) <= 1e-14 * norms


@given(n=st.sampled_from([4, 8, 16]), n_angles=st.integers(1, 24),
       n_offsets=st.integers(2, 40), half_width=st.floats(0.5, 4.0))
def test_operator_csr_matches_scipy(n, n_angles, n_offsets, half_width):
    # the numpy build against scipy's COO-to-CSR of the raw triplets
    from scipy import sparse
    g = GridSpec(dim=2, half_width=half_width, n_grid=n)
    cfg = RadonConfig(grid=g, n_angles=n_angles, n_offsets=n_offsets)
    data, indices, indptr = _operator(cfg)
    n_rays = n_angles * n_offsets
    assert indptr.size == n_rays + 1 and indptr[0] == 0
    assert np.all(np.diff(indptr) >= 0) and indptr[-1] == data.size
    rows = np.repeat(np.arange(n_rays), np.diff(indptr))
    assert np.all((np.diff(rows) > 0) | (np.diff(indices) > 0))

    coo_rows, cols, vals = [], [], []
    for angle, theta in enumerate(cfg.angles()):
        r, a, b, wx, wy = _angle_geometry(cfg, theta)
        i = np.concatenate((a, a + 1, a, a + 1))
        j = np.concatenate((b, b, b + 1, b + 1))
        w = np.concatenate(((1.0 - wx) * (1.0 - wy), wx * (1.0 - wy),
                            (1.0 - wx) * wy, wx * wy))
        keep = (i >= 0) & (i < n) & (j >= 0) & (j < n)
        coo_rows.append(angle * n_offsets + np.tile(r, 4)[keep])
        cols.append((i * n + j)[keep])
        vals.append(cfg.dt * w[keep])
    ref = sparse.coo_array(
        (np.concatenate(vals), (np.concatenate(coo_rows),
                                np.concatenate(cols))),
        shape=(n_rays, n * n)).tocsr()
    ref.sort_indices()
    assert np.array_equal(indptr, ref.indptr)
    assert np.array_equal(indices, ref.indices)
    # sums of non-negative weights in another order: relative error <= 1e-15
    assert np.all(np.abs(data - ref.data) <= 1e-15 * np.abs(ref.data))


def test_ramp_filter_is_linear_in_frequency():
    # the ramp response is linear in frequency: doubling the frequency of
    # a sinusoidal projection doubles the filtered amplitude
    s = CFG.offsets()
    amps = []
    for w in (2.0, 4.0):
        wave = np.cos(w * s)[:, None] * np.ones(CFG.n_angles)
        mid = ramp_filter(wave, CFG)[30:-30, 0]
        amps.append(np.abs(mid).max())
    assert amps[1] / amps[0] == pytest.approx(2.0, rel=0.1)


@pytest.mark.parametrize("apply", [radon_adjoint, ramp_filter, fbp_invert])
def test_sinogram_of_the_wrong_shape_is_refused(apply):
    with pytest.raises(ValueError, match="sinogram shape"):
        apply(np.zeros((CFG.n_angles, CFG.n_offsets)), CFG)


def test_fbp_roundtrip_gaussian():
    img = phantom("gaussian", G)
    rec = fbp_invert(radon_forward(img, CFG), CFG)
    assert np.linalg.norm(rec - img) / np.linalg.norm(img) < 0.03


def test_phantoms():
    assert phantom("disc", G).max() == 1.0
    assert phantom("two-bumps", G).min() >= 0.0
    with pytest.raises(ValueError):
        phantom("shepp-logan", G)


def test_boundary_flag():
    assert _support_touches_boundary(np.ones((64, 64)), CFG)
    assert not _support_touches_boundary(phantom("disc", G), CFG)


def test_save_load_roundtrip(tmp_path):
    arr = np.random.default_rng(0).standard_normal((5, 7))
    path = str(tmp_path / "arr.bin")
    save_array(path, arr, 1.5)
    back, header = load_array(path)
    assert np.array_equal(back, arr)
    assert header["extent"] == 1.5
    assert header["shape"] == [5, 7]


def test_radon_recombine_pair_norms_match_dense():
    # (sinogram x image) blocks are non-square and of partial rank, so the
    # factored pair norms truncate each block and carry a tail term
    g = GridSpec(dim=2, half_width=np.pi, n_grid=8)
    part = build_partition(identity_field(2), 0, 2)
    cfg = RadonConfig(grid=g, n_angles=12, n_offsets=11)
    a = sample_on(g, lambda x1, x2, xi1, xi2:
                  1.0 + 0.2 * np.cos(x1) + 0.0 * (x2 + xi1 + xi2))
    chi = make_cutoff(g, 1.5, 2.5).ravel()
    rmat = radon_matrix(cfg)
    blocks = {}
    for k in part.bands:
        lam = band_sum_symbol(part, k, g)
        op = weyl_quantize(a, weight=lam.values)
        blocks[(0, k)] = rmat @ (chi[:, None] * op * chi[None, :])
    rep = radon_recombine(blocks.items(), sum(blocks.values()), cfg)
    cert = rep["certificate"]

    scale = np.sqrt(cfg.ds * cfg.dtheta / g.l2_weight())
    mats = [scale * b for b in blocks.values()]
    assert mats[0].shape == (cfg.n_offsets * cfg.n_angles, g.npoints())
    star = np.array([[np.sqrt(spectral_norm(bi.conj().T @ bj))
                      for bj in mats] for bi in mats])
    adj = np.array([[np.sqrt(spectral_norm(bi @ bj.conj().T))
                     for bj in mats] for bi in mats])
    for got, want in ((cert.star_pair_matrix, star),
                      (cert.adj_pair_matrix, adj)):
        assert np.all(got >= want * (1.0 - 1e-12))
        assert np.abs(got - want).max() <= 1e-12 * want.max()
    assert cert.indices == [(0, k) for k in part.bands]
    assert cert.ok and rep["relative_discrepancy"] < 1e-12


def test_radon_block_gram_norms_match_dense_svd():
    # the block norms come from the Gram matrix G of R, as
    # sqrt(lambda_max(C^H G C)); they must equal the largest singular value
    # of the dense R C
    g = GridSpec(dim=2, half_width=np.pi, n_grid=8)
    part = build_partition(identity_field(2), 0, 2)
    cfg = RadonConfig(grid=g, n_angles=12, n_offsets=17)
    a = sample_on(g, lambda x1, x2, xi1, xi2:
                  np.sqrt(1.0 + xi1 ** 2 + xi2 ** 2) + 0.2 * np.cos(x1)
                  + 0.0 * x2)
    chi = make_cutoff(g, 1.5, 2.5)
    rows, _ = radon_block_experiment(a, part, chi, [1, 2], cfg, 1.0)
    m = radon_matrix(cfg)
    scale = np.sqrt(cfg.ds * cfg.dtheta / g.l2_weight())
    assert [row["k"] for row in rows] == [1, 2]
    for row in rows:
        lam = band_sum_symbol(part, row["k"], g)
        c = chi.ravel()[:, None] * weyl_quantize(a, weight=lam.values) \
            * chi.ravel()[None, :]
        want = scale * np.linalg.svd(m @ c, compute_uv=False)[0]
        assert row["norm"] == pytest.approx(want, rel=1e-12, abs=0.0)
    with pytest.raises(ValueError):  # band 3 is not built
        radon_block_experiment(a, part, chi, [1, 3], cfg, 1.0)


@pytest.mark.parametrize("n_angles,n_offsets", [(1, 2500), (3, 700)],
                         ids=["one angle over three blocks",
                              "blocks straddling angles"])
def test_gram_matches_the_dense_operator(monkeypatch, n_angles, n_offsets):
    # G = R^T R on a subset of pixel columns, filled from the line samples
    # in blocks of _GRAM_ROWS rays, against the dense R; the CSR operator
    # is not built
    g = GridSpec(dim=2, half_width=1.0, n_grid=8)
    cfg = RadonConfig(grid=g, n_angles=n_angles, n_offsets=n_offsets)
    # a block boundary falls inside an angle
    assert any(b % n_offsets for b in range(radon._GRAM_ROWS,
                                            n_angles * n_offsets,
                                            radon._GRAM_ROWS))
    cols = np.flatnonzero(np.random.default_rng(0).random(64) < 0.5)
    m = radon_matrix(cfg)[:, cols]
    want = m.T @ m

    def refuse(_):
        raise AssertionError("_gram built the CSR operator")

    monkeypatch.setattr(radon, "_operator", refuse)
    got = radon._gram(cfg, cols)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_radon_block_memory_guard(monkeypatch):
    # the radon-block-2d benchmark geometry: sampling the symbol and the
    # whole experiment trace 21.9 MiB when the symbol and band sums are
    # written out at (2 n_grid)^4 and G is formed from a dense R, 5.9 MiB
    # when G is summed from the CSR operator and every symbol row is
    # transformed, about 3.7 MiB when Weyl assembly transforms one row of
    # the x-independent symbol and G is filled from the line samples.  The
    # CSR operator's buffers are memory maps, which tracemalloc does not
    # see, so building it is refused outright
    g = GridSpec(dim=2, half_width=np.pi / 2, n_grid=16)
    part = build_partition(identity_field(2), 0, 4)
    chi = make_cutoff(g, 1.0, 1.3)
    cfg = RadonConfig(grid=g, n_angles=60, n_offsets=65)

    def refuse(_):
        raise AssertionError("radon_block_experiment formed R or its CSR "
                             "arrays")

    monkeypatch.setattr(radon, "radon_matrix", refuse)
    monkeypatch.setattr(radon, "_operator", refuse)
    tracemalloc.start()
    try:
        a = sample_on(g, lambda x1, x2, xi1, xi2:
                      np.sqrt(1.0 + xi1 ** 2 + xi2 ** 2))
        rows, _ = radon_block_experiment(a, part, chi, [1, 2, 3], cfg, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2 ** 20
    # the norms of G = R^T R formed densely, to 1e-12 relative
    want = [3.0407197866953486, 5.247251454522236, 5.901766569456147]
    assert [r["norm"] for r in rows] == pytest.approx(want, rel=1e-12,
                                                      abs=0.0)
