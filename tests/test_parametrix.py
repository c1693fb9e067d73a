import numpy as np
import pytest

from microloc import parametrix, partition
from microloc.grids import GridSpec, sample_on
from microloc.metric import conformal_field, identity_field, sqrt_metric
from microloc.parametrix import (EllipticSymbol, PatchRejectedError,
                                 build_parametrix, covered_xi_mask,
                                 gaussian_wavepacket, parametrix_residual)
from microloc.partition import _lattice, build_partition, localizer_symbol
from microloc.quantize import (fourier_multiplier, make_cutoff,
                               weyl_quantize)

G = GridSpec(dim=1, half_width=np.pi, n_grid=64)
G32 = GridSpec(dim=1, half_width=np.pi, n_grid=32)
MET = identity_field(1)


def _bracket_sq(grid):
    return sample_on(grid, lambda x, xi: 1.0 + xi ** 2 + 0.0 * x)


def _elliptic(grid, c0=0.4):
    return EllipticSymbol(symbol=_bracket_sq(grid), m2=2, c0=c0, big_r=1.0)


def _ones(grid):
    return np.ones((grid.n_grid,) * grid.dim)


def _aggregate_q(monkeypatch, p, part):
    """build_parametrix at order 1, and the aggregate symbol q it
    quantized (the second weyl_quantize call, after that of p)."""
    seen = []

    def recording(sym, *args, **kwargs):
        seen.append(sym.values)
        return weyl_quantize(sym, *args, **kwargs)

    monkeypatch.setattr(parametrix, "weyl_quantize", recording)
    px = build_parametrix(p, part, 1, _ones(p.symbol.grid))
    return px, seen[1]


def _patchwise(p, part):
    """The per-patch loop that build_parametrix replaced: each localizer
    sampled on its own and rejected where its support meets a zero of p
    or |p| < c0 (1 + |T_x xi|)^m2 / 2 with |T_x xi| >= big_r.  Returns the
    excluded patches, the covered bands and the sum of Lambda / p over
    the accepted patches."""
    grid = p.symbol.grid
    t = sqrt_metric(part.metric(_lattice(grid.x_axis_doubled(), grid.dim)))
    xi = _lattice(grid.xi_axis_refined(), grid.dim)
    fn = np.linalg.norm(np.einsum("pij,qj->pqi", t, xi), axis=-1)
    vals = p.symbol.values.reshape(fn.shape)
    bad = (np.abs(vals) < 0.5 * p.c0 * (1.0 + fn) ** p.m2) \
        & (fn >= p.big_r) | (vals == 0.0)
    excluded, covered, q = [], set(), np.zeros_like(vals)
    for k in part.bands:
        for j in range(part.nets[k].size):
            lam = localizer_symbol(part, j, k, grid).values.reshape(fn.shape)
            sup = lam > 0.0
            if (sup & bad).any():
                excluded.append((j, k))
                continue
            q[sup] += lam[sup] / vals[sup]
            covered.add(k)
    return excluded, sorted(covered), q.reshape(p.symbol.values.shape)


def test_build_parametrix_divides_the_localizer_sum_by_p(monkeypatch):
    part = build_partition(MET, 2, 4)
    p = _elliptic(G)
    _, q = _aggregate_q(monkeypatch, p, part)
    lam = sum(localizer_symbol(part, j, k, G).values
              for k in part.bands for j in range(part.nets[k].size))
    sup = lam > 0.0
    assert np.abs(q[~sup]).max() == 0.0
    assert np.abs(q[sup] - lam[sup] / p.symbol.values[sup]).max() < 1e-14


def test_build_parametrix_rejects_patches_below_the_floor():
    part = build_partition(MET, 2, 4)
    # c0 large enough that 0.5 c0 (1+|xi|)^2 exceeds 1+xi^2 on every patch
    with pytest.raises(PatchRejectedError, match="every patch was rejected"):
        build_parametrix(_elliptic(G, c0=10.0), part, 1, _ones(G))


def test_build_parametrix_takes_one_neighbour_pass_per_band(monkeypatch):
    # no lattice point is below this floor, so each band's localizers come
    # from one neighbour query over the grid sample's (distinct T_x,
    # active frequency) rows, and no patch is sampled on its own
    part = build_partition(MET, 2, 4)
    xi_pts, t_uniq, _, _ = part._grid_sample(G)
    active = [int((partition.rho(np.abs(xi_pts[:, 0]) / 2.0 ** k) > 0).sum())
              for k in part.bands]
    rows = []
    block = partition._CellIndex.block

    def counting(index, u, reach, cells=False):
        rows.append(len(u))
        return block(index, u, reach, cells)

    def refused(*args):
        raise AssertionError("a localizer was sampled on its own")

    monkeypatch.setattr(partition._CellIndex, "block", counting)
    monkeypatch.setattr(part, "_normalized", refused)
    monkeypatch.setattr(partition, "localizer_symbol", refused)
    px = build_parametrix(_elliptic(G), part, 1, _ones(G))
    assert px.covered_bands == part.bands and not px.excluded
    assert rows == [len(t_uniq) * a for a in active]


def _conformal_1d():
    return conformal_field(lambda x: 2.0 + np.sin(x[0]), 1, 1.0, 3.0)


@pytest.mark.parametrize("metric,grid,bands,symbol,c0,big_r,some,empty", [
    # 1 + xi^2 < 0.8 (1 + |xi|)^2 for 0.13 < |xi| < 7.87: low bands fail
    (MET, G, (1, 5), lambda x, xi: 1.0 + xi ** 2 + 0.0 * x, 1.6, 1.0,
     True, False),
    # band 6 reaches |xi| = 128, the refined lattice only 32
    (MET, G, (3, 6), lambda x, xi: 1.0 + xi ** 2 + 0.0 * x, 0.4, 1.0,
     False, True),
    # p vanishes at |xi| = 4, inside big_r, where no floor is checked
    (MET, G32, (1, 3), lambda x, xi: xi ** 2 - 16.0 + 0.0 * x, 0.5, 5.0,
     True, False),
    # T_x and p depend on x
    (_conformal_1d(), G32, (1, 4),
     lambda x, xi: (2.0 + np.sin(x)) * xi ** 2 + 1.0 + np.cos(3.0 * x),
     1.3, 2.0, True, False),
    # one T_x row for every x, and the floor holds near x = 0 only
    (MET, G32, (1, 4),
     lambda x, xi: (1.0 + xi ** 2) * (0.6 - 0.5 * np.cos(x)), 0.4, 6.0,
     True, False),
], ids=["partial rejection", "empty supports", "zero of p", "x-dependent",
        "x-dependent p"])
def test_build_parametrix_matches_the_per_patch_loop(
        monkeypatch, metric, grid, bands, symbol, c0, big_r, some, empty):
    # some: the case rejects some patches, not all; empty: it holds an
    # accepted patch with no support on the grid
    part = build_partition(metric, *bands, low_freq_cap=True)
    p = EllipticSymbol(symbol=sample_on(grid, symbol), m2=2, c0=c0,
                       big_r=big_r)
    excluded, covered, q_ref = _patchwise(p, part)
    px, q = _aggregate_q(monkeypatch, p, part)
    assert px.excluded == excluded
    assert px.covered_bands == covered
    assert np.abs(q - q_ref).max() <= 1e-13 * np.abs(q_ref).max()
    total = sum(part.nets[k].size for k in part.bands)
    assert (0 < len(excluded) < total) if some else not excluded
    assert not empty or any(
        not localizer_symbol(part, j, k, grid).values.any()
        for k in part.bands for j in range(part.nets[k].size))


def test_build_parametrix_matches_the_per_patch_loop_on_a_rotated_ellipse(
        monkeypatch, rotated_ellipse):
    # a metric anisotropic at every point, x-dependent in both coordinates:
    # the floor rejects low-frequency patches of band 1 only
    grid = GridSpec(dim=2, half_width=np.pi, n_grid=8)
    part = build_partition(rotated_ellipse(), 1, 2, low_freq_cap=True)
    p = EllipticSymbol(symbol=sample_on(
        grid, lambda x1, x2, xi1, xi2: (2.0 + np.sin(x1))
        * (xi1 ** 2 + xi2 ** 2) + 1.0 + 0.5 * np.cos(x2)),
        m2=2, c0=0.4, big_r=1.0)
    excluded, covered, q_ref = _patchwise(p, part)
    px, q = _aggregate_q(monkeypatch, p, part)
    assert px.excluded == excluded
    assert px.covered_bands == covered == [1, 2]
    assert 0 < len(excluded) < part.nets[1].size
    assert np.abs(q - q_ref).max() <= 1e-13 * np.abs(q_ref).max()


def test_partial_exclusion_matches_patchwise_check():
    part = build_partition(MET, 1, 5, low_freq_cap=True)
    # 1 + xi^2 < 0.8 (1 + |xi|)^2 exactly for 0.13 < |xi| < 7.87, so the
    # floor (checked from big_r = 1 on) rejects low-band patches only
    p = _elliptic(G, c0=1.6)
    ones = np.ones(G.n_grid)
    px = build_parametrix(p, part, 1, ones)

    # brute force, patch by patch; the identity metric's fiber norm is |xi|
    xi = np.abs(G.xi_axis_refined())
    floor_bad = (np.abs(p.symbol.values) < 0.5 * p.c0 * (1.0 + xi) ** p.m2) \
        & (xi >= p.big_r)
    excluded, kept = [], []
    for k in part.bands:
        for j in range(part.nets[k].size):
            lam = localizer_symbol(part, j, k, G)
            bad = bool((floor_bad & (np.abs(lam.values) > 0.0)).any())
            (excluded if bad else kept).append((j, k))
    assert excluded and kept
    assert px.excluded == excluded
    assert px.covered_bands == sorted({k for (_, k) in kept})


def test_build_parametrix_order_validation():
    part = build_partition(MET, 2, 4)
    p = _elliptic(G)
    ones = np.ones(G.n_grid)
    with pytest.raises(ValueError):
        build_parametrix(p, part, 0, ones)
    with pytest.raises(ValueError):
        build_parametrix(p, part, 4, ones)


def test_covered_xi_mask_identity():
    part = build_partition(MET, 2, 4)
    mask = covered_xi_mask(part, G, [2, 3, 4])
    xi = G.xi_axis()
    at = dict(zip(xi.astype(int), mask))
    assert at[10] and at[8] and at[-10]
    assert not at[2]        # band 1 would be active but is not built
    assert not at[31]       # band 5 would be active but is not built
    assert not at[0]


def test_gaussian_wavepacket_localization():
    u = gaussian_wavepacket(G, 0.5, 10.0, 0.4)
    x = G.x_axis()
    assert np.abs(u[np.argmax(np.abs(u))]) == np.abs(u).max()
    assert x[np.argmax(np.abs(u))] == pytest.approx(0.5, abs=G.dx)
    spec = np.abs(np.fft.fftshift(np.fft.fft(u)))
    assert G.xi_axis()[np.argmax(spec)] == pytest.approx(10.0, abs=G.dxi)


def test_residual_rejects_uncovered_test_function():
    part = build_partition(MET, 2, 4)
    p = _elliptic(G)
    ones = np.ones(G.n_grid)
    px = build_parametrix(p, part, 1, ones)
    bad = gaussian_wavepacket(G, 0.0, 1.0, 0.5)  # centered off the coverage
    rep = parametrix_residual(px, [bad, np.zeros(G.n_grid)])
    assert len(rep["rejected"]) == 2
    assert "frequency" in rep["rejected"][0]["reason"]
    assert np.isnan(rep["max_rel_error"])


def test_parametrix_inverts_multiplier_symbol():
    part = build_partition(MET, 1, 5, low_freq_cap=True)
    p = _elliptic(G)
    ones = np.ones(G.n_grid)
    px = build_parametrix(p, part, 1, ones)
    tests = [gaussian_wavepacket(G, 0.0, s * 14.0, 0.55) for s in (-1, 1)]
    rep = parametrix_residual(px, tests)
    assert not rep["rejected"]
    assert rep["max_rel_error"] < 1e-6
    assert not px.excluded
    assert px.covered_bands == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("order", [1, 2, 3])
def test_operator_residual_is_the_accepted_iterates(order):
    # the report reads the residual build_parametrix computed; it must be
    # the value a dense projector plateau * Pi_covered and SVD give for the
    # returned composition
    part = build_partition(MET, 1, 5, low_freq_cap=True)
    p = EllipticSymbol(
        symbol=sample_on(G, lambda x, xi: xi ** 2 + 1.0 + 0.5 * np.cos(x)),
        m2=2, c0=0.4, big_r=1.0)
    chi = make_cutoff(G, 2.6, 3.1)
    px = build_parametrix(p, part, order, chi)
    rep = parametrix_residual(px, [gaussian_wavepacket(G, 0.0, 14.0, 0.55)])
    xi_ok = covered_xi_mask(part, G, px.covered_bands)
    proj = (chi >= 1.0 - 1e-9).astype(float)[:, None] \
        * fourier_multiplier(np.where(xi_ok, 1.0, 0.0), G)
    dense = np.linalg.norm((px.composition - np.eye(G.npoints())) @ proj, 2)
    assert rep["operator_residual"] == pytest.approx(dense, rel=1e-12)


def test_damping_keeps_only_steps_that_lower_the_residual():
    # on this config the second correction moves the residual by about one
    # ulp; a step is kept only if it lowers the residual beyond rounding
    part = build_partition(MET, 1, 5, low_freq_cap=True)
    chi = make_cutoff(G, 2.6, 3.1)
    px = build_parametrix(_elliptic(G), part, 3, chi)
    hist = px.residuals
    for before, after in zip(hist, hist[1:]):
        assert after < before * (1.0 - 1e-12)


def test_parametrix_keeps_the_masks_of_its_residual(monkeypatch):
    # the frequency and plateau masks are computed once, by build_parametrix,
    # and parametrix_residual reads them
    part = build_partition(MET, 1, 5, low_freq_cap=True)
    chi = make_cutoff(G, 2.6, 3.1)
    px = build_parametrix(_elliptic(G), part, 1, chi)
    assert np.array_equal(px.xi_ok,
                          covered_xi_mask(part, G, px.covered_bands))
    assert np.array_equal(px.plateau, chi >= 1.0 - 1e-9)

    calls = []
    monkeypatch.setattr(parametrix, "covered_xi_mask",
                        lambda *args: calls.append(args))
    rep = parametrix_residual(px, [gaussian_wavepacket(G, 0.0, 14.0, 0.55)])
    assert not calls
    assert not rep["rejected"]
