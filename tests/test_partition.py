import functools
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microloc import partition
from microloc.grids import GridSpec, GridSymbol, sample_on
from microloc.metric import (_fd_derivative, conformal_field, identity_field,
                             verify_metric_hypotheses)
from microloc.parametrix import EllipticSymbol, build_parametrix
from microloc.partition import (DyadicNet, EmptyNetError, Partition,
                                _annulus_lattice, _lattice, band_sum_symbol,
                                build_net, build_partition, localizer_symbol,
                                packing_bound, phi_profile, pou_deviation,
                                radial_band_count, representative_patch, rho,
                                validate_net, verify_localizer_derivatives)
from microloc.quantize import weyl_quantize


def test_bump_profiles():
    r = np.linspace(0.0, 0.5, 11)
    assert np.all(phi_profile(r) == 1.0)
    assert np.all(phi_profile(np.linspace(1.0, 3.0, 11)) == 0.0)
    assert phi_profile(np.array([np.inf]))[0] == 0.0
    mid = phi_profile(np.linspace(0.55, 0.95, 11))
    assert np.all((mid > 0.0) & (mid < 1.0))
    assert np.all(rho(np.linspace(0.5, 2.0, 11)) == 1.0)
    assert np.all(rho(np.array([0.2, 0.25, 4.0, 5.0])) == 0.0)
    assert np.all(rho(np.array([0.3, 3.0])) > 0.0)


@pytest.mark.parametrize("dim,k", [(1, 0), (1, 3), (2, 1), (2, 2)])
def test_net_separation_covering_packing(dim, k):
    net = build_net(k, dim)
    rep = validate_net(net)
    assert rep["separation_ok"]
    assert rep["covering_ok"]
    assert net.size <= packing_bound(k, dim)
    r = np.linalg.norm(net.centers, axis=1)
    assert np.all((r >= 2.0 ** k) & (r < 2.0 ** (k + 1)))


def test_net_deterministic():
    a = build_net(2, 2)
    b = build_net(2, 2)
    assert np.array_equal(a.centers, b.centers)


@given(dim=st.sampled_from([1, 2]), k=st.integers(0, 3))
def test_net_separated_and_covering_on_its_lattice(dim, k):
    rep = validate_net(build_net(k, dim))
    assert rep["separation_ok"]
    assert rep["covering_ok"]


def test_net_validation():
    with pytest.raises(EmptyNetError):
        build_net(-5, 1)
    with pytest.raises(ValueError):
        build_net(1, 3)


def test_partition_of_unity_random_points():
    part = build_partition(identity_field(2), 1, 3)
    rng = np.random.default_rng(0)
    xs, xis = np.empty((50, 2)), np.empty((50, 2))
    for i in range(50):
        xs[i] = rng.uniform(-2, 2, 2)
        mag = rng.uniform(4.0, 8.0)  # interior band: every active k built
        d = rng.standard_normal(2)
        xis[i] = mag * d / np.linalg.norm(d)
    # the i-th sample point is the diagonal pair (xs[i], xis[i])
    chi = sum(np.diag(part.chi_pairs(j, k, xs, xis))
              for k in part.bands for j in range(part.nets[k].size))
    total = chi / np.diag(part.sigma_pairs(xs, xis))
    assert total == pytest.approx(np.ones(50), abs=1e-12)


def test_localizer_zero_off_support():
    part = build_partition(identity_field(1), 2, 3)
    x, far_xi = np.zeros((1, 1)), np.array([[100.0]])
    assert part.chi_pairs(0, 2, x, far_xi)[0, 0] == 0.0
    assert part.sigma_pairs(x, far_xi)[0, 0] == 0.0
    # the low-frequency cap covers the frequencies below the built bands
    capped = build_partition(identity_field(1), 2, 3, low_freq_cap=True)
    assert capped.sigma_pairs(x, np.array([[0.5]]))[0, 0] > 0.0
    # the grid localizer is exactly 0 where band 2's rho vanishes, not 0/0
    grid = GridSpec(dim=1, half_width=np.pi, n_grid=64)
    far = np.abs(grid.xi_axis_refined()) >= 16.0
    assert far.any()
    assert np.all(localizer_symbol(part, 0, 2, grid).values[:, far] == 0.0)


def test_overlap_and_radial_bounds():
    part = build_partition(identity_field(2), 0, 3)
    rng = np.random.default_rng(1)
    xs = rng.uniform(-2, 2, (40, 2))
    xis = rng.uniform(-10, 10, (40, 2))
    assert np.diag(part.overlap_pairs(xs, xis)).max() <= 5 ** (part.dim + 1)
    counts = radial_band_count(rng.uniform(-12, 12, (200, 2)))
    assert counts.max() <= 5
    # |xi| = 1: rho(2^-k) > 0 exactly for k in {-1, 0, 1}
    assert radial_band_count(np.array([[1.0, 0.0]]))[0] == 3


def test_overlap_pairs_matches_direct_count():
    # the cell-indexed count against the brute-force count over every patch
    met = conformal_field(lambda x: 2.0 + np.sin(x[0]) * np.cos(x[1]), 2,
                          lambda_min=1.0, lambda_max=3.0)
    part = build_partition(met, 1, 3)
    rng = np.random.default_rng(2)
    x = rng.uniform(-3, 3, (5, 2))
    xi = rng.uniform(-12, 12, (80, 2))
    direct = sum((part.chi_pairs(j, k, x, xi) > 0.0).astype(np.int64)
                 for k in part.bands for j in range(part.nets[k].size))
    counts = part.overlap_pairs(x, xi)
    assert np.array_equal(counts, direct)
    assert counts.max() >= 10


def test_broken_net_exceeds_neighbor_budget():
    # centers 0.1 apart break the 1/2-separation that bounds the neighbor
    # query; both cell-indexed sums must refuse instead of undercounting
    net = DyadicNet(k=2, centers=np.arange(4.0, 8.0, 0.1)[:, None])
    part = Partition(identity_field(1), 2, 2, {2: net})
    x, xi = np.zeros((1, 1)), np.array([[6.0]])
    with pytest.raises(RuntimeError, match="neighbor budget"):
        part.sigma_pairs(x, xi)
    with pytest.raises(RuntimeError, match="neighbor budget"):
        part.overlap_pairs(x, xi)


def test_pou_deviation_interior():
    part = build_partition(identity_field(1), 0, 4)
    xs = np.linspace(-2, 2, 7)[:, None]
    xis = np.linspace(2.0, 16.0, 40)[:, None]
    assert pou_deviation(part, xs, xis) < 1e-12


def test_band_shift_under_conformal_metric():
    # fiber norm sqrt(4) |xi| doubles the frequency, shifting bands by one
    met = conformal_field(lambda x: 4.0, 1, lambda_min=4.0, lambda_max=4.0)
    part = build_partition(met, 0, 5)
    xi = np.array([3.0])  # |T xi| = 6 lands in C_2 instead of C_1
    chi2 = sum(part.chi_pairs(j, 2, np.array([[0.0]]), xi[None, :])[0, 0]
               for j in range(part.nets[2].size))
    assert chi2 > 0.0


def test_localizer_symbol_matches_pointwise():
    part = build_partition(identity_field(1), 1, 3)
    grid = GridSpec(dim=1, half_width=np.pi, n_grid=16)
    sym = localizer_symbol(part, 0, 2, grid)
    assert sym.values.shape == (32, 32)
    assert sym.values.dtype == np.float64
    xd = grid.x_axis_doubled()
    xr = grid.xi_axis_refined()
    for ix, ixi in [(0, 20), (5, 24), (9, 28)]:
        x, xi = np.array([[xd[ix]]]), np.array([[xr[ixi]]])
        want = part.chi_pairs(0, 2, x, xi) / part.sigma_pairs(x, xi)
        assert sym.values[ix, ixi] == pytest.approx(want[0, 0], abs=1e-12)


def test_band_sum_symbol_equals_patch_sum():
    part = build_partition(identity_field(1), 1, 3)
    grid = GridSpec(dim=1, half_width=np.pi, n_grid=16)
    total = sum(localizer_symbol(part, j, 2, grid).values
                for j in range(part.nets[2].size))
    agg = band_sum_symbol(part, 2, grid).values
    assert np.abs(total - agg).max() < 1e-12


def _conformal_1d():
    return conformal_field(lambda x: 2.0 + np.sin(x[0]), 1,
                           lambda_min=1.0, lambda_max=3.0)


def _conformal_2d():
    # 73 distinct T_x on the doubled lattice of n_grid=8, 273 at 16
    return conformal_field(lambda x: 2.0 + np.sin(x[0]) + 0.5 * np.sin(x[1]),
                           2, lambda_min=0.5, lambda_max=3.5)


@pytest.mark.parametrize("dim,n_grid", [(1, 16), (2, 8)])
def test_grid_symbols_match_pointwise_on_a_conformal_metric(dim, n_grid):
    # the grid stacks the rows T_x xi of every distinct T_x into one query
    # per band; the pairs calls below each see one T_x, so a mix-up of the
    # (T_x, xi) row order shows as a wrong value
    metric = _conformal_1d() if dim == 1 else _conformal_2d()
    part = build_partition(metric, 1, 3, low_freq_cap=True)
    grid = GridSpec(dim=dim, half_width=np.pi, n_grid=n_grid)
    x_pts = _lattice(grid.x_axis_doubled(), dim)
    xi_pts = _lattice(grid.xi_axis_refined(), dim)
    # the grid evaluates each distinct T_x at its first x; at a later x
    # with the same rounded T_x the matrix can differ in the last bit
    _, inv = part.fiber_transforms(x_pts)
    firsts = np.unique(inv, return_index=True)[1]
    rows = np.random.default_rng(dim).choice(firsts, 12, replace=False)

    def normalized(num, sigma):
        return np.divide(num, sigma, out=np.zeros_like(num), where=num > 0.0)

    for k in part.bands:
        size = part.nets[k].size
        # Sigma of a one-band partition is that band's sum of chi
        one_band = Partition(metric, k, k, {k: part.nets[k]})
        band = band_sum_symbol(part, k, grid).values.reshape(len(x_pts), -1)
        lams = {j: localizer_symbol(part, j, k, grid).values
                .reshape(len(x_pts), -1) for j in (0, size // 2, size - 1)}
        for r in rows:
            x = x_pts[r:r + 1]
            sigma = part.sigma_pairs(x, xi_pts)[0]
            assert np.array_equal(
                band[r], normalized(one_band.sigma_pairs(x, xi_pts)[0], sigma))
            for j, lam in lams.items():
                assert np.array_equal(
                    lam[r], normalized(part.chi_pairs(j, k, x, xi_pts)[0],
                                       sigma))
        assert band[rows].max() > 0.0


def _conformal_x1_2d():
    # 2 + sin(x1): constant along x2
    return conformal_field(lambda x: 2.0 + np.sin(x[0]), 2,
                           lambda_min=1.0, lambda_max=3.0)


def _materialized(part, k, term, grid):
    """(band-k sum of term) / Sigma written out at the full grid shape by
    the gather of the distinct-T_x rows, out[inv]."""
    xi_pts, t_uniq, inv, sigma = part._grid_sample(grid)
    num = part._band_eval(t_uniq, xi_pts, [k], term)
    out = np.zeros_like(num)
    mask = num > 0.0
    out[mask] = num[mask] / sigma[mask]
    return out[inv].reshape((2 * grid.n_grid,) * (2 * grid.dim))


@pytest.mark.parametrize("dim,metric,constant_axes", [
    (1, identity_field(1), (0,)),
    (1, _conformal_1d(), ()),
    (2, identity_field(2), (0, 1)),
    (2, _conformal_x1_2d(), (1,)),
    (2, _conformal_2d(), ()),
], ids=["1D identity", "1D 2+sin(x1)", "2D identity", "2D 2+sin(x1)",
        "2D every axis"])
def test_localizers_store_the_shape_the_metric_varies_on(dim, metric,
                                                         constant_axes):
    # a localizer depends on x only through T_x: its values are a read-only
    # view with stride 0 exactly on the spatial axes the metric ignores,
    # bitwise equal to the materialized gather, and Weyl assembly of a
    # broadcast symbol and weight is bitwise that of their copies
    part = build_partition(metric, 1, 3, low_freq_cap=True)
    grid = GridSpec(dim=dim, half_width=np.pi, n_grid=16 if dim == 1 else 8)
    a = sample_on(grid, lambda *z: 1.0 + 0.5j * z[dim]
                  + sum(xi * xi for xi in z[dim:]))
    want_zero = [i in constant_axes for i in range(dim)] + [False] * dim
    for k in part.bands:
        syms = [(band_sum_symbol(part, k, grid), part._chi_band_sum)]
        for j in {0, representative_patch(part, k), part.nets[k].size - 1}:
            syms.append((localizer_symbol(part, j, k, grid),
                         part._chi_term(j, k)))
        for sym, term in syms:
            vals = sym.values
            assert [s == 0 for s in vals.strides] == want_zero
            assert not vals.flags.writeable
            assert np.array_equal(vals,
                                  _materialized(part, k, term, grid))
        lam = syms[-1][0].values
        copy = GridSymbol(grid=grid, values=np.array(a.values))
        assert np.array_equal(weyl_quantize(a, weight=lam),
                              weyl_quantize(copy, weight=np.array(lam)))


@pytest.mark.parametrize("chunk", [7 ** 2, 7 ** 2 * 1000, partition._CHUNK])
def test_partition_values_do_not_depend_on_the_chunk(monkeypatch, chunk):
    # against one slice per band: 7^2 puts one T_x in each slice, the
    # larger bounds a few, with a partial last slice
    grid = GridSpec(dim=2, half_width=np.pi, n_grid=8)
    rng = np.random.default_rng(4)
    x = rng.uniform(-4.0, 4.0, (20, 2))
    xi = rng.uniform(-20.0, 20.0, (300, 2))

    def evaluate(chunk):
        monkeypatch.setattr(partition, "_CHUNK", chunk)
        part = build_partition(_conformal_2d(), 1, 3, low_freq_cap=True)
        searches = []
        search = part._neighbor_distances
        monkeypatch.setattr(part, "_neighbor_distances",
                            lambda k, u: searches.append(k) or search(k, u))
        vals = [part.sigma_pairs(x, xi), part.overlap_pairs(x, xi),
                pou_deviation(part, x, xi)]
        for k in part.bands:
            vals.append(band_sum_symbol(part, k, grid).values)
            vals.append(localizer_symbol(part, 1, k, grid).values)
        return vals, len(searches)

    want, whole_searches = evaluate(2 ** 40)
    got, sliced_searches = evaluate(chunk)
    assert sliced_searches > whole_searches
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_grid_sigma_memory_is_bounded_by_the_chunk():
    # one query over all 273 distinct T_x of this grid would hold cell
    # blocks of about 300 MiB; with slices the peak is about 16 MiB
    part = build_partition(_conformal_2d(), 1, 3, low_freq_cap=True)
    grid = GridSpec(dim=2, half_width=np.pi, n_grid=16)
    tracemalloc.start()
    try:
        band_sum_symbol(part, 2, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(part._grid_sample(grid)[1]) == 273
    assert peak <= 64 * 2 ** 20


def test_build_parametrix_samples_the_partition_once_per_grid(monkeypatch):
    # 33 distinct T_x: one neighbor search per band, not one per T_x, and
    # one metric evaluation for all 64 points of the doubled lattice
    calls = {"_sigma": 0, "fiber_transforms": 0, "_neighbor_distances": 0,
             "evaluator": 0}

    def sigma(x):
        calls["evaluator"] += 1
        return 2.0 + np.sin(x[0])

    metric = conformal_field(sigma, 1, lambda_min=1.0, lambda_max=3.0)
    part = build_partition(metric, 1, 4, low_freq_cap=True)
    grid = GridSpec(dim=1, half_width=np.pi, n_grid=32)

    def counted(name):
        method = getattr(part, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)

        return wrapper

    for name in ("_sigma", "fiber_transforms", "_neighbor_distances"):
        monkeypatch.setattr(part, name, counted(name))
    p = EllipticSymbol(symbol=sample_on(grid, lambda x, xi: 1.0 + xi ** 2
                                        * (2.0 + np.sin(x))),
                       m2=2, c0=0.4, big_r=1.0)
    ones = np.ones(grid.n_grid)
    px = build_parametrix(p, part, 1, ones)
    assert px.covered_bands == part.bands
    assert calls == {"_sigma": 1, "fiber_transforms": 1,
                     "_neighbor_distances": len(part.bands), "evaluator": 1}


def test_grid_samples_are_keyed_by_grid():
    # same n_grid, different box: a sample reused across the two grids
    # would have the right shapes and the wrong values
    grid_a = GridSpec(dim=1, half_width=np.pi, n_grid=16)
    grid_b = GridSpec(dim=1, half_width=np.pi / 2, n_grid=16)
    shared = build_partition(_conformal_1d(), 1, 3, low_freq_cap=True)
    for grid in (grid_a, grid_b, grid_a):
        fresh = build_partition(_conformal_1d(), 1, 3, low_freq_cap=True)
        for got, want in zip(shared._grid_sample(grid),
                             fresh._grid_sample(grid)):
            assert np.array_equal(got, want)
        for k in shared.bands:
            assert np.array_equal(band_sum_symbol(shared, k, grid).values,
                                  band_sum_symbol(fresh, k, grid).values)
            for j in range(shared.nets[k].size):
                assert np.array_equal(
                    localizer_symbol(shared, j, k, grid).values,
                    localizer_symbol(fresh, j, k, grid).values)


# the cell index against O(M N) scans --------------------------------------

def _scan_sq_dist(centers, u):
    """Squared distance from every row of u to every center, (M, N)."""
    return ((centers[None, :, :] - u[:, None, :]) ** 2).sum(axis=-1)


def _scan_neighbors(centers, u, kq):
    """Ascending distances to the centers closer than 1, inf-padded to kq."""
    out = np.full((len(u), kq), np.inf)
    for row, d2 in zip(out, _scan_sq_dist(centers, u)):
        near = np.sqrt(np.sort(d2[d2 < 1.0]))
        row[:len(near)] = near
    return out


def _scan_validate(net, dim):
    """Separation and covering of a net by scanning every pair."""
    d2 = _scan_sq_dist(net.centers, net.centers)
    np.fill_diagonal(d2, np.inf)
    lattice = _annulus_lattice(net.k, dim)
    cover = max(np.sqrt(_scan_sq_dist(net.centers, lattice[lo:lo + 512])
                        .min(axis=1)).max()
                for lo in range(0, len(lattice), 512))
    return float(np.sqrt(d2.min())) if net.size > 1 else np.inf, float(cover)


def _queries(centers, rng):
    """Random points around the net, points just outside its bounding box
    on every side, and points at distance exactly 1 from a center."""
    dim = centers.shape[1]
    lo, hi = centers.min(axis=0), centers.max(axis=0)
    spread = rng.uniform(lo - 1.5, hi + 1.5, (200, dim))
    edge = []
    for axis in range(dim):
        for side, sign in ((lo, -1.0), (hi, 1.0)):
            for gap in (1e-9, 0.05, 0.3, 0.7, 0.99, 1.2):
                p = rng.uniform(lo, hi, (4, dim))
                p[:, axis] = side[axis] + sign * gap
                edge.append(p)
    # lattice centers and unit steps along an axis: float distance exactly 1
    picks = centers[rng.integers(0, len(centers), 6)]
    unit = np.concatenate([picks + s * np.eye(dim)[a]
                           for a in range(dim) for s in (-1.0, 1.0)])
    return np.concatenate([spread, *edge, unit])


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_neighbor_distances_match_a_full_scan(dim, k):
    part = build_partition(identity_field(dim), k, k)
    centers = part.nets[k].centers
    u = _queries(centers, np.random.default_rng(10 * k + dim))
    assert np.any(_scan_sq_dist(centers, u) == 1.0)
    kq = min(len(centers), 5 ** dim + 2)
    got = part._neighbor_distances(k, u)
    assert got.shape == (len(u), kq)
    assert np.array_equal(got, _scan_neighbors(centers, u, kq))


@pytest.mark.parametrize("dim,k", [(1, -1), (1, 0), (1, 1), (1, 2), (1, 3),
                                   (1, 4), (2, 0), (2, 1), (2, 2), (2, 3)])
def test_validate_net_matches_a_full_scan(dim, k):
    # 1D k=-1 is two centers 1.375 apart: its separation comes from the
    # scan behind the index
    net = build_net(k, dim)
    rep = validate_net(net)
    assert (rep["min_separation"], rep["covering_radius"]) \
        == _scan_validate(net, dim)
    assert rep["separation_ok"] and rep["covering_ok"]


def test_validate_net_reports_a_net_the_index_cannot_hold():
    # a center 0.1 from another shares its cell: validation still measures
    # the net, and separation fails
    base = build_net(1, 2)
    net = DyadicNet(k=1, centers=np.vstack(
        [base.centers, base.centers[:1] + [0.1, 0.0]]))
    rep = validate_net(net)
    assert (rep["min_separation"], rep["covering_radius"]) \
        == _scan_validate(net, 2)
    assert rep["min_separation"] == pytest.approx(0.1)
    assert not rep["separation_ok"] and rep["covering_ok"]


def test_broken_2d_net_exceeds_neighbor_budget():
    axis = np.arange(4.0, 6.0, 0.1)
    net = DyadicNet(k=2, centers=np.stack(np.meshgrid(axis, axis), -1)
                    .reshape(-1, 2))
    part = Partition(identity_field(2), 2, 2, {2: net})
    with pytest.raises(RuntimeError, match="neighbor budget"):
        part.sigma_pairs(np.zeros((1, 2)), np.array([[5.0, 5.0]]))


# partition of unity as a property -----------------------------------------

@functools.cache
def _pou_partition(dim, k_min, k_max, conformal, low_freq_cap):
    metric = (conformal_field(lambda x: 2.0 + np.sin(x.sum(axis=0)), dim,
                              lambda_min=1.0, lambda_max=3.0)
              if conformal else identity_field(dim))
    return build_partition(metric, k_min, k_max, low_freq_cap=low_freq_cap)


@given(dim=st.sampled_from([1, 2]), k_min=st.integers(0, 3),
       span=st.integers(0, 2), conformal=st.booleans(),
       low_freq_cap=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_partition_of_unity_property(dim, k_min, span, conformal,
                                     low_freq_cap, seed):
    # pou_deviation's numerator sums every center's cutoff directly, so it
    # checks the cell-indexed Sigma
    k_max = min(k_min + span, 3 if dim == 2 else 5)
    part = _pou_partition(dim, k_min, k_max, conformal, low_freq_cap)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-4.0, 4.0, (3, dim))
    mags = 2.0 ** rng.uniform(k_min - 2, k_max + 2, 32)
    dirs = rng.standard_normal((32, dim))
    xi = mags[:, None] * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    assert pou_deviation(part, x, xi) <= 1e-12


def _derivative_samples(part, sigma, rng, per_band):
    """Samples (x, xi) with T_x xi = sqrt(sigma(x)) xi at distance 0.55 to
    0.95 from each band's representative center, where its cutoff falls,
    so that no patch's constants vanish."""
    samples = []
    for k in part.bands:
        zeta = part.nets[k].centers[representative_patch(part, k)]
        for _ in range(per_band):
            x = rng.uniform(-3.0, 3.0, part.dim)
            d = rng.standard_normal(part.dim)
            u = zeta + rng.uniform(0.55, 0.95) * d / np.linalg.norm(d)
            samples.append((x, u / np.sqrt(sigma(x))))
    return samples


def _one_row_constants(part, samples):
    """verify_localizer_derivatives' constants with Lambda evaluated one
    stencil point at a time, each a one-row chi_pairs / sigma_pairs."""
    n = part.dim
    gammas = [g for g in product(range(3), repeat=2 * n) if 1 <= sum(g) <= 2]
    out = {}
    for k in part.bands:
        j = representative_patch(part, k)

        def lam(z):
            x, xi = z[None, :n], z[None, n:]
            chi = float(part.chi_pairs(j, k, x, xi)[0, 0])
            return 0.0 if chi == 0.0 \
                else chi / float(part.sigma_pairs(x, xi)[0, 0])

        consts = {}
        for g in gammas:
            a_ord, b_ord = sum(g[:n]), sum(g[n:])
            tot = a_ord + b_ord
            sup = 0.0
            for x, xi in samples:
                w = ((1.0 + x @ x) ** ((a_ord + tot) / 2.0)
                     * (1.0 + xi @ xi) ** ((b_ord + 1 + tot) / 2.0))
                z = np.concatenate([x, xi])
                sup = max(sup, abs(_fd_derivative(lam, z, g, 5e-4)) / w)
            consts[str(g)] = sup
        out[f"j{j}_k{k}"] = consts
    return out


@pytest.mark.parametrize("dim", [1, 2])
def test_stacked_derivative_constants_equal_one_row_ones(dim):
    if dim == 1:
        sigma = lambda x: 2.0 + np.sin(x[0])  # noqa: E731
        part = build_partition(_conformal_1d(), 2, 3, low_freq_cap=True)
    else:
        sigma = lambda x: 2.0 + np.sin(x[0]) + 0.5 * np.sin(x[1])  # noqa
        part = build_partition(_conformal_2d(), 1, 2)
    samples = _derivative_samples(part, sigma, np.random.default_rng(4), 4)
    got = verify_localizer_derivatives(part, samples)["patches"]
    want = _one_row_constants(part, samples)
    assert {p: v["constants"] for p, v in got.items()} == want
    assert all(c > 0.0 for consts in want.values() for c in consts.values())


def test_derivative_evaluator_calls_do_not_grow_with_the_samples(monkeypatch):
    part = build_partition(_conformal_1d(), 2, 3)
    calls = []
    chi_pairs = part.chi_pairs

    def counting(j, k, x, xi):
        calls.append(len(x))
        return chi_pairs(j, k, x, xi)

    monkeypatch.setattr(part, "chi_pairs", counting)
    sigma = lambda x: 2.0 + np.sin(x[0])  # noqa: E731
    counts = []
    for per_band in (2, 8):
        calls.clear()
        samples = _derivative_samples(part, sigma, np.random.default_rng(1),
                                      per_band)
        verify_localizer_derivatives(part, samples)
        assert set(calls) == {len(samples)}
        counts.append(len(calls))
    # per band, one call per stencil point of each |gamma| <= 2 at two steps:
    # 2 gammas of order 1 (2 points), 3 of order 2 (4 points)
    assert counts == [len(part.bands) * 2 * (2 * 2 + 3 * 4)] * 2


# the anisotropic setting: a rotated-ellipse metric in 2D -------------------

@functools.cache
def _rotated_nets(k_min, k_max):
    return {k: build_net(k, 2) for k in range(k_min, k_max + 1)}


def _rotated_partition(metric, k_min, k_max):
    return Partition(metric, k_min, k_max, _rotated_nets(k_min, k_max),
                     low_freq_cap=True)


@settings(max_examples=6)
@given(theta0=st.floats(0.0, 2.0 * np.pi), amp=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_rotated_ellipse_partition_of_unity_and_overlap(rotated_ellipse,
                                                        theta0, amp, seed):
    metric = rotated_ellipse(theta0, amp)
    part = _rotated_partition(metric, 1, 3)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-np.pi, np.pi, (8, 2))
    angle = rng.uniform(0.0, 2.0 * np.pi, 64)
    xi = 2.0 ** rng.uniform(0.0, 4.0, 64)[:, None] \
        * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    assert pou_deviation(part, x, xi) <= 1e-12
    assert part.overlap_pairs(x, xi).max() <= 5 ** 3
    assert verify_metric_hypotheses(metric, list(x)).ok


@settings(max_examples=6)
@given(theta0=st.floats(0.0, 2.0 * np.pi), amp=st.floats(0.0, 1.0))
def test_rotated_ellipse_stacked_transforms_match_per_point(rotated_ellipse,
                                                           theta0, amp):
    metric = rotated_ellipse(theta0, amp)
    part = _rotated_partition(metric, 1, 1)
    x = _lattice(GridSpec(dim=2, half_width=np.pi,
                          n_grid=8).x_axis_doubled(), 2)
    t_uniq, inv = part.fiber_transforms(x)
    g = metric(x)
    for i in range(0, len(x), 7):
        t = metric.sqrt_at(x[i])
        assert np.abs(t_uniq[inv[i]] - t).max() <= 1e-11
        assert np.abs(t @ t - g[i]).max() <= 1e-12
    # anisotropic at every point: eigenvalues 1 and 3 + amp cos x1 >= 2
    w = np.linalg.eigvalsh(g)
    assert np.all(w[:, 1] >= 1.9 * w[:, 0])


def test_rotated_ellipse_band_pass_localizers_match_pointwise(
        rotated_ellipse):
    # each band pass entry is Lambda_{j,k} = chi_pairs / sigma_pairs at a
    # lattice point x of its T_x row, and the entries of a band sum to
    # that band's share of the partition of unity
    grid = GridSpec(dim=2, half_width=np.pi, n_grid=8)
    part = _rotated_partition(rotated_ellipse(), 1, 2)
    xi_pts, t_uniq, inv, sigma = part._grid_sample(grid)
    assert len(t_uniq) > 100
    x_all = _lattice(grid.x_axis_doubled(), 2)
    x = x_all[[int(np.argmax(inv == r)) for r in range(len(t_uniq))]]
    sig = part.sigma_pairs(x, xi_pts)
    total = np.zeros(sigma.shape)
    for k in part.bands:
        size = part.nets[k].size
        tab = np.zeros((size, sigma.size))
        for cells, j, lam in part._localizer_entries(grid, k):
            # ordered by table index, then by center
            assert np.all((np.diff(cells) > 0)
                          | ((np.diff(cells) == 0) & (np.diff(j) > 0)))
            tab[j, cells] = lam
        total += tab.sum(axis=0).reshape(sigma.shape)
        for j in np.linspace(0, size - 1, 9).astype(int):
            chi = part.chi_pairs(j, k, x, xi_pts)
            want = np.where(chi > 0.0, chi / np.where(chi > 0.0, sig, 1.0),
                            0.0)
            assert np.abs(tab[j].reshape(sigma.shape) - want).max() <= 1e-15
    cap = phi_profile(np.linalg.norm(xi_pts, axis=1) / 2.0)
    on = sigma > 0.0
    assert np.abs((total + cap / np.where(on, sigma, 1.0))[on] - 1.0).max() \
        <= 1e-12
