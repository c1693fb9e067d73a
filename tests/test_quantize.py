import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microloc import cli
from microloc.grids import GridSpec, GridSymbol, sample_on
from microloc.metric import conformal_field, identity_field
from microloc.partition import build_partition, representative_patch
from microloc.quantize import (DegenerateResultError, assemble_block,
                               band_bound_experiment, bracket_weights,
                               fit_log2_slope, fourier_multiplier,
                               fourier_weighted, make_cutoff, spectral_norm,
                               weyl_quantize)

G1 = GridSpec(dim=1, half_width=np.pi, n_grid=32)


def _fft_route_weyl(a):
    """Weyl matrix by the FFT route: transform the symbol along x, keep the
    parity-matched (q, p) checkerboard (factor 2 per axis), transform back,
    inverse-FFT over xi and gather at (m + m', m - m')."""
    g = a.grid
    d, n = g.dim, g.n_grid
    x_axes = tuple(range(d))
    xi_axes = tuple(range(d, 2 * d))
    b = np.fft.fftn(a.values, axes=x_axes)
    for ax in range(d):
        shape = [1] * (2 * d)
        shape[ax] = 2 * n
        q = np.arange(2 * n).reshape(shape)
        shape = [1] * (2 * d)
        shape[d + ax] = 2 * n
        p = np.arange(2 * n).reshape(shape)
        b = b * (2.0 * ((q + p - n) % 2 == 0))
    b = np.fft.ifftn(b, axes=x_axes)
    b = np.fft.ifftn(np.fft.ifftshift(b, axes=xi_axes), axes=xi_axes)
    m = np.meshgrid(*([np.arange(n)] * d), indexing="ij")
    m = [ax.ravel() for ax in m]
    idx = tuple(ax[:, None] + ax[None, :] for ax in m) + \
        tuple((ax[:, None] - ax[None, :]) % (2 * n) for ax in m)
    return b[idx]


def _random_symbol(grid, seed, complex_values=True):
    rng = np.random.default_rng(seed)
    shape = (2 * grid.n_grid,) * (2 * grid.dim)
    values = rng.standard_normal(shape)
    if complex_values:
        values = values + 1j * rng.standard_normal(shape)
    return GridSymbol(grid=grid, values=values)


@pytest.mark.parametrize("dim,n", [(1, 2 ** k) for k in range(1, 10)]
                         + [(2, 2 ** k) for k in range(1, 5)])
def test_weyl_quantize_matches_fft_route(dim, n):
    a = _random_symbol(GridSpec(dim=dim, half_width=2.5, n_grid=n), seed=n)
    want = _fft_route_weyl(a)
    got = weyl_quantize(a)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@given(dim=st.sampled_from([1, 2]), log_n=st.integers(1, 5),
       half_width=st.floats(0.25, 20.0),
       c=st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                            allow_infinity=False),
       seed=st.integers(0, 2 ** 32 - 1))
def test_weyl_quantize_invariants(dim, log_n, half_width, c, seed):
    n = 2 ** (log_n if dim == 1 else min(log_n, 3))
    g = GridSpec(dim=dim, half_width=half_width, n_grid=n)
    shape = (2 * n,) * (2 * dim)
    eye = np.eye(g.npoints())
    one = weyl_quantize(GridSymbol(grid=g, values=np.ones(shape)))
    assert np.abs(one - eye).max() <= 1e-14
    const = weyl_quantize(GridSymbol(grid=g, values=np.full(shape, c)))
    assert np.abs(const - c * eye).max() <= 1e-14 * max(abs(c), 1.0)
    m = weyl_quantize(_random_symbol(g, seed, complex_values=False))
    assert np.abs(m - m.conj().T).max() <= 1e-14 * np.abs(m).max()


@pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
@pytest.mark.parametrize("complex_values", [False, True])
def test_weyl_quantize_weight_matches_product(dim, n, complex_values):
    g = GridSpec(dim=dim, half_width=2.5, n_grid=n)
    a = _random_symbol(g, seed=n, complex_values=complex_values)
    w = np.random.default_rng(n + 1).random(a.values.shape)
    got = weyl_quantize(a, weight=w)
    want = weyl_quantize(GridSymbol(grid=g, values=a.values * w))
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
    with pytest.raises(ValueError):
        weyl_quantize(a, weight=w[:-1])


def _broadcast(rng, grid, flat, complex_values):
    """Random samples with stride 0 on the flagged spatial axes."""
    n, d = grid.n_grid, grid.dim
    shape = [1 if i < d and flat[i] else 2 * n for i in range(2 * d)]
    v = rng.standard_normal(shape)
    if complex_values:
        v = v + 1j * rng.standard_normal(shape)
    return np.broadcast_to(v, (2 * n,) * (2 * d))


@pytest.mark.parametrize("dim,flat", [(1, (False,)), (1, (True,)),
                                      (2, (False, False)), (2, (True, False)),
                                      (2, (False, True)), (2, (True, True))],
                         ids=["1D", "1D flat x1", "2D", "2D flat x1",
                              "2D flat x2", "2D flat x1 x2"])
@given(log_n=st.integers(2, 4), complex_values=st.booleans(),
       weight_flat=st.none() | st.tuples(st.booleans(), st.booleans()),
       seed=st.integers(0, 2 ** 32 - 1))
def test_weyl_quantize_of_broadcast_samples_is_that_of_copies(
        dim, flat, log_n, complex_values, weight_flat, seed):
    # a spatial axis along which symbol and weight both have stride 0 is
    # transformed as one row; the matrix is bitwise that of the copies
    rng = np.random.default_rng(seed)
    g = GridSpec(dim=dim, half_width=2.5, n_grid=2 ** log_n)
    a = GridSymbol(grid=g, values=_broadcast(rng, g, flat, complex_values))
    w = None if weight_flat is None else \
        _broadcast(rng, g, weight_flat[:dim], False)
    copy = GridSymbol(grid=g, values=np.array(a.values))
    assert np.array_equal(weyl_quantize(a, weight=w),
                          weyl_quantize(copy, weight=None if w is None
                                        else np.array(w)))


@pytest.mark.parametrize("where", ["symbol", "weight"])
def test_weyl_quantize_refuses_non_finite_samples(where):
    # NaN, not inf: an inf sample makes the inverse FFT warn
    a = _random_symbol(G1, seed=3, complex_values=False)
    w = np.ones(a.values.shape)
    (a.values if where == "symbol" else w)[5, 7] = np.nan
    with pytest.raises(DegenerateResultError):
        weyl_quantize(a, weight=w)


@pytest.mark.parametrize("dim,n", [(1, 32), (2, 8)])
def test_weyl_quantize_real_and_complex_samples_agree(dim, n):
    a = _random_symbol(GridSpec(dim=dim, half_width=2.5, n_grid=n), seed=n,
                       complex_values=False)
    assert a.values.dtype == np.float64
    c = GridSymbol(grid=a.grid, values=a.values.astype(complex))
    assert np.array_equal(weyl_quantize(a), weyl_quantize(c))


def test_weyl_quantize_traced_memory():
    # the symbol is 16 MiB and the matrix 1 MiB; transforming the whole
    # symbol (the FFT route) traces about four symbol-sized copies
    a = _random_symbol(GridSpec(dim=2, half_width=np.pi, n_grid=16), seed=0)
    out_bytes = 16 ** 4 * 16
    tracemalloc.start()
    try:
        weyl_quantize(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * out_bytes


def test_band_bound_memory_guard():
    # 2D n_grid=16 under the conformal metric 2 + sin(x1): the band
    # localizers vary along x1 only and the symbol along xi only.  Written
    # out at (2 n_grid)^4 they trace 22 MiB; kept at the shape they vary
    # on, about 6 MiB
    g = GridSpec(dim=2, half_width=np.pi, n_grid=16)
    metric = conformal_field(lambda x: 2.0 + np.sin(x[0]), 2,
                             lambda_min=1.0, lambda_max=3.0)
    part = build_partition(metric, 1, 3)
    chi = make_cutoff(g, 0.5 * np.pi, 0.9 * np.pi)
    tracemalloc.start()
    try:
        a = sample_on(g, lambda x1, x2, xi1, xi2:
                      np.sqrt(1.0 + xi1 ** 2 + xi2 ** 2))
        rows, _ = band_bound_experiment(a, part, chi, range(1, 4), 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 3
    assert peak <= 12 * 2 ** 20


@pytest.mark.parametrize("dim,m2", [(1, 1.0), (2, 2.0)],
                         ids=["1D conformal", "2D identity"])
def test_band_bound_weights_the_output_by_the_band_scale(dim, m2):
    # each band's norm is ||<2^-k D>^{-m2} T_{j,k}||, checked against the
    # weight as a dense multiplier
    g = GridSpec(dim=dim, half_width=np.pi, n_grid=64 if dim == 1 else 16)
    metric = conformal_field(lambda x: 2.0 + np.sin(x[0]), 1,
                             lambda_min=1.0, lambda_max=3.0) \
        if dim == 1 else identity_field(2)
    part = build_partition(metric, 1, 3)
    chi = make_cutoff(g, 0.5 * np.pi, 0.9 * np.pi)
    a = sample_on(g, lambda *v: (1.0 + 0.3 * np.cos(v[0]))
                  * (1.0 + sum(xi ** 2 for xi in v[dim:])) ** (m2 / 2.0))
    rows, slope = band_bound_experiment(a, part, chi, range(1, 4), m2)
    assert [r["k"] for r in rows] == [1, 2, 3]
    assert slope == fit_log2_slope(rows)
    for r in rows:
        k = r["k"]
        w = fourier_multiplier(bracket_weights(g, -m2, 2.0 ** -k), g)
        want = spectral_norm(w @ assemble_block(a, part, r["j"], k, chi))
        assert r["norm"] == pytest.approx(want, rel=1e-12, abs=0.0)
        assert r["renorm_ratio"] == r["norm"] / 2.0 ** (k * m2)


def test_quantize_one_is_identity():
    sym = sample_on(G1, lambda x, xi: 1.0 + 0.0 * x + 0.0 * xi)
    op = weyl_quantize(sym)
    assert np.abs(op - np.eye(G1.npoints())).max() < 1e-12


def test_multiplier_symbol_matches_multiplier_matrix():
    weights = np.exp(-(G1.xi_axis() / 5.0) ** 2)
    sym = sample_on(G1, lambda x, xi: np.exp(-(xi / 5.0) ** 2) + 0.0 * x)
    a = weyl_quantize(sym)
    b = fourier_multiplier(weights, G1)
    assert np.abs(a - b).max() < 1e-12


def test_single_harmonic_shift_oracle():
    # a(x, xi) = e^{iqx} g(xi) maps the plane wave e^{ifx} to
    # g(f + q/2) e^{i(f+q)x}: the midpoint frequency is the Weyl signature
    q = 3

    def g(xi):
        return np.exp(-(np.asarray(xi, dtype=float) / 6.0) ** 2)

    sym = sample_on(G1, lambda x, xi: np.exp(1j * q * x) * g(xi))
    op = weyl_quantize(sym)
    x = G1.x_axis()
    n = G1.n_grid
    for f in range(-n // 2, n // 2 - q):
        u = np.exp(1j * f * x)
        want = g(f + q / 2.0) * np.exp(1j * (f + q) * x)
        assert np.abs(op @ u - want).max() < 1e-10


def test_real_symbol_gives_hermitian_operator():
    sym = sample_on(G1, lambda x, xi: np.cos(x) * np.exp(-(xi / 4.0) ** 2))
    m = weyl_quantize(sym)
    assert np.abs(m - m.conj().T).max() < 1e-12


@settings(max_examples=5)
@given(theta0=st.floats(0.0, 2.0 * np.pi), amp=st.floats(0.0, 1.0))
def test_real_symbol_block_is_hermitian_under_a_rotated_ellipse(
        rotated_ellipse, theta0, amp):
    # the localizers of an anisotropic, x-dependent metric are real, so the
    # Weyl block of a real symbol stays Hermitian
    grid = GridSpec(dim=2, half_width=np.pi, n_grid=8)
    part = build_partition(rotated_ellipse(theta0, amp), 1, 2)
    a = sample_on(grid, lambda x1, x2, xi1, xi2: (1.0 + 0.3 * np.cos(x1))
                  * np.sin(x2) * np.exp(-(xi1 ** 2 + xi2 ** 2) / 16.0))
    chi = make_cutoff(grid, 2.0, 2.6)
    for k in part.bands:
        m = assemble_block(a, part, representative_patch(part, k), k, chi)
        assert np.abs(m).max() > 0.0
        assert np.abs(m - m.conj().T).max() <= 1e-12 * np.abs(m).max()


@given(rows=st.integers(1, 40), cols=st.integers(1, 40),
       complex_values=st.booleans(), exponent=st.sampled_from([-150, 0, 150]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_spectral_norm_is_the_largest_singular_value(rows, cols,
                                                     complex_values, exponent,
                                                     seed):
    # at 1e+-150 an unscaled Gram matrix would overflow or underflow; the
    # SVD does not
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((rows, cols))
    if complex_values:
        m = m + 1j * rng.standard_normal((rows, cols))
    m *= 10.0 ** exponent
    ref = float(np.linalg.svd(m, compute_uv=False)[0])
    got = spectral_norm(m)
    assert isinstance(got, float)
    assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_spectral_norm_of_zero_is_zero():
    for shape in ((1, 1), (3, 5), (5, 3)):
        assert spectral_norm(np.zeros(shape)) == 0.0
        assert spectral_norm(np.zeros(shape, dtype=complex)) == 0.0


@pytest.mark.parametrize("shape", [(6, 4, 4), (2, 3, 7, 5), (5, 9, 2)])
def test_spectral_norm_of_a_stack_is_the_per_matrix_norms(shape):
    rng = np.random.default_rng(len(shape))
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    m[0] = 0.0
    m[-1] *= 1e200
    got = spectral_norm(m)
    assert got.shape == shape[:-2]
    want = np.array([spectral_norm(x) for x in m.reshape((-1,) + shape[-2:])])
    assert np.array_equal(got.ravel(), want)
    m[1, ..., 0, 0] = np.nan
    with pytest.raises(DegenerateResultError):
        spectral_norm(m)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_spectral_norm_refuses_non_finite_entries(bad):
    m = np.eye(4)
    m[1, 2] = bad
    with pytest.raises(DegenerateResultError):
        spectral_norm(m)


def test_spectral_norm_refuses_more_than_4096_rows():
    # a view of one row repeated: no 4097-row matrix is allocated
    m = np.broadcast_to(np.ones((1, 2)), (4097, 2))
    with pytest.raises(ValueError, match="4096"):
        spectral_norm(m)


def test_sobolev_weights_cancel():
    # <D>^{-1} <D>^{1} = Id, so <D> weighted on the right by <D>^{-1} has
    # norm 1
    op = fourier_multiplier(bracket_weights(G1, 1.0, 1.0), G1)
    weighted = fourier_weighted(op, G1, w_in=bracket_weights(G1, -1.0, 1.0))
    assert spectral_norm(weighted) == pytest.approx(1.0, rel=1e-10)
    w = bracket_weights(G1, 2.0, 1.0)
    assert w.max() == pytest.approx((1.0 + G1.xi_max ** 2), rel=1e-12)


@given(dim=st.sampled_from([1, 2]), log_n=st.integers(1, 4),
       sides=st.sampled_from(["both", "out", "in", "neither"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_fourier_weighted_matches_dense_multipliers(dim, log_n, sides, seed):
    # asymmetric complex weights tell W from W^T, which Sobolev weights
    # (even in xi) cannot
    g = GridSpec(dim=dim, half_width=np.pi, n_grid=2 ** log_n)
    rng = np.random.default_rng(seed)
    shape = (g.n_grid,) * dim

    def cgauss(*dims):
        return rng.standard_normal(dims) + 1j * rng.standard_normal(dims)

    m = cgauss(g.npoints(), g.npoints())
    w_out = cgauss(*shape) if sides in ("both", "out") else None
    w_in = cgauss(*shape) if sides in ("both", "in") else None
    want = m
    if w_out is not None:
        want = fourier_multiplier(w_out, g) @ want
    if w_in is not None:
        want = want @ fourier_multiplier(w_in, g)
    got = fourier_weighted(m, g, w_out, w_in)
    assert got.shape == m.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("side", ["w_out", "w_in"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fourier_weighted_refuses_non_finite_weights(side, bad):
    w = np.ones(G1.n_grid)
    w[3] = bad
    with pytest.raises(DegenerateResultError):
        fourier_weighted(np.eye(G1.npoints()), G1, **{side: w})


def test_make_cutoff_profile():
    chi = make_cutoff(G1, 1.0, 2.0)
    x = G1.x_axis()
    assert np.all(chi[np.abs(x) <= 1.0] == 1.0)
    assert np.all(chi[np.abs(x) >= 2.0] == 0.0)
    with pytest.raises(ValueError):
        make_cutoff(G1, 2.0, 1.0)


def test_fit_log2_slope_exact():
    rows = [{"k": k, "norm": 3.0 * 2.0 ** (1.5 * k)} for k in range(2, 7)]
    assert fit_log2_slope(rows) == pytest.approx(1.5, abs=1e-12)
    assert np.isnan(fit_log2_slope(rows[:1]))
    with pytest.raises(ValueError):
        fit_log2_slope([{"k": k, "norm": 0.0} for k in range(2, 7)])


def test_assemble_block_zero_symbol():
    part = build_partition(identity_field(1), 2, 3)
    sym = sample_on(G1, lambda x, xi: 0.0 * x + 0.0 * xi)
    ones = np.ones(G1.n_grid)
    blk = assemble_block(sym, part, 0, 2, ones)
    assert np.abs(blk).max() == 0.0


def test_representative_patch_near_positive_axis():
    part = build_partition(identity_field(2), 2, 2)
    j = representative_patch(part, 2)
    c = part.nets[2].centers[j]
    assert c[0] > 0.0
    assert abs(c[1]) <= np.linalg.norm(c) * 0.5


def test_band_bound_refuses_a_k_range_outside_bands(tmp_path, capsys):
    part = build_partition(identity_field(1), 2, 3)
    sym = sample_on(G1, lambda x, xi: (1.0 + xi ** 2) ** 0.5 + 0.0 * x)
    chi = make_cutoff(G1, 2.0, 2.8)
    with pytest.raises(ValueError):
        band_bound_experiment(sym, part, chi, range(2, 5), 1.0)
    # the CLI refuses it before building anything
    cfg = {"schema_version": 1, "experiment": "band-bound",
           "grid": {"dim": 1, "half_width": np.pi, "n_grid": 32},
           "bands": {"k_min": 2, "k_max": 3}, "k_range": [2, 6],
           "symbol": "sqrt(1 + xi1^2)", "m2": 1}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = cli.main(["band-bound", "--config", str(path),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    errors = json.loads(capsys.readouterr().out.splitlines()[-1])["errors"]
    assert errors == ["k_range must lie within [bands.k_min, bands.k_max]"]
    assert not (tmp_path / "out").exists()
