import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from microloc.grids import GridSpec, GridSymbol, sample_on
from microloc.metric import identity_field
from microloc.partition import build_partition
from microloc.quantize import (DegenerateResultError, assemble_block,
                               band_bound_experiment, bracket_weights,
                               fit_log2_slope, fourier_multiplier,
                               fourier_weighted, make_cutoff,
                               representative_patch, spectral_norm,
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
    got = weyl_quantize(a).matrix
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
    one = weyl_quantize(GridSymbol(grid=g, values=np.ones(shape))).matrix
    assert np.abs(one - eye).max() <= 1e-14
    const = weyl_quantize(GridSymbol(grid=g, values=np.full(shape, c)))
    assert np.abs(const.matrix - c * eye).max() <= 1e-14 * max(abs(c), 1.0)
    real = weyl_quantize(_random_symbol(g, seed, complex_values=False))
    m = real.matrix
    assert np.abs(m - m.conj().T).max() <= 1e-14 * np.abs(m).max()


@pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
@pytest.mark.parametrize("complex_values", [False, True])
def test_weyl_quantize_weight_matches_product(dim, n, complex_values):
    g = GridSpec(dim=dim, half_width=2.5, n_grid=n)
    a = _random_symbol(g, seed=n, complex_values=complex_values)
    w = np.random.default_rng(n + 1).random(a.values.shape)
    got = weyl_quantize(a, weight=w).matrix
    want = weyl_quantize(GridSymbol(grid=g, values=a.values * w)).matrix
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
    with pytest.raises(ValueError):
        weyl_quantize(a, weight=w[:-1])


@pytest.mark.parametrize("dim,n", [(1, 32), (2, 8)])
def test_weyl_quantize_real_and_complex_samples_agree(dim, n):
    a = _random_symbol(GridSpec(dim=dim, half_width=2.5, n_grid=n), seed=n,
                       complex_values=False)
    assert a.values.dtype == np.float64
    c = GridSymbol(grid=a.grid, values=a.values.astype(complex))
    assert np.array_equal(weyl_quantize(a).matrix, weyl_quantize(c).matrix)


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


def test_quantize_one_is_identity():
    sym = sample_on(G1, lambda x, xi: 1.0 + 0.0 * x + 0.0 * xi)
    op = weyl_quantize(sym)
    assert np.abs(op.matrix - np.eye(G1.npoints())).max() < 1e-12


def test_multiplier_symbol_matches_multiplier_matrix():
    weights = np.exp(-(G1.xi_axis() / 5.0) ** 2)
    sym = sample_on(G1, lambda x, xi: np.exp(-(xi / 5.0) ** 2) + 0.0 * x)
    a = weyl_quantize(sym).matrix
    b = fourier_multiplier(weights, G1).matrix
    assert np.abs(a - b).max() < 1e-12


def test_single_harmonic_shift_oracle():
    # a(x, xi) = e^{iqx} g(xi) maps the plane wave e^{ifx} to
    # g(f + q/2) e^{i(f+q)x}: the midpoint frequency is the Weyl signature
    q = 3

    def g(xi):
        return np.exp(-(np.asarray(xi, dtype=float) / 6.0) ** 2)

    sym = sample_on(G1, lambda x, xi: np.exp(1j * q * x) * g(xi))
    op = weyl_quantize(sym).matrix
    x = G1.x_axis()
    n = G1.n_grid
    for f in range(-n // 2, n // 2 - q):
        u = np.exp(1j * f * x)
        want = g(f + q / 2.0) * np.exp(1j * (f + q) * x)
        assert np.abs(op @ u - want).max() < 1e-10


def test_real_symbol_gives_hermitian_operator():
    sym = sample_on(G1, lambda x, xi: np.cos(x) * np.exp(-(xi / 4.0) ** 2))
    m = weyl_quantize(sym).matrix
    assert np.abs(m - m.conj().T).max() < 1e-12


def test_spectral_norm_is_the_largest_singular_value():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    ref = float(np.linalg.norm(m, 2))
    assert spectral_norm(m) == pytest.approx(ref, rel=1e-12)


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
    op = fourier_multiplier(bracket_weights(G1, 1.0), G1).matrix
    weighted = fourier_weighted(op, G1, w_in=bracket_weights(G1, -1.0))
    assert spectral_norm(weighted) == pytest.approx(1.0, rel=1e-10)
    w = bracket_weights(G1, 2.0)
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
        want = fourier_multiplier(w_out, g).matrix @ want
    if w_in is not None:
        want = want @ fourier_multiplier(w_in, g).matrix
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
    ks = np.arange(2, 7)
    vals = 3.0 * 2.0 ** (1.5 * ks)
    assert fit_log2_slope(ks, vals) == pytest.approx(1.5, abs=1e-12)
    with pytest.raises(ValueError):
        fit_log2_slope(ks, np.zeros_like(ks, dtype=float))


def test_assemble_block_zero_symbol():
    part = build_partition(identity_field(1), 2, 3)
    sym = sample_on(G1, lambda x, xi: 0.0 * x + 0.0 * xi)
    ones = np.ones(G1.n_grid)
    blk = assemble_block(sym, part, 0, 2, ones, ones)
    assert np.abs(blk.matrix).max() == 0.0


def test_representative_patch_near_positive_axis():
    part = build_partition(identity_field(2), 2, 2)
    j = representative_patch(part, 2)
    c = part.nets[2].centers[j]
    assert c[0] > 0.0
    assert abs(c[1]) <= np.linalg.norm(c) * 0.5


def test_band_bound_skips_missing_band():
    part = build_partition(identity_field(1), 2, 3)
    sym = sample_on(G1, lambda x, xi: (1.0 + xi ** 2) ** 0.5 + 0.0 * x)
    chi = make_cutoff(G1, 2.0, 2.8)
    rows = band_bound_experiment(sym, part, chi, chi, 0.0, range(2, 5),
                                 "semiclassical", 1.0)
    assert [r["skipped"] for r in rows] == [False, False, True]
    with pytest.raises(ValueError):
        band_bound_experiment(sym, part, chi, chi, 0.0, [2], "exact", 1.0)
