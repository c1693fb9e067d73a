import numpy as np
import pytest

from microloc.grids import (GridSpec, GridSymbol, sample_on,
                            spectral_derivative, symbol_derivative)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(dim=0, half_width=1.0, n_grid=8)
    with pytest.raises(ValueError):
        GridSpec(dim=1, half_width=-1.0, n_grid=8)
    with pytest.raises(ValueError):
        GridSpec(dim=1, half_width=1.0, n_grid=12)
    with pytest.raises(ValueError):
        GridSpec(dim=1, half_width=1.0, n_grid=1)


def test_lattices():
    g = GridSpec(dim=1, half_width=np.pi, n_grid=8)
    assert g.dx == pytest.approx(np.pi / 4)
    assert g.dxi == pytest.approx(1.0)
    x = g.x_axis()
    assert len(x) == 8
    assert x[0] == pytest.approx(-np.pi)
    assert np.all(np.diff(x) > 0)
    xi = g.xi_axis()
    assert np.array_equal(xi, np.arange(-4, 4))
    xd = g.x_axis_doubled()
    assert len(xd) == 16
    assert xd[::2] == pytest.approx(x)
    xr = g.xi_axis_refined()
    assert len(xr) == 16
    assert xr[::2] == pytest.approx(xi)
    assert g.xi_max == pytest.approx(4.0)
    assert g.npoints() == 8
    assert g.l2_weight() == pytest.approx(g.dx)


def test_sample_on_broadcast():
    g = GridSpec(dim=2, half_width=np.pi, n_grid=4)
    sym = sample_on(g, lambda x1, x2, xi1, xi2: np.cos(x1) + 0.0 * xi2)
    assert sym.values.shape == (8, 8, 8, 8)
    # constant along the axes the rule does not involve
    assert np.ptp(sym.values[0, :, 0, :].real) == pytest.approx(0.0)
    # real rules stay real, complex ones complex
    assert sym.values.dtype == np.float64
    assert sample_on(g, lambda x1, x2, xi1, xi2: np.exp(1j * x1) + 0.0 * xi2
                     ).values.dtype == np.complex128


def test_symbol_shape_validation():
    g = GridSpec(dim=1, half_width=np.pi, n_grid=8)
    with pytest.raises(ValueError):
        GridSymbol(grid=g, values=np.zeros((8, 8)))


def test_spectral_derivative_oracle():
    # d/dx sin(x) = cos(x) on the periodic box, exact to rounding
    n = 64
    x = -np.pi + (2 * np.pi / n) * np.arange(n)
    d = spectral_derivative(np.sin(x).astype(complex), 0, n, 2 * np.pi / n)
    assert np.abs(d.real - np.cos(x)).max() < 1e-12


def test_symbol_derivative_spectral_vs_table():
    g = GridSpec(dim=1, half_width=np.pi, n_grid=32)
    sym_spec = sample_on(g, lambda x, xi: np.sin(x) + 0.0 * xi)
    table = {((0,), (1,)): lambda x, xi: np.cos(x) + 0.0 * xi}
    sym_tab = sample_on(g, lambda x, xi: np.sin(x) + 0.0 * xi,
                        deriv=lambda a, b: table[(a, b)])
    d_spec = symbol_derivative(sym_spec, (0,), (1,)).values
    d_tab = symbol_derivative(sym_tab, (0,), (1,)).values
    assert np.abs(d_spec - d_tab).max() < 1e-11


def test_symbol_derivative_index_validation():
    g = GridSpec(dim=1, half_width=np.pi, n_grid=8)
    sym = sample_on(g, lambda x, xi: 0.0 * x + 0.0 * xi + 1.0)
    with pytest.raises(ValueError):
        symbol_derivative(sym, (0, 0), (0,))


def test_resampled_scales_frequency():
    g = GridSpec(dim=1, half_width=np.pi, n_grid=16)
    sym = sample_on(g, lambda x, xi: np.exp(-xi ** 2) + 0.0 * x)
    half = sym.resampled(0.5)
    xi = g.xi_axis_refined()
    expect = np.exp(-(0.5 * xi) ** 2)
    assert np.abs(half.values[0].real - expect).max() < 1e-12


def test_resampled_requires_rule():
    g = GridSpec(dim=1, half_width=np.pi, n_grid=8)
    sym = GridSymbol(grid=g, values=np.zeros((16, 16), dtype=complex))
    with pytest.raises(ValueError):
        sym.resampled(0.5)
