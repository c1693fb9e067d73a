import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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


@given(dim=st.sampled_from([1, 2]), used=st.integers(0, 15),
       complex_rule=st.booleans())
def test_sample_on_stores_the_shape_the_rule_varies_on(dim, used,
                                                       complex_rule):
    # the rule reads the axes whose bit is set in `used`; the samples are a
    # read-only view with stride 0 exactly on the others, equal bit for bit
    # to the rule evaluated on the full lattice
    g = GridSpec(dim=dim, half_width=np.pi, n_grid=4)
    axes = [i for i in range(2 * dim) if used >> i & 1]
    coef = 1.0 + 0.5j if complex_rule else 1.0

    def rule(*args):
        out = 0.25
        for i in axes:
            out = out + (i + 1.0) * args[i] * args[i] * coef
        return out

    sym = sample_on(g, rule)
    vals = sym.values
    assert vals.shape == (8,) * (2 * dim)
    assert [s == 0 for s in vals.strides] == [i not in axes
                                              for i in range(2 * dim)]
    assert not vals.flags.writeable
    assert vals.dtype == (np.complex128 if complex_rule and axes
                          else np.float64)
    full = np.meshgrid(*[g.x_axis_doubled()] * dim,
                       *[g.xi_axis_refined()] * dim, indexing="ij")
    want = np.broadcast_to(rule(*full), vals.shape)
    assert np.array_equal(vals, want)


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
    # a derivative table is not rescaled, so a symbol carrying one is refused
    tabled = sample_on(g, lambda x, xi: xi + 0.0 * x,
                       deriv=lambda a, b: lambda x, xi: 0.0 * x + 0.0 * xi)
    with pytest.raises(ValueError, match="deriv"):
        tabled.resampled(0.5)
