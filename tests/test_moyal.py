import numpy as np
import pytest

from microloc.grids import GridSpec, GridSymbol, sample_on
from microloc.metric import identity_field
from microloc.moyal import (InsufficientDataError, composition_residual,
                            moyal_truncated, separated_patch_decay)
from microloc.partition import build_partition
from microloc.quantize import make_cutoff

G = GridSpec(dim=1, half_width=np.pi, n_grid=32)


def _linear_symbol(grid, in_x: bool):
    # x or xi with an analytic derivative table (neither is periodic, so
    # spectral differentiation of the samples would ring)
    def table(alpha, beta):
        if alpha == (0,) and beta == (0,):
            return lambda x, xi: (x if in_x else xi) + 0.0 * (xi if in_x else x)
        if (beta if in_x else alpha) == (1,) and (alpha if in_x else beta) == (0,):
            return lambda x, xi: 1.0 + 0.0 * x + 0.0 * xi
        return lambda x, xi: 0.0 * x + 0.0 * xi

    return sample_on(grid, table((0,), (0,)), deriv=table)


def test_truncation_validation():
    a = sample_on(G, lambda x, xi: np.cos(x) + 0.0 * xi)
    ones = np.ones(G.n_grid)
    with pytest.raises(ValueError):
        moyal_truncated(a, a, 0)
    with pytest.raises(ValueError):
        moyal_truncated(a, a, 7)
    with pytest.raises(ValueError):
        composition_residual(a, a, 2, 1.5, ones)
    with pytest.raises(ValueError):
        composition_residual(a, a, 2, 0.0, ones)


def test_order_one_is_pointwise_product():
    a = sample_on(G, lambda x, xi: np.cos(x) * np.exp(-(xi / 4.0) ** 2))
    b = sample_on(G, lambda x, xi: np.sin(x) + 0.0 * xi)
    prod = moyal_truncated(a, b, 1)
    assert np.abs(prod.values - a.values * b.values).max() < 1e-12


def test_x_sharp_xi_oracle():
    # operator composition gives x # xi = x xi + i/2 and
    # xi # x = x xi - i/2, so the commutator symbol is i
    x_sym = _linear_symbol(G, in_x=True)
    xi_sym = _linear_symbol(G, in_x=False)
    xd = G.x_axis_doubled()
    xr = G.xi_axis_refined()
    xmesh, ximesh = np.meshgrid(xd, xr, indexing="ij")
    left = moyal_truncated(x_sym, xi_sym, 2).values
    right = moyal_truncated(xi_sym, x_sym, 2).values
    assert np.abs(left - (xmesh * ximesh + 0.5j)).max() < 1e-12
    assert np.abs(right - (xmesh * ximesh - 0.5j)).max() < 1e-12


def test_first_order_moyal_term_oracle():
    # the r = 1 term of a # b is -(i/2) {a, b}, with the Poisson bracket
    # {a, b} = d_xi a d_x b - d_x a d_xi b
    a = sample_on(G, lambda x, xi: np.sin(x) + 0.0 * xi)
    b = sample_on(G, lambda x, xi: np.sin(xi * np.pi / G.xi_max) + 0.0 * x)
    first, second = (moyal_truncated(a, b, n).values for n in (1, 2))
    br = 2j * (second - first)
    xd = G.x_axis_doubled()
    xr = G.xi_axis_refined()
    xm, xim = np.meshgrid(xd, xr, indexing="ij")
    want = -np.cos(xm) * np.cos(xim * np.pi / G.xi_max) * (np.pi / G.xi_max)
    assert np.abs(br - want).max() < 1e-10


def test_composition_residual_decreases_in_h():
    g = GridSpec(dim=1, half_width=np.pi, n_grid=128)
    a = sample_on(g, lambda x, xi: np.cos(x / 2.0) ** 2
                  * np.exp(-(xi / 0.55) ** 2))
    b = sample_on(g, lambda x, xi: np.cos((x - 0.3) / 2.0) ** 2
                  * np.exp(-(xi / 0.5) ** 2))
    chi = make_cutoff(g, 2.9, 3.1)
    res = [composition_residual(a, b, 1, h, chi)
           for h in (0.25, 0.125, 0.0625)]
    assert res[0] > res[1] > res[2]
    assert res[2] < 0.4 * res[0]


def test_separated_patch_decay_needs_three_separations():
    part = build_partition(identity_field(1), 3, 3)
    g = GridSpec(dim=1, half_width=np.pi, n_grid=32)
    a = sample_on(g, lambda x, xi: 1.0 + 0.0 * x + 0.0 * xi)
    ones = np.ones(g.n_grid)
    with pytest.raises(InsufficientDataError):
        separated_patch_decay(a, part, 3, [(0, 0), (0, 1)], ones)


def test_real_and_complex_samples_give_the_same_products():
    a = sample_on(G, lambda x, xi: np.cos(x) * np.exp(-(xi / 4.0) ** 2))
    b = sample_on(G, lambda x, xi: np.sin(x) + np.exp(-(xi / 6.0) ** 2))
    assert a.values.dtype == b.values.dtype == np.float64
    ac, bc = (GridSymbol(grid=G, values=s.values.astype(complex))
              for s in (a, b))
    for order in (1, 2, 3):
        assert np.array_equal(moyal_truncated(a, b, order).values,
                              moyal_truncated(ac, bc, order).values)
