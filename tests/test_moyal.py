import tracemalloc

import numpy as np
import pytest

from microloc.grids import GridSpec, GridSymbol, sample_on
from microloc.metric import identity_field
from microloc.moyal import (InsufficientDataError, composition_residuals,
                            moyal_truncated, separated_patch_decay)
from microloc.partition import build_partition
from microloc.quantize import cut, make_cutoff, spectral_norm, weyl_quantize

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
    for h in (1.5, 0.0, -0.5, np.nan):
        with pytest.raises(ValueError):
            composition_residuals(a, a, [2], h, ones)
    for orders in ([0], [7], [1, 7], [2, 0, 3], [2.5], []):
        with pytest.raises(ValueError):
            composition_residuals(a, a, orders, 0.5, ones)


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
    res = [composition_residuals(a, b, [1], h, chi)[0]
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


def _residual_of_one_order(a, b, order, h, chi):
    # each order on its own: resample, truncate, quantize, multiply, cut
    ar = a.resampled(h) if h != 1.0 else a
    br = b.resampled(h) if h != 1.0 else b
    prod = moyal_truncated(ar, br, order)
    return spectral_norm(cut(weyl_quantize(ar) @ weyl_quantize(br)
                             - weyl_quantize(prod), chi))


@pytest.mark.parametrize("h", [1.0, 0.25])
@pytest.mark.parametrize("dim", [1, 2])
def test_composition_residuals_match_one_order_at_a_time(dim, h):
    # orders out of order and repeated: each norm is read off one running
    # sum, bit for bit the norm of that order's truncation on its own
    g = GridSpec(dim=dim, half_width=np.pi, n_grid=16 if dim == 1 else 4)
    a = sample_on(g, lambda *v: np.cos(v[0] / 2.0) ** 2
                  * np.exp(-sum(k ** 2 for k in v[dim:]) / 0.3))
    b = sample_on(g, lambda *v: np.cos((v[0] - 0.3) / 2.0) ** 2
                  * np.exp(-sum(k ** 2 for k in v[dim:]) / 0.25))
    chi = make_cutoff(g, 2.4, 3.0)
    orders = [3, 1, 3, 2]
    got = composition_residuals(a, b, orders, h, chi)
    want = [_residual_of_one_order(a, b, n, h, chi) for n in orders]
    assert got == want
    assert len(set(got)) == 3


def test_truncation_holds_one_term_at_a_time():
    # at order 3 on a 2D grid, 15 derivative pairs are summed; keeping
    # them all would hold 30 symbol-sized arrays, the running sum about 5
    g = GridSpec(dim=2, half_width=np.pi, n_grid=8)
    a = sample_on(g, lambda x1, x2, k1, k2: np.cos(x1) * np.sin(x2)
                  * np.exp(-(k1 ** 2 + k2 ** 2) / 9.0))
    b = sample_on(g, lambda x1, x2, k1, k2: np.sin(x1 + x2)
                  * np.exp(-(k1 ** 2 + 2.0 * k2 ** 2) / 16.0))
    tracemalloc.start()
    try:
        moyal_truncated(a, b, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * a.values.size * 16
