from contextlib import nullcontext

import numpy as np
import pytest

from microloc import parametrix
from microloc.grids import GridSpec, sample_on
from microloc.metric import identity_field
from microloc.parametrix import (EllipticSymbol, PatchRejectedError,
                                 _below_floor, bandwise_inverse,
                                 build_parametrix, covered_xi_mask,
                                 gaussian_wavepacket, parametrix_residual)
from microloc.partition import build_partition, localizer_symbol
from microloc.quantize import fourier_multiplier, make_cutoff

G = GridSpec(dim=1, half_width=np.pi, n_grid=64)
MET = identity_field(1)


def _bracket_sq(grid):
    return sample_on(grid, lambda x, xi: 1.0 + xi ** 2 + 0.0 * x)


def _elliptic(grid, c0=0.4):
    return EllipticSymbol(symbol=_bracket_sq(grid), m2=2, c0=c0, big_r=1.0)


def test_bandwise_inverse_values():
    part = build_partition(MET, 2, 4)
    p = _elliptic(G)
    lam = localizer_symbol(part, 0, 3, G)
    q = bandwise_inverse(p, lam, _below_floor(p, part, G))
    sup = np.abs(lam.values) > 0.0
    assert np.abs(q.values[~sup]).max() == 0.0
    assert np.abs(q.values[sup]
                  - lam.values[sup] / p.symbol.values[sup]).max() < 1e-14


def test_ellipticity_floor_rejection():
    part = build_partition(MET, 2, 4)
    # c0 large enough that 0.5 c0 (1+|xi|)^2 exceeds 1+xi^2 on the patch
    p = _elliptic(G, c0=10.0)
    with pytest.raises(PatchRejectedError):
        bandwise_inverse(p, localizer_symbol(part, 0, 3, G),
                         _below_floor(p, part, G))
    with pytest.raises(PatchRejectedError):
        build_parametrix(p, part, 1, np.ones(G.n_grid), np.ones(G.n_grid), G)


def test_build_parametrix_samples_each_localizer_once(monkeypatch):
    part = build_partition(MET, 2, 4)
    calls = []

    def counting(part_, j, k, grid):
        calls.append((j, k))
        return localizer_symbol(part_, j, k, grid)

    monkeypatch.setattr(parametrix, "localizer_symbol", counting)
    ones = np.ones(G.n_grid)
    build_parametrix(_elliptic(G), part, 1, ones, ones, G)
    assert calls == [(j, k) for k in part.bands
                     for j in range(part.nets[k].size)]


def test_partial_exclusion_matches_patchwise_check():
    part = build_partition(MET, 1, 5, low_freq_cap=True)
    # 1 + xi^2 < 0.8 (1 + |xi|)^2 exactly for 0.13 < |xi| < 7.87, so the
    # floor (checked from big_r = 1 on) rejects low-band patches only
    p = _elliptic(G, c0=1.6)
    ones = np.ones(G.n_grid)
    px = build_parametrix(p, part, 1, ones, ones, G)

    # brute force, patch by patch; the identity metric's fiber norm is |xi|
    xi = np.abs(G.xi_axis_refined())
    floor_bad = (np.abs(p.symbol.values) < 0.5 * p.c0 * (1.0 + xi) ** p.m2) \
        & (xi >= p.big_r)
    below = _below_floor(p, part, G)
    excluded, kept = [], []
    for k in part.bands:
        for j in range(part.nets[k].size):
            lam = localizer_symbol(part, j, k, G)
            bad = bool((floor_bad & (np.abs(lam.values) > 0.0)).any())
            with pytest.raises(PatchRejectedError) if bad else nullcontext():
                bandwise_inverse(p, lam, below)
            (excluded if bad else kept).append((j, k))
    assert excluded and kept
    assert px.excluded == excluded
    assert px.covered_bands == sorted({k for (_, k) in kept})


def test_build_parametrix_order_validation():
    part = build_partition(MET, 2, 4)
    p = _elliptic(G)
    ones = np.ones(G.n_grid)
    with pytest.raises(ValueError):
        build_parametrix(p, part, 0, ones, ones, G)
    with pytest.raises(ValueError):
        build_parametrix(p, part, 4, ones, ones, G)


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
    px = build_parametrix(p, part, 1, ones, ones, G)
    bad = gaussian_wavepacket(G, 0.0, 1.0, 0.5)  # centered off the coverage
    rep = parametrix_residual(px, [bad, np.zeros(G.n_grid)], G)
    assert len(rep["rejected"]) == 2
    assert "frequency" in rep["rejected"][0]["reason"]
    assert np.isnan(rep["max_rel_error"])


def test_parametrix_inverts_multiplier_symbol():
    part = build_partition(MET, 1, 5, low_freq_cap=True)
    p = _elliptic(G)
    ones = np.ones(G.n_grid)
    px = build_parametrix(p, part, 1, ones, ones, G)
    tests = [gaussian_wavepacket(G, 0.0, s * 14.0, 0.55) for s in (-1, 1)]
    rep = parametrix_residual(px, tests, G)
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
    px = build_parametrix(p, part, order, chi, chi, G)
    rep = parametrix_residual(px, [gaussian_wavepacket(G, 0.0, 14.0, 0.55)],
                              G)
    xi_ok = covered_xi_mask(part, G, px.covered_bands)
    proj = parametrix._plateau(chi, chi).astype(float)[:, None] \
        * fourier_multiplier(np.where(xi_ok, 1.0, 0.0), G).matrix
    dense = np.linalg.norm((px.composition - np.eye(G.npoints())) @ proj, 2)
    assert rep["operator_residual"] == pytest.approx(dense, rel=1e-12)


def test_damping_keeps_only_steps_that_lower_the_residual():
    # on this config the second correction moves the residual by about one
    # ulp; a step is kept only if it lowers the residual beyond rounding
    part = build_partition(MET, 1, 5, low_freq_cap=True)
    chi = make_cutoff(G, 2.6, 3.1)
    px = build_parametrix(_elliptic(G), part, 3, chi, chi, G)
    hist = px.step_residuals["aggregate"]
    for before, after in zip(hist, hist[1:]):
        assert after < before * (1.0 - 1e-12)
