"""End-to-end acceptance runs, one test per criterion.

Each test prints a single pass/fail line (collected again in the terminal
summary) and asserts the stated tolerance.  Shared heavy objects
(partitions, grids) are cached at module level.
"""

from functools import lru_cache

import numpy as np
import pytest

from conftest import record
from microloc.grids import GridSpec, sample_on
from microloc.metric import (conformal_field, fiber_norm, identity_field,
                             verify_metric_hypotheses)
from microloc.moyal import (composition_residual, moyal_truncated,
                            separated_patch_decay)
from microloc.parametrix import (EllipticSymbol, build_parametrix,
                                 gaussian_wavepacket, parametrix_residual)
from microloc.partition import (_smoothstep_exp, build_partition,
                                overlap_scan, pou_deviation, validate_net)
from microloc.quantize import (assemble_block, band_bound_experiment,
                               fit_log2_slope, fourier_multiplier,
                               make_cutoff, weyl_quantize)
from microloc.radon import (RadonConfig, band_sum_symbol, fbp_invert,
                            normal_operator_exponent, phantom, radon_adjoint,
                            radon_block_experiment, radon_forward,
                            radon_recombine)
from microloc.recombine import recombine_sum


@lru_cache(maxsize=None)
def _part_1d_identity_0_6():
    return build_partition(identity_field(1), 0, 6)


@lru_cache(maxsize=None)
def _conformal_1d():
    return conformal_field(lambda x: 2.0 + np.sin(x[0]), 1,
                           lambda_min=1.0, lambda_max=3.0)


def _interior_samples(part, n_x=33, n_xi=512):
    xs = np.linspace(-np.pi, np.pi, n_x, endpoint=False)[:, None]
    xi = GridSpec(dim=1, half_width=np.pi, n_grid=256).xi_axis_refined()
    scale = np.sqrt(part.metric.lambda_max)
    keep = (np.abs(xi) >= 2.0 ** (part.k_min + 1)) \
        & (np.abs(xi) * scale < 2.0 ** part.k_max)
    return xs, xi[keep][:, None]


def test_criterion_01_partition_of_unity():
    devs = {}
    for name, met in [("identity", identity_field(1)),
                      ("conformal", _conformal_1d())]:
        part = _part_1d_identity_0_6() if name == "identity" \
            else build_partition(met, 0, 6)
        xs, xis = _interior_samples(part)
        devs[name] = pou_deviation(part, xs, xis)
    ok = all(v <= 1e-10 for v in devs.values())
    line = record(1, "partition of unity", ok,
                  f"max |sum-1| identity {devs['identity']:.2e}, "
                  f"conformal {devs['conformal']:.2e}, tol 1e-10")
    assert ok, line


def test_criterion_02_overlap_bounds():
    part1 = _part_1d_identity_0_6()
    xs, xis = _interior_samples(part1)
    scan1 = overlap_scan(part1, xs, xis)
    nets_ok = all(validate_net(part1.nets[k])["separation_ok"]
                  and validate_net(part1.nets[k])["covering_ok"]
                  for k in part1.bands)

    part2 = build_partition(identity_field(2), 0, 3)
    g2 = GridSpec(dim=2, half_width=np.pi, n_grid=16)
    ax = np.linspace(-np.pi, np.pi, 8, endpoint=False)
    xs2 = np.stack(np.meshgrid(ax, ax, indexing="ij"), -1).reshape(-1, 2)
    mesh = g2.xi_mesh_refined()
    xis2 = np.stack([m.ravel() for m in mesh], -1)
    xis2 = xis2[np.linalg.norm(xis2, axis=1) >= 1.0]
    scan2 = overlap_scan(part2, xs2, xis2)

    ok = nets_ok and scan1["max_overlap"] <= 25 \
        and scan1["max_radial_bands"] <= 5 \
        and scan2["max_overlap"] <= 125 and scan2["max_radial_bands"] <= 5
    line = record(2, "finite overlap", ok,
                  f"1d max {scan1['max_overlap']}<=25, "
                  f"2d max {scan2['max_overlap']}<=125, "
                  f"radial {max(scan1['max_radial_bands'], scan2['max_radial_bands'])}<=5")
    assert ok, line


def test_criterion_03_quantization_anchors():
    g = GridSpec(dim=1, half_width=np.pi, n_grid=64)
    one = sample_on(g, lambda x, xi: 1.0 + 0.0 * x + 0.0 * xi)
    id_err = float(np.abs(weyl_quantize(one) - np.eye(64)).max())

    real = sample_on(g, lambda x, xi: np.cos(x) * np.exp(-(xi / 5.0) ** 2))
    m = weyl_quantize(real)
    herm_err = float(np.abs(m - m.conj().T).max())

    weights = np.exp(-(g.xi_axis() / 7.0) ** 2)
    mult_sym = sample_on(g, lambda x, xi: np.exp(-(xi / 7.0) ** 2) + 0.0 * x)
    mult_err = float(np.abs(weyl_quantize(mult_sym)
                            - fourier_multiplier(weights, g)).max())

    ok = id_err <= 1e-12 and herm_err <= 1e-12 and mult_err <= 1e-12
    line = record(3, "quantization anchors", ok,
                  f"Op(1)-Id {id_err:.2e}, hermiticity {herm_err:.2e}, "
                  f"multiplier {mult_err:.2e}, tol 1e-12")
    assert ok, line


def test_criterion_04_moyal_order():
    g = GridSpec(dim=1, half_width=np.pi, n_grid=512)
    a = sample_on(g, lambda x, xi: np.cos(x / 2.0) ** 2
                  * np.exp(-(xi / 0.55) ** 2))
    b = sample_on(g, lambda x, xi: np.cos((x - 0.3) / 2.0) ** 2
                  * np.exp(-(xi / 0.5) ** 2))
    chi = make_cutoff(g, 2.95, 3.1)
    hs = [2.0 ** (-j) for j in range(3, 8)]
    slopes = {}
    for order in (1, 2, 3):
        res = [composition_residual(a, b, order, h, chi) for h in hs]
        slopes[order] = float(np.polyfit(np.log(hs), np.log(res), 1)[0])

    # sign-convention anchor: x # xi = x xi + i h / 2 exactly
    g0 = GridSpec(dim=1, half_width=np.pi, n_grid=32)

    def table_x(alpha, beta):
        if alpha == (0,) and beta == (0,):
            return lambda x, xi: x + 0.0 * xi
        if alpha == (0,) and beta == (1,):
            return lambda x, xi: 1.0 + 0.0 * x + 0.0 * xi
        return lambda x, xi: 0.0 * x + 0.0 * xi

    def table_xi(alpha, beta):
        if alpha == (0,) and beta == (0,):
            return lambda x, xi: xi + 0.0 * x
        if alpha == (1,) and beta == (0,):
            return lambda x, xi: 1.0 + 0.0 * x + 0.0 * xi
        return lambda x, xi: 0.0 * x + 0.0 * xi

    xs = sample_on(g0, table_x((0,), (0,)), deriv=table_x)
    xis = sample_on(g0, table_xi((0,), (0,)), deriv=table_xi)
    prod = moyal_truncated(xs, xis, 2).values
    xm, xim = np.meshgrid(g0.x_axis_doubled(), g0.xi_axis_refined(),
                          indexing="ij")
    anchor_err = float(np.abs(prod - (xm * xim + 0.5j)).max())

    ok = slopes[1] >= 0.7 and slopes[2] >= 1.7 and slopes[3] >= 2.7 \
        and anchor_err <= 1e-10
    line = record(4, "Moyal truncation order", ok,
                  f"h-slopes {slopes[1]:.2f}/{slopes[2]:.2f}/{slopes[3]:.2f} "
                  f"vs floors 0.7/1.7/2.7, x#xi anchor {anchor_err:.1e}")
    assert ok, line


def test_criterion_05_band_factor():
    g = GridSpec(dim=1, half_width=np.pi, n_grid=512)
    part = build_partition(identity_field(1), 1, 7)
    chi = make_cutoff(g, 2.4, 3.0)
    ks = range(2, 7)
    results = {}
    for m2 in (1.0, 2.0):
        a = sample_on(g, lambda x, xi, m2=m2:
                      (1.0 + xi ** 2) ** (m2 / 2.0) + 0.0 * x)
        rows = band_bound_experiment(a, part, chi, ks, m2)
        results[m2] = fit_log2_slope([r["k"] for r in rows],
                                     [r["norm"] for r in rows])
    ok = all(abs(results[m2] - m2) <= 0.3 for m2 in (1.0, 2.0))
    line = record(5, "dyadic band factor", ok,
                  f"semiclassical slopes {results[1.0]:.3f}/"
                  f"{results[2.0]:.3f} vs m2 1/2 (tol 0.3)")
    assert ok, line


def test_criterion_06_separated_patch_decay():
    g = GridSpec(dim=1, half_width=np.pi, n_grid=256)
    met = conformal_field(lambda x: 1.0 + 0.1 * np.sin(x[0]), 1,
                          lambda_min=0.9, lambda_max=1.1)
    part = build_partition(met, 2, 4)
    k = 3
    a = sample_on(g, lambda x, xi: np.sqrt(1.0 + xi ** 2) + 0.0 * x)
    chi = make_cutoff(g, 2.4, 3.0)
    centers = part.nets[k].centers[:, 0]
    order = np.argsort(centers)
    pos = [int(j) for j in order if centers[j] > 0]
    neg = [int(j) for j in order if centers[j] < 0]
    pairs = [(pos[0], pos[0]), (pos[0], pos[1]), (pos[0], pos[4]),
             (pos[0], pos[8]), (pos[0], pos[-1]), (neg[0], pos[-1]),
             (neg[0], pos[0])]
    rep = separated_patch_decay(a, part, k, pairs, chi)
    base = max(r["D"] for r in rep["rows"] if r["d"] <= 1.0)
    far = max(r["D"] for r in rep["rows"] if r["d"] >= 8.0)
    ok = rep["exponent"] <= -2.0 and far <= 1e-3 * base
    line = record(6, "separated-patch decay", ok,
                  f"exponent {rep['exponent']:.2f} <= -2, far/near "
                  f"{far / base:.2e} <= 1e-3, r^2 {rep['r_squared']:.3f}")
    assert ok, line


def test_criterion_07_recombination_cotlar():
    g = GridSpec(dim=1, half_width=np.pi, n_grid=128)
    part = build_partition(identity_field(1), 1, 6)

    def win(r):
        return _smoothstep_exp((r - 7.0) / 0.5) \
            * (1.0 - _smoothstep_exp((r - 9.5) / 0.5))

    a = sample_on(g, lambda x, xi: (1.0 + 0.3 * np.cos(x)) * win(np.abs(xi)))
    ones = np.ones(g.n_grid)
    blocks = {}
    for k in range(2, 6):
        centers = part.nets[k].centers[:, 0]
        for j in range(part.nets[k].size):
            if not 6.0 < abs(centers[j]) < 11.0:
                continue
            blk = assemble_block(a, part, j, k, ones)
            if np.abs(blk).max() > 1e-14:
                blocks[(j, k)] = blk
    rep = recombine_sum(blocks.items(), weyl_quantize(a),
                        active_bands=[2, 3])
    tails = {t["K"]: t["norm"] for t in rep["tails"]}
    tail_hi = min(v for kk, v in tails.items() if kk >= 4)
    ok = rep["relative_discrepancy"] <= 1e-10 \
        and rep["certificate"].ok and tail_hi <= 1e-12 \
        and rep["reference_norm"] >= 0.5
    line = record(7, "block recombination + Cotlar", ok,
                  f"rel discrepancy {rep['relative_discrepancy']:.2e} <= "
                  f"1e-10, achieved {rep['certificate'].achieved:.3f} <= "
                  f"bound {rep['certificate'].bound:.3f}, "
                  f"tail(K>=4) {tail_hi:.1e}")
    assert ok, line


def test_criterion_08_parametrix_suites():
    results = {}

    # multiplier suite: exact inversion down to the admissibility floor
    g1 = GridSpec(dim=1, half_width=np.pi, n_grid=128)
    met1 = identity_field(1)
    part1 = build_partition(met1, 1, 6, low_freq_cap=True)
    p1 = EllipticSymbol(
        symbol=sample_on(g1, lambda x, xi: 1.0 + xi ** 2 + 0.0 * x),
        m2=2, c0=0.4, big_r=1.0)
    ones1 = np.ones(g1.n_grid)
    px1 = build_parametrix(p1, part1, 2, ones1)
    tests1 = [gaussian_wavepacket(g1, x0, s * 20.0, 0.4)
              for x0 in (-0.4, 0.0, 0.4) for s in (-1, 1)]
    rep1 = parametrix_residual(px1, tests1)
    results["multiplier"] = rep1

    # variable-coefficient and anisotropic suites at three orders
    g2 = GridSpec(dim=1, half_width=np.pi, n_grid=64)
    met3 = _conformal_1d()
    suites = {
        "cosine": (identity_field(1),
                   lambda x, xi: xi ** 2 + 1.0 + 0.5 * np.cos(x)),
        "aniso": (met3,
                  lambda x, xi: (2.0 + np.sin(x)) * xi ** 2 + 1.0),
    }
    for name, (met, rule) in suites.items():
        part = build_partition(met, 1, 5, low_freq_cap=True)
        p = EllipticSymbol(symbol=sample_on(g2, rule), m2=2, c0=0.4,
                           big_r=1.0)
        ones2 = np.ones(g2.n_grid)
        tests = [gaussian_wavepacket(g2, 0.0, s * 14.0, 0.55)
                 for s in (-1, 1)]
        errs = []
        for order in (1, 2, 3):
            px = build_parametrix(p, part, order, ones2)
            rep = parametrix_residual(px, tests)
            assert not rep["rejected"]
            errs.append(rep["max_rel_error"])
        results[name] = errs

    med1 = results["multiplier"]["median_rel_error"]
    cos_ok = max(results["cosine"]) <= 1e-4 \
        and max(results["cosine"]) <= 10.0 * min(results["cosine"])
    ani_ok = max(results["aniso"]) <= 5e-2 \
        and max(results["aniso"]) <= 10.0 * min(results["aniso"])
    ok = not results["multiplier"]["rejected"] and med1 <= 1e-8 \
        and cos_ok and ani_ok
    line = record(8, "bandwise parametrix", ok,
                  f"multiplier median {med1:.2e} <= 1e-8, cosine "
                  f"{max(results['cosine']):.2e} <= 1e-4, aniso "
                  f"{max(results['aniso']):.2e} <= 5e-2, "
                  "orders stable within 10x")
    assert ok, line


def test_criterion_09_radon_suite():
    # transform checks on the full-resolution geometry
    g = GridSpec(dim=2, half_width=np.pi, n_grid=256)
    cfg = RadonConfig(grid=g, n_angles=360, n_offsets=256)
    disc = phantom("disc", g)
    sino = radon_forward(disc, cfg)
    s = cfg.offsets()
    true = np.where(np.abs(s) < 1.0,
                    2.0 * np.sqrt(np.clip(1.0 - s ** 2, 0.0, None)),
                    0.0)[:, None] * np.ones(cfg.n_angles)
    disc_rel = float(np.linalg.norm(sino - true) / np.linalg.norm(true))

    rng = np.random.default_rng(0)
    f = rng.standard_normal((256, 256))
    gv = rng.standard_normal((cfg.n_offsets, cfg.n_angles))
    lhs = (radon_forward(f, cfg) * gv).sum() * cfg.ds * cfg.dtheta
    rhs = (f * radon_adjoint(gv, cfg)).sum() * g.l2_weight()
    adj = abs(lhs - rhs) / abs(lhs)

    expo = normal_operator_exponent(cfg)["exponent"]

    bumps = phantom("two-bumps", g)
    rec = fbp_invert(radon_forward(bumps, cfg), cfg)
    fbp_rel = float(np.linalg.norm(rec - bumps) / np.linalg.norm(bumps))

    # bandwise block scaling
    gb = GridSpec(dim=2, half_width=np.pi / 2, n_grid=32)
    part = build_partition(identity_field(2), 0, 4)
    cfg_b = RadonConfig(grid=gb, n_angles=60, n_offsets=65)
    a = sample_on(gb, lambda x1, x2, xi1, xi2:
                  np.sqrt(1.0 + xi1 ** 2 + xi2 ** 2) + 0.0 * x1 + 0.0 * x2)
    _, slope = radon_block_experiment(a, part, make_cutoff(gb, 1.0, 1.3),
                                      range(1, 4), cfg_b, 1.0)

    # bandwise recombination against the directly assembled operator
    gr = GridSpec(dim=2, half_width=np.pi, n_grid=16)
    part_r = build_partition(identity_field(2), 0, 3)
    cfg_r = RadonConfig(grid=gr, n_angles=40, n_offsets=33)

    def win(r):
        return _smoothstep_exp((r - 3.0) / 0.5) \
            * (1.0 - _smoothstep_exp((r - 5.5) / 0.5))

    ar = sample_on(gr, lambda x1, x2, xi1, xi2:
                   (1.0 + 0.2 * np.cos(x1))
                   * win(np.sqrt(xi1 ** 2 + xi2 ** 2)) + 0.0 * x2)
    chi_r = make_cutoff(gr, 2.0, 2.6)
    blocks = {}
    for k in (1, 2):
        lam = band_sum_symbol(part_r, k, gr)
        op = weyl_quantize(ar, weight=lam.values)
        blocks[(0, k)] = chi_r.ravel()[:, None] * op * chi_r.ravel()[None, :]
    ref = chi_r.ravel()[:, None] * weyl_quantize(ar) * chi_r.ravel()[None, :]
    rec_rep = radon_recombine(blocks.items(), ref, cfg_r,
                              active_bands=[1, 2])

    ok = disc_rel <= 0.02 and adj <= 1e-6 and abs(expo + 1.0) <= 0.25 \
        and fbp_rel <= 0.05 and 0.0 <= slope <= 1.0 \
        and rec_rep["relative_discrepancy"] <= 1e-10 \
        and rec_rep["certificate"].ok
    line = record(9, "Radon transform suite", ok,
                  f"disc {disc_rel:.2%} <= 2%, adjoint {adj:.1e} <= 1e-6, "
                  f"normal-op exponent {expo:.3f} in -1+-0.25, FBP "
                  f"{fbp_rel:.2%} <= 5%, block slope {slope:.2f} in "
                  f"[0, 1], recombination "
                  f"{rec_rep['relative_discrepancy']:.1e} <= 1e-10")
    assert ok, line


def test_criterion_10_metric_hypotheses():
    met = _conformal_1d()
    rep = verify_metric_hypotheses(
        met, [np.array([v]) for v in np.linspace(-3, 3, 25)])
    rng = np.random.default_rng(0)
    roundtrip = 0.0
    sandwich = True
    for _ in range(10_000):
        x = rng.uniform(-np.pi, np.pi, 1)
        xi = rng.standard_normal(1) * rng.uniform(0.5, 30.0)
        t = met.sqrt_at(x)
        gmat = met(x)
        roundtrip = max(roundtrip, float(np.abs(t @ t - gmat).max())
                        / float(np.abs(gmat).max()))
        fn2 = fiber_norm(met, x, xi) ** 2
        n2 = float(xi @ xi)
        sandwich &= (met.lambda_min * n2 - 1e-9 <= fn2
                     <= met.lambda_max * n2 + 1e-9)
    ok = rep.ok and all(rep.deriv_stable.values()) and sandwich \
        and roundtrip <= 1e-12
    line = record(10, "metric hypotheses", ok,
                  f"T^2=G roundtrip {roundtrip:.1e} <= 1e-12, sandwich over "
                  f"10^4 samples {'holds' if sandwich else 'violated'}, "
                  f"hypothesis report ok={rep.ok}")
    assert ok, line
