import json

import numpy as np
import pytest

from microloc import cli


def _run(tmp_path, experiment, cfg, name="cfg.json", out="out"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    outdir = tmp_path / out
    code = cli.main([experiment, "--config", str(path), "--out", str(outdir)])
    return code, outdir


def _base(experiment, **extra):
    cfg = {"schema_version": 1, "experiment": experiment}
    cfg.update(extra)
    return cfg


def test_partition_verify_runs_green(tmp_path):
    cfg = _base("partition-verify", dim=1, metric={"kind": "identity"},
                bands={"k_min": 2, "k_max": 3},
                samples={"n_x": 4, "n_xi": 24})
    code, outdir = _run(tmp_path, "partition-verify", cfg)
    assert code == 0
    report = json.loads((outdir / "partition_verify.json").read_text())
    assert report["pou_max_deviation"] <= 1e-10
    assert (outdir / "overlap_histogram.csv").exists()


def test_band_bound_runs_and_is_deterministic(tmp_path):
    cfg = _base("band-bound", grid={"dim": 1, "half_width": np.pi,
                                    "n_grid": 128},
                metric={"kind": "identity"},
                bands={"k_min": 2, "k_max": 4}, symbol="ang(xi1)",
                orders=[0, 1], s=0.0, k_range=[2, 4],
                mode="semiclassical",
                cutoff={"r_one": 2.4, "r_zero": 3.0})
    code1, out1 = _run(tmp_path, "band-bound", cfg, out="out1")
    code2, out2 = _run(tmp_path, "band-bound", cfg, out="out2")
    assert code1 == code2 == 0
    a = (out1 / "band_bound.csv").read_bytes()
    b = (out2 / "band_bound.csv").read_bytes()
    assert a == b
    report = json.loads((out1 / "band_bound.json").read_text())
    assert np.isfinite(report["slope"])


def test_moyal_order_runs(tmp_path):
    cfg = _base("moyal-order",
                grid={"dim": 1, "half_width": np.pi, "n_grid": 64},
                symbol_a="cos(x1/2)^2*exp(-(xi1/0.6)^2)",
                symbol_b="cos(x1/2)^2*exp(-(xi1/0.5)^2)",
                orders_n=[1], h_list=[0.25, 0.125])
    code, outdir = _run(tmp_path, "moyal-order", cfg)
    assert code == 0
    lines = (outdir / "moyal_order.csv").read_text().strip().splitlines()
    assert lines[0] == "n,h,residual"
    assert len(lines) == 3


def test_cotlar_runs(tmp_path):
    cfg = _base("cotlar", grid={"dim": 1, "half_width": np.pi, "n_grid": 64},
                metric={"kind": "identity"},
                bands={"k_min": 2, "k_max": 3},
                symbol="exp(-((xi1-6)/1.5)^2)",
                cutoff={"r_one": 2.4, "r_zero": 3.0})
    code, outdir = _run(tmp_path, "cotlar", cfg)
    assert code == 0
    report = json.loads((outdir / "cotlar.json").read_text())
    assert report["achieved"] <= report["bound"] * (1 + 1e-8)
    assert (outdir / "pair_matrix.csv").exists()


def test_parametrix_runs(tmp_path):
    cfg = _base("parametrix",
                grid={"dim": 1, "half_width": np.pi, "n_grid": 64},
                metric={"kind": "identity"},
                bands={"k_min": 1, "k_max": 5}, low_freq_cap=True,
                symbol="1+xi1^2", m2=2, c0=0.4, big_r=1.0,
                order=1, cutoff={"r_one": 2.6, "r_zero": 3.1},
                tests={"sigma": 0.55, "x0": [0.0], "xi0_list": [[14.0]]})
    code, outdir = _run(tmp_path, "parametrix", cfg)
    assert code == 0
    report = json.loads((outdir / "parametrix.json").read_text())
    assert report["rel_errors"] and report["rel_errors"][0] < 1e-4


def test_radon_block_runs(tmp_path):
    cfg = _base("radon-block",
                grid={"dim": 2, "half_width": np.pi / 2, "n_grid": 16},
                metric={"kind": "identity"},
                bands={"k_min": 0, "k_max": 2},
                symbol="sqrt(1+xi1^2+xi2^2)", m2=1, k_range=[1, 2],
                radon={"n_angles": 20, "n_offsets": 17},
                cutoff={"r_one": 0.7, "r_zero": 1.0})
    code, outdir = _run(tmp_path, "radon-block", cfg)
    assert code == 0
    assert (outdir / "radon_block.csv").exists()


def test_radon_invert_runs(tmp_path):
    cfg = _base("radon-invert",
                grid={"dim": 2, "half_width": np.pi, "n_grid": 64},
                radon={"n_angles": 90, "n_offsets": 129},
                phantom="gaussian", filter="ramp")
    code, outdir = _run(tmp_path, "radon-invert", cfg)
    assert code == 0
    report = json.loads((outdir / "radon_invert.json").read_text())
    assert report["rel_l2_error"] <= 0.05
    assert report["adjointness_defect"] <= 1e-6
    for stem in ("phantom", "sinogram", "reconstruction"):
        assert (outdir / f"{stem}.bin").exists()
        assert (outdir / f"{stem}.bin.json").exists()


@pytest.mark.parametrize("mutate,desc", [
    (lambda c: c.update(grid={"dim": 1, "half_width": np.pi, "n_grid": 100}),
     "non-power-of-two grid"),
    (lambda c: c.update(grid={"dim": 1, "half_width": np.pi, "n_grid": 1024}),
     "grid above the dim-1 ceiling"),
    (lambda c: c.update(surprise=1), "unknown key"),
    (lambda c: c.update(schema_version=2), "wrong schema version"),
    (lambda c: c.update(experiment="cotlar"), "experiment mismatch"),
    (lambda c: c.update(lattice_step=0.5), "lattice step too coarse"),
])
def test_validation_rejections(tmp_path, mutate, desc):
    cfg = _base("band-bound", grid={"dim": 1, "half_width": np.pi,
                                    "n_grid": 128},
                metric={"kind": "identity"},
                bands={"k_min": 2, "k_max": 3}, symbol="ang(xi1)",
                orders=[0, 1], k_range=[2, 3],
                cutoff={"r_one": 2.4, "r_zero": 3.0})
    mutate(cfg)
    code, _ = _run(tmp_path, "band-bound", cfg)
    assert code == 2, desc


def _radon_invert(**radon):
    return _base("radon-invert",
                 grid={"dim": 2, "half_width": np.pi, "n_grid": 32},
                 radon={"n_angles": 16, "n_offsets": 33, **radon})


def _cotlar(**extra):
    cfg = _base("cotlar", grid={"dim": 1, "half_width": np.pi, "n_grid": 32},
                metric={"kind": "identity"}, bands={"k_min": 2, "k_max": 3},
                symbol="exp(-xi1^2)")
    cfg.update(extra)
    return cfg


def _band_bound(**extra):
    cfg = _base("band-bound",
                grid={"dim": 1, "half_width": np.pi, "n_grid": 32},
                metric={"kind": "identity"}, bands={"k_min": 2, "k_max": 3},
                symbol="ang(xi1)", orders=[0, 1], k_range=[2, 3])
    cfg.update(extra)
    return cfg


def _moyal(**extra):
    cfg = _base("moyal-order",
                grid={"dim": 1, "half_width": np.pi, "n_grid": 32},
                symbol_a="exp(-xi1^2)", symbol_b="exp(-xi1^2)",
                orders_n=[1], h_list=[0.5, 0.25])
    cfg.update(extra)
    return cfg


def _parametrix(**extra):
    cfg = _base("parametrix",
                grid={"dim": 1, "half_width": np.pi, "n_grid": 32},
                metric={"kind": "identity"}, bands={"k_min": 1, "k_max": 4},
                low_freq_cap=True, symbol="1+xi1^2", m2=2, order=1,
                cutoff={"r_one": 3.0, "r_zero": 3.1},
                tests={"xi0_list": [[8.0], [-8.0]], "sigma": 0.7})
    cfg.update(extra)
    return cfg


def _without(cfg, key):
    return {k: v for k, v in cfg.items() if k != key}


@pytest.mark.parametrize("cfg,desc", [
    (_radon_invert(n_offsets=1), "one Radon offset"),
    (_radon_invert(n_angles=0), "no Radon angles"),
    (_radon_invert(n_angles=True), "boolean Radon angle count"),
    ({k: v for k, v in _cotlar().items() if k != "bands"}, "missing bands"),
    (_cotlar(bands="oops"), "bands not an object"),
    (_cotlar(bands={"k_min": True, "k_max": 3}), "boolean band index"),
    (_cotlar(grid={"dim": True, "half_width": np.pi, "n_grid": 32}),
     "boolean grid dim"),
    (_base("moyal-order", grid={"dim": 1, "half_width": np.pi, "n_grid": 32},
           symbol_a="__import__(1)", symbol_b="xi1", orders_n=[1],
           h_list=[0.5]), "unsafe expression"),
    (_base("parametrix", grid={"dim": 1, "half_width": np.pi, "n_grid": 64},
           metric={"kind": "identity"}, bands={"k_min": 2, "k_max": 4},
           symbol="1+xi1^2", m2=2, c0=10, order=1), "every patch rejected"),
    (_without(_band_bound(), "k_range"), "missing k_range"),
    (_without(_band_bound(), "symbol"), "missing symbol"),
    (_band_bound(symbol=3), "numeric symbol"),
    (_band_bound(metric={"kind": "conformal"}), "conformal metric without expr"),
    (_band_bound(grid={"dim": 2, "half_width": np.pi, "n_grid": 64}),
     "grid above the dim-2 ceiling"),
    (_without(_cotlar(), "grid"), "missing grid"),
    (_moyal(orders_n=3), "moyal orders not a list"),
    (_without(_moyal(), "h_list"), "missing h_list"),
    (_base("partition-verify", dim=3, bands={"k_min": 2, "k_max": 3}),
     "partition dim 3"),
    (_cotlar(s="x"), "string Sobolev exponent"),
    (_cotlar(active_bands=5), "active_bands not a list"),
    (_parametrix(tests={"xi0_list": [[8.0]], "sigma": 0}),
     "zero wavepacket width"),
    (_parametrix(tests={"xi0_list": [[8.0, 0.0]], "sigma": 0.7}),
     "wavepacket frequency of the wrong dimension"),
    (_cotlar(cutoff={"r_one": "x", "r_zero": 3.0}), "string cutoff radius"),
    (_cotlar(cutoff=[1, 2]), "cutoff not an object"),
    (_cotlar(bump=3), "bump not an object"),
    (_parametrix(c0="x"), "string ellipticity floor"),
    (_parametrix(big_r="x"), "string ellipticity radius"),
    (_base("partition-verify", dim=1, bands={"k_min": 2, "k_max": 3},
           samples="many"), "samples not an object"),
    (_cotlar(cutoff={"r_one": 2.0, "r_zero": 1.0}), "cutoff radii reversed"),
    (_cotlar(bump={"kind": "boxcar"}), "unknown bump kind"),
    (_cotlar(bump={"kind": ["exp-mollified"]}), "bump kind not a string"),
    (_base("partition-verify", dim=1, bands={"k_min": 2, "k_max": 3},
           samples={"n_x": 0}), "no spatial samples"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_malformed_config_exits_2(tmp_path, capsys, cfg, desc):
    code, _ = _run(tmp_path, cfg["experiment"], cfg)
    assert code == 2, desc
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["errors"]


def test_radon_beyond_8gb_rejected_before_running(tmp_path, capsys):
    # criterion 9's geometry fits; 64 times its rays would need about 65 GB
    # to build the operator, so validation must refuse it before any run
    ok = _radon_invert(n_angles=360, n_offsets=256)
    ok["grid"]["n_grid"] = 256
    assert cli.validate_config(ok, "radon-invert") == []
    cfg = _radon_invert(n_angles=360 * 8, n_offsets=256 * 8)
    cfg["grid"]["n_grid"] = 256
    errors = cli.validate_config(cfg, "radon-invert")
    assert any("8 GB" in e for e in errors), errors
    code, _ = _run(tmp_path, "radon-invert", cfg)
    assert code == 2
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["errors"]


def test_moyal_order_out_of_range_rejected(tmp_path):
    cfg = _base("moyal-order",
                grid={"dim": 1, "half_width": np.pi, "n_grid": 64},
                symbol_a="exp(-xi1^2)", symbol_b="exp(-xi1^2)",
                orders_n=[7], h_list=[0.25])
    code, _ = _run(tmp_path, "moyal-order", cfg)
    assert code == 2


def test_dim2_ceiling(tmp_path):
    cfg = _base("cotlar", grid={"dim": 2, "half_width": np.pi, "n_grid": 128},
                metric={"kind": "identity"},
                bands={"k_min": 0, "k_max": 1}, symbol="exp(-xi1^2-xi2^2)")
    code, _ = _run(tmp_path, "cotlar", cfg)
    assert code == 2


def test_missing_config_file(tmp_path):
    code = cli.main(["cotlar", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)])
    assert code == 2
