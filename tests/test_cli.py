import ast
import contextlib
import copy
import functools
import inspect
import io
import json
import math
import operator
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import microloc
from microloc import cli
from microloc.metric import conformal_field
from microloc.partition import build_partition


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


def test_partition_verify_fails_when_no_sample_meets_the_support(tmp_path,
                                                               capsys):
    # T_x = 0.1 I, declared in [0.01, 1]: |xi| would lie in [80, 16], an
    # empty range, so every sample clips to its top, |xi| = 15.98, where
    # |T_x xi| = 1.6 misses band 3.  Sigma = 0 on all 1,600 pairs and
    # nothing is checked.  (Declared exactly, the metric leaves band 3 no
    # support at all, which validation refuses: see the "metric leaves a
    # band empty" case of test_malformed_config_exits_2.)
    cfg = _base("partition-verify", dim=1,
                metric={"kind": "conformal", "expr": "0.01",
                        "lambda_min": 0.01, "lambda_max": 1.0},
                bands={"k_min": 3, "k_max": 3},
                samples={"n_x": 8, "n_xi": 200})
    code, outdir = _run(tmp_path, "partition-verify", cfg)
    assert code == 1
    report = json.loads((outdir / "partition_verify.json").read_text())
    assert math.isnan(report["pou_max_deviation"])
    assert report["overlap"]["histogram"] == {"0": 1600}
    # no sample meets a support, so the overlap and derivative checks
    # hold vacuously and must fail
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert not checks["overlap_bound"]
    assert not checks["derivative_uniformity"]


def test_partition_verify_samples_inside_the_built_annuli(tmp_path):
    # T_x = sqrt(0.5) I: |xi| is drawn in [8, 16] / sqrt(0.5), so every
    # |T_x xi| lies in band 3's annulus and every pair meets a support
    cfg = _base("partition-verify", dim=1,
                metric={"kind": "conformal", "expr": "0.5",
                        "lambda_min": 0.5, "lambda_max": 0.5},
                bands={"k_min": 3, "k_max": 3},
                samples={"n_x": 8, "n_xi": 200})
    code, outdir = _run(tmp_path, "partition-verify", cfg)
    assert code == 0
    report = json.loads((outdir / "partition_verify.json").read_text())
    assert "0" not in report["overlap"]["histogram"]


def test_band_bound_runs_and_is_deterministic(tmp_path):
    cfg = _base("band-bound", grid={"dim": 1, "half_width": np.pi,
                                    "n_grid": 128},
                metric={"kind": "identity"},
                bands={"k_min": 2, "k_max": 4}, symbol="ang(xi1)",
                m2=1, k_range=[2, 4],
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
    assert report["pair_matrix_file"] == "pair_matrix.csv"
    assert max(report["star_row_sums"]) == report["A"]
    assert max(report["adj_row_sums"]) == report["B"]


def test_cotlar_pair_matrix_csv_is_capped(tmp_path, monkeypatch):
    # at the block count cap pair_matrix.csv is not written; cotlar.json
    # still records the pair matrices' row sums
    cfg = _cotlar()
    code, outdir = _run(tmp_path, "cotlar", cfg, out="all")
    assert code == 0
    full = json.loads((outdir / "cotlar.json").read_text())
    monkeypatch.setattr(cli, "_PAIR_CSV_MAX_BLOCKS", full["blocks"])
    code, outdir = _run(tmp_path, "cotlar", cfg, out="capped")
    assert code == 0
    report = json.loads((outdir / "cotlar.json").read_text())
    assert not (outdir / "pair_matrix.csv").exists()
    assert report["pair_matrix_file"] is None
    assert len(report["star_row_sums"]) == report["blocks"] == full["blocks"]
    assert report["star_row_sums"] == full["star_row_sums"]
    assert report["adj_row_sums"] == full["adj_row_sums"]


def test_cotlar_block_drop_is_relative_to_the_reference(tmp_path):
    # the certificate does not depend on scale, and neither does which
    # blocks count: at 1e-16 times the symbol every block peaks below
    # 1e-14, and all 56 are still kept
    symbol = "(1 + 0.3*cos(x1)) * exp(-((abs(xi1)-12)/8)^2)"
    cfg = _base("cotlar", grid={"dim": 1, "half_width": np.pi, "n_grid": 64},
                metric={"kind": "identity"}, bands={"k_min": 1, "k_max": 3},
                symbol=symbol, active_bands=[1, 2, 3])
    reports = []
    for scale, out in (("1", "unit"), ("1e-16", "tiny")):
        code, outdir = _run(tmp_path, "cotlar",
                            {**cfg, "symbol": f"{scale} * ({symbol})"},
                            name=f"{out}.json", out=out)
        assert code == 0
        reports.append(json.loads((outdir / "cotlar.json").read_text()))
    unit, tiny = reports
    assert unit["blocks"] == tiny["blocks"] == 56
    for key in ("A", "B", "achieved"):
        assert tiny[key] == pytest.approx(1e-16 * unit[key], rel=1e-9)


def test_parametrix_runs(tmp_path):
    cfg = _base("parametrix",
                grid={"dim": 1, "half_width": np.pi, "n_grid": 64},
                metric={"kind": "identity"},
                bands={"k_min": 1, "k_max": 5}, low_freq_cap=True,
                symbol="1+xi1^2", m2=2, c0=0.4, big_r=1.0,
                order=1, cutoff={"r_one": 2.6, "r_zero": 3.1},
                tests={"sigma": 0.55, "xi0_list": [[14.0]]})
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
                phantom="gaussian")
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
])
def test_validation_rejections(tmp_path, mutate, desc):
    cfg = _base("band-bound", grid={"dim": 1, "half_width": np.pi,
                                    "n_grid": 128},
                metric={"kind": "identity"},
                bands={"k_min": 2, "k_max": 3}, symbol="ang(xi1)",
                m2=1, k_range=[2, 3],
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
                symbol="ang(xi1)", m2=1, k_range=[2, 3])
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


def _radon_block(**extra):
    cfg = _base("radon-block",
                grid={"dim": 2, "half_width": np.pi / 2, "n_grid": 8},
                metric={"kind": "identity"}, bands={"k_min": 0, "k_max": 2},
                symbol="sqrt(1+xi1^2+xi2^2)", m2=1, k_range=[1, 2],
                radon={"n_angles": 8, "n_offsets": 9})
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
    # no schema has a bump key: every bump value is refused as unknown
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
    (_cotlar(bands={"k_min": -4, "k_max": 3}), "empty annulus net"),
    (_cotlar(bands={"k_min": 1, "k_max": 2}, active_bands=[7]),
     "active band outside the built bands"),
    (_cotlar(metric={"kind": "conformal", "expr": "0", "lambda_min": 0,
                     "lambda_max": 1}), "zero conformal factor"),
    (_cotlar(metric={"kind": "conformal", "expr": "-1", "lambda_min": 1,
                     "lambda_max": 2}), "negative conformal factor"),
    (_cotlar(seed="x"), "string seed"),
    (_cotlar(seed=-1), "negative seed"),
    (_cotlar(schema_version=True), "boolean schema version"),
    (_band_bound(mode="x"), "unknown band-bound mode"),
    (_radon_invert() | {"phantom": "x"}, "unknown phantom"),
    # radon-invert has one filter, the ramp: a filter key is unknown
    (_radon_invert() | {"filter": "ramp"}, "unknown filter"),
    (_radon_invert() | {"grid": {"dim": 1, "half_width": np.pi,
                                 "n_grid": 32}}, "1D Radon grid"),
    (_cotlar(s=math.nan), "NaN Sobolev exponent"),
    (_cotlar(grid={"dim": 1, "half_width": math.inf, "n_grid": 32}),
     "infinite half width"),
    pytest.param(_cotlar(s=1e300), "Sobolev weights overflow",
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    (_radon_block(m2=1e300), "band scale overflows"),
    (_parametrix(tests={"xi0_list": [[8.0]], "sigma": 1e300}),
     "wavepacket width overflows"),
    (_radon_block(radon={"n_angles": 8, "n_offsets": 2}),
     "every Radon block norm zero"),
    (_radon_invert(n_angles=10 ** 400), "Radon angle count past floats"),
    (_cotlar(bands={"k_min": 2, "k_max": 10 ** 400}), "k_max past floats"),
    (_band_bound(k_range=[3, 1]), "band-bound k_range reversed"),
    (_radon_block(k_range=[2, 1]), "radon-block k_range reversed"),
    (_band_bound(k_range=[2, 2 ** 40]), "band-bound k_range span 2**40"),
    (_radon_block(k_range=[1, 2 ** 40]), "radon-block k_range span 2**40"),
    (_base("partition-verify", dim=1, bands={"k_min": 2, "k_max": 3},
           samples={"n_x": 2 ** 40}), "samples.n_x 2**40"),
    (_base("partition-verify", dim=1, bands={"k_min": 2, "k_max": 3},
           samples={"n_xi": 2 ** 40}), "samples.n_xi 2**40"),
    (_cotlar(symbol="0"), "zero symbol leaves no block"),
    (_cotlar(symbol="exp(-(xi1-100)^2)"), "symbol outside every band"),
    (_cotlar(symbol="1e300*xi1^2"), "Cotlar pair bounds overflow"),
    # a pole on the frequency lattice: refused when the symbol is sampled
    (_cotlar(symbol="1/xi1"), "cotlar symbol with a pole"),
    (_parametrix(symbol="1/xi1"), "parametrix symbol with a pole"),
    (_band_bound(symbol="1/xi1"), "band-bound symbol with a pole"),
    (_moyal(symbol_a="1/xi1"), "moyal-order symbol with a pole"),
    (_radon_block(symbol="1/xi1"), "radon-block symbol with a pole"),
    (_band_bound(k_range=[2, 6]), "band-bound k_range outside bands"),
    (_radon_block(k_range=[0, 3]), "radon-block k_range outside bands"),
    (_cotlar(bands={"k_min": -10 ** 400, "k_max": -10 ** 400}),
     "k_max below floats"),
    # T_x = 0.1 I: band 3's radial cutoff rho(|xi| / 8) vanishes beyond
    # |xi| = 32, but |T_x xi| reaches its annulus only from |xi| = 70
    (_base("partition-verify", dim=1,
           metric={"kind": "conformal", "expr": "0.01",
                   "lambda_min": 0.01, "lambda_max": 0.01},
           bands={"k_min": 3, "k_max": 3}, samples={"n_x": 8, "n_xi": 200}),
     "metric leaves a band empty"),
    # band-bound measures at one Sobolev order, and every wavepacket is
    # centred at the origin: s and tests.x0 are unknown keys
    (_band_bound(s=0.0), "band-bound Sobolev order"),
    (_parametrix(tests={"x0": [0.0], "xi0_list": [[8.0]], "sigma": 0.7}),
     "wavepacket centre"),
    # 2D n_grid 32 with bands 1..4: up to 22,244 blocks, 2.3e10 assembled
    # entries and 5.1e11 pair-core entries, refused before any block
    (_cotlar(grid={"dim": 2, "half_width": np.pi, "n_grid": 32},
             bands={"k_min": 1, "k_max": 4}), "cotlar work above a ceiling"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_malformed_config_exits_2(tmp_path, capsys, cfg, desc):
    code, _ = _run(tmp_path, cfg["experiment"], cfg)
    assert code == 2, desc
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["errors"]


@pytest.mark.parametrize("cfg,key", [
    (_band_bound(s=0.0), "s"),
    (_band_bound(mode="semiclassical"), "mode"),
    (_cotlar(s=0.0), "s"),
    (_parametrix(tests={"x0": [0.0], "xi0_list": [[8.0]]}), "tests.x0"),
    (_base("partition-verify", dim=1, bands={"k_min": 2, "k_max": 3},
           samples={"x_half_width": 1.0}), "samples.x_half_width"),
    (_cotlar(grid={"dim": 1, "half_width": np.pi, "n_grid": 32,
                   "lattice_step": 0.125}), "grid.lattice_step"),
], ids=["band-bound s", "band-bound mode", "cotlar s", "parametrix tests.x0",
        "partition-verify samples.x_half_width", "cotlar grid.lattice_step"])
def test_removed_keys_are_unknown(cfg, key):
    # keys no runner reads any more, at the top level or inside an object,
    # are refused rather than silently ignored
    assert cli.validate_config(cfg, cfg["experiment"]) == [
        f"unknown keys: {[key]}"]


def _non_utf8_config(tmp):
    (tmp / "cfg.json").write_bytes(b"\xff\xfe"
                                   + json.dumps(_cotlar()).encode())
    return tmp / "out"


def _deeply_nested_config(tmp):
    (tmp / "cfg.json").write_text("[" * 200000)
    return tmp / "out"


def _out_is_a_file(tmp):
    (tmp / "out").write_text("")
    return tmp / "out"


def _out_under_a_file(tmp):
    (tmp / "afile").write_text("")
    return tmp / "afile" / "sub"


@pytest.mark.parametrize("setup", [_non_utf8_config, _deeply_nested_config,
                                   _out_is_a_file, _out_under_a_file],
                         ids=lambda f: f.__name__.strip("_"))
def test_unreadable_config_or_output_exits_2(tmp_path, capsys, setup):
    (tmp_path / "cfg.json").write_text(json.dumps(_cotlar()))
    out = setup(tmp_path)
    code = cli.main(["cotlar", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out.splitlines()[-1])["errors"]
    assert "Traceback" not in captured.out + captured.err


def test_an_unwritable_report_exits_2(tmp_path, capsys):
    # a directory stands where band_bound.csv goes, so replacing it fails:
    # the run exits 2 with an errors line and leaves no temporary file
    (tmp_path / "cfg.json").write_text(json.dumps(_band_bound()))
    (tmp_path / "out" / "band_bound.csv").mkdir(parents=True)
    code = cli.main(["band-bound", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    errors = json.loads(captured.out.splitlines()[-1])["errors"]
    assert len(errors) == 1 and "band_bound.csv" in errors[0]
    assert "Traceback" not in captured.out + captured.err
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["band_bound.csv"]


def test_an_unwritable_array_exits_2(tmp_path, capsys):
    # the same for radon-invert's flat binary arrays: a directory stands
    # where phantom.bin goes
    (tmp_path / "cfg.json").write_text(json.dumps(_radon_invert()))
    (tmp_path / "out" / "phantom.bin").mkdir(parents=True)
    code = cli.main(["radon-invert", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    errors = json.loads(captured.out.splitlines()[-1])["errors"]
    assert len(errors) == 1 and "phantom.bin" in errors[0]
    assert "Traceback" not in captured.out + captured.err
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["phantom.bin"]


def _cfg_reads(func) -> set:
    """Keys a function reads straight from ``cfg``: ``cfg["k"]`` or
    ``cfg.get("k", ...)``."""
    keys = set()
    for node in ast.walk(ast.parse(inspect.getsource(func))):
        if isinstance(node, ast.Subscript):
            target, key = node.value, node.slice
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get"):
            target, key = node.func.value, node.args[0]
        else:
            continue
        if (isinstance(target, ast.Name) and target.id == "cfg"
                and isinstance(key, ast.Constant)):
            keys.add(key.value)
    return keys


def test_runners_read_only_schema_keys():
    # validation rejects keys outside the schema, so a runner reading one
    # would always get its default
    stray = {}
    for experiment, runner in cli._RUNNERS.items():
        reads = _cfg_reads(runner)
        assert reads, experiment
        extra = reads - cli._SCHEMAS[experiment] - cli._COMMON_KEYS
        if extra:
            stray[experiment] = sorted(extra)
    assert not stray


def _cfg_reads_with_builders(func) -> set:
    """Keys read by func or by a ``cli._build_*`` helper it calls, directly
    or through another such helper."""
    keys, todo, seen = set(), [func], set()
    while todo:
        func = todo.pop()
        keys |= _cfg_reads(func)
        for node in ast.walk(ast.parse(inspect.getsource(func))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id.startswith("_build_")
                    and node.func.id not in seen):
                seen.add(node.func.id)
                todo.append(getattr(cli, node.func.id))
    return keys


def test_every_schema_key_is_read():
    # validation accepts every schema key, so one that no runner or builder
    # reads would be taken from a config and silently ignored
    unread = {}
    for experiment, runner in cli._RUNNERS.items():
        missing = cli._SCHEMAS[experiment] - _cfg_reads_with_builders(runner)
        if missing:
            unread[experiment] = sorted(missing)
    assert not unread


_G1 = {"dim": 1, "half_width": np.pi, "n_grid": 8}
_FUZZ_BASES = [
    _base("partition-verify", dim=1, metric={"kind": "identity"},
          bands={"k_min": 2, "k_max": 3}, low_freq_cap=False, seed=0,
          samples={"n_x": 2, "n_xi": 8}),
    _band_bound(grid=_G1, bands={"k_min": 0, "k_max": 1}, k_range=[0, 1],
                cutoff={"r_one": 2.4, "r_zero": 3.0}),
    _moyal(grid=_G1, cutoff={"r_one": 2.4, "r_zero": 3.0}),
    _cotlar(grid=_G1, bands={"k_min": 1, "k_max": 1}, active_bands=[1],
            cutoff={"r_one": 2.4, "r_zero": 3.0},
            metric={"kind": "conformal", "expr": "2+sin(x1)",
                    "lambda_min": 1, "lambda_max": 3}),
    _parametrix(grid=_G1, bands={"k_min": 0, "k_max": 1}, c0=0.5,
                big_r=0.0, tests={"xi0_list": [[1.5]], "sigma": 0.7}),
    _radon_block(cutoff={"r_one": 0.7, "r_zero": 1.0}),
    _base("radon-invert", grid={"dim": 2, "half_width": np.pi, "n_grid": 8},
          radon={"n_angles": 8, "n_offsets": 9}, phantom="disc", seed=0),
]
_FUZZ_VALUES = [None, True, "x", [], {}, [1, 2], {"a": 1}, 0, 1, -1, 2, 3,
                0.0, 0.5, -0.5, 1e300, -1e300, math.nan, math.inf, -math.inf]


def _paths(obj, prefix=()):
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def _mutated_configs(draw):
    """A tiny valid config with one or two keys dropped or given a value
    of the wrong type, out of range or not finite."""
    cfg = copy.deepcopy(draw(st.sampled_from(_FUZZ_BASES)))
    experiment = cfg["experiment"]
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(cfg))))
        parent = functools.reduce(operator.getitem, path[:-1], cfg)
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(st.sampled_from(_FUZZ_VALUES))
    return experiment, cfg


@settings(max_examples=150)
@given(case=_mutated_configs())
def test_mutated_configs_exit_0_1_or_2(tmp_path_factory, case):
    experiment, cfg = case
    tmp = tmp_path_factory.mktemp("fuzz")
    path = tmp / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main([experiment, "--config", str(path),
                         "--out", str(tmp / "out")])
    assert code in (0, 1, 2), (cfg, out.getvalue())
    assert "Traceback" not in out.getvalue(), cfg


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
    # one angle's line samples take up to 128 bytes each: one angle of
    # 600,000 offsets at n_grid 256 would need 55 GB, and of 700,000
    # offsets at n_grid 32 in radon-block 9 GB; 3,000 x 3,000 rays at
    # n_grid 32 make radon-invert's operator 11.8 GB; radon-block holds
    # 8 bytes an angle
    few = _radon_invert(n_angles=1, n_offsets=600_000)
    few["grid"]["n_grid"] = 256
    grid32 = {"dim": 2, "half_width": np.pi / 2, "n_grid": 32}
    for experiment, cfg in (
            ("radon-invert", few),
            ("radon-block", _radon_block(grid=grid32, radon={
                "n_angles": 1, "n_offsets": 700_000})),
            ("radon-invert", _radon_invert(n_angles=3000, n_offsets=3000)),
            ("radon-block", _radon_block(grid=grid32, radon={
                "n_angles": 2 ** 30, "n_offsets": 9}))):
        errors = cli.validate_config(cfg, experiment)
        assert any("8 GB" in e for e in errors), errors
    # radon-block forms neither the dense R nor the sparse operator: 800
    # angles of 1,000 offsets at n_grid 32 peak at 645 MB RSS, and 3,000 x
    # 3,000 is priced at 0.12 GB
    for radon in ({"n_angles": 800, "n_offsets": 1000},
                  {"n_angles": 3000, "n_offsets": 3000}):
        assert cli.validate_config(_radon_block(grid=grid32, radon=radon),
                                   "radon-block") == []


@pytest.mark.parametrize("cfg", [
    _cotlar(bands={"k_min": 2, "k_max": 23}),
    _cotlar(grid={"dim": 2, "half_width": np.pi, "n_grid": 16},
            bands={"k_min": 2, "k_max": 14}),
    _base("partition-verify", dim=2, bands={"k_min": 2, "k_max": 9}),
], ids=["1D k_max 23", "2D k_max 14", "partition-verify 2D k_max 9"])
def test_net_lattice_beyond_8gb_rejected_before_running(tmp_path, capsys,
                                                        cfg):
    # the k_max annulus lattice at step 1/8: 1D k_max 23 asks numpy for
    # 10 GiB, 2D k_max 14 for 12 TiB; k_max 8 (3 GiB in 2D) still runs
    errors = cli.validate_config(cfg, cfg["experiment"])
    assert any("8 GB" in e for e in errors), errors
    ok = {**cfg, "bands": {"k_min": 2, "k_max": 8}}
    # 2D cotlar at k_max 8 passes the lattice check, but would hold up to
    # 5.6 million blocks, which the work ceilings refuse
    errors = cli.validate_config(ok, cfg["experiment"])
    assert [e for e in errors if "cotlar blocks" not in e] == [], errors
    code, _ = _run(tmp_path, cfg["experiment"], cfg)
    assert code == 2
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["errors"]


def test_non_radon_experiments_load_no_scipy(tmp_path):
    # only a Radon matrix-vector product (radon-invert) imports scipy.sparse;
    # parametrix, cotlar and radon-block runs, and importing microloc.radon,
    # load no scipy module, and the runs load no numpy.ma (about 11 ms of
    # import) and no numpy.random (about 6 ms and 5 MB)
    runs = []
    for name, cfg in (("parametrix", _parametrix()), ("cotlar", _cotlar()),
                      ("radon-block", _radon_block())):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        runs.append([name, str(path), str(tmp_path / name)])
    script = (
        "import json, sys\n"
        "from microloc import cli\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m.split('.')[0] == 'scipy')\n"
        "codes = [cli.main([name, '--config', path, '--out', out])\n"
        "         for name, path, out in json.loads(sys.argv[1])]\n"
        "after_runs = scipy_modules()\n"
        "extras = [m for m in ('numpy.ma', 'numpy.random')\n"
        "          if m in sys.modules]\n"
        "import microloc.radon\n"
        "print(json.dumps([codes, after_runs, extras, scipy_modules()]))\n")
    src = str(Path(microloc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)],
                          capture_output=True, text=True, env=env,
                          timeout=300, check=True)
    codes, after_runs, extras, after_import = json.loads(
        proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0]
    assert after_runs == []
    assert extras == []
    assert after_import == []


def test_moyal_order_out_of_range_rejected(tmp_path):
    cfg = _base("moyal-order",
                grid={"dim": 1, "half_width": np.pi, "n_grid": 64},
                symbol_a="exp(-xi1^2)", symbol_b="exp(-xi1^2)",
                orders_n=[7], h_list=[0.25])
    code, _ = _run(tmp_path, "moyal-order", cfg)
    assert code == 2


@given(log_lo=st.floats(-4.0, 4.0), span=st.floats(0.0, 4.0),
       k=st.integers(-2, 6))
def test_a_missed_band_has_no_support(log_lo, span, k):
    # a miss at band k is a miss at every larger k, so validation checks
    # k_max alone; and a band the check calls missed holds no chi > 0
    lo, hi = 10.0 ** log_lo, 10.0 ** (log_lo + span)
    if cli._band_missed(k, lo, hi):
        assert cli._band_missed(k + 1, lo, hi)
    if cli._band_missed(k, lo, lo):
        metric = conformal_field(lambda x: lo, 1, lambda_min=lo,
                                 lambda_max=lo)
        part = build_partition(metric, k, k)
        xi = np.geomspace(2.0 ** (k - 3), 2.0 ** (k + 3), 2000)[:, None]
        assert not part.sigma_pairs(np.zeros((1, 1)), xi).any()


def test_dim2_ceiling(tmp_path):
    cfg = _base("cotlar", grid={"dim": 2, "half_width": np.pi, "n_grid": 128},
                metric={"kind": "identity"},
                bands={"k_min": 0, "k_max": 1}, symbol="exp(-xi1^2-xi2^2)")
    code, _ = _run(tmp_path, "cotlar", cfg)
    assert code == 2


def _cotlar_2d(n_grid, k_max):
    return _cotlar(grid={"dim": 2, "half_width": np.pi, "n_grid": n_grid},
                   bands={"k_min": 1, "k_max": k_max},
                   symbol="(1 + 0.3*cos(x1) + 0.2*sin(x2)) "
                          "* exp(-((sqrt(xi1^2 + xi2^2) - 6)/4)^2)",
                   cutoff={"r_one": 2.0, "r_zero": 2.6})


def test_cotlar_work_ceilings():
    # the measured 3,094-block run (2D n_grid 32, bands 1..3: 338 s, block
    # bound 5,603) is admitted without being run; bands 1..4 exceed both
    # ceilings, and at n_grid 16 bands 1..5 exceed the pair-core one only
    assert cli.validate_config(_cotlar_2d(32, 3), "cotlar") == []
    assert cli.validate_config(_cotlar_2d(32, 4), "cotlar") == [
        "bands and grid.n_grid allow up to 22244 cotlar blocks: 2.3e+10 "
        "assembled block entries exceed the ceiling of 1.2e+10",
        "bands and grid.n_grid allow up to 22244 cotlar blocks: 5.1e+11 "
        "pair-core entries exceed the ceiling of 6.4e+10"]
    assert cli.validate_config(_cotlar_2d(16, 5), "cotlar") == [
        "bands and grid.n_grid allow up to 88293 cotlar blocks: 2.0e+12 "
        "pair-core entries exceed the ceiling of 6.4e+10"]


def test_missing_config_file(tmp_path):
    code = cli.main(["cotlar", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)])
    assert code == 2


def test_readme_configs_validate():
    # every JSON config block of the README passes validation, so an
    # example cannot keep a key the CLI no longer takes
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```json\n(.*?)```", readme.read_text(), re.S)
    assert blocks
    for block in blocks:
        cfg = json.loads(block)
        assert cli.validate_config(cfg, cfg["experiment"]) == [], block
