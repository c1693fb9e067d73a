"""Experiment harness: config parsing, dispatch, and report writing.

Usage: ``microloc <experiment> --config <file> [--out <dir>]``.  Configs
are JSON with a versioned schema; unknown keys are rejected.  Exit code 0
means every invariant check in the run passed, 1 names a failing check,
2 reports validation errors.  Output files are written atomically.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

SCHEMA_VERSION = 1

# Runs must fit in 8 GB; validation refuses sizes whose largest arrays
# would need more than this.
_BYTES_MAX = 7 * 2 ** 30

_COMMON_KEYS = {"schema_version", "experiment", "seed"}

_SCHEMAS = {
    "partition-verify": {"dim", "metric", "bands", "low_freq_cap",
                         "samples"},
    "band-bound": {"grid", "metric", "bands", "symbol", "m2", "k_range",
                   "cutoff"},
    "moyal-order": {"grid", "symbol_a", "symbol_b", "orders_n", "h_list",
                    "cutoff"},
    "cotlar": {"grid", "metric", "bands", "symbol", "cutoff",
               "active_bands"},
    "parametrix": {"grid", "metric", "bands", "low_freq_cap", "symbol",
                   "m2", "c0", "big_r", "order", "cutoff", "tests"},
    "radon-block": {"grid", "metric", "bands", "symbol", "m2", "k_range",
                    "radon", "cutoff"},
    "radon-invert": {"grid", "radon", "phantom"},
}

# the keys each object-valued entry takes
_OBJECT_KEYS = {
    "grid": {"dim", "half_width", "n_grid"},
    "metric": {"kind", "expr", "lambda_min", "lambda_max"},
    "bands": {"k_min", "k_max"},
    "cutoff": {"r_one", "r_zero"},
    "samples": {"n_x", "n_xi"},
    "tests": {"sigma", "xi0_list"},
    "radon": {"n_angles", "n_offsets"},
}

class ValidationFailure(Exception):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class ReportWriteError(Exception):
    """A report file could not be written; its temporary file is gone."""


def _atomic_write(path: str, data: str | bytes) -> None:
    tmp = path + ".tmp"
    try:
        with open(tmp, "w" if isinstance(data, str) else "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise ReportWriteError(f"cannot write {path}: {exc}") from exc


def write_json(path: str, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)] + [
        ",".join(f"{c:.12e}" if isinstance(c, float) else str(c) for c in row)
        for row in rows]
    _atomic_write(path, "\n".join(lines) + "\n")


def save_array(path: str, arr, extent: float) -> None:
    """Flat binary float64 with a JSON sidecar header ``path + ".json"``,
    each written atomically."""
    import numpy as np
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    _atomic_write(path, arr.tobytes())
    write_json(path + ".json", {"shape": list(arr.shape), "extent": extent,
                                "dtype": "float64", "order": "row-major"})


def load_array(path: str):
    """An array written by ``save_array`` and its header."""
    import numpy as np
    with open(path + ".json") as fh:
        header = json.load(fh)
    arr = np.fromfile(path, dtype=np.float64).reshape(header["shape"])
    return arr, header


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """A JSON number within the float range: not NaN or infinite, nor an
    int too large to convert."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _is_pow2(n) -> bool:
    return _is_int(n) and n >= 2 and (n & (n - 1)) == 0


def _is_pair(v, test) -> bool:
    return isinstance(v, list) and len(v) == 2 and all(map(test, v))


def _radon_bytes(n_grid: int, n_angles: int, n_offsets: int,
                 block: bool) -> float:
    """Bytes of a Radon run, an upper bound.  Both experiments hold one
    angle's (2 sqrt(2) n_grid + 1) n_offsets line samples of 70 to 124
    bytes.  radon-invert builds and caches the sparse operator, about
    1.7 n_grid n_angles n_offsets entries of 12 bytes, and its build holds
    two copies (n_grid 256, 360 angles, 256 offsets: 476 MB, 0.65 GB
    peak).  radon-block builds no operator: it holds its angles, its Gram
    matrix G, filled in blocks of 1,024 rays of 8 n_grid^2 bytes, and per
    band four complex arrays of G's size at most (C, GC, C^H, C^H G C):
    8 n_angles + 72 n_grid^4 + 8192 n_grid^2 bytes."""
    samples = 128 * (2 ** 1.5 * n_grid + 1) * n_offsets
    if block:
        return samples + 8 * n_angles + 72 * n_grid ** 4 + 8192 * n_grid ** 2
    return samples + 2 * 12 * 1.7 * n_grid * n_angles * n_offsets


def _radon_errors(radon, grid, experiment) -> list[str]:
    """Errors in a ``radon`` object, including sizes beyond 8 GB."""
    if not isinstance(radon, dict):
        return ["radon must be an object"]
    errors = []
    n_angles, n_offsets = radon.get("n_angles"), radon.get("n_offsets")
    if not (_is_int(n_angles) and n_angles >= 1):
        errors.append("radon.n_angles must be an int >= 1")
    if not (_is_int(n_offsets) and n_offsets >= 2):
        errors.append("radon.n_offsets must be an int >= 2")
    n = grid.get("n_grid") if isinstance(grid, dict) else None
    # an n_grid above the Radon ceiling is refused with the grid; counts
    # are capped at 2^40, far past 8 GB, so that the estimate stays finite
    if not errors and _is_int(n) and n <= 256 and _radon_bytes(
            n, min(n_angles, 2 ** 40), min(n_offsets, 2 ** 40),
            experiment == "radon-block") > _BYTES_MAX:
        errors.append("grid.n_grid, radon.n_angles and radon.n_offsets "
                      "need more than 8 GB")
    return errors


def _lattice_bytes(k_max: int, dim: int) -> float:
    """Bytes held while the (2^(k_max+5))^dim points of the band-k_max
    lattice at step 1/8 are spelled out, as validate_net does: 8 (dim + 4)
    per point for the mesh coordinates, the stacked points, their squares
    and norms (peak RSS rise measured at 40 bytes per point in 1D, 48 in
    2D).  build_net scans the lattice a row at a time and holds less.
    k_max is clipped to [-64, 64], far past any ceiling, so that no float
    overflows."""
    return 8 * (dim + 4) * 2.0 ** (dim * (min(max(k_max, -64), 64) + 5))


def _band_missed(k: int, lambda_min: float, lambda_max: float) -> bool:
    """Whether a metric with eigenvalues in [lambda_min, lambda_max] leaves
    band k no support.  chi_{j,k} > 0 needs the raw |xi| in
    (2^(k-2), 2^(k+2)), where rho(2^-k |xi|) > 0, and |T_x xi| within 1 of
    the annulus [2^k, 2^(k+1)), so |xi| in ((2^k - 1) / sqrt(lambda_max),
    (2^(k+1) + 1) / sqrt(lambda_min)).  Windows that miss at k miss at
    every larger k, so the top band is the one to check.  k is clipped
    from below at -1100, where 2^k is 0.0 and no window misses."""
    t = 2.0 ** max(k, -1100)
    return (4 * t <= (t - 1) / lambda_max ** 0.5
            or (2 * t + 1) / lambda_min ** 0.5 <= t / 4)


def _cotlar_errors(k_min: int, k_max: int, dim: int, n_grid: int) -> list[str]:
    """Errors for a cotlar run whose work exceeds a ceiling.  The blocks
    are at most sum_k (2^(k+3) + 1)^dim over the bands, the nets' packing
    bound (bands below -3 have empty nets and are refused when built);
    each is assembled from n_grid^(2 dim) entries, and each pair's cores
    cost about n_grid^dim.  The ceilings are about twice the work of the
    2D n_grid 32, bands 1..3 run (3,094 blocks, 338 s on 2 cores), whose
    bound of 5,603 blocks gives 5.9e9 and 3.2e10."""
    blocks = sum((2 ** (k + 3) + 1) ** dim
                 for k in range(max(k_min, -3), k_max + 1))
    return [f"bands and grid.n_grid allow up to {blocks} cotlar blocks: "
            f"{work:.1e} {name} exceed the ceiling of {ceiling:.1e}"
            for name, work, ceiling in (
                ("assembled block entries", blocks * n_grid ** (2 * dim),
                 1.2e10),
                ("pair-core entries", blocks ** 2 * n_grid ** dim, 6.4e10))
            if work > ceiling]


def _cutoff_errors(cutoff, grid) -> list[str]:
    """Errors in a ``cutoff`` object; absent radii take their defaults."""
    if not (isinstance(cutoff, dict)
            and all(_is_number(cutoff[key])
                    for key in ("r_one", "r_zero") if key in cutoff)):
        return ["cutoff must be an object with numbers r_one, r_zero"]
    half_width = grid.get("half_width") if isinstance(grid, dict) else None
    if not _is_number(half_width):
        return []
    r_one = cutoff.get("r_one", 0.5 * half_width)
    r_zero = cutoff.get("r_zero", 0.9 * half_width)
    if not 0 < r_one < r_zero:
        return ["cutoff needs 0 < r_one < r_zero"]
    return []


def _sample_bytes(n_x: int, n_xi: int, dim: int) -> int:
    """Bytes of a partition-verify scan: 512 per x sample, 40 per (x, xi)
    pair and, for a band's (n_xi, 7^dim) neighbor blocks, 8 (4 7^dim + 16)
    per xi sample.  Measured peak RSS rises: 415-450, 18-33, and 310 (1D)
    or 1630 (2D) bytes."""
    return n_x * (512 + 40 * n_xi) + 8 * (4 * 7 ** dim + 16) * n_xi


def _sample_errors(samples, dim) -> list[str]:
    """Errors in a partition-verify ``samples`` object, or sizes past 8 GB."""
    if not isinstance(samples, dict):
        return ["samples must be an object"]
    errors = [f"samples.{key} must be an int >= 1"
              for key in ("n_x", "n_xi")
              if key in samples and not (_is_int(samples[key])
                                         and samples[key] >= 1)]
    if not errors and _is_int(dim) and dim in (1, 2) and _sample_bytes(
            samples.get("n_x", 16), samples.get("n_xi", 400),
            dim) > _BYTES_MAX:
        errors.append("samples.n_x and samples.n_xi need more than 8 GB")
    return errors


def _test_function_errors(tests, grid) -> list[str]:
    """Errors in a parametrix config's wavepacket ``tests`` object."""
    if not isinstance(tests, dict):
        return ["tests must be an object"]
    dim = grid.get("dim") if isinstance(grid, dict) else None

    def is_point(v):
        return (isinstance(v, list) and len(v) == dim
                and all(map(_is_number, v)))

    errors = []
    sigma = tests.get("sigma", 0.2)
    if not (_is_number(sigma) and sigma > 0):
        errors.append("tests.sigma must be a positive number")
    xi0s = tests.get("xi0_list")
    if "xi0_list" in tests and not (isinstance(xi0s, list) and xi0s
                                    and all(map(is_point, xi0s))):
        errors.append("tests.xi0_list must be a non-empty list of lists "
                      "of grid.dim numbers")
    return errors


def validate_config(cfg: dict, experiment: str) -> list[str]:
    errors = []
    if not isinstance(cfg, dict):
        return ["config root must be a JSON object"]
    if not (_is_int(cfg.get("schema_version"))
            and cfg["schema_version"] == SCHEMA_VERSION):
        errors.append(f"schema_version must be {SCHEMA_VERSION}")
    if cfg.get("experiment") != experiment:
        errors.append(f"config experiment {cfg.get('experiment')!r} does not "
                      f"match requested {experiment!r}")
    schema = _SCHEMAS[experiment]
    allowed = _COMMON_KEYS | schema
    unknown = sorted(set(cfg) - allowed) + sorted(
        f"{key}.{sub}" for key in schema & _OBJECT_KEYS.keys()
        if isinstance(cfg.get(key), dict)
        for sub in set(cfg[key]) - _OBJECT_KEYS[key])
    if unknown:
        errors.append(f"unknown keys: {unknown}")
    if "seed" in cfg and not (_is_int(cfg["seed"]) and cfg["seed"] >= 0):
        errors.append("seed must be an int >= 0")
    phantoms = ["disc", "gaussian", "two-bumps"]
    if "phantom" in schema and cfg.get("phantom", "gaussian") not in phantoms:
        errors.append(f"phantom must be one of {phantoms}")

    grid = cfg.get("grid")
    if "grid" in schema:
        if not isinstance(grid, dict):
            errors.append("grid must be an object")
        else:
            dim = grid.get("dim")
            n = grid.get("n_grid")
            if not (_is_int(dim) and dim in (1, 2)):
                errors.append("grid.dim must be 1 or 2")
            elif "radon" in schema and dim != 2:
                errors.append("grid.dim must be 2 for a Radon experiment")
            if not _is_pow2(n):
                errors.append("grid.n_grid must be a power of two")
            elif dim == 1 and n > 512:
                errors.append("grid.n_grid exceeds the dim-1 ceiling of 512")
            # at 64 one real (2 n_grid)^4 symbol sample is 2.1 GB, and a
            # block holds two of them besides a conformal metric's 2.1 GB Sigma
            elif dim == 2 and experiment != "radon-invert" and n > 32:
                errors.append("grid.n_grid exceeds the dim-2 ceiling of 32")
            elif dim == 2 and n > 256:
                errors.append("grid.n_grid exceeds the Radon ceiling of 256")
            if not (_is_number(grid.get("half_width"))
                    and grid.get("half_width", 0) > 0):
                errors.append("grid.half_width must be positive")
    if experiment == "partition-verify":
        dim = cfg.get("dim", 1)
        if not (_is_int(dim) and dim in (1, 2)):
            errors.append("dim must be 1 or 2")
        errors += _sample_errors(cfg.get("samples", {}), dim)
    if experiment == "moyal-order":
        orders, hs = cfg.get("orders_n"), cfg.get("h_list")
        if not (isinstance(orders, list) and orders):
            errors.append("orders_n must be a non-empty list of ints")
        else:
            for n in orders:
                if not (_is_int(n) and 1 <= n <= 6):
                    errors.append(f"moyal order {n} outside 1..6")
        if not (isinstance(hs, list) and hs
                and all(_is_number(h) and 0 < h <= 1 for h in hs)):
            errors.append("h_list must be a non-empty list of numbers in "
                          "(0, 1]")
    if experiment == "parametrix":
        if not (_is_int(cfg.get("order"))
                and 1 <= cfg.get("order", 0) <= 3):
            errors.append("parametrix order must lie in 1..3")
        errors += _test_function_errors(cfg.get("tests", {}), grid)
        errors += [f"{key} must be a number" for key in ("c0", "big_r")
                   if key in cfg and not _is_number(cfg[key])]
    active = cfg.get("active_bands")
    if active is not None and not (isinstance(active, list)
                                   and all(map(_is_int, active))):
        errors.append("active_bands must be a list of ints")
    # keys each runner reads without a default are required
    for key in sorted({"symbol", "symbol_a", "symbol_b"} & schema):
        if not isinstance(cfg.get(key), str):
            errors.append(f"{key} must be a string")
    k_range = cfg.get("k_range")
    if "k_range" in schema and not (_is_pair(k_range, _is_int)
                                    and 0 <= k_range[1] - k_range[0] <= 64):
        errors.append("k_range must be 2 ascending ints at most 64 apart")
    if "m2" in schema and not _is_number(cfg.get("m2")):
        errors.append("m2 must be a number")
    lambdas = (1.0, 1.0)  # the eigenvalue window of a valid metric
    if "metric" in schema:
        metric = cfg.get("metric", {"kind": "identity"})
        if not (isinstance(metric, dict)
                and metric.get("kind") in ("identity", "conformal")):
            errors.append("metric.kind must be 'identity' or 'conformal'")
        elif metric["kind"] == "conformal":
            lo, hi = metric.get("lambda_min"), metric.get("lambda_max")
            if not (isinstance(metric.get("expr"), str) and _is_number(lo)
                    and _is_number(hi) and 0 < lo <= hi):
                errors.append("a conformal metric needs a string expr and "
                              "numbers 0 < lambda_min <= lambda_max")
            else:
                lambdas = (lo, hi)
    if "bands" in schema:
        bands = cfg.get("bands")
        dim = cfg.get("dim", 1) if experiment == "partition-verify" \
            else grid.get("dim") if isinstance(grid, dict) else None
        if not (isinstance(bands, dict) and _is_int(bands.get("k_min"))
                and _is_int(bands.get("k_max"))):
            errors.append("bands must be an object with int k_min, k_max")
        elif bands["k_min"] > bands["k_max"]:
            errors.append("bands.k_min must be <= bands.k_max")
        elif (_is_int(dim) and dim in (1, 2)
              and _lattice_bytes(bands["k_max"], dim) > _BYTES_MAX):
            errors.append("bands.k_max needs more than 8 GB to build the "
                          "nets")
        elif _band_missed(bands["k_max"], *lambdas):
            errors.append(f"metric.lambda_min and metric.lambda_max leave "
                          f"band {bands['k_max']} no support: no |xi| meets "
                          f"both its radial cutoff and its annulus")
        elif _is_pair(k_range, _is_int) and not (
                bands["k_min"] <= k_range[0] <= k_range[1] <= bands["k_max"]):
            errors.append("k_range must lie within [bands.k_min, "
                          "bands.k_max]")
        elif (experiment == "cotlar" and _is_int(dim) and dim in (1, 2)
              and _is_pow2(grid.get("n_grid")) and grid["n_grid"] <= 512):
            errors += _cotlar_errors(bands["k_min"], bands["k_max"], dim,
                                     grid["n_grid"])
    if "radon" in schema:
        errors += _radon_errors(cfg.get("radon"), grid, experiment)
    if "cutoff" in cfg:
        errors += _cutoff_errors(cfg["cutoff"], grid)
    return errors


def _build_grid(cfg):
    from .grids import GridSpec
    g = cfg["grid"]
    return GridSpec(dim=g["dim"], half_width=float(g["half_width"]),
                    n_grid=int(g["n_grid"]))


def _build_metric(cfg, dim):
    from .expressions import parse_expression
    from .metric import conformal_field, identity_field
    m = cfg.get("metric", {"kind": "identity"})
    if m["kind"] == "identity":
        return identity_field(dim)
    f = parse_expression(m["expr"], dim, with_xi=False)
    return conformal_field(lambda x: f(*x), dim,
                           lambda_min=float(m["lambda_min"]),
                           lambda_max=float(m["lambda_max"]))


def _build_partition(cfg, dim):
    from .partition import build_partition
    b = cfg["bands"]
    return build_partition(_build_metric(cfg, dim),
                           int(b["k_min"]), int(b["k_max"]),
                           low_freq_cap=bool(cfg.get("low_freq_cap", False)))


def _build_symbol(expr, grid):
    from .expressions import parse_expression
    from .grids import sample_on
    return sample_on(grid, parse_expression(expr, grid.dim))


def _build_cutoff(cfg, grid):
    from .quantize import make_cutoff
    c = cfg.get("cutoff", {})
    r_one = float(c.get("r_one", 0.5 * grid.half_width))
    r_zero = float(c.get("r_zero", 0.9 * grid.half_width))
    return make_cutoff(grid, r_one, r_zero)


def _run_partition_verify(cfg, outdir):
    import numpy as np

    from .partition import (overlap_scan, pou_deviation, validate_net,
                            verify_localizer_derivatives)
    dim = int(cfg.get("dim", 1))
    part = _build_partition(cfg, dim)
    rng = np.random.default_rng(int(cfg.get("seed", 0)))

    s = cfg.get("samples", {})
    n_x = int(s.get("n_x", 16))
    n_xi = int(s.get("n_xi", 400))
    xs = np.linspace(-np.pi, np.pi, n_x)[:, None] \
        * np.ones(dim)[None, :]
    # log-uniform |xi| whose fiber norm |T_x xi| lies in the built annuli
    # [2^k_min, 2^(k_max+1)) for every T_x the metric allows; when
    # lambda_max / lambda_min spans more than the bands, the range is empty
    # and every sample clips to its top
    lo = 2.0 ** part.k_min / np.sqrt(part.metric.lambda_min)
    top = 2.0 ** (part.k_max + 1) / np.sqrt(part.metric.lambda_max)
    log_lo = np.log(max(lo, 1e-3))
    mags = np.exp(log_lo + (np.log(top) - log_lo) * rng.random(n_xi))
    dirs = rng.standard_normal((n_xi, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    mags = np.clip(mags, lo, top * 0.999)
    xis = mags[:, None] * dirs

    nets = {k: validate_net(part.nets[k]) for k in part.bands}
    dev = pou_deviation(part, xs, xis)
    scan = overlap_scan(part, xs, xis)
    deriv_samples = [(xs[i % len(xs)], xis[i]) for i in range(0, n_xi,
                                                              max(1, n_xi // 24))]
    deriv = verify_localizer_derivatives(part, deriv_samples)

    checks = [
        ("net_separation", all(v["separation_ok"] for v in nets.values())),
        ("net_covering", all(v["covering_ok"] for v in nets.values())),
        ("net_packing", all(v["size"] <= v["packing_bound"]
                            for v in nets.values())),
        ("partition_of_unity", dev <= 1e-10),
        ("overlap_bound", 1 <= scan["max_overlap"] <= scan["overlap_bound"]),
        ("radial_bands", scan["max_radial_bands"] <= 5),
        ("derivative_uniformity", deriv["uniform_spread_ok"]),
    ]
    report = {
        "nets": {str(k): v for k, v in nets.items()},
        "pou_max_deviation": dev,
        "overlap": scan,
        "derivatives": deriv,
    }
    write_json(os.path.join(outdir, "partition_verify.json"), report)
    write_csv(os.path.join(outdir, "overlap_histogram.csv"),
              ["overlap", "count"],
              [[k, v] for k, v in sorted(scan["histogram"].items())])
    return checks


def _run_band_bound(cfg, outdir):
    import numpy as np

    from .quantize import band_bound_experiment, fit_log2_slope
    grid = _build_grid(cfg)
    part = _build_partition(cfg, grid.dim)
    a = _build_symbol(cfg["symbol"], grid)
    chi = _build_cutoff(cfg, grid)
    k_lo, k_hi = cfg["k_range"]
    rows = band_bound_experiment(a, part, chi, range(int(k_lo), int(k_hi) + 1),
                                 float(cfg["m2"]))
    slope = fit_log2_slope([r["k"] for r in rows],
                           [r["norm"] for r in rows]) \
        if len(rows) >= 2 else float("nan")
    write_csv(os.path.join(outdir, "band_bound.csv"),
              ["k", "j", "norm", "renorm_ratio"],
              [[r["k"], r["j"], r["norm"], r["renorm_ratio"]] for r in rows])
    write_json(os.path.join(outdir, "band_bound.json"),
               {"rows": rows, "slope": slope})
    return [("norms_finite", all(np.isfinite(r["norm"]) for r in rows))]


def _run_moyal_order(cfg, outdir):
    import numpy as np

    from .moyal import composition_residual
    grid = _build_grid(cfg)
    a = _build_symbol(cfg["symbol_a"], grid)
    b = _build_symbol(cfg["symbol_b"], grid)
    chi = _build_cutoff(cfg, grid)
    rows = []
    slopes = {}
    for n in cfg["orders_n"]:
        res = []
        for h in cfg["h_list"]:
            r = composition_residual(a, b, n, h, chi)
            rows.append([n, h, r])
            res.append(r)
        hs = np.asarray(cfg["h_list"], dtype=float)
        res = np.asarray(res)
        keep = res > 1e-15
        slopes[str(n)] = float(np.polyfit(np.log(hs[keep]),
                                          np.log(res[keep]), 1)[0]) \
            if keep.sum() >= 2 else float("inf")
    write_csv(os.path.join(outdir, "moyal_order.csv"),
              ["n", "h", "residual"], rows)
    write_json(os.path.join(outdir, "moyal_order.json"), {"slopes": slopes})
    return [("residuals_finite", all(np.isfinite(r[2]) for r in rows))]


# cotlar writes pair_matrix.csv, blocks^2 numbers of about 19 bytes, only
# below this many blocks (19 MB at 1,000); cotlar.json records the pair
# matrices' row sums either way
_PAIR_CSV_MAX_BLOCKS = 1000


def _run_cotlar(cfg, outdir):
    import numpy as np

    from .quantize import assemble_block, cut, weyl_quantize
    from .recombine import recombine_sum
    grid = _build_grid(cfg)
    part = _build_partition(cfg, grid.dim)
    a = _build_symbol(cfg["symbol"], grid)
    chi = _build_cutoff(cfg, grid)
    ref = cut(weyl_quantize(a), chi)
    # a block counts unless it is negligible next to the reference
    floor = 1e-14 * np.abs(ref).max()

    def blocks():
        for k in part.bands:
            for j in range(part.nets[k].size):
                blk = assemble_block(a, part, j, k, chi)
                if np.abs(blk).max() > floor:
                    yield (j, k), blk

    report = recombine_sum(blocks(), ref, active_bands=cfg.get("active_bands"))
    cert = report["certificate"]
    count = len(cert.indices)
    written = count < _PAIR_CSV_MAX_BLOCKS
    write_json(os.path.join(outdir, "cotlar.json"), {
        "A": cert.a_bound, "B": cert.b_bound, "bound": cert.bound,
        "achieved": cert.achieved,
        "pair_matrix_file": "pair_matrix.csv" if written else None,
        "star_row_sums": cert.star_pair_matrix.sum(axis=1).tolist(),
        "adj_row_sums": cert.adj_pair_matrix.sum(axis=1).tolist(),
        "relative_discrepancy": report["relative_discrepancy"],
        "tails": report["tails"],
        "blocks": count,
    })
    if written:
        write_csv(os.path.join(outdir, "pair_matrix.csv"),
                  [f"b{i}" for i in range(count)],
                  [list(map(float, row)) for row in cert.star_pair_matrix])
    return [("cotlar_inequality", cert.ok),
            ("tail_vanishes", report["tails"][-1]["norm"] <= 1e-10)]


def _run_parametrix(cfg, outdir):
    import numpy as np

    from .parametrix import (EllipticSymbol, PatchRejectedError,
                             build_parametrix, gaussian_wavepacket,
                             parametrix_residual)
    grid = _build_grid(cfg)
    part = _build_partition(cfg, grid.dim)
    p_sym = _build_symbol(cfg["symbol"], grid)
    p = EllipticSymbol(symbol=p_sym, m2=float(cfg["m2"]),
                       c0=float(cfg.get("c0", 0.5)),
                       big_r=float(cfg.get("big_r", 0.0)))
    chi = _build_cutoff(cfg, grid)
    try:
        px = build_parametrix(p, part, int(cfg["order"]), chi)
    except PatchRejectedError as exc:
        raise ValidationFailure([str(exc)]) from exc
    t = cfg.get("tests", {})
    sigma = float(t.get("sigma", 0.2))
    tests = [gaussian_wavepacket(grid, [0.0] * grid.dim, xi0, sigma)
             for xi0 in t.get("xi0_list", [[8.0] + [0.0] * (grid.dim - 1)])]
    report = parametrix_residual(px, tests)
    write_json(os.path.join(outdir, "parametrix.json"), report)
    return [("no_rejected_tests", not report["rejected"]),
            ("residuals_finite",
             all(np.isfinite(r) for r in report["rel_errors"]))]


def _run_radon_block(cfg, outdir):
    import numpy as np

    from .radon import RadonConfig, radon_block_experiment
    grid = _build_grid(cfg)
    part = _build_partition(cfg, grid.dim)
    a = _build_symbol(cfg["symbol"], grid)
    r = cfg["radon"]
    rcfg = RadonConfig(grid=grid, n_angles=int(r["n_angles"]),
                       n_offsets=int(r["n_offsets"]))
    k_lo, k_hi = cfg["k_range"]
    rows, slope = radon_block_experiment(a, part, _build_cutoff(cfg, grid),
                                         range(int(k_lo), int(k_hi) + 1),
                                         rcfg, float(cfg["m2"]))
    write_csv(os.path.join(outdir, "radon_block.csv"),
              ["k", "norm", "renorm_ratio"],
              [[r_["k"], r_["norm"], r_["renorm_ratio"]] for r_ in rows])
    write_json(os.path.join(outdir, "radon_block.json"),
               {"rows": rows, "slope": slope})
    return [("norms_finite", all(np.isfinite(r_["norm"]) for r_ in rows))]


def _run_radon_invert(cfg, outdir):
    import numpy as np

    from .radon import (RadonConfig, _support_touches_boundary, fbp_invert,
                        phantom, radon_adjoint, radon_forward)
    grid = _build_grid(cfg)
    r = cfg["radon"]
    rcfg = RadonConfig(grid=grid, n_angles=int(r["n_angles"]),
                       n_offsets=int(r["n_offsets"]))
    ph = cfg.get("phantom", "gaussian")
    img = phantom(ph, grid)
    sino = radon_forward(img, rcfg)
    recon = fbp_invert(sino, rcfg)
    rel = float(np.linalg.norm(recon - img) / np.linalg.norm(img))

    rng = np.random.default_rng(int(cfg.get("seed", 0)))
    f = rng.standard_normal(img.shape)
    g = rng.standard_normal(sino.shape)
    lhs = (radon_forward(f, rcfg) * g).sum() * rcfg.ds * rcfg.dtheta
    rhs = (f * radon_adjoint(g, rcfg)).sum() * grid.l2_weight()
    defect = abs(lhs - rhs) / max(abs(lhs), 1e-300)

    save_array(os.path.join(outdir, "phantom.bin"), img, grid.half_width)
    save_array(os.path.join(outdir, "sinogram.bin"), sino, rcfg.s_max)
    save_array(os.path.join(outdir, "reconstruction.bin"), recon,
               grid.half_width)
    report = {"phantom": ph, "rel_l2_error": rel,
              "adjointness_defect": defect,
              "support_touches_boundary":
                  _support_touches_boundary(img, rcfg)}
    write_json(os.path.join(outdir, "radon_invert.json"), report)
    checks = [("adjointness", defect <= 1e-6),
              ("roundtrip", rel <= 0.05 if ph != "disc" else True)]
    return checks


_RUNNERS = {
    "partition-verify": _run_partition_verify,
    "band-bound": _run_band_bound,
    "moyal-order": _run_moyal_order,
    "cotlar": _run_cotlar,
    "parametrix": _run_parametrix,
    "radon-block": _run_radon_block,
    "radon-invert": _run_radon_invert,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="microloc",
        description="microlocal toolkit experiment harness")
    parser.add_argument("experiment", choices=tuple(_RUNNERS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=".")
    args = parser.parse_args(argv)

    # ValueError covers undecodable bytes and malformed JSON;
    # RecursionError, nesting too deep for the decoder
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        print(json.dumps({"errors": [f"cannot read config: {exc}"]}))
        return 2

    errors = validate_config(cfg, args.experiment)
    if errors:
        print(json.dumps({"errors": errors}))
        return 2

    from .expressions import ExpressionError
    from .metric import InvalidFieldError, NotPositiveDefiniteError
    from .partition import EmptyNetError
    from .quantize import DegenerateResultError
    from .recombine import CoverageGapError
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(json.dumps({"errors": [f"cannot create --out: {exc}"]}))
        return 2
    try:
        checks = _RUNNERS[args.experiment](cfg, args.out)
    except ValidationFailure as exc:
        print(json.dumps({"errors": exc.errors}))
        return 2
    except ExpressionError as exc:
        print(json.dumps({"errors": [f"invalid expression: {exc}"]}))
        return 2
    # a config the checks above admit can still describe an empty net, an
    # uncovered active band, a non-positive-definite metric, or numbers
    # that overflow or zero every norm; and a report may be unwritable
    except (EmptyNetError, CoverageGapError, InvalidFieldError,
            NotPositiveDefiniteError, DegenerateResultError,
            OverflowError, ReportWriteError) as exc:
        print(json.dumps({"errors": [f"{type(exc).__name__}: {exc}"]}))
        return 2
    failed = [name for name, ok in checks if not ok]
    print(json.dumps({"checks": {name: bool(ok) for name, ok in checks},
                      "failed": failed}, sort_keys=True))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
