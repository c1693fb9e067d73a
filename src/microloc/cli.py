"""Experiment harness: config parsing, dispatch, and report writing.

Usage: ``microloc <experiment> --config <file> [--out <dir>]``.  Configs
are JSON with a versioned schema, one table (``_KEYS``) of each key's
experiments, default and kind: unknown keys are refused, then keys that
fail their kind, then, once every key passes, breaches of rules between
keys.  Exit code 0 means every invariant check in the run passed, 1 names
a failing check, 2 reports validation errors.  Output is written atomically.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

SCHEMA_VERSION = 1

# Runs must fit in 8 GB; validation refuses sizes whose largest arrays
# would need more than this.
_BYTES_MAX = 7 * 2 ** 30

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


def _is_list(v, test) -> bool:
    """A non-empty list whose every entry passes test."""
    return isinstance(v, list) and bool(v) and all(map(test, v))


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


def _sample_bytes(n_x: int, n_xi: int, dim: int) -> int:
    """Bytes of a partition-verify scan: 512 per x sample, 40 per (x, xi)
    pair and, for a band's (n_xi, 7^dim) neighbor blocks, 8 (4 7^dim + 16)
    per xi sample.  Measured peak RSS rises: 415-450, 18-33, and 310 (1D)
    or 1630 (2D) bytes."""
    return n_x * (512 + 40 * n_xi) + 8 * (4 * 7 ** dim + 16) * n_xi


# a key's kind: a test of its value, and the words completing
# "<path> must be ..."
_NUMBER = (_is_number, "a number")
_POSITIVE = (lambda v: _is_number(v) and v > 0, "a positive number")
_STRING = (lambda v: isinstance(v, str), "a string")
_OBJECT = (lambda v: isinstance(v, dict), "an object")
_DIM = (lambda v: _is_int(v) and v in (1, 2), "1 or 2")
_COUNT = (lambda v: _is_int(v) and v >= 1, "an int >= 1")

_PV, _BB, _MO, _CO, _PX, _RB, _RI = (
    "partition-verify", "band-bound", "moyal-order", "cotlar", "parametrix",
    "radon-block", "radon-invert")
_ALL = {_PV, _BB, _MO, _CO, _PX, _RB, _RI}
_GRID = _ALL - {_PV}
_BANDS = {_PV, _BB, _CO, _PX, _RB}  # and a metric
_CUTOFF = _GRID - {_RI}
_RADON = {_RB, _RI}
_PHANTOMS = ["disc", "gaussian", "two-bumps"]
_REQUIRED = object()  # the default of a key a config must give
# coordinates reach half_width, frequencies pi n_grid / half_width: within
# these bounds neither squares past 1e210 (at 1e300 or 1e-300 one does)
_HALF_WIDTHS = (1e-100, 1e100)

# key path -> (the experiments that take it, its default or _REQUIRED, its
# kind); a default may be a function of the validated config.  The
# entries of an object are checked once the object passes, and a metric
# takes expr and the lambda bounds only when its kind is conformal.
_KEYS = {
    "schema_version": (_ALL, _REQUIRED, (
        lambda v: _is_int(v) and v == SCHEMA_VERSION, f"{SCHEMA_VERSION}")),
    # matched against the requested experiment by validate_config
    "experiment": (_ALL, None, (lambda v: True, "")),
    "seed": (_ALL, 0, (lambda v: _is_int(v) and v >= 0, "an int >= 0")),
    "phantom": ({_RI}, "gaussian", (lambda v: v in _PHANTOMS,
                                    f"one of {_PHANTOMS}")),
    "grid": (_GRID, _REQUIRED, _OBJECT),
    "grid.dim": (_GRID, _REQUIRED, _DIM),
    "grid.n_grid": (_GRID, _REQUIRED, (
        lambda n: _is_int(n) and n >= 2 and n & (n - 1) == 0,
        "a power of two")),
    "grid.half_width": (_GRID, _REQUIRED, (
        lambda v: _is_number(v) and _HALF_WIDTHS[0] <= v <= _HALF_WIDTHS[1],
        "a number in [1e-100, 1e100]")),
    "dim": ({_PV}, 1, _DIM),
    "samples": ({_PV}, {}, _OBJECT),
    "samples.n_x": ({_PV}, 16, _COUNT),
    "samples.n_xi": ({_PV}, 400, _COUNT),
    "orders_n": ({_MO}, _REQUIRED, (
        lambda v: _is_list(v, lambda n: _is_int(n) and 1 <= n <= 6),
        "a non-empty list of ints in 1..6")),
    "h_list": ({_MO}, _REQUIRED, (
        lambda v: _is_list(v, lambda h: _is_number(h) and 0 < h <= 1),
        "a non-empty list of numbers in (0, 1]")),
    "order": ({_PX}, _REQUIRED, (lambda v: _is_int(v) and 1 <= v <= 3,
                                 "an int in 1..3")),
    "tests": ({_PX}, {}, _OBJECT),
    "tests.sigma": ({_PX}, 0.2, _POSITIVE),
    "tests.xi0_list": (
        {_PX}, lambda cfg: [[8.0] + [0.0] * (_get(cfg, "grid.dim") - 1)],
        (lambda v: _is_list(v, lambda xi: _is_list(xi, _is_number)),
         "a non-empty list of lists of numbers")),
    "c0": ({_PX}, 0.5, _NUMBER),
    "big_r": ({_PX}, 0.0, _NUMBER),
    # None: every band the blocks reach
    "active_bands": ({_CO}, None, (
        lambda v: v is None or (isinstance(v, list) and all(map(_is_int, v))),
        "a list of ints")),
    "symbol": (_BANDS - {_PV}, _REQUIRED, _STRING),
    "symbol_a": ({_MO}, _REQUIRED, _STRING),
    "symbol_b": ({_MO}, _REQUIRED, _STRING),
    "k_range": ({_BB, _RB}, _REQUIRED, (
        lambda v: _is_list(v, _is_int) and len(v) == 2
        and 0 <= v[1] - v[0] <= 64,
        "2 ascending ints at most 64 apart")),
    "m2": ({_BB, _PX, _RB}, _REQUIRED, _NUMBER),
    "metric": (_BANDS, {"kind": "identity"}, _OBJECT),
    "metric.kind": (_BANDS, _REQUIRED, (
        lambda v: v in ("identity", "conformal"),
        "'identity' or 'conformal'")),
    "metric.expr": (_BANDS, _REQUIRED, _STRING),
    "metric.lambda_min": (_BANDS, _REQUIRED, _POSITIVE),
    "metric.lambda_max": (_BANDS, _REQUIRED, _POSITIVE),
    "bands": (_BANDS, _REQUIRED, _OBJECT),
    "bands.k_min": (_BANDS, _REQUIRED, (_is_int, "an int")),
    "bands.k_max": (_BANDS, _REQUIRED, (_is_int, "an int")),
    "low_freq_cap": ({_PV, _PX}, False, (lambda v: isinstance(v, bool),
                                         "true or false")),
    "radon": (_RADON, _REQUIRED, _OBJECT),
    "radon.n_angles": (_RADON, _REQUIRED, _COUNT),
    "radon.n_offsets": (_RADON, _REQUIRED, (lambda v: _is_int(v) and v >= 2,
                                            "an int >= 2")),
    "cutoff": (_CUTOFF, {}, _OBJECT),
    "cutoff.r_one": (
        _CUTOFF, lambda cfg: 0.5 * _get(cfg, "grid.half_width"), _NUMBER),
    "cutoff.r_zero": (
        _CUTOFF, lambda cfg: 0.9 * _get(cfg, "grid.half_width"), _NUMBER),
}
_CONFORMAL = {"metric.expr", "metric.lambda_min", "metric.lambda_max"}


def _get(cfg: dict, path: str):
    """The value at a key path of a validated config, or its default."""
    head, _, key = path.rpartition(".")
    obj = _get(cfg, head) if head else cfg
    if key in obj:
        return obj[key]
    default = _KEYS[path][1]
    return default(cfg) if callable(default) else default


def _takes(cfg: dict, path: str, experiment: str) -> bool:
    """Whether a config of experiment takes the key path."""
    return (path in _KEYS and experiment in _KEYS[path][0]
            and (path not in _CONFORMAL
                 or _get(cfg, "metric.kind") == "conformal"))


def _cross_errors(cfg: dict, experiment: str):
    """The errors of the rules that read several keys, sizes past 8 GB
    among them, for a config whose every key passed its own test."""
    dim = _get(cfg, "dim" if experiment == _PV else "grid.dim")
    if experiment in _GRID:
        n = _get(cfg, "grid.n_grid")
        if experiment in _RADON and dim != 2:
            yield "grid.dim must be 2 for a Radon experiment"
        if dim == 1 and n > 512:
            yield "grid.n_grid exceeds the dim-1 ceiling of 512"
        # at 64 one real (2 n_grid)^4 symbol sample is 2.1 GB, and a block
        # holds two of them besides a conformal metric's 2.1 GB Sigma
        elif dim == 2 and experiment != _RI and n > 32:
            yield "grid.n_grid exceeds the dim-2 ceiling of 32"
        elif dim == 2 and n > 256:
            yield "grid.n_grid exceeds the Radon ceiling of 256"
    if experiment == _PV and _sample_bytes(
            _get(cfg, "samples.n_x"), _get(cfg, "samples.n_xi"),
            dim) > _BYTES_MAX:
        yield "samples.n_x and samples.n_xi need more than 8 GB"
    if experiment == _PX and any(len(xi) != dim
                                 for xi in _get(cfg, "tests.xi0_list")):
        yield "every tests.xi0_list point must have grid.dim numbers"
    lambdas = (1.0, 1.0)  # the eigenvalue window of the identity
    if _get(cfg, "metric.kind") == "conformal":
        lambdas = (_get(cfg, "metric.lambda_min"),
                   _get(cfg, "metric.lambda_max"))
    if lambdas[0] > lambdas[1]:
        yield "metric.lambda_min must be <= metric.lambda_max"
    if experiment in _BANDS:
        k_min, k_max = _get(cfg, "bands.k_min"), _get(cfg, "bands.k_max")
        k_range = cfg.get("k_range")
        if k_min > k_max:
            yield "bands.k_min must be <= bands.k_max"
        elif _lattice_bytes(k_max, dim) > _BYTES_MAX:
            yield "bands.k_max needs more than 8 GB to build the nets"
        elif lambdas[0] <= lambdas[1] and _band_missed(k_max, *lambdas):
            yield (f"metric.lambda_min and metric.lambda_max leave band "
                   f"{k_max} no support: no |xi| meets both its radial "
                   f"cutoff and its annulus")
        elif k_range and not k_min <= k_range[0] <= k_range[1] <= k_max:
            yield "k_range must lie within [bands.k_min, bands.k_max]"
        elif experiment == _CO and n <= 512:
            yield from _cotlar_errors(k_min, k_max, dim, n)
    # an n_grid above the Radon ceiling is refused with the grid; counts
    # are capped at 2^40, far past 8 GB, so that the estimate stays finite
    if experiment in _RADON and n <= 256 and _radon_bytes(
            n, min(_get(cfg, "radon.n_angles"), 2 ** 40),
            min(_get(cfg, "radon.n_offsets"), 2 ** 40),
            experiment == _RB) > _BYTES_MAX:
        yield ("grid.n_grid, radon.n_angles and radon.n_offsets need more "
               "than 8 GB")
    if experiment in _CUTOFF and not (
            0 < _get(cfg, "cutoff.r_one") < _get(cfg, "cutoff.r_zero")):
        yield "cutoff needs 0 < r_one < r_zero"


def validate_config(cfg: dict, experiment: str) -> list[str]:
    """Errors in a config for experiment: its unknown keys, then each key
    that fails its own test (an object's entries only once the object
    passes), then, only when there are none, the rules between keys."""
    if not isinstance(cfg, dict):
        return ["config root must be a JSON object"]
    errors = []
    if cfg.get("experiment") != experiment:
        errors.append(f"config experiment {cfg.get('experiment')!r} does not "
                      f"match requested {experiment!r}")
    # a dotted name at the top level is no path into an object
    known = {key for key in cfg
             if "." not in key and _takes(cfg, key, experiment)}
    unknown = [key for key in sorted(cfg) if key not in known] + sorted(
        f"{key}.{sub}" for key in known
        if _KEYS[key][2] is _OBJECT and isinstance(cfg[key], dict)
        for sub in cfg[key] if not _takes(cfg, f"{key}.{sub}", experiment))
    if unknown:
        errors.append(f"unknown keys: {unknown}")
    failed = set()
    for path, (_, default, (test, words)) in _KEYS.items():
        head, _, key = path.rpartition(".")
        if head in failed or not _takes(cfg, path, experiment):
            continue
        obj = _get(cfg, head) if head else cfg
        if not (test(obj[key]) if key in obj else default is not _REQUIRED):
            failed.add(path)
            errors.append(f"{path} must be {words}")
    return errors or list(_cross_errors(cfg, experiment))


def _build_grid(cfg):
    from .grids import GridSpec
    return GridSpec(dim=_get(cfg, "grid.dim"),
                    half_width=float(_get(cfg, "grid.half_width")),
                    n_grid=_get(cfg, "grid.n_grid"))


def _build_metric(cfg, dim):
    from .expressions import parse_expression
    from .metric import conformal_field, identity_field
    if _get(cfg, "metric.kind") == "identity":
        return identity_field(dim)
    f = parse_expression(_get(cfg, "metric.expr"), dim, with_xi=False)
    return conformal_field(lambda x: f(*x), dim,
                           lambda_min=float(_get(cfg, "metric.lambda_min")),
                           lambda_max=float(_get(cfg, "metric.lambda_max")))


def _build_partition(cfg, dim):
    from .partition import build_partition
    return build_partition(_build_metric(cfg, dim), _get(cfg, "bands.k_min"),
                           _get(cfg, "bands.k_max"),
                           low_freq_cap=_get(cfg, "low_freq_cap"))


def _build_symbol(expr, grid):
    from .expressions import parse_expression
    from .grids import sample_on
    return sample_on(grid, parse_expression(expr, grid.dim))


def _build_cutoff(cfg, grid):
    from .quantize import make_cutoff
    return make_cutoff(grid, float(_get(cfg, "cutoff.r_one")),
                       float(_get(cfg, "cutoff.r_zero")))


def _run_partition_verify(cfg, outdir):
    import numpy as np

    from .partition import (overlap_scan, pou_deviation, validate_net,
                            verify_localizer_derivatives)
    dim = _get(cfg, "dim")
    part = _build_partition(cfg, dim)
    rng = np.random.default_rng(_get(cfg, "seed"))
    n_x, n_xi = _get(cfg, "samples.n_x"), _get(cfg, "samples.n_xi")
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


def _write_band_rows(outdir, name, rows, slope):
    """<name>.csv with the rows' keys as its header and <name>.json with
    the rows and their slope; the check that every norm is finite."""
    write_csv(os.path.join(outdir, f"{name}.csv"), list(rows[0]),
              [list(r.values()) for r in rows])
    write_json(os.path.join(outdir, f"{name}.json"),
               {"rows": rows, "slope": slope})
    return [("norms_finite", all(math.isfinite(r["norm"]) for r in rows))]


def _run_band_bound(cfg, outdir):
    from .quantize import band_bound_experiment
    grid = _build_grid(cfg)
    part = _build_partition(cfg, grid.dim)
    a = _build_symbol(cfg["symbol"], grid)
    k_lo, k_hi = cfg["k_range"]
    return _write_band_rows(outdir, "band_bound", *band_bound_experiment(
        a, part, _build_cutoff(cfg, grid), range(k_lo, k_hi + 1),
        float(cfg["m2"])))


def _run_moyal_order(cfg, outdir):
    import numpy as np

    from .moyal import composition_residuals
    grid = _build_grid(cfg)
    a = _build_symbol(cfg["symbol_a"], grid)
    b = _build_symbol(cfg["symbol_b"], grid)
    chi = _build_cutoff(cfg, grid)
    orders, h_list = cfg["orders_n"], cfg["h_list"]
    # one sweep over the orders per distinct h
    by_h = {h: composition_residuals(a, b, orders, h, chi)
            for h in dict.fromkeys(h_list)}
    rows = [[n, h, by_h[h][i]] for i, n in enumerate(orders) for h in h_list]
    slopes = {}
    hs = np.asarray(h_list, dtype=float)
    for i, n in enumerate(orders):
        res = np.asarray([by_h[h][i] for h in h_list])
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

    report = recombine_sum(blocks(), ref,
                           active_bands=_get(cfg, "active_bands"))
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
                       c0=float(_get(cfg, "c0")),
                       big_r=float(_get(cfg, "big_r")))
    chi = _build_cutoff(cfg, grid)
    try:
        px = build_parametrix(p, part, int(cfg["order"]), chi)
    except PatchRejectedError as exc:
        raise ValidationFailure([str(exc)]) from exc
    sigma = float(_get(cfg, "tests.sigma"))
    tests = [gaussian_wavepacket(grid, [0.0] * grid.dim, xi0, sigma)
             for xi0 in _get(cfg, "tests.xi0_list")]
    report = parametrix_residual(px, tests)
    write_json(os.path.join(outdir, "parametrix.json"), report)
    return [("no_rejected_tests", not report["rejected"]),
            ("residuals_finite",
             all(np.isfinite(r) for r in report["rel_errors"]))]


def _run_radon_block(cfg, outdir):
    from .radon import RadonConfig, radon_block_experiment
    grid = _build_grid(cfg)
    part = _build_partition(cfg, grid.dim)
    a = _build_symbol(cfg["symbol"], grid)
    rcfg = RadonConfig(grid=grid, n_angles=_get(cfg, "radon.n_angles"),
                       n_offsets=_get(cfg, "radon.n_offsets"))
    k_lo, k_hi = cfg["k_range"]
    return _write_band_rows(outdir, "radon_block", *radon_block_experiment(
        a, part, _build_cutoff(cfg, grid), range(k_lo, k_hi + 1), rcfg,
        float(cfg["m2"])))


def _run_radon_invert(cfg, outdir):
    import numpy as np

    from .radon import (RadonConfig, _support_touches_boundary, fbp_invert,
                        phantom, radon_adjoint, radon_forward)
    grid = _build_grid(cfg)
    rcfg = RadonConfig(grid=grid, n_angles=_get(cfg, "radon.n_angles"),
                       n_offsets=_get(cfg, "radon.n_offsets"))
    ph = _get(cfg, "phantom")
    img = phantom(ph, grid)
    sino = radon_forward(img, rcfg)
    recon = fbp_invert(sino, rcfg)
    rel = float(np.linalg.norm(recon - img) / np.linalg.norm(img))

    rng = np.random.default_rng(_get(cfg, "seed"))
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
    _PV: _run_partition_verify,
    _BB: _run_band_bound,
    _MO: _run_moyal_order,
    _CO: _run_cotlar,
    _PX: _run_parametrix,
    _RB: _run_radon_block,
    _RI: _run_radon_invert,
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
