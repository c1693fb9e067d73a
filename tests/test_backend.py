import hashlib
import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import BUILD_OUTPUT, HAVE_C_COMPILER
from microloc import _kernels_py, backend
from microloc.partition import _annulus_lattice

needs_c_compiler = pytest.mark.skipif(
    not HAVE_C_COMPILER, reason="no C compiler to build microloc._kernels")


@needs_c_compiler
def test_compiled_extension_present():
    assert importlib.util.find_spec("microloc._kernels") is not None, BUILD_OUTPUT
    from microloc import _kernels  # noqa: F401
    if os.environ.get("MICROLOC_PURE_PYTHON") != "1":
        assert backend.COMPILED


@needs_c_compiler
def test_greedy_select_agreement():
    from microloc import _kernels as kern
    rng = np.random.default_rng(0)
    for dim in (1, 2):
        pts = rng.uniform(-8, 8, (500, dim))
        # raw points, then snapped to a 1/8 lattice: shared rows and repeats
        for cands in (pts, np.round(pts * 8) / 8):
            cands = np.ascontiguousarray(cands[np.lexsort(cands.T[::-1])])
            a = np.asarray(kern.greedy_select(cands, 0.5))
            b = backend.greedy_select(cands, 0.5)
            assert np.array_equal(a, b)


# sha256 of the little-endian int64 indices that the compiled kernel
# selected from each annulus lattice at lattice_step 1/8
NET_DIGESTS = {
    (1, 0): "4514c25ffa3fb00d1065e5eeb397452667c43ab4ae7b1123b8c072b8642085d2",
    (1, 1): "4159a4ab2b40b2fdbf6e0ed8d3f5f6cd20daef8545b0fc059eda7d5e2c9eb433",
    (1, 2): "034e20352172a44742d72ea3f95f406056ff5adc3e0e23e9fbc598991a8d78a4",
    (1, 3): "e2f1133572080c6593434ece7dc21e789d87a5d2d308eaefd996935bd36dddcf",
    (1, 4): "09afd0ff33166cd98d23cd9a905d0aaf1f96c8c7de5057cbd6592f025cea3956",
    (1, 5): "5ce02eb0dd278ab6c4a94fbd0633bba10d2a3d01fbe29e964014b1ff6aebb219",
    (1, 6): "168f939bb01a512a527e3831a534e6752ae1b1289304782c450450e6b8b63cfd",
    (1, 7): "633ed2eef1f839a91b8203f95afed0b85361501cbf444974f51d42b39f69d736",
    (1, 8): "fe1916fcff85186d270cbe01d09a29b456c4084604ddf2b60c934b65e401eaae",
    (1, 9): "9f65856f58881a979a6833f1803d531811553501d8476eb7828ba75dc3bb82cb",
    (2, 0): "379274a8c677a5c76740974ab6dd12b7aa02b7435466867da28ebba7938666cb",
    (2, 1): "10b00548a5856ef8af72261ecd81558a9d42f92ec06e9b2c89dcd6debe08c9f0",
    (2, 2): "8bccfe710cf4ab1915f74454a5059d88d5821327117fd75104821be4d2954633",
    (2, 3): "1f85b98419bb8196a684ffb0ef72a204f5f884643732eb3e4d30c6826539d8be",
    (2, 4): "03d6e113e262035a52366852e03ac7a386a6c5eb5433f2dc8f050d57f7953e3c",
    (2, 5): "7bffeccc5ccddd8836daf43f5cc12a564aa9c83ada29e3c7586afa238667845a",
}


def _net_indices(select, dim, k):
    cands = _annulus_lattice(k, dim, 0.125)
    return np.asarray(select(cands, 0.5), dtype="<i8")


@pytest.mark.parametrize("dim,k", sorted(NET_DIGESTS))
def test_greedy_select_annulus_net_digest(dim, k):
    idx = _net_indices(backend.greedy_select, dim, k)
    assert hashlib.sha256(idx.tobytes()).hexdigest() == NET_DIGESTS[dim, k]


@needs_c_compiler
def test_greedy_select_annulus_nets_match_compiled():
    from microloc import _kernels as kern
    for dim, k in sorted(NET_DIGESTS):
        assert np.array_equal(_net_indices(kern.greedy_select, dim, k),
                              _net_indices(backend.greedy_select, dim, k)), \
            (dim, k)


@pytest.mark.parametrize("cands", [
    [[1.0], [0.0]],                      # 1D, decreasing
    [[1.0, 0.0], [0.0, 0.0]],            # rows out of order
    [[0.0, 1.0], [0.0, 0.0]],            # decreasing inside a row
    _annulus_lattice(1, 2, 0.125)[::-1],
])
def test_greedy_select_rejects_out_of_order_input(cands):
    with pytest.raises(ValueError, match="row-major"):
        backend.greedy_select(np.asarray(cands, dtype=float), 0.5)


@needs_c_compiler
def test_radon_gather_agreement():
    from microloc import _kernels as kern
    rng = np.random.default_rng(1)
    img = np.ascontiguousarray(rng.standard_normal((20, 20)))
    ix = np.ascontiguousarray(rng.integers(0, 18, (7, 30)))
    iy = np.ascontiguousarray(rng.integers(0, 18, (7, 30)))
    wx = np.ascontiguousarray(rng.uniform(0, 1, (7, 30)))
    wy = np.ascontiguousarray(rng.uniform(0, 1, (7, 30)))
    a = np.asarray(kern.radon_gather(img, ix, iy, wx, wy, 0.1))
    b = _kernels_py.radon_gather(img, ix, iy, wx, wy, 0.1)
    assert np.abs(a - b).max() < 1e-12


@needs_c_compiler
def test_radon_matrix_block_agreement():
    from microloc import _kernels as kern
    rng = np.random.default_rng(2)
    ix = np.ascontiguousarray(rng.integers(0, 10, (5, 12)))
    iy = np.ascontiguousarray(rng.integers(0, 10, (5, 12)))
    wx = np.ascontiguousarray(rng.uniform(0, 1, (5, 12)))
    wy = np.ascontiguousarray(rng.uniform(0, 1, (5, 12)))
    a = np.asarray(kern.radon_matrix_block(ix, iy, wx, wy, 0.1, 12))
    b = _kernels_py.radon_matrix_block(ix, iy, wx, wy, 0.1, 12)
    assert a.shape == b.shape == (5, 144)
    assert np.abs(a - b).max() < 1e-12


def test_pure_python_override_env():
    env = dict(os.environ, MICROLOC_PURE_PYTHON="1")
    out = subprocess.run(
        [sys.executable, "-c",
         "from microloc import backend; print(backend.COMPILED)"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
