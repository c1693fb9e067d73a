import hashlib

import numpy as np
import pytest

from microloc import backend
from microloc.grids import GridSpec
from microloc.partition import _annulus_lattice
from microloc.radon import (RadonConfig, _angle_geometry, radon_forward,
                            radon_matrix)


def _brute_force_greedy(cands, close):
    """Scan-order greedy in O(m^2): admit each candidate unless close(dx, dy)
    holds for some admitted point."""
    cands = np.asarray(cands)
    m = cands.shape[0]
    xs = cands[:, 0] if cands.shape[1] == 2 else np.zeros(m, cands.dtype)
    ys = cands[:, -1]
    ax, ay = np.empty(m, cands.dtype), np.empty(m, cands.dtype)
    admitted = []
    for i in range(m):
        n = len(admitted)
        if not np.any(close(xs[i] - ax[:n], ys[i] - ay[:n])):
            ax[n], ay[n] = xs[i], ys[i]
            admitted.append(i)
    return np.asarray(admitted, dtype=np.int64)


def _float_close(dx, dy):
    return dx * dx + dy * dy < 0.25


def _indices_in(cands, centers):
    """Row index in cands of each center."""
    where = {tuple(p): i for i, p in enumerate(cands.tolist())}
    return np.asarray([where[tuple(c)] for c in centers.tolist()], dtype="<i8")


# sha256 of the little-endian int64 indices selected from each annulus
# lattice at step 1/8 (frozen from the former compiled kernel, which
# the row-wise greedy and then the byte raster reproduced index for index)
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


@pytest.mark.parametrize("dim,k", sorted(NET_DIGESTS))
def test_greedy_select_annulus_net_digest(dim, k):
    cands = _annulus_lattice(k, dim)
    idx = _indices_in(cands, backend.greedy_select(k, dim))
    assert hashlib.sha256(idx.tobytes()).hexdigest() == NET_DIGESTS[dim, k]


def test_greedy_select_annulus_nets_match_brute_force():
    # the brute-force scan is quadratic, so it checks the smaller annuli;
    # at the dyadic step 1/8 the lattice offsets are exact, so the float
    # test is the exact one
    for dim, k in [(1, k) for k in range(10)] + [(2, k) for k in range(4)]:
        cands = _annulus_lattice(k, dim)
        want = cands[_brute_force_greedy(cands, _float_close)]
        got = backend.greedy_select(k, dim)
        assert np.array_equal(got, want), (dim, k)


def _gather_reference(image, cfg):
    """Line integrals by a per-angle bilinear gather over each line's samples."""
    padded = np.pad(image, 1)  # cell corners run over -1..n_grid
    out = np.zeros((cfg.n_offsets, cfg.n_angles))
    for ai, theta in enumerate(cfg.angles()):
        rows, a, b, wx, wy = _angle_geometry(cfg, theta)
        vals = ((1.0 - wx) * (1.0 - wy) * padded[a + 1, b + 1]
                + wx * (1.0 - wy) * padded[a + 2, b + 1]
                + (1.0 - wx) * wy * padded[a + 1, b + 2]
                + wx * wy * padded[a + 2, b + 2])
        out[:, ai] = np.bincount(rows, vals, minlength=cfg.n_offsets) * cfg.dt
    return out


RADON_CASES = ((16, 12, 17), (8, 7, 2), (4, 1, 9))


def _radon_config(n, n_angles, n_offsets):
    return RadonConfig(grid=GridSpec(dim=2, half_width=np.pi, n_grid=n),
                       n_angles=n_angles, n_offsets=n_offsets)


def test_radon_gather_agreement():
    for n, n_angles, n_offsets in RADON_CASES:
        cfg = _radon_config(n, n_angles, n_offsets)
        img = np.random.default_rng(n).standard_normal((n, n))
        want = _gather_reference(img, cfg)
        got = radon_forward(img, cfg)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_radon_matrix_block_agreement():
    for n, n_angles, n_offsets in RADON_CASES:
        cfg = _radon_config(n, n_angles, n_offsets)
        # column p of the matrix is the gather of the p-th unit image
        eye = np.eye(n * n).reshape(n * n, n, n)
        want = np.stack([_gather_reference(e, cfg).ravel() for e in eye],
                        axis=1)
        got = radon_matrix(cfg)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
