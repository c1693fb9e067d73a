"""Truncated Moyal products, composition residuals, separated-patch decay.

The truncation at order N keeps the terms r < N of

    a # b = sum_r (i / 2)^r sum_{|alpha|+|beta|=r}
            ((-1)^{|alpha|} / (alpha! beta!))
            (d_xi^alpha d_x^beta a)(d_x^alpha d_xi^beta b),

the expansion of the generator exp((i / 2)(d_x . d_eta - d_xi . d_y)).
The sign (-1)^{|alpha|} is validated against true operator composition
(x # xi = x xi + i/2).  ``moyal_truncated`` works at h = 1 and adds the
terms order by order into one running sum; ``composition_residuals``
reads the h-quantized residuals of several orders off that sum, on the
symbols rescaled to a(x, h xi), on which the h = 1 product is the
h-product.  The residuals and the patch compositions are both measured
between one spatial cutoff chi on each side, as chi m chi.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from .grids import GridSymbol, symbol_derivative
from .metric import _multi_indices
from .partition import Partition, localizer_symbol
from .quantize import cut, spectral_norm, weyl_quantize


class InsufficientDataError(ValueError):
    """Decay fit requested with fewer than 3 distinct separations."""


def _running_sums(a: GridSymbol, b: GridSymbol, order: int):
    """Yield a #_N b at h = 1 for N = 1..order: one array, to which the
    r = N - 1 terms are added before each yield (so read each before the
    next), holding one term's derivatives at a time."""
    if a.grid != b.grid:
        raise ValueError("symbols live on different grids")
    d = a.grid.dim
    # the coefficients are complex even when a and b are real
    out = np.zeros(a.values.shape, dtype=complex)
    for r in range(order):
        pref = (1j / 2.0) ** r
        for ra in range(r + 1):
            for alpha in _multi_indices(d, ra):
                for beta in _multi_indices(d, r - ra):
                    coeff = pref * (-1.0) ** sum(alpha) / (
                        np.prod([factorial(m) for m in alpha])
                        * np.prod([factorial(m) for m in beta]))
                    out += (coeff * symbol_derivative(a, alpha, beta).values
                            * symbol_derivative(b, beta, alpha).values)
        yield GridSymbol(grid=a.grid, values=out)


def moyal_truncated(a: GridSymbol, b: GridSymbol, order: int) -> GridSymbol:
    """Truncated Moyal product a # b at h = 1: the terms r < order (1..6)."""
    if not 1 <= order <= 6:
        raise ValueError("order must lie in 1..6")
    *_, prod = _running_sums(a, b, order)
    return prod


def composition_residuals(a: GridSymbol, b: GridSymbol, orders, h: float,
                          chi: np.ndarray) -> list[float]:
    """||chi (Op_h(a) Op_h(b) - Op_h(a #_h b_N)) chi|| in L2 -> L2 for each
    N of orders (each in 1..6; any order, repeats allowed).

    ``h`` lies in (0, 1].  All quantizations are performed at scale 1 on
    the rescaled symbols a(x, h eta), b(x, h eta), sampled and multiplied
    as Op(a_h) Op(b_h) once; the truncated product commutes with that
    change of variables, so this equals the h-quantized residual while
    keeping every symbol resolvable on the grid.
    """
    if not (0.0 < h <= 1.0 and orders and set(orders) <= set(range(1, 7))):
        raise ValueError("h must lie in (0, 1] and orders in 1..6")
    ar = a.resampled(h) if h != 1.0 else a
    br = b.resampled(h) if h != 1.0 else b
    ab = weyl_quantize(ar) @ weyl_quantize(br)
    norms = {n: spectral_norm(cut(ab - weyl_quantize(prod), chi))
             for n, prod in enumerate(_running_sums(ar, br, max(orders)), 1)
             if n in orders}
    return [norms[n] for n in orders]


def separated_patch_decay(a: GridSymbol, part: Partition, k: int,
                          pairs, chi: np.ndarray) -> dict:
    """Composition norms of same-band patch pairs against center separation.

    For each pair (j, j'): D = ||chi Op(a Lam_{j,k}) Op(a Lam_{j',k}) chi||
    and the proxy distance d = max(0, |zeta_j - zeta_j'| - 2) (unit support
    radii).  Returns the (d, D) table with the fitted exponent of
    log D against log(1 + d).
    """
    centers = part.nets[k].centers
    rows = []
    cache: dict[int, np.ndarray] = {}

    def block(j: int) -> np.ndarray:
        if j not in cache:
            lam = localizer_symbol(part, j, k, a.grid)
            cache[j] = weyl_quantize(a, weight=lam.values)
        return cache[j]

    for j, jp in pairs:
        sep = float(np.linalg.norm(centers[j] - centers[jp]))
        dist = max(0.0, sep - 2.0)
        norm = spectral_norm(cut(block(j) @ block(jp), chi))
        rows.append({"j": j, "j_prime": jp, "d": dist, "D": norm})

    dists = sorted({round(r["d"], 9) for r in rows})
    if len(dists) < 3:
        raise InsufficientDataError(
            f"need >= 3 distinct separations, got {len(dists)}")
    xs = np.array([np.log(1.0 + r["d"]) for r in rows])
    ys = np.array([r["D"] for r in rows])
    keep = ys > 1e-14
    slope, intercept = np.polyfit(xs[keep], np.log(ys[keep]), 1)
    resid = np.log(ys[keep]) - (slope * xs[keep] + intercept)
    total = np.log(ys[keep]) - np.log(ys[keep]).mean()
    r2 = 1.0 - float(resid @ resid) / max(float(total @ total), 1e-300)
    return {"rows": rows, "exponent": float(slope), "r_squared": r2}
