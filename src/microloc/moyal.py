"""Truncated Moyal products, composition residuals, separated-patch decay.

The truncation at order N keeps the terms r < N of

    a # b = sum_r (i h / 2)^r sum_{|alpha|+|beta|=r}
            ((-1)^{|alpha|} / (alpha! beta!))
            (d_xi^alpha d_x^beta a)(d_x^alpha d_xi^beta b),

the expansion of the generator exp((i h / 2)(d_x . d_eta - d_xi . d_y)).
The sign (-1)^{|alpha|} is validated against true operator composition
(x # xi = x xi + i/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .grids import GridSymbol, symbol_derivative
from .metric import _multi_indices
from .partition import Partition, localizer_symbol
from .quantize import DiscreteOperator, operator_norm, weyl_quantize


class InsufficientDataError(ValueError):
    """Decay fit requested with fewer than 3 distinct separations."""


@dataclass(frozen=True)
class MoyalTruncation:
    """Truncation order and semiclassical parameter."""

    order: int
    h: float = 1.0

    def __post_init__(self):
        if not 1 <= self.order <= 6:
            raise ValueError("order must lie in 1..6")
        if not 0.0 < self.h <= 1.0:
            raise ValueError("h must lie in (0, 1]")


def moyal_truncated(a: GridSymbol, b: GridSymbol,
                    trunc: MoyalTruncation) -> GridSymbol:
    """Truncated Moyal product a #_h b up to (excluding) order N."""
    if a.grid != b.grid:
        raise ValueError("symbols live on different grids")
    d = a.grid.dim
    # the coefficients are complex even when a and b are real
    out = np.zeros(a.values.shape, dtype=complex)
    deriv_a: dict = {}
    deriv_b: dict = {}
    for r in range(trunc.order):
        pref = (1j * trunc.h / 2.0) ** r
        for ra in range(r + 1):
            rb = r - ra
            for alpha in _multi_indices(d, ra):
                for beta in _multi_indices(d, rb):
                    if (alpha, beta) not in deriv_a:
                        deriv_a[(alpha, beta)] = symbol_derivative(
                            a, alpha, beta).values
                    if (beta, alpha) not in deriv_b:
                        deriv_b[(beta, alpha)] = symbol_derivative(
                            b, beta, alpha).values
                    coeff = pref * (-1.0) ** sum(alpha) / (
                        np.prod([factorial(m) for m in alpha])
                        * np.prod([factorial(m) for m in beta]))
                    out += coeff * deriv_a[(alpha, beta)] * deriv_b[(beta, alpha)]
    return GridSymbol(grid=a.grid, values=out)


def composition_residual(a: GridSymbol, b: GridSymbol, trunc: MoyalTruncation,
                         chi: np.ndarray, chi_prime: np.ndarray) -> float:
    """||chi (Op_h(a) Op_h(b) - Op_h(a #_h b_N)) chi'|| in L2 -> L2.

    All three quantizations are performed at scale 1 on the rescaled
    symbols a(x, h eta), b(x, h eta); the truncated product commutes with
    that change of variables, so this equals the h-quantized residual
    while keeping every symbol resolvable on the grid.
    """
    h = trunc.h
    ar = a.resampled(h) if h != 1.0 else a
    br = b.resampled(h) if h != 1.0 else b
    prod = moyal_truncated(ar, br, MoyalTruncation(order=trunc.order, h=1.0))
    ka = weyl_quantize(ar).matrix
    kb = weyl_quantize(br).matrix
    kp = weyl_quantize(prod).matrix
    m = chi.ravel()[:, None] * (ka @ kb - kp) * chi_prime.ravel()[None, :]
    return operator_norm(DiscreteOperator(matrix=m, grid=a.grid))


def poisson_bracket(a: GridSymbol, b: GridSymbol) -> GridSymbol:
    """{a, b} = d_xi a . d_x b - d_x a . d_xi b on the grid."""
    d = a.grid.dim
    # spectral derivatives are complex even when a and b are real
    out = np.zeros(a.values.shape, dtype=complex)
    for ax in range(d):
        e = tuple(1 if i == ax else 0 for i in range(d))
        z = (0,) * d
        out += (symbol_derivative(a, e, z).values
                * symbol_derivative(b, z, e).values
                - symbol_derivative(a, z, e).values
                * symbol_derivative(b, e, z).values)
    return GridSymbol(grid=a.grid, values=out)


def separated_patch_decay(a: GridSymbol, part: Partition, k: int,
                          pairs, chi: np.ndarray,
                          chi_prime: np.ndarray) -> dict:
    """Composition norms of same-band patch pairs against center separation.

    For each pair (j, j'): D = ||chi Op(a Lam_{j,k}) Op(a Lam_{j',k}) chi'||
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
            cache[j] = weyl_quantize(a, weight=lam.values).matrix
        return cache[j]

    for j, jp in pairs:
        sep = float(np.linalg.norm(centers[j] - centers[jp]))
        dist = max(0.0, sep - 2.0)
        m = chi.ravel()[:, None] * (block(j) @ block(jp)) \
            * chi_prime.ravel()[None, :]
        norm = operator_norm(DiscreteOperator(matrix=m, grid=a.grid))
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
