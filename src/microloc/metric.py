"""Anisotropic metric families G_x, their square roots T_x, and fiber norms.

A :class:`MetricField` is a callable family ``x -> G_x`` of symmetric
positive-definite matrices with declared spectral bounds.  The square root
``T_x = G_x**(1/2)`` is computed by symmetric eigendecomposition, and the
fiber norm of a covector is ``|T_x xi|``.  ``verify_hypotheses`` checks the
declared spectral window, the comparability ratios, and the finiteness of
finite-difference derivative constants on a sample grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable

import numpy as np

SYMMETRY_TOL = 1e-12


class InvalidFieldError(ValueError):
    """Metric evaluator returned a non-finite or non-symmetric matrix."""


class NotPositiveDefiniteError(ValueError):
    """Matrix square root requested for a matrix with an eigenvalue <= 0."""


@dataclass(frozen=True)
class MetricField:
    """Family x -> G_x of SPD matrices with declared spectral bounds."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    dim: int
    lambda_min: float = 1.0
    lambda_max: float = 1.0

    def __call__(self, x) -> np.ndarray:
        return eval_metric(self, x)

    def sqrt_at(self, x) -> np.ndarray:
        return sqrt_metric(eval_metric(self, x))


def identity_field(dim: int) -> MetricField:
    eye = np.eye(dim)
    return MetricField(evaluator=lambda x: eye, dim=dim,
                       lambda_min=1.0, lambda_max=1.0)


def conformal_field(sigma: Callable[[np.ndarray], float], dim: int,
                    lambda_min: float, lambda_max: float) -> MetricField:
    """G_x = sigma(x) * I for a scalar function sigma."""
    eye = np.eye(dim)
    return MetricField(evaluator=lambda x: float(sigma(np.atleast_1d(x))) * eye,
                       dim=dim, lambda_min=lambda_min, lambda_max=lambda_max)


def eval_metric(field: MetricField, x) -> np.ndarray:
    """Evaluate G_x, symmetrized, with finiteness and symmetry checks."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    g = np.asarray(field.evaluator(x), dtype=float)
    if g.shape != (field.dim, field.dim):
        raise InvalidFieldError(
            f"evaluator returned shape {g.shape}, expected {(field.dim, field.dim)}")
    if not np.all(np.isfinite(g)):
        raise InvalidFieldError(f"non-finite metric entries at x={x}")
    if np.max(np.abs(g - g.T)) > SYMMETRY_TOL:
        raise InvalidFieldError(
            f"metric asymmetry {np.max(np.abs(g - g.T)):.3e} exceeds "
            f"{SYMMETRY_TOL} at x={x}")
    return 0.5 * (g + g.T)


def sqrt_metric(g: np.ndarray) -> np.ndarray:
    """Principal square root of each SPD matrix in a stack (..., n, n)."""
    g = np.asarray(g, dtype=float)
    scale = np.maximum(1.0, np.abs(g).max(axis=(-2, -1), keepdims=True))
    if np.any(np.abs(g - np.swapaxes(g, -1, -2)) > SYMMETRY_TOL * scale):
        raise InvalidFieldError("matrix is not symmetric")
    w, v = np.linalg.eigh(g)
    if w.min() <= 0.0:
        raise NotPositiveDefiniteError(f"eigenvalue {w.min():.3e} <= 0")
    return (v * np.sqrt(w)[..., None, :]) @ np.swapaxes(v, -1, -2)


def fiber_norm(field: MetricField, x, xi) -> float:
    """|T_x xi|, the metric length of the covector xi at the point x."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    t = field.sqrt_at(x)
    return float(np.linalg.norm(t @ xi))


def _multi_indices(dim: int, order: int):
    """All multi-indices of exact total order over `dim` variables."""
    return [b for b in product(range(order + 1), repeat=dim) if sum(b) == order]


def _fd_derivative(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                   beta: tuple[int, ...], h: float) -> np.ndarray:
    """Central finite difference of a matrix-valued function, multi-index beta."""
    out = None
    # expand the iterated central-difference stencil into weighted points
    points = [(1.0, x.copy())]
    for ax, n in enumerate(beta):
        for _ in range(n):
            new = []
            e = np.zeros_like(x)
            e[ax] = h
            for w, p in points:
                new.append((w / (2 * h), p + e))
                new.append((-w / (2 * h), p - e))
            points = new
    for w, p in points:
        val = w * f(p)
        out = val if out is None else out + val
    return out


@dataclass
class HypothesisReport:
    """Outcome of the spectral / derivative / comparability checks."""

    lambda_range: tuple[float, float]
    spectral_ok: bool
    deriv_constants: dict[tuple[int, ...], float]
    deriv_stable: dict[tuple[int, ...], bool]
    comparability_range: tuple[float, float]
    comparability_ok: bool
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.spectral_ok and self.comparability_ok and not self.violations


def verify_metric_hypotheses(fld: MetricField,
                             sample_grid) -> HypothesisReport:
    """Check spectral bounds, T_x derivative constants, and comparability.

    Derivative constants are empirical suprema of |D^gamma T_x|_op / <x>^|gamma|
    over |gamma| <= 2 by central differences, with one Richardson
    refinement (steps 1e-3 and 5e-4); a constant counts as stable when the
    two estimates agree within a factor of 2.
    """
    grid = [np.atleast_1d(np.asarray(p, dtype=float)) for p in sample_grid]
    if not grid:
        raise ValueError("sample_grid must be nonempty")

    violations: list[str] = []
    lmin, lmax = np.inf, -np.inf
    for p in grid:
        w = np.linalg.eigvalsh(eval_metric(fld, p))
        lmin = min(lmin, w[0])
        lmax = max(lmax, w[-1])
    tol = 1e-10 * max(1.0, fld.lambda_max)
    spectral_ok = lmin >= fld.lambda_min - tol and lmax <= fld.lambda_max + tol
    if not spectral_ok:
        violations.append(
            f"spectral range [{lmin:.6g}, {lmax:.6g}] outside declared "
            f"[{fld.lambda_min:.6g}, {fld.lambda_max:.6g}]")

    consts: dict[tuple[int, ...], float] = {}
    stable: dict[tuple[int, ...], bool] = {}
    for order in (1, 2):
        for beta in _multi_indices(fld.dim, order):
            ests = []
            for h in (1e-3, 5e-4):
                sup = 0.0
                for p in grid:
                    weight = (1.0 + float(p @ p)) ** (order / 2.0)
                    d = _fd_derivative(fld.sqrt_at, p, beta, h)
                    sup = max(sup, float(np.linalg.norm(d, 2)) / weight)
                ests.append(sup)
            # Richardson: central differences are O(h^2)
            consts[beta] = max(0.0, (4 * ests[1] - ests[0]) / 3)
            floor = 1e-9
            ratio = (ests[1] + floor) / (ests[0] + floor)
            stable[beta] = 0.5 <= ratio <= 2.0

    # comparability of fiber norms across base points (Prop on ratio bounds)
    rng = np.random.default_rng(0)
    ratio_lo, ratio_hi = np.inf, -np.inf
    bound_lo = np.sqrt(fld.lambda_min / fld.lambda_max)
    bound_hi = np.sqrt(fld.lambda_max / fld.lambda_min)
    for _ in range(200):
        px, py = grid[rng.integers(len(grid))], grid[rng.integers(len(grid))]
        xi = rng.standard_normal(fld.dim)
        nx = fiber_norm(fld, px, xi)
        ny = fiber_norm(fld, py, xi)
        if ny == 0.0:
            continue
        r = nx / ny
        ratio_lo, ratio_hi = min(ratio_lo, r), max(ratio_hi, r)
    comp_ok = ratio_lo >= bound_lo - 1e-9 and ratio_hi <= bound_hi + 1e-9
    if not comp_ok:
        violations.append(
            f"comparability ratios [{ratio_lo:.6g}, {ratio_hi:.6g}] outside "
            f"[{bound_lo:.6g}, {bound_hi:.6g}]")

    return HypothesisReport(
        lambda_range=(float(lmin), float(lmax)),
        spectral_ok=spectral_ok,
        deriv_constants=consts,
        deriv_stable=stable,
        comparability_range=(float(ratio_lo), float(ratio_hi)),
        comparability_ok=comp_ok,
        violations=violations,
    )
