"""Periodic sampling grids and grid-sampled phase-space symbols.

All discrete operators live on the periodic box ``[-X, X)^n`` sampled at
``n_grid`` points per axis (a power of two).  The spatial lattice is
``x_m = -X + 2*X*m/n_grid`` and the operator frequency lattice is
``xi_p = pi*p/X`` for integer ``p`` in ``[-n_grid/2, n_grid/2)``.  Weyl
quantization needs the symbol at midpoints ``(x_m + x_m')/2`` (the doubled
spatial lattice of spacing ``X/n_grid``) and, because odd spatial harmonics
pair with half-integer frequencies on the torus, at the refined frequency
lattice of spacing ``dxi/2`` as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Periodic box [-half_width, half_width)^dim with n_grid points per axis."""

    dim: int
    half_width: float
    n_grid: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")
        n = self.n_grid
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"n_grid must be a power of two >= 2, got {n}")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.n_grid

    @property
    def dxi(self) -> float:
        return np.pi / self.half_width

    @property
    def xi_max(self) -> float:
        """Largest representable frequency magnitude per axis (Nyquist)."""
        return self.dxi * self.n_grid / 2

    def x_axis(self) -> np.ndarray:
        """Spatial sample points along one axis."""
        return -self.half_width + self.dx * np.arange(self.n_grid)

    def x_axis_doubled(self) -> np.ndarray:
        """Midpoint lattice: 2*n_grid points of spacing dx/2."""
        return -self.half_width + (self.dx / 2) * np.arange(2 * self.n_grid)

    def xi_axis(self) -> np.ndarray:
        """Operator frequency lattice along one axis, ascending order."""
        return self.dxi * (np.arange(self.n_grid) - self.n_grid // 2)

    def xi_axis_refined(self) -> np.ndarray:
        """Symbol frequency lattice: 2*n_grid points of spacing dxi/2.

        Includes the half-integer frequencies paired with odd spatial
        harmonics by the torus Weyl calculus.
        """
        return (self.dxi / 2) * (np.arange(2 * self.n_grid) - self.n_grid)

    def x_mesh(self) -> tuple[np.ndarray, ...]:
        return np.meshgrid(*([self.x_axis()] * self.dim), indexing="ij")

    def xi_mesh(self) -> tuple[np.ndarray, ...]:
        return np.meshgrid(*([self.xi_axis()] * self.dim), indexing="ij")

    def xi_mesh_refined(self) -> tuple[np.ndarray, ...]:
        return np.meshgrid(*([self.xi_axis_refined()] * self.dim),
                           indexing="ij")

    def npoints(self) -> int:
        return self.n_grid ** self.dim

    def l2_weight(self) -> float:
        """Quadrature weight so that |u|_2^2 = weight * sum |u_m|^2."""
        return self.dx ** self.dim


@dataclass
class GridSymbol:
    """A symbol sampled on (doubled x-lattice) x (refined xi-lattice).

    ``values`` has shape ``(2N,)*dim + (2N,)*dim`` with spatial axes first.
    ``func`` optionally carries the analytic rule ``a(x, xi)`` used to build
    the samples, so the symbol can be resampled (semiclassical rescaling).
    ``deriv`` optionally maps a pair of multi-indices ``(alpha, beta)`` to the
    callable for ``d_xi^alpha d_x^beta a``; when absent, derivatives fall
    back to spectral differentiation of the samples.  A symbol with a
    ``deriv`` table cannot be resampled: the table is not rescaled, and
    spectral derivatives of a non-periodic symbol would ring.
    """

    grid: GridSpec
    values: np.ndarray
    func: Callable[..., np.ndarray] | None = None
    deriv: Callable[[tuple[int, ...], tuple[int, ...]],
                    Callable[..., np.ndarray]] | None = None

    def __post_init__(self):
        d, n = self.grid.dim, self.grid.n_grid
        want = (2 * n,) * d + (2 * n,) * d
        if self.values.shape != want:
            raise ValueError(
                f"symbol shape {self.values.shape}, expected {want}")

    def resampled(self, scale_xi: float) -> "GridSymbol":
        """Sample a(x, scale_xi * xi) on the same grid; needs ``func`` and
        no ``deriv``."""
        if self.func is None:
            raise ValueError("resampling requires the analytic rule `func`")
        if self.deriv is not None:
            raise ValueError("cannot resample a symbol with a `deriv` table")
        g = self.grid
        f = self.func

        def newf(*a):
            return f(*a[:g.dim], *(scale_xi * np.asarray(p) for p in a[g.dim:]))

        return sample_on(g, newf)


def sample_on(grid: GridSpec, func: Callable[..., np.ndarray],
              deriv=None) -> "GridSymbol":
    """Build a GridSymbol by evaluating func(x1..xd, xi1..xid) broadcast."""
    d = grid.dim
    xd = grid.x_axis_doubled()
    xa = grid.xi_axis_refined()
    x_args = []
    for i in range(d):
        shape = [1] * (2 * d)
        shape[i] = 2 * grid.n_grid
        x_args.append(xd.reshape(shape))
    xi_args = []
    for i in range(d):
        shape = [1] * (2 * d)
        shape[d + i] = 2 * grid.n_grid
        xi_args.append(xa.reshape(shape))
    vals = np.broadcast_to(func(*x_args, *xi_args),
                           (2 * grid.n_grid,) * d + (2 * grid.n_grid,) * d)
    # real rules stay float64: half the bytes of a complex sample
    return GridSymbol(grid=grid,
                      values=np.ascontiguousarray(
                          vals, dtype=np.result_type(vals, np.float64)),
                      func=func, deriv=deriv)


def spectral_derivative(values: np.ndarray, axis: int, n_axis: int,
                        spacing: float) -> np.ndarray:
    """d/dt along one periodic axis by FFT multiplier i*k."""
    k = 2.0 * np.pi * np.fft.fftfreq(n_axis, d=spacing)
    shape = [1] * values.ndim
    shape[axis] = n_axis
    mult = (1j * k).reshape(shape)
    return np.fft.ifft(mult * np.fft.fft(values, axis=axis), axis=axis)


def symbol_derivative(sym: GridSymbol, alpha: tuple[int, ...],
                      beta: tuple[int, ...]) -> GridSymbol:
    """d_xi^alpha d_x^beta of a grid symbol.

    Uses the analytic derivative table when available, otherwise periodic
    spectral differentiation along each lattice axis.
    """
    d = sym.grid.dim
    if len(alpha) != d or len(beta) != d:
        raise ValueError("multi-index length mismatch")
    if sym.deriv is not None:
        f = sym.deriv(tuple(alpha), tuple(beta))
        out = sample_on(sym.grid, f)
        out.deriv = None
        return out
    vals = sym.values
    g = sym.grid
    for i in range(d):
        for _ in range(beta[i]):
            vals = spectral_derivative(vals, i, 2 * g.n_grid, g.dx / 2)
        for _ in range(alpha[i]):
            vals = spectral_derivative(vals, d + i, 2 * g.n_grid, g.dxi / 2)
    return GridSymbol(grid=g, values=vals)
