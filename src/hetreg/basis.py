"""Trigonometric basis on [0,1], empiric inner product and discrete Fourier transform.

Everything here is exact linear algebra on the equidistant design grid
x_j = j/n with odd n: the sampled basis vectors form an orthonormal basis
of R^n under the empiric inner product (u, v)_n = (1/n) sum u_l v_l.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "DesignGrid",
    "FourierCoeffs",
    "SampledFunction",
    "TrigPolynomial",
    "empiric_inner_product",
    "trig_basis_eval",
    "basis_matrix",
    "basis_eval_matrix",
    "discrete_fourier",
    "trig_series",
    "synthesize",
    "as_sampled",
]


@dataclass(frozen=True)
class DesignGrid:
    """Equidistant design x_j = j/n, j = 1..n, with n odd."""

    n: int
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1 or self.n % 2 == 0:
            raise ValueError(f"design size must be odd and positive, got n={self.n}")
        pts = np.arange(1, self.n + 1, dtype=float) / self.n
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class FourierCoeffs:
    """Empiric Fourier coefficients of an observation vector of odd length n."""

    n: int
    theta_hat: np.ndarray

    def __post_init__(self):
        if len(self.theta_hat) != self.n:
            raise ValueError("coefficient vector length must equal n")


class SampledFunction:
    """A real function on [0,1] evaluable anywhere, with cached design-grid samples."""

    def __init__(self, fn, name: str = ""):
        self._fn = fn
        self.name = name
        self._grid_cache: dict[int, np.ndarray] = {}

    def __call__(self, x):
        return self._fn(np.asarray(x, dtype=float))

    def on_grid(self, grid: DesignGrid) -> np.ndarray:
        vals = self._grid_cache.get(grid.n)
        if vals is None:
            vals = np.asarray(self._fn(grid.points), dtype=float)
            vals.flags.writeable = False
            self._grid_cache[grid.n] = vals
        return vals

    def l2_norm_sq(self) -> float:
        """Integral of the square over [0,1] (fixed Simpson rule)."""
        from .models import simpson_integral  # local import to avoid a cycle

        return simpson_integral(lambda x: self(x) ** 2)

    def inner(self, f) -> float:
        """L2[0,1] inner product with the function f (fixed Simpson rule)."""
        from .models import simpson_integral

        return simpson_integral(lambda x: self(x) * f(x))


def as_sampled(f, name: str = "") -> SampledFunction:
    return f if isinstance(f, SampledFunction) else SampledFunction(f, name=name)


class TrigPolynomial(SampledFunction):
    """Finite expansion sum_j c_j phi_j with exact coefficients and norms."""

    def __init__(self, coeffs, name: str = ""):
        self.coeffs = np.asarray(coeffs, dtype=float)
        super().__init__(lambda x: trig_series(self.coeffs, x), name=name)

    def fourier_coeff(self, j: int) -> float:
        return float(self.coeffs[j - 1]) if j <= len(self.coeffs) else 0.0

    def l2_norm_sq(self) -> float:
        return float(np.sum(self.coeffs**2))

    def sobolev_norm_sq(self, k: int) -> float:
        """sum_j a_j c_j^2 with the ellipsoid weights of smoothness k."""
        from .theory import ellipsoid_coeff

        a = np.array([ellipsoid_coeff(j, k) for j in range(1, len(self.coeffs) + 1)])
        return float(np.sum(a * self.coeffs**2))


def empiric_inner_product(u, v) -> float:
    """(u, v)_n = (1/n) sum_l u_l v_l for equal-length vectors."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError(f"length mismatch: {u.shape} vs {v.shape}")
    return float(u @ v / len(u))


def trig_basis_eval(j: int, x):
    """phi_1 = 1; phi_j = sqrt(2) cos(2 pi [j/2] x) for even j, sin for odd j >= 3."""
    if j < 1:
        raise ValueError(f"basis index must be >= 1, got {j}")
    x = np.asarray(x, dtype=float)
    if j == 1:
        return np.ones_like(x)
    arg = 2.0 * np.pi * (j // 2) * x
    return np.sqrt(2.0) * (np.cos(arg) if j % 2 == 0 else np.sin(arg))


@lru_cache(maxsize=3)
def _basis_matrix(n: int) -> np.ndarray:
    # column j-1 holds phi_j sampled on the grid; n odd so columns are orthonormal
    x = np.arange(1, n + 1, dtype=float) / n
    mat = np.empty((n, n))
    mat[:, 0] = 1.0
    half = (n - 1) // 2
    if half:
        angles = 2.0 * np.pi * np.outer(x, np.arange(1, half + 1, dtype=float))
        mat[:, 1:n:2] = np.sqrt(2.0) * np.cos(angles)
        mat[:, 2:n:2] = np.sqrt(2.0) * np.sin(angles)
    mat.flags.writeable = False
    return mat


def basis_matrix(grid: DesignGrid) -> np.ndarray:
    """(n, n) matrix of phi_j(x_l); read-only and cached per n."""
    return _basis_matrix(grid.n)


def basis_eval_matrix(n: int, x) -> np.ndarray:
    """(len(x), n) matrix of phi_j at arbitrary points, for batched synthesis."""
    x = np.asarray(x, dtype=float).ravel()
    mat = np.empty((len(x), n))
    mat[:, 0] = 1.0
    half = (n - 1) // 2 if n % 2 == 1 else n // 2
    if half:
        angles = 2.0 * np.pi * np.outer(x, np.arange(1, half + 1, dtype=float))
        cos_block = np.sqrt(2.0) * np.cos(angles)
        sin_block = np.sqrt(2.0) * np.sin(angles)
        mat[:, 1:n:2] = cos_block[:, : mat[:, 1:n:2].shape[1]]
        mat[:, 2:n:2] = sin_block[:, : mat[:, 2:n:2].shape[1]]
    return mat


def discrete_fourier(Y, grid: DesignGrid) -> FourierCoeffs:
    """theta_hat_j = (Y, phi_j)_n for j = 1..n.

    Exact inverse of synthesis with unit weights: the sampled basis is an
    orthonormal basis of R^n, so the round trip reproduces Y at the design
    points to rounding error.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.shape != (grid.n,):
        raise ValueError(f"observation vector must have length n={grid.n}")
    theta = basis_matrix(grid).T @ Y / grid.n
    return FourierCoeffs(grid.n, theta)


def trig_series(coeffs, x, chunk: int = 4096):
    """Evaluate sum_j coeffs[j-1] phi_j(x) at arbitrary points."""
    coeffs = np.asarray(coeffs, dtype=float)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xf = np.atleast_1d(x).ravel()
    d = len(coeffs)
    half = (d - 1) // 2 if d % 2 == 1 else d // 2
    c_cos = coeffs[1:d:2]
    c_sin = coeffs[2:d:2]
    out = np.full(xf.shape, coeffs[0], dtype=float)
    ps = np.arange(1, half + 1, dtype=float)
    for lo in range(0, len(xf), chunk):
        xs = xf[lo : lo + chunk]
        if len(ps):
            angles = 2.0 * np.pi * np.outer(xs, ps)
            out[lo : lo + chunk] += np.sqrt(2.0) * (
                np.cos(angles[:, : len(c_cos)]) @ c_cos
                + np.sin(angles[:, : len(c_sin)]) @ c_sin
            )
    out = out.reshape(np.atleast_1d(x).shape)
    return float(out[0]) if scalar else out


def synthesize(lam, coeffs: FourierCoeffs, x):
    """Weighted series S_lam(x) = sum_j lam_j theta_hat_j phi_j(x).

    `x` may be a scalar, an array of points, or a DesignGrid (exact matrix path).
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (coeffs.n,):
        raise ValueError(f"weight vector must have length n={coeffs.n}")
    weighted = lam * coeffs.theta_hat
    if isinstance(x, DesignGrid):
        if x.n != coeffs.n:
            raise ValueError("grid size does not match coefficients")
        return basis_matrix(x) @ weighted
    return trig_series(weighted, x)
