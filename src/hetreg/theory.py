"""Sobolev ellipsoid machinery, the Pinsker constant, the oracle taper index and
the continuous coefficients and cell integrals of a test function.

The tests assemble the constant a second time, from the bias supremum plus a
quadrature of the variance integral, and hold `pinsker_constant` to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import TrigPolynomial, as_sampled, trig_basis_eval, trig_series
from .models import simpson_integral
from .weights import TuningSequences, WeightIndex

# discrete_fourier is unused here but stays importable from this module:
# bench/tracing.py patches it at this lookup site.
from .basis import discrete_fourier  # noqa: F401

__all__ = [
    "SobolevBall",
    "ellipsoid_coeff",
    "ellipsoid_norm_sq",
    "pinsker_constant",
    "oracle_index",
    "cell_integrals",
    "exact_fourier_coeff",
]


@dataclass(frozen=True)
class SobolevBall:
    """Periodic smoothness class: k derivatives, cumulative squared norm <= r."""

    k: int
    r: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"smoothness k must be >= 1, got {self.k}")
        if self.r <= 0.0:
            raise ValueError(f"radius r must be positive, got {self.r}")


def ellipsoid_coeff(j: int, k: int) -> float:
    """a_j = sum_{i=0}^k (2 pi [j/2])^(2i); a_1 = 1 for every k, and an a_j past 1.8e308 is inf."""
    if j < 1 or k < 1:
        raise ValueError("need j >= 1 and k >= 1")
    w = np.float64(2.0 * math.pi * (j // 2))
    with np.errstate(over="ignore"):
        return float(sum(w ** (2 * i) for i in range(k + 1)))


def ellipsoid_norm_sq(theta, k: int) -> float:
    """sum_j a_j theta_j^2; theta lies in the ball (k, r) when it is <= r."""
    theta = np.asarray(theta, dtype=float)
    a = np.array([ellipsoid_coeff(j, k) for j in range(1, len(theta) + 1)])
    return float(np.sum(a * theta**2))


def pinsker_constant(k: int, r: float, varsigma: float) -> float:
    """Sharp asymptotic constant for the normalized minimax risk over the ball,
    with the exponents (2k+1)^(1/(2k+1)) and r^(1/(2k+1)) of the upper-bound limit,
    which the tests assemble from its bias and variance parts.
    """
    if varsigma <= 0.0:
        raise ValueError("varsigma must be positive")
    ball = SobolevBall(k, r)
    base = (ball.k / (math.pi * (ball.k + 1.0))) ** (2.0 * k / (2.0 * k + 1.0))
    gamma_star = (2.0 * k + 1.0) ** (1.0 / (2.0 * k + 1.0)) * base
    return gamma_star * r ** (1.0 / (2.0 * k + 1.0)) * varsigma ** (2.0 * k / (2.0 * k + 1.0))


def oracle_index(ball: SobolevBall, varsigma: float, n: int, seqs: TuningSequences) -> WeightIndex:
    """Best grid index (k, l~ eps) with l~ = min over the grid reaching r/varsigma."""
    if varsigma <= 0.0:
        raise ValueError("varsigma must be positive")
    rbar = ball.r / varsigma
    l_tilde = min(max(1, math.ceil(rbar / seqs.eps)), seqs.m)
    return WeightIndex(ball.k, l_tilde * seqs.eps)


_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(10)


def cell_integrals(S, n: int) -> tuple[np.ndarray, float]:
    """(int S over every cell [(l-1)/n, l/n], int_0^1 S^2).

    A `TrigPolynomial` has both in closed form: over cell l, phi_j integrates
    to phi_j((l - 1/2)/n) sin(pi q/n) / (pi q) for j in {2q, 2q+1} (to 1/n for
    phi_1), so the cell integrals are one `trig_series` call at the n cell
    midpoints, with coefficients c_j sinc(q/n) / n, and ||S||^2 = sum c^2.
    Any other S takes 10-node Gauss on each cell, effectively exact for the
    smooth targets used.
    """
    S = as_sampled(S)
    if isinstance(S, TrigPolynomial):
        q = np.arange(1, len(S.coeffs) + 1) // 2
        midpoints = (np.arange(n) + 0.5) / n
        return trig_series(S.coeffs * np.sinc(q / n) / n, midpoints), S.l2_norm_sq()
    left = np.arange(0, n, dtype=float) / n
    # map nodes from [-1,1] into every cell at once
    xs = left[:, None] + (0.5 + 0.5 * _GAUSS_NODES[None, :]) / n
    sv = S(xs.ravel()).reshape(n, len(_GAUSS_NODES))
    w = 0.5 * _GAUSS_WEIGHTS / n
    return sv @ w, float(np.sum((sv**2) @ w))


def exact_fourier_coeff(S, j: int) -> float:
    """Continuous coefficient (S, phi_j); exact for trig polynomials."""
    S = as_sampled(S)
    if isinstance(S, TrigPolynomial):
        return S.fourier_coeff(j)
    return simpson_integral(lambda x: S(x) * trig_basis_eval(j, x))
