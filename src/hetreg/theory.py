"""Sobolev ellipsoid machinery, Pinsker constant and inequality test oracles.

The asymptotic risk constant is computed twice on purpose: once in closed
form (`pinsker_constant`) and once assembled from the bias supremum plus a
quadrature of the variance integral (`asymptotic_upper_risk`).  Their
agreement is the package's internal proof that the implemented constant is
the one the upper and lower bounds pin down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .basis import (
    DesignGrid,
    TrigPolynomial,
    as_sampled,
    discrete_fourier,
    trig_basis_eval,
    trig_series,
)
from .models import simpson_integral
from .weights import TuningSequences, WeightIndex, a_beta

__all__ = [
    "SobolevBall",
    "ellipsoid_coeff",
    "ellipsoid_norm_sq",
    "pinsker_constant",
    "asymptotic_upper_risk",
    "oracle_index",
    "cell_integrals",
    "step_l2_distance_sq",
    "exact_fourier_coeff",
    "tail_energy_bound",
    "coeff_gap_bound",
    "norm_transfer_bound",
    "BoundReport",
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


def pinsker_constant(k: int, r: float, varsigma: float, as_printed: bool = False) -> float:
    """Sharp asymptotic constant for the normalized minimax risk over the ball.

    The default exponents are (2k+1)^(1/(2k+1)) and r^(1/(2k+1)); the
    `as_printed` variant with exponents -(2k+1) is kept for diagnostic
    comparison only and is dimensionally inconsistent with the upper-bound
    limit (see `asymptotic_upper_risk`).
    """
    if varsigma <= 0.0:
        raise ValueError("varsigma must be positive")
    ball = SobolevBall(k, r)
    base = (ball.k / (math.pi * (ball.k + 1.0))) ** (2.0 * k / (2.0 * k + 1.0))
    if as_printed:
        gamma_star = (2.0 * k + 1.0) ** (-(2.0 * k + 1.0)) * base
        return gamma_star * r ** (-(2.0 * k + 1.0)) * varsigma ** (2.0 * k / (2.0 * k + 1.0))
    gamma_star = (2.0 * k + 1.0) ** (1.0 / (2.0 * k + 1.0)) * base
    return gamma_star * r ** (1.0 / (2.0 * k + 1.0)) * varsigma ** (2.0 * k / (2.0 * k + 1.0))


def asymptotic_upper_risk(k: int, r: float, varsigma: float) -> float:
    """Limit of n^(2k/(2k+1)) risk for the oracle taper: bias sup + variance.

    Assembled independently of `pinsker_constant`: the squared-bias part is
    r / (pi^(2k) (A_k rbar)^(2k/(2k+1))) and the variance part integrates
    (1 - z^k)^2 by quadrature.
    """
    if varsigma <= 0.0:
        raise ValueError("varsigma must be positive")
    SobolevBall(k, r)
    rbar = r / varsigma
    ak = a_beta(k)
    bias = r * math.pi ** (-2.0 * k) * (ak * rbar) ** (-2.0 * k / (2.0 * k + 1.0))
    taper_sq = simpson_integral(lambda z: (1.0 - z**k) ** 2)
    variance = varsigma * (ak * rbar) ** (1.0 / (2.0 * k + 1.0)) * taper_sq
    return bias + variance


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


def step_l2_distance_sq(values, S, grid: DesignGrid) -> float:
    """||T(f) - S||^2 over [0,1] with per-cell Gauss quadrature.

    The step extension T(f) is f(x_l) on the cell ((l-1)/n, l/n], so only
    int S per cell and int S^2 are needed.
    """
    values = np.asarray(values, dtype=float)
    int_s, s_l2_sq = cell_integrals(S, grid.n)
    return float(np.sum(values**2) / grid.n - 2.0 * values @ int_s + s_l2_sq)


def exact_fourier_coeff(S, j: int) -> float:
    """Continuous coefficient (S, phi_j); exact for trig polynomials."""
    S = as_sampled(S)
    if isinstance(S, TrigPolynomial):
        return S.fourier_coeff(j)
    return simpson_integral(lambda x: S(x) * trig_basis_eval(j, x))


class BoundReport(NamedTuple):
    passed: bool
    worst_slack: float  # min over checked cases of (bound - value); >= 0 iff passed
    worst_case: tuple


def tail_energy_bound(S, ball: SobolevBall, grid: DesignGrid) -> BoundReport:
    """m^(2k) sum_{j>m} theta_{j,n}^2 <= 4r / pi^(2(k-1)) for all 1 <= m < n."""
    S = as_sampled(S)
    theta_n = discrete_fourier(S.on_grid(grid), grid)
    tails = np.cumsum(theta_n[::-1] ** 2)[::-1]  # tails[m] = sum_{j > m}
    m = np.arange(1, grid.n, dtype=float)
    values = m ** (2 * ball.k) * tails[1:]
    bound = 4.0 * ball.r / math.pi ** (2 * (ball.k - 1))
    slack = bound - values
    worst = int(np.argmin(slack))
    return BoundReport(bool(np.all(slack >= 0.0)), float(slack[worst]), (worst + 1,))


def coeff_gap_bound(S, r: float, grid: DesignGrid) -> BoundReport:
    """|theta_{j,n} - theta_j| <= 2 pi sqrt(r) j / n for 1 <= j <= n."""
    S = as_sampled(S)
    theta_n = discrete_fourier(S.on_grid(grid), grid)
    j = np.arange(1, grid.n + 1, dtype=float)
    theta = np.array([exact_fourier_coeff(S, int(jj)) for jj in range(1, grid.n + 1)])
    slack = 2.0 * math.pi * math.sqrt(r) * j / grid.n - np.abs(theta_n - theta)
    worst = int(np.argmin(slack))
    return BoundReport(bool(np.all(slack >= 0.0)), float(slack[worst]), (worst + 1,))


def norm_transfer_bound(f_hat, S, delta: float, r: float, grid: DesignGrid) -> BoundReport:
    """||f - S||_n^2 >= (1-delta) ||T(f) - S||^2 - (1/delta - 1) r / n^2."""
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    f_hat = np.asarray(f_hat, dtype=float)
    S = as_sampled(S)
    lhs = float(np.mean((f_hat - S.on_grid(grid)) ** 2))
    rhs = (1.0 - delta) * step_l2_distance_sq(f_hat, S, grid) - (1.0 / delta - 1.0) * r / grid.n**2
    slack = lhs - rhs
    return BoundReport(slack >= 0.0, slack, (delta,))
