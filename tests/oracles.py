"""Test oracles: the inequalities behind the upper-bound proof (criterion 2), each
reporting its worst slack, and the Pinsker constant's second assembly (criterion 3)."""

import math
from typing import NamedTuple

import numpy as np

from hetreg.basis import DesignGrid, TrigPolynomial, as_sampled, discrete_fourier
from hetreg.models import simpson_integral
from hetreg.theory import SobolevBall, cell_integrals, ellipsoid_norm_sq, exact_fourier_coeff
from hetreg.weights import a_beta


def random_ball_member(rng, k, r, degree, fill=0.9):
    """Random trig polynomial scaled to occupy `fill` of the ellipsoid."""
    raw = rng.standard_normal(degree) / np.arange(1, degree + 1) ** (k + 1)
    return TrigPolynomial(raw * math.sqrt(fill * r / ellipsoid_norm_sq(raw, k)))


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


def step_l2_distance_sq(values, S, grid: DesignGrid) -> float:
    """||T(f) - S||^2 over [0,1] with per-cell Gauss quadrature.

    The step extension T(f) is f(x_l) on the cell ((l-1)/n, l/n], so only
    int S per cell and int S^2 are needed.
    """
    values = np.asarray(values, dtype=float)
    int_s, s_l2_sq = cell_integrals(S, grid.n)
    return float(np.sum(values**2) / grid.n - 2.0 * values @ int_s + s_l2_sq)


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
