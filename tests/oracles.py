"""Test oracles: the inequalities behind the upper-bound proof (criterion 2), each
reporting its worst slack, the Pinsker constant's second assembly (criterion 3) and
the van Trees bound's Fisher and bias terms by Monte Carlo and by quadrature."""

import math
from typing import NamedTuple

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from hetreg.basis import BLOCK_ENTRIES, DesignGrid, TrigPolynomial, as_sampled, discrete_fourier
from hetreg.models import ScaleModel, simpson_integral, substream
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


def van_trees_terms(D, gram, Z, scale: ScaleModel, grid: DesignGrid):
    """The Fisher and bias terms (rows, P) of `lowerbound.van_trees_bound` at each row z
    of Z (rows, P): F_p = sum_x D_p^2 / g^2 and B_p = sum_x (a D_p + b (Gz)_p)^2 / (2 g^4),
    with (a, b) = frechet(x, s) and s = z'D, in blocks of BLOCK_ENTRIES // n rows."""
    D, gram, Z = (np.asarray(a, dtype=float) for a in (D, gram, Z))
    fisher, bias = np.empty(Z.shape), np.empty(Z.shape)
    step = max(1, BLOCK_ENTRIES // grid.n)
    for lo in range(0, len(Z), step):
        z = Z[lo : lo + step]
        s, c = z @ D, z @ gram
        g2 = scale.g2(grid.points, s, np.sum(c * z, axis=1)[:, None])
        a, b = (np.broadcast_to(p, s.shape) / g2 for p in scale.frechet(grid.points, s))
        fisher[lo : lo + step] = (1.0 / g2) @ (D**2).T
        bias[lo : lo + step] = 0.5 * ((a * a) @ (D**2).T + 2.0 * c * ((a * b) @ D.T)
                                      + c**2 * np.sum(b * b, axis=1)[:, None])
    return fisher, bias


def van_trees_draws(D, gram, prior_sd, scale: ScaleModel, grid: DesignGrid, draws: int, seed: int = 0):
    """`van_trees_terms` at `draws` prior draws z ~ N(0, diag(prior_sd^2)) from
    substream(seed, 11, n, P), the Monte Carlo that the closed form replaced: their
    means estimate F_p and B_p."""
    P = len(D)
    Z = substream(seed, 11, grid.n, P).standard_normal((draws, P)) * np.asarray(prior_sd, dtype=float)
    return van_trees_terms(D, gram, Z, scale, grid)


def van_trees_quadrature(D, gram, prior_sd, scale: ScaleModel, grid: DesignGrid, nodes: int = 60):
    """F_p and B_p as prior means by a tensor Gauss-Hermite rule of `nodes` points per
    direction, for a few directions: exact up to the rule's error, with no draws."""
    y, w = hermegauss(nodes)
    P = len(D)
    Z = np.stack([g.ravel() for g in np.meshgrid(*[y] * P, indexing="ij")], axis=1) * np.asarray(prior_sd, dtype=float)
    weight = np.prod(np.stack(np.meshgrid(*[w / math.sqrt(2.0 * math.pi)] * P, indexing="ij")), axis=0).ravel()
    return tuple(weight @ terms for terms in van_trees_terms(D, gram, Z, scale, grid))
