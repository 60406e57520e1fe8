"""Penalized cost J_n, tail-energy noise proxy and argmin selection of the adaptive estimator."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import (
    DesignGrid,
    SampledFunction,
    discrete_fourier,
    serial_matmul,
    trig_series,
)
from .weights import TuningSequences, WeightFamily, WeightIndex, default_sequences, weight_family

__all__ = [
    "EstimatorOutput",
    "tail_energy",
    "family_costs",
    "taper_losses",
    "select_rows",
    "select",
    "estimate",
]


@dataclass
class EstimatorOutput:
    """Everything the selection step produces, including per-candidate costs."""

    theta_hat: np.ndarray
    selected: WeightIndex
    lambda_hat: np.ndarray
    varsigma_hat: float
    costs: dict[WeightIndex, float]
    estimate: SampledFunction


def tail_energy(theta_hat, l_n: int) -> np.ndarray:
    """varsigma_hat = sum_{j > l_n} theta_hat_j^2 along the last axis (length n), the
    noise-level proxy; an overflow gives inf, which `family_costs` refuses."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    if not (1 <= l_n < theta_hat.shape[-1]):
        raise ValueError(f"need 1 <= l_n < n, got l_n={l_n}, n={theta_hat.shape[-1]}")
    with np.errstate(over="ignore"):
        return np.sum(theta_hat[..., l_n:] ** 2, axis=-1)


def family_costs(W: np.ndarray, head, tail, n: int, seqs: TuningSequences) -> np.ndarray:
    """J_n (..., K) of every taper row of W (K, m) for every row of coefficients.

    `head` (..., d) holds theta_hat_1..theta_hat_d of length-n rows, d >= m, and
    `tail` (...) their energy past l_n, varsigma_hat = sum_{j > l_n} theta_hat_j^2.
    Every taper is zero past column m, so nothing past the head enters a cost.
    """
    head = np.asarray(head, dtype=float)
    m = W.shape[-1]
    if head.shape[-1] < m:
        raise ValueError(f"coefficient head has width {head.shape[-1]}, narrower than "
                         f"the taper stack's width {m}")
    W2 = W**2
    with np.errstate(over="ignore", invalid="ignore"):
        th2 = head[..., :m] ** 2
        vs = np.asarray(tail, dtype=float)[..., None]
        quadratic = serial_matmul(th2, W2.T)
        cross = -2.0 * serial_matmul(th2 - vs / n, W.T)
        costs = quadratic + cross + seqs.rho * W2.sum(axis=1) * vs / n
    if not np.isfinite(costs).all():
        raise ValueError(
            f"cost J_n is not finite (varsigma_hat up to {float(np.max(vs)):.3g}): "
            "the squared Fourier coefficients overflow"
        )
    return costs


def taper_losses(L: np.ndarray, th, targets, consts) -> np.ndarray:
    """Loss (..., K) of every taper row of L (K, m) on every row of th (..., m): by
    Parseval, sum_j L_kj^2 th_j^2 - 2 sum_j L_kj th_j t_j + c against a target with
    coefficients t (`targets`, broadcast against th) and squared norm c (`consts`,
    broadcast against the loss)."""
    return serial_matmul(th**2, (L**2).T) - 2.0 * serial_matmul(th * targets, L.T) + consts


def select_rows(W: np.ndarray, head, tail, n: int,
                seqs: TuningSequences) -> tuple[np.ndarray, np.ndarray]:
    """Selected row of W (...) and costs J_n (..., K), with the arguments of `family_costs`.

    Ties go to the first minimizer, i.e. the smaller (beta, t) when W is in that order.
    """
    costs = family_costs(W, head, tail, n, seqs)
    return np.argmin(costs, axis=-1), costs


def select(family: WeightFamily, theta_hat, seqs: TuningSequences) -> EstimatorOutput:
    """argmin of J_n over the family, for the (n,) coefficients theta_hat; ties go to
    the smaller (beta, t).

    All candidates are evaluated (no early stopping) with shared vectorized
    sums, so the costs map supports an exhaustive audit.
    """
    if not family:
        raise ValueError("weight family must be nonempty")
    th = np.asarray(theta_hat, dtype=float)
    n = len(th)
    vs = float(tail_energy(th, seqs.l_n))
    best, costs_vec = select_rows(family.W, th, vs, n, seqs)
    alpha_hat, lam_cut = family[int(best)]
    lam_hat = np.zeros(n)
    lam_hat[: len(lam_cut)] = lam_cut
    # every taper is zero past its support: the series sums up to its last nonzero weight
    m = int(np.max(np.flatnonzero(lam_hat), initial=0)) + 1
    weighted = lam_hat[:m] * th[:m]
    est = SampledFunction(lambda x: trig_series(weighted, x), name="adaptive")
    return EstimatorOutput(
        theta_hat=th,
        selected=alpha_hat,
        lambda_hat=lam_hat,
        varsigma_hat=vs,
        costs={alpha: float(c) for (alpha, _), c in zip(family, costs_vec)},
        estimate=est,
    )


def estimate(
    Y,
    grid: DesignGrid,
    seqs: TuningSequences | None = None,
    family: WeightFamily | None = None,
) -> EstimatorOutput:
    """Full pipeline: transform, noise proxy, weight family, selection.

    Raises ValueError when Y holds NaN or infinite values.
    """
    Y = np.asarray(Y, dtype=float)
    bad = ~np.isfinite(Y)
    if bad.any():
        raise ValueError(
            f"observations must be finite: {int(bad.sum())} of {Y.size} values are "
            f"NaN or infinite (first at index {int(np.argmax(bad))})"
        )
    if seqs is None:
        seqs = default_sequences(grid.n)
    if family is None:
        family = weight_family(grid.n, seqs)
    theta_hat = discrete_fourier(Y, grid)
    return select(family, theta_hat, seqs)
