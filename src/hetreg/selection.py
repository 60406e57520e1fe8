"""Penalized cost, variance proxy and argmin selection of the adaptive estimator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .basis import (
    DesignGrid,
    FourierCoeffs,
    SampledFunction,
    discrete_fourier,
    serial_matmul,
    trig_series,
)
from .weights import TuningSequences, WeightFamily, WeightIndex, default_sequences, weight_family

__all__ = [
    "CostTerms",
    "EstimatorOutput",
    "tail_energy",
    "varsigma_hat",
    "cost_terms",
    "cost",
    "family_costs",
    "select_rows",
    "select",
    "estimate",
]


class CostTerms(NamedTuple):
    """The three displayed pieces of J_n; their sum is the cost."""

    quadratic: float  # sum lam^2 theta_hat^2
    cross: float      # -2 sum lam theta_tilde
    penalty: float    # rho |lam|^2 varsigma_hat / n

    @property
    def total(self) -> float:
        return self.quadratic + self.cross + self.penalty


@dataclass
class EstimatorOutput:
    """Everything the selection step produces, including per-candidate costs."""

    coeffs: FourierCoeffs
    selected: WeightIndex
    lambda_hat: np.ndarray
    varsigma_hat: float
    costs: dict[WeightIndex, float]
    estimate: SampledFunction


def tail_energy(theta_hat, l_n: int) -> np.ndarray:
    """sum_{j > l_n} theta_hat_j^2 along the last axis; an overflow gives inf, which
    `family_costs` refuses."""
    with np.errstate(over="ignore"):
        return np.sum(np.asarray(theta_hat, dtype=float)[..., l_n:] ** 2, axis=-1)


def varsigma_hat(coeffs: FourierCoeffs, l_n: int) -> float:
    """Tail energy sum_{j > l_n} theta_hat_j^2, the noise-level proxy."""
    if not (1 <= l_n < coeffs.n):
        raise ValueError(f"need 1 <= l_n < n, got l_n={l_n}, n={coeffs.n}")
    return float(tail_energy(coeffs.theta_hat, l_n))


def cost_terms(
    lam,
    coeffs: FourierCoeffs,
    varsigma: float,
    rho: float,
    theta_tilde=None,
) -> CostTerms:
    """Decomposed cost J_n(lam).

    `theta_tilde` defaults to theta_hat^2 - varsigma/n, the asymptotically
    unbiased surrogate for theta_hat * theta; tests may pass the exact
    product to recover the quadratic-loss identity.
    """
    lam = np.asarray(lam, dtype=float)
    th = coeffs.theta_hat
    if lam.shape != th.shape:
        raise ValueError("weight vector and coefficients must share length")
    if theta_tilde is None:
        theta_tilde = th**2 - varsigma / coeffs.n
    quadratic = float(np.sum(lam**2 * th**2))
    cross = -2.0 * float(np.sum(lam * theta_tilde))
    penalty = rho * float(np.sum(lam**2)) * varsigma / coeffs.n
    return CostTerms(quadratic, cross, penalty)


def cost(lam, coeffs: FourierCoeffs, varsigma: float, rho: float) -> float:
    return cost_terms(lam, coeffs, varsigma, rho).total


def family_costs(W: np.ndarray, head, tail, n: int, seqs: TuningSequences) -> np.ndarray:
    """J_n (..., K) of every taper row of W (K, m) for every row of coefficients.

    `head` (..., d) holds theta_hat_1..theta_hat_d of length-n rows, d >= m, and
    `tail` (...) their energy past l_n, varsigma_hat = sum_{j > l_n} theta_hat_j^2.
    Every taper is zero past column m, so nothing past the head enters a cost.
    """
    W2 = W**2
    m = W.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        th2 = np.asarray(head, dtype=float)[..., :m] ** 2
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


def select_rows(W: np.ndarray, head, tail, n: int,
                seqs: TuningSequences) -> tuple[np.ndarray, np.ndarray]:
    """Selected row of W (...) and costs J_n (..., K), with the arguments of `family_costs`.

    Ties go to the first minimizer, i.e. the smaller (beta, t) when W is in that order.
    """
    costs = family_costs(W, head, tail, n, seqs)
    return np.argmin(costs, axis=-1), costs


def select(
    family: WeightFamily | list[tuple[WeightIndex, np.ndarray]],
    coeffs: FourierCoeffs,
    seqs: TuningSequences,
) -> EstimatorOutput:
    """argmin of J_n over the family; ties go to the smaller (beta, t).

    All candidates are evaluated (no early stopping) with shared vectorized
    sums, so the costs map supports an exhaustive audit.  A list of pairs is
    stacked here; a WeightFamily brings its stack along.
    """
    if not family:
        raise ValueError("weight family must be nonempty")
    if not isinstance(family, WeightFamily):
        family = WeightFamily([alpha for alpha, _ in family], [lam for _, lam in family])
    th = coeffs.theta_hat
    vs = varsigma_hat(coeffs, seqs.l_n)
    best, costs_vec = select_rows(family.W, th, vs, coeffs.n, seqs)
    alpha_hat, lam_cut = family[int(best)]
    lam_hat = np.zeros(coeffs.n)
    lam_hat[: len(lam_cut)] = lam_cut
    # every taper is zero past its support: the series sums up to its last nonzero weight
    m = int(np.max(np.flatnonzero(lam_hat), initial=0)) + 1
    weighted = lam_hat[:m] * th[:m]
    est = SampledFunction(lambda x: trig_series(weighted, x), name="adaptive")
    return EstimatorOutput(
        coeffs=coeffs,
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
    family: WeightFamily | list[tuple[WeightIndex, np.ndarray]] | None = None,
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
    coeffs = discrete_fourier(Y, grid)
    return select(family, coeffs, seqs)
