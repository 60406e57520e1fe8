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
    trig_series,
)
from .weights import TuningSequences, WeightFamily, WeightIndex, default_sequences, weight_family

__all__ = [
    "CostTerms",
    "EstimatorOutput",
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


def varsigma_hat(coeffs: FourierCoeffs, l_n: int) -> float:
    """Tail energy sum_{j > l_n} theta_hat_j^2, the noise-level proxy."""
    if not (1 <= l_n < coeffs.n):
        raise ValueError(f"need 1 <= l_n < n, got l_n={l_n}, n={coeffs.n}")
    return float(np.sum(coeffs.theta_hat[l_n:] ** 2))


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


def family_costs(W: np.ndarray, theta_hat, seqs: TuningSequences) -> np.ndarray:
    """J_n (..., K) of every taper row of W (K, m) for every row of theta_hat (..., n), m <= n.

    Tapers zero past column m may come cut to width m, as the study block's do:
    the quadratic and cross terms sum over those m columns, varsigma_hat over all n.
    """
    W2 = W**2
    m = W.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        th2 = np.asarray(theta_hat, dtype=float) ** 2
        n = th2.shape[-1]
        vs = np.sum(th2[..., seqs.l_n :], axis=-1, keepdims=True)
        quadratic = th2[..., :m] @ W2.T
        cross = -2.0 * ((th2[..., :m] - vs / n) @ W.T)
        costs = quadratic + cross + seqs.rho * W2.sum(axis=1) * vs / n
    if not np.isfinite(costs).all():
        raise ValueError(
            f"cost J_n is not finite (varsigma_hat up to {float(np.max(vs)):.3g}): "
            "the squared Fourier coefficients overflow"
        )
    return costs


def select_rows(W: np.ndarray, theta_hat, seqs: TuningSequences) -> tuple[np.ndarray, np.ndarray]:
    """Selected row of W (...) and costs J_n (..., K) for every row of theta_hat.

    Ties go to the first minimizer, i.e. the smaller (beta, t) when W is in that order.
    """
    costs = family_costs(W, theta_hat, seqs)
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
        family = WeightFamily(family)
    th = coeffs.theta_hat
    best, costs_vec = select_rows(family.W, th, seqs)
    alpha_hat, lam_hat = family[int(best)]
    # every taper is zero past its support: the series sums up to its last nonzero weight
    m = int(np.max(np.flatnonzero(lam_hat), initial=0)) + 1
    weighted = lam_hat[:m] * th[:m]
    est = SampledFunction(lambda x: trig_series(weighted, x), name="adaptive")
    return EstimatorOutput(
        coeffs=coeffs,
        selected=alpha_hat,
        lambda_hat=lam_hat,
        varsigma_hat=varsigma_hat(coeffs, seqs.l_n),
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
