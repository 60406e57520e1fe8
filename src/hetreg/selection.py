"""Penalized cost J_n, tail-energy noise proxy, the adaptive estimator's selection and the Monte Carlo scorer."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BLOCK_ENTRIES, DesignGrid, SampledFunction, discrete_fourier, row_dots, serial_matmul, trig_series
from .weights import TuningSequences, WeightFamily, WeightIndex, default_sequences, weight_family

__all__ = [
    "EstimatorOutput",
    "tail_energy",
    "family_costs",
    "taper_losses",
    "observe_cell",
    "score_cell",
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
        quadratic = serial_matmul(th2, W2.T, 0)
        cross = -2.0 * serial_matmul(th2 - vs / n, W.T, 0)
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
    return serial_matmul(th**2, (L**2).T, 0) - 2.0 * serial_matmul(th * targets, L.T, 0) + consts


def observe_cell(rngs, noise, truth, reps: int, analysis: np.ndarray, lead: int = 0):
    """The head (reps, d), |Y|^2 / n (reps,) and Y . f (..., reps) of one cell's observations, for `score_cell`.

    Replicate r observes Y = s + g * xi on the n design points.  One `noise.draw` from the r-th
    generator of `rngs`, taken as it is needed, writes `lead` values z, then xi, into a buffer of
    at most BLOCK_ENTRIES // n rows; a lead needs Gaussian noise.  `truth(lo, hi, z)` gives s, g
    and the target f on the design for replicates lo..hi-1, each (n,) or one row per replicate,
    from their z (hi - lo, lead).  The head Y @ analysis is a `serial_matmul` aligned at lo and
    the rest are `row_dots`, so no replicate's bits depend on its block.
    """
    if lead and noise.kind != "gaussian":
        raise ValueError(f"leading draws need gaussian noise, got {noise.label}")
    n = len(analysis)
    rows = max(1, BLOCK_ENTRIES // n)
    rngs, buffer = iter(rngs), np.empty((min(rows, reps), lead + n))
    head, energy, dots = np.empty((reps, analysis.shape[1])), np.empty(reps), []
    for lo in range(0, reps, rows):
        block = buffer[: min(rows, reps - lo)]
        hi = lo + len(block)
        for row, rng in zip(block, rngs):
            noise.draw(rng, lead + n, out=row)
        s, g, f = truth(lo, hi, block[:, :lead])
        Y = block[:, lead:]
        Y *= g  # Y = s + g * xi, in place over the whole block
        Y += s
        head[lo:hi] = serial_matmul(Y, analysis, lo)
        energy[lo:hi] = row_dots(Y, Y) / n
        dots.append(row_dots(Y, f))
    return head, energy, np.concatenate(dots, axis=-1)


def score_cell(head, energy, dots, n: int, L: np.ndarray, targets, consts, W: np.ndarray,
               seqs: TuningSequences) -> tuple[np.ndarray, np.ndarray]:
    """Losses (..., R, len(L) + 2) and adaptive pick (R,) of the R replicates of one cell.

    Replicate r observed Y_r (n,): `head` (R, d) holds its theta_hat_1..theta_hat_d, d >= l_n,
    `energy` (R,) |Y_r|^2 / n and `dots` (..., R) Y_r . f, f the target on the design.
    Column k < len(L) is `taper_losses` of row k of the taper stack L (K, w) against the
    target's coefficients t (`targets`) and squared norm c (`consts`); column len(L) is the
    full projection's, |Y|^2 / n - 2 Y . f / n + c by Parseval, c `consts[..., 0]`; the last
    is the adaptive estimator's, column `pick` of the first, the argmin of `family_costs` on W
    (the first len(W) rows of L, ties to the first) with the tail energy past l_n by Parseval."""
    if head.shape[-1] < seqs.l_n:
        raise ValueError(f"coefficient head has width {head.shape[-1]}, narrower than l_n = {seqs.l_n}")
    if energy.shape != head.shape[:1] or dots.shape[-1:] != head.shape[:1]:
        raise ValueError(f"energy {energy.shape} and dots {dots.shape} must hold one value per replicate "
                         f"of the head {head.shape}")
    tail = energy - np.sum(head[:, : seqs.l_n] ** 2, axis=1)
    taper = taper_losses(L, head[:, : L.shape[1]], targets, consts)
    full = energy - 2.0 * dots / n + consts[..., 0]
    pick = np.argmin(family_costs(W, head, tail, n, seqs), axis=-1)
    adaptive = taper[..., np.arange(len(pick)), pick]
    return np.concatenate([taper, full[..., None], adaptive[..., None]], axis=-1), pick


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
    costs_vec = family_costs(family.W, th, vs, n, seqs)
    alpha_hat, lam_cut = family[int(np.argmin(costs_vec))]
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
