"""Pinsker-type weight family and the slowly varying tuning sequences.

The family is a finite grid Lambda = {lambda_(beta,t)} over smoothness
beta = 1..k* and scale t = eps, 2 eps, ..., m eps with m = [1/eps^2]; each
member shrinks empirical Fourier coefficients with the taper
(1 - (j/omega)^beta)_+ above a small head of untouched frequencies.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "WeightIndex",
    "TuningSequences",
    "default_sequences",
    "a_beta",
    "omega",
    "pinsker_weights",
    "WeightFamily",
    "family_cutoffs",
    "weight_family",
]


class WeightIndex(NamedTuple):
    beta: int
    t: float


@dataclass(frozen=True)
class TuningSequences:
    """Grid steps and penalty constants used by the selection rule."""

    eps: float
    k_star: int
    m: int
    l_n: int
    rho: float
    omega_bar: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.eps <= 1.0):
            raise ValueError(f"eps must lie in (0, 1], got {self.eps}")
        # the oracle-inequality factor (1 + 3 rho - 2 rho^2) / (1 - 3 rho)
        # needs rho < 1/3
        if not (0.0 < self.rho < 1.0 / 3.0):
            raise ValueError(f"rho must lie in (0, 1/3), got {self.rho}")
        if self.k_star < 1 or self.m < 1:
            raise ValueError("k_star and m must be >= 1")


def default_sequences(
    n: int,
    k_bar: float = 0.0,
    omega_bar: float = 0.0,
    rho: float | None = None,
) -> TuningSequences:
    """Defaults eps = 1/ln n, k* = [k_bar + sqrt(ln n)], m = [1/eps^2].

    The penalty coefficient is rho = 1 / (3 + L_n) with L_n = sqrt(ln n);
    passing `rho` overrides it.
    """
    if not isinstance(n, numbers.Integral) or n < 3 or n % 2 == 0:
        raise ValueError(f"need odd n >= 3, got {n!r}")
    log_n = math.log(n)
    eps = 1.0 / log_n
    k_star = max(1, int(k_bar + math.sqrt(log_n)))
    m = int(1.0 / eps**2)
    l_n = int(n ** (1.0 / 3.0) + 1.0)
    if l_n >= n:
        raise ValueError(f"l_n={l_n} must stay below n={n}")
    if rho is None:
        rho = 1.0 / (3.0 + math.sqrt(log_n))
    return TuningSequences(eps=eps, k_star=k_star, m=m, l_n=l_n, rho=rho, omega_bar=omega_bar)


def a_beta(beta: int) -> float:
    """A_beta = (beta+1)(2 beta+1) / (beta pi^(2 beta))."""
    if beta < 1:
        raise ValueError(f"beta must be >= 1, got {beta}")
    return (beta + 1.0) * (2.0 * beta + 1.0) / (beta * math.pi ** (2.0 * beta))


def omega(alpha: WeightIndex, n: int, seqs: TuningSequences) -> float:
    """Cutoff frequency omega_bar + (A_beta t n)^(1/(2 beta + 1))."""
    beta, t = alpha
    if beta < 1 or t <= 0.0 or n < 3:
        raise ValueError(f"invalid weight index {alpha} or n={n}")
    return seqs.omega_bar + (a_beta(beta) * t * n) ** (1.0 / (2.0 * beta + 1.0))


def _taper(j: np.ndarray, om, j0, beta: int) -> np.ndarray:
    """Weights at frequencies j: 1 up to the head j0, 1 - (j/omega)^beta up to omega, then 0."""
    return np.where(j <= j0, 1.0, np.where(j <= om, 1.0 - (j / om) ** beta, 0.0))


def pinsker_weights(alpha: WeightIndex, n: int, seqs: TuningSequences) -> np.ndarray:
    """Length-n weight vector: flat head, polynomial taper, zero tail.

    Frequencies above n are silently truncated; the estimator only ever
    uses n coefficients.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"need odd n >= 3, got {n}")
    om = omega(alpha, n, seqs)
    return _taper(np.arange(1, n + 1, dtype=float), om, int(om * seqs.eps), alpha.beta)


class WeightFamily(tuple):
    """(WeightIndex, taper) pairs whose tapers are the read-only rows of one stack W (K, m).

    Every taper is zero past column m <= n, so the stack holds m columns, not n.
    """

    def __new__(cls, indices, W):
        W = np.array(W, dtype=float)
        W.flags.writeable = False
        family = super().__new__(cls, zip(indices, W))
        family.W = W
        return family


def _support_width(max_omega: float, n: int) -> int:
    """Columns a stack keeps: ceil(max omega) rounded up to a multiple of 8, at most n.

    Every weight past column ceil(omega) is 0.  With the multiple of 8, numpy's
    8-way pairwise sums and OpenBLAS's unrolled dot products group the nonzero
    weights as they do over all n columns, so a cost keeps the bytes it has at
    full length (checked up to n = 5001; longer dot products are split
    differently).
    """
    return min(n, 8 * math.ceil(math.ceil(max_omega) / 8))


def family_cutoffs(n: int, seqs: TuningSequences) -> tuple[list[WeightIndex], np.ndarray]:
    """The k* x m indices in increasing (beta, t) order and their cutoffs omega.

    Refuses a family whose every taper is zero, i.e. max omega <= 1.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    indices = [WeightIndex(beta, i * seqs.eps)
               for beta in range(1, seqs.k_star + 1) for i in range(1, seqs.m + 1)]
    # `omega` with A_beta and 1/(2 beta + 1) taken once per beta; Python's ** keeps its bits
    powers = {beta: (a_beta(beta), 1.0 / (2.0 * beta + 1.0)) for beta in range(1, seqs.k_star + 1)}
    om = np.array([seqs.omega_bar + (powers[beta][0] * t * n) ** powers[beta][1] for beta, t in indices])
    if om.max() <= 1.0:  # then every weight, from j = 1 on, is 0
        raise ValueError(f"every taper is zero: the largest cutoff omega is {om.max():.6g} <= 1 "
                         f"(omega_bar={seqs.omega_bar!r})")
    return indices, om


def weight_family(n: int, seqs: TuningSequences) -> WeightFamily:
    """All k* x m members in increasing (beta, t) order, built at their support width.

    Row by row the stack equals `pinsker_weights` cut to its width, bit for bit:
    each beta's rows are one `_taper` call with the same integer power.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"need odd n >= 3, got {n}")
    indices, om = family_cutoffs(n, seqs)
    flat = np.array([int(w * seqs.eps) for w in om], dtype=float)  # each member's j0
    j = np.arange(1, _support_width(om.max(), n) + 1, dtype=float)
    W = np.empty((len(indices), len(j)))
    for beta in range(1, seqs.k_star + 1):
        rows = slice((beta - 1) * seqs.m, beta * seqs.m)
        W[rows] = _taper(j, om[rows, None], flat[rows, None], beta)
    return WeightFamily(indices, W)
