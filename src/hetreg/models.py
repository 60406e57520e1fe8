"""Heteroscedastic data generation: scale operators, noise menu, smooth cutoff.

Scale models carry g^2, its Frechet derivative (required) as the partials of
g^2 in S(x) and ||S||^2, and, when available, the exact integrated scale
varsigma(S) = int g^2(x, S) dx.  g^2 and its partials take those two values,
for one S or a whole stack of draws at once; only `ScaleModel.g` and
`ScaleModel.varsigma` take the function S.  Integrals of general functions
use one composite Simpson rule on 2^14 + 1 fixed points (`simpson_rule`; the
mollifier's CDF sums its panels), which keeps every numeric result
deterministic; its weighted sum, by `basis.row_dots`, is taken in one thread
with the same bits whatever OpenBLAS's thread count.  Where the integrand is
known in closed form the package uses exact algebra instead: Parseval for
trigonometric series and, for the step-extension loss, the cell integrals of a
trigonometric polynomial (`theory.cell_integrals`; 10-node Gauss per design
cell for other functions).  The lower-bound kernel family, smooth and periodic
on [0, 1], takes its Gram and cross matrices from an equal-weight rule
(`lowerbound._family_integrals`).

Every Monte Carlo draw comes from a keyed substream: `substream(seed, *key)`
is the generator that numpy's `SeedSequence(seed, spawn_key=key)` seeds for a
PCG64, bit for bit.  `substreams(seed, *key, reps=...)` yields one for each
replicate index of a block: numpy's SeedSequence mixes the prefix once, the
replicate words are mixed in by SeedSequence's documented uint32 hashing as
one vector, and numpy's PCG64 is seeded with each replicate's state words.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Iterator, Optional

import numpy as np

from .basis import DesignGrid, SampledFunction, as_sampled, row_dots

__all__ = [
    "SIMPSON_PANELS",
    "substream",
    "substreams",
    "mean_se",
    "simpson_rule",
    "simpson_integral",
    "mollifier",
    "mollifier_cdf",
    "ScaleModel",
    "NoiseSpec",
    "econometric_scale",
    "homogeneous_scale",
    "generate_observations",
    "smooth_cutoff",
    "nonperiodic_transform",
]

SIMPSON_PANELS = 2**14  # fixed (even) panel count for every quadrature in the package


# SeedSequence's hash mixing (numpy, bit_generator.pyx) of the replicate word and of its state
_MASK32 = 0xFFFFFFFF
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(value) -> list[int]:
    """Little-endian uint32 words of a nonnegative integer, as SeedSequence splits it."""
    value = int(value)
    if value < 0:
        raise ValueError(f"seed and key entries must be nonnegative integers, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _const_chain(const: int, mult: int, count: int) -> np.ndarray:
    """The hash constant before each of `count` hashmix calls, and after the last, as a column."""
    chain = [const]
    for _ in range(count):
        chain.append(chain[-1] * mult & _MASK32)
    return np.array(chain, dtype=np.uint32)[:, None]


def _hashmix(value, const, next_const):
    """SeedSequence's hashmix of uint32 arrays under one constant pair."""
    value = (value ^ const) * next_const
    return value ^ (value >> 16)


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> 16)


_STATE_CONSTS = _const_chain(_INIT_B, _MULT_B, 2 * _POOL_WORDS)


def _absorb(pool: np.ndarray, word, c: np.ndarray) -> np.ndarray:
    """The (4, R) pool after mixing R values of the next entropy word into all four pool words."""
    return _mix(pool, _hashmix(word, c[:-1], c[1:]))


class _Seeded(np.random.bit_generator.ISeedSequence):
    """PCG64's four uint64 seed words, already derived, for numpy's own PCG64 seeding."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint64):
        return self.words


def substreams(seed: int, *key: int, reps) -> Iterator[np.random.Generator]:
    """For each r in `reps`, a new generator equal to `substream(seed, *key, r)`.

    numpy's SeedSequence mixes the prefix (seed, *key) into its pool once;
    the replicate index, the last entropy word (two from 2^32 on, refused
    from 2^64), is mixed in as a uint32 vector over all of `reps`, and each
    replicate's state words seed a PCG64 of its own.
    """
    # a spawn key is present, so SeedSequence pads the run entropy to the pool size
    prefix = _words(seed)
    prefix += [0] * (_POOL_WORDS - len(prefix)) + [w for k in key for w in _words(k)]
    pool = np.random.SeedSequence(np.array(prefix, dtype=np.uint32)).pool[:, None]
    # the pool took 4 hashmix calls per prefix word; 4 more absorb each replicate word
    A = _const_chain(_INIT_A * pow(_MULT_A, _POOL_WORDS * len(prefix), 1 << 32) & _MASK32,
                     _MULT_A, 2 * _POOL_WORDS)

    reps = np.asarray(reps)
    if reps.size == 0:
        return iter(())
    if reps.ndim != 1 or reps.dtype.kind not in "iu" or reps.min() < 0:
        raise ValueError("reps must be a sequence of nonnegative integers below 2^64")
    reps = reps.astype(np.uint64)
    high = (reps >> 32).astype(np.uint32)
    pool = _absorb(pool, (reps & _MASK32).astype(np.uint32), A[: _POOL_WORDS + 1])
    if high.any():
        pool = np.where(high > 0, _absorb(pool, high, A[_POOL_WORDS:]), pool)
    # SeedSequence.generate_state(4, np.uint64): the pool cycled twice, hashed
    state = _hashmix(np.concatenate((pool, pool)), _STATE_CONSTS[:-1], _STATE_CONSTS[1:])
    state = state.astype(np.uint64)
    state = np.ascontiguousarray((state[0::2] | state[1::2] << 32).T)  # one row per replicate
    return (np.random.Generator(np.random.PCG64(_Seeded(words))) for words in state)


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a (study, n, replicate, ...) coordinate.

    Its stream is that of numpy's `SeedSequence(seed, spawn_key=key)` feeding
    a PCG64, bit for bit.  The last key entry is the replicate index of
    `substreams`, which derives a whole block of these at once.
    """
    if not key:
        raise ValueError("substream needs at least one key entry")
    return next(substreams(seed, *key[:-1], reps=[int(key[-1])]))


def mean_se(x: np.ndarray) -> tuple[float, float]:
    """Mean of replicate values and its standard error (0.0 for one replicate)."""
    se = float(np.std(x, ddof=1) / math.sqrt(len(x))) if len(x) > 1 else 0.0
    return float(np.mean(x)), se


@lru_cache(maxsize=8)
def simpson_rule(a: float = 0.0, b: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (nodes, weights) of the composite Simpson rule on [a, b], SIMPSON_PANELS panels."""
    x = np.linspace(a, b, SIMPSON_PANELS + 1)
    w = np.ones(SIMPSON_PANELS + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (b - a) / (3.0 * SIMPSON_PANELS)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def simpson_integral(f, a: float = 0.0, b: float = 1.0) -> float:
    """Composite Simpson rule on SIMPSON_PANELS panels, summed by `row_dots`."""
    x, w = simpson_rule(a, b)
    return float(row_dots(w, f(x)))


def _bump(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


def mollifier(u) -> np.ndarray:
    """Bump kernel c * exp(-1/(1-u^2)) on |u| < 1, normalized to unit integral."""
    return _bump(u) / _mollifier_norm()


@lru_cache(maxsize=1)
def _mollifier_norm() -> float:
    return simpson_integral(_bump, -1.0, 1.0)


@lru_cache(maxsize=1)
def _mollifier_cdf_table() -> tuple[np.ndarray, np.ndarray]:
    """The nodes u of `simpson_rule(-1, 1)` and the mollifier's CDF at them.

    The CDF at u_k sums the Simpson panels y_i + 4 y_mid + y_i+1 of u's first k
    intervals; their factor h/6 cancels when the table is scaled to end at
    exactly 1, so the ramps of `mollifier_cdf` hit 0 and 1.  No panel is negative.
    """
    u, _ = simpson_rule(-1.0, 1.0)
    y = mollifier(u)
    panels = y[:-1] + 4.0 * mollifier((u[:-1] + u[1:]) / 2.0) + y[1:]
    cdf = np.concatenate(([0.0], np.cumsum(panels)))
    return u, cdf / cdf[-1]


def mollifier_cdf(t) -> np.ndarray:
    """int_{-1}^{min(t,1)} V(u) du, clamped to [0, 1] outside the support."""
    u, cdf = _mollifier_cdf_table()
    t = np.asarray(t, dtype=float)
    return np.interp(t, u, cdf, left=0.0, right=1.0)


@dataclass(frozen=True)
class ScaleModel:
    """Scale operator sigma_j(S) = g(x_j, S) with the derivative of g^2, on values.

    g2(x, s, norm_sq) is g^2(x, S) given s = S(x) and norm_sq = ||S||^2;
    frechet(x, s), required, gives the partials (a, b) = (dg^2/ds,
    2 dg^2/dnorm_sq), so g^2 responds to a direction f by a f(x) + b <S, f>.
    Arguments and results broadcast with a last axis over x: a (B, n) stack of
    draws passes norm_sq as (B, 1).  g2 must stay bounded away from zero on
    the function class in use; varsigma_exact, when given, is int g^2 as a
    function of ||S||^2.
    """

    g2: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    frechet: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    varsigma_exact: Optional[Callable[[float], float]] = None
    name: str = ""

    def g(self, x, S) -> np.ndarray:
        S = as_sampled(S)
        x = np.asarray(x, dtype=float)
        return np.sqrt(self.g2(x, S(x), S.l2_norm_sq()))

    def varsigma(self, S) -> float:
        """int g^2(x, S) dx, exact when the model provides it."""
        S = as_sampled(S)
        norm_sq = S.l2_norm_sq()
        if self.varsigma_exact is not None:
            return float(self.varsigma_exact(norm_sq))
        return simpson_integral(lambda x: self.g2(x, S(x), norm_sq))


def _check_finite(name: str, value) -> None:
    """Refuse a scale constant that is no finite real number (a boolean included)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"scale {name} must be a finite number, got {value!r}")


def econometric_scale(c0: float, c1: float = 0.0, c2: float = 0.0, c3: float = 0.0) -> ScaleModel:
    """g^2(x, S) = c0 + c1 x + c2 S(x)^2 + c3 ||S||^2 with c0 > 0.

    The Frechet derivative's partials are (2 c2 S(x), 2 c3), and
    varsigma(S) = c0 + c1/2 + (c2 + c3) ||S||^2 in closed form.
    """
    for name, value in (("c0", c0), ("c1", c1), ("c2", c2), ("c3", c3)):
        _check_finite(name, value)
    if c0 <= 0.0:
        raise ValueError(f"c0 must be positive, got {c0}")
    if min(c1, c2, c3) < 0.0:
        raise ValueError("scale constants must be nonnegative")

    def g2(x, s, norm_sq):
        return c0 + c1 * np.asarray(x, dtype=float) + c2 * s**2 + c3 * norm_sq

    return ScaleModel(g2=g2, frechet=lambda x, s: (2.0 * c2 * s, 2.0 * c3),
                      varsigma_exact=lambda norm_sq: c0 + 0.5 * c1 + (c2 + c3) * norm_sq,
                      name=f"econometric({c0},{c1},{c2},{c3})")


def homogeneous_scale(sigma: float = 1.0) -> ScaleModel:
    """Constant noise level: the econometric model with c0 = sigma^2 alone."""
    _check_finite("sigma", sigma)
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    _check_finite("sigma^2", sigma * sigma)  # float(sigma) ** 2 would raise OverflowError
    return replace(econometric_scale(float(sigma) ** 2), name=f"homogeneous({sigma})")


@dataclass(frozen=True)
class NoiseSpec:
    """Centered unit-variance noise with finite fourth moment.

    kinds: gaussian, rademacher, uniform, student_t (a finite df >= 5, so the
    fourth moment exists after normalizing to unit variance).
    """

    kind: str = "gaussian"
    df: int = 12

    KINDS = ("gaussian", "rademacher", "uniform", "student_t")

    def __post_init__(self):
        if not isinstance(self.kind, str):
            raise ValueError(f"noise kind must be a string, got {self.kind!r}")
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind == "student_t" and not (isinstance(self.df, (int, float)) and 5 <= self.df < math.inf):
            raise ValueError(f"student_t requires df >= 5, got {self.df!r}")

    def draw(self, rng: np.random.Generator, size, out: np.ndarray | None = None) -> np.ndarray:
        """`size` draws, written into `out` (of that size) when given: gaussian noise is
        drawn there in place, the other kinds are copied there, with the same bits."""
        if self.kind == "gaussian":  # numpy checks a size given beside `out` on every call
            return rng.standard_normal(size) if out is None else rng.standard_normal(out=out)
        if self.kind == "rademacher":
            xi = rng.integers(0, 2, size=size) * 2.0 - 1.0
        elif self.kind == "uniform":
            xi = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=size)
        else:
            xi = rng.standard_t(self.df, size=size) * math.sqrt((self.df - 2.0) / self.df)
        if out is None:
            return xi
        out[...] = xi
        return out

    @property
    def label(self) -> str:
        return f"student_t{self.df}" if self.kind == "student_t" else self.kind


def generate_observations(S, scale: ScaleModel, noise: NoiseSpec, grid: DesignGrid,
                          rng: np.random.Generator) -> np.ndarray:
    """y_j = S(x_j) + g(x_j, S) xi_j with xi i.i.d. from the noise spec."""
    S = as_sampled(S)
    xi = noise.draw(rng, grid.n)
    return S.on_grid(grid) + scale.g(grid.points, S) * xi


def smooth_cutoff(a: float, b: float) -> SampledFunction:
    """Infinitely smooth bump equal to 1 on [a, b] and to 0 near 0 and 1.

    Built as the indicator of [a/2, b/2 + 1/2] convolved with the bump
    kernel at bandwidth eta = min(a, 1-b)/4, which keeps the plateau exact.
    """
    if not (0.0 < a < b < 1.0):
        raise ValueError(f"need 0 < a < b < 1, got a={a}, b={b}")
    a1 = a / 2.0
    b1 = b / 2.0 + 0.5
    eta = min(a, 1.0 - b) / 4.0

    def chi(x):
        x = np.asarray(x, dtype=float)
        return mollifier_cdf((x - a1) / eta) - mollifier_cdf((x - b1) / eta)

    return SampledFunction(chi, name=f"cutoff[{a},{b}]")


def nonperiodic_transform(
    Y,
    scale: ScaleModel,
    chi: SampledFunction,
    epsilon: float,
    grid: DesignGrid,
    rng: np.random.Generator,
) -> tuple[np.ndarray, ScaleModel]:
    """Taper the observations and regularize the noise floor.

    Returns y_j chi(x_j) + epsilon zeta_j with fresh standard Gaussian zeta,
    plus the induced scale model g~(x,S) = sqrt(g^2(x,S) chi^2(x) + eps^2),
    whose effective noise keeps zero mean and unit variance.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    Y = np.asarray(Y, dtype=float)
    if Y.shape != (grid.n,):
        raise ValueError(f"observation vector must have length n={grid.n}")
    zeta = rng.standard_normal(grid.n)
    Y_t = Y * chi.on_grid(grid) + epsilon * zeta

    eps2 = float(epsilon) ** 2

    def g2_t(x, s, norm_sq):
        return scale.g2(x, s, norm_sq) * chi(x) ** 2 + eps2

    def frechet_t(x, s):
        chi2 = chi(x) ** 2
        return tuple(p * chi2 for p in scale.frechet(x, s))

    tilted = ScaleModel(g2=g2_t, frechet=frechet_t, name=f"{scale.name}*chi+eps({epsilon})")
    return Y_t, tilted
