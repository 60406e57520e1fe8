"""Heteroscedastic data generation: scale operators, noise menu, smooth cutoff.

Scale models carry g^2 together with its Frechet derivative and, when
available, the exact integrated scale varsigma(S) = int g^2(x, S) dx.  Every
model here needs S only through S(x), ||S||^2 and <S, f>, so g^2 and the
derivative take those values, for one S or for a whole stack of draws at once;
only `ScaleModel.g` and `ScaleModel.varsigma` take the function S.
Integrals of general functions use one composite Simpson rule on 2^14 + 1
fixed points (`simpson_rule`), which keeps every numeric result
deterministic; its weighted sum is `serial_dot`, taken in the calling thread
with the same bits whatever OpenBLAS's thread count.  Where the integrand is
known in closed form the package uses exact algebra instead: Parseval for
trigonometric series and, for the step-extension loss, the cell integrals of a
trigonometric polynomial (`theory.cell_integrals`; 10-node Gauss per design
cell for other functions).  The lower-bound kernel family, smooth and periodic
on [0, 1], takes its Gram and cross matrices from an equal-weight rule
(`lowerbound._family_integrals`).

Every Monte Carlo draw comes from a keyed substream: `substream(seed, *key)`
is the generator that numpy's `SeedSequence(seed, spawn_key=key)` seeds for a
PCG64, bit for bit.  That seeding is plain integer arithmetic (SeedSequence's
documented uint32 hash mixing, then PCG64's srandom step, O'Neill 2014), so
`substreams(seed, *key, reps=...)` derives the states of a whole block of
replicate keys at once and sets them on one reused generator; numpy's
SeedSequence itself serves only as the reference of the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Optional

import numpy as np

from .basis import DesignGrid, SampledFunction, as_sampled, serial_dot

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
    "l_star",
    "econometric_scale",
    "homogeneous_scale",
    "generate_observations",
    "smooth_cutoff",
    "nonperiodic_transform",
]

SIMPSON_PANELS = 2**14  # fixed (even) panel count for every quadrature in the package


# SeedSequence's hash mixing (numpy, bit_generator.pyx) and PCG64's seeding
# (O'Neill 2014, pcg_setseq_128_srandom_r), as plain integer arithmetic
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


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


def _const_chain(const: int, mult: int, count: int) -> list[int]:
    """The hash constant before each of `count` hashmix calls, and after the last."""
    chain = [const]
    for _ in range(count):
        chain.append(chain[-1] * mult & _MASK32)
    return chain


def _hashmix(value, const, next_const):
    """SeedSequence's hashmix of uint32 words (ints or uint32 arrays) under one constant pair."""
    value = (value ^ const) * next_const & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    r = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return r ^ (r >> 16)


_STATE_CONSTS = np.array(_const_chain(_INIT_B, _MULT_B, 2 * _POOL_WORDS), dtype=np.uint32)[:, None]


def _absorb(pool: np.ndarray, word, consts: list[int]) -> np.ndarray:
    """The (4, R) pool after mixing R values of the next entropy word into all four pool words."""
    c = np.array(consts, dtype=np.uint32)[:, None]
    return _mix(pool, _hashmix(word, c[:-1], c[1:]))


def substreams(seed: int, *key: int, reps) -> Iterator[np.random.Generator]:
    """For each r in `reps`, the generator of `substream(seed, *key, r)`.

    The prefix (seed, *key) is mixed into the SeedSequence pool once, in
    scalar arithmetic; the replicate index, the last entropy word (two from
    2^32 on, refused from 2^64), is mixed in as a uint32 vector over all of
    `reps`.  Each replicate's PCG64 state is then set on one reused
    Generator, so a yielded generator is valid until the next one is yielded.
    """
    seed_words = _words(seed)
    # a spawn key is present, so SeedSequence pads the run entropy to the pool size
    entropy = seed_words + [0] * (_POOL_WORDS - len(seed_words)) + [w for k in key for w in _words(k)]
    # 16 hashmix calls fill and cross-mix the pool, 4 absorb each later word
    A = _const_chain(_INIT_A, _MULT_A, _POOL_WORDS * (len(entropy) + 2))
    pool = [_hashmix(w, A[i], A[i + 1]) for i, w in enumerate(entropy[:_POOL_WORDS])]
    i = _POOL_WORDS
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], A[i], A[i + 1]))
                i += 1
    for word in entropy[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = _mix(pool[dst], _hashmix(word, A[i], A[i + 1]))
            i += 1

    reps = np.asarray(reps)
    if reps.size == 0:
        return iter(())
    if reps.ndim != 1 or reps.dtype.kind not in "iu" or reps.min() < 0:
        raise ValueError("reps must be a sequence of nonnegative integers below 2^64")
    reps = reps.astype(np.uint64)
    high = (reps >> 32).astype(np.uint32)
    pool = _absorb(np.array(pool, dtype=np.uint32)[:, None], (reps & _MASK32).astype(np.uint32),
                   A[i : i + _POOL_WORDS + 1])
    if high.any():
        i += _POOL_WORDS
        pool = np.where(high > 0, _absorb(pool, high, A[i : i + _POOL_WORDS + 1]), pool)

    # SeedSequence.generate_state(4, np.uint64): the pool cycled twice, hashed
    state = _hashmix(np.concatenate((pool, pool)), _STATE_CONSTS[:-1], _STATE_CONSTS[1:])
    state = state.astype(np.uint64)
    return _replay(zip(*(state[0::2] | state[1::2] << 32).tolist()))


def _replay(seeds) -> Iterator[np.random.Generator]:
    """PCG64's srandom on each 128-bit (state, stream) seed pair, set on one Generator."""
    bitgen = np.random.PCG64()
    rng = np.random.Generator(bitgen)
    for s_hi, s_lo, i_hi, i_lo in seeds:
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        yield rng


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a (study, n, replicate, ...) coordinate.

    Its stream is that of numpy's `SeedSequence(seed, spawn_key=key)` feeding
    a PCG64, so replicate r sees the same stream whether the run is serial
    or split across workers.  The last key entry is the replicate index of
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
    """Composite Simpson rule on SIMPSON_PANELS panels, summed by `serial_dot`."""
    x, w = simpson_rule(a, b)
    return float(serial_dot(w, np.asarray(f(x), dtype=float)))


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


def _simpson_pieces(y: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """For every i, int over [x_i, x_{i+1}] of the parabola through x_i, x_{i+1}, x_{i+2}
    (Cartwright, J. Math. Sci. Math. Educ. 12(2), eq. (8))."""
    x21, x32 = dx[:-1], dx[1:]
    x21_x31 = x21 / (x21 + x32)
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    return x21 / 6 * ((3 - x21_x31) * y[:-2] + (3 + x21x21_x31x32 + x21_x31) * y[1:-1]
                      + -x21x21_x31x32 * y[2:])


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """int_{x_0}^{x_i} of the samples y, for every i (at least three nodes).

    Interval i takes the parabola through nodes i, i+1, i+2 when i is even and
    through i-1, i, i+1 when i is odd, as does the last interval: SciPy's
    `integrate.cumulative_simpson(y, x=x, initial=0.0)`, bit for bit.
    """
    dx = np.diff(x)
    left = _simpson_pieces(y[::-1], dx[::-1])[::-1]  # each interval from the parabola on its left
    pieces = np.empty(len(dx))
    pieces[:-1:2] = _simpson_pieces(y, dx)[::2]
    pieces[1::2] = left[::2]
    pieces[-1] = left[-1]
    return np.concatenate(([0.0], np.cumsum(pieces)))


@lru_cache(maxsize=1)
def _mollifier_cdf_table() -> tuple[np.ndarray, np.ndarray]:
    """The Simpson nodes u on [-1, 1] and the mollifier's CDF at them.

    The CDF is the cumulative Simpson integral of the samples (SciPy's
    `cumulative_simpson` rule, bit for bit), scaled to end at exactly 1 so
    that the ramps of `mollifier_cdf` hit 0 and 1.
    """
    u, _ = simpson_rule(-1.0, 1.0)
    cdf = _cumulative_simpson(mollifier(u), u)
    cdf /= cdf[-1]
    return u, cdf


def mollifier_cdf(t) -> np.ndarray:
    """int_{-1}^{min(t,1)} V(u) du, clamped to [0, 1] outside the support."""
    u, cdf = _mollifier_cdf_table()
    t = np.asarray(t, dtype=float)
    return np.interp(t, u, cdf, left=0.0, right=1.0)


@dataclass(frozen=True)
class ScaleModel:
    """Scale operator sigma_j(S) = g(x_j, S) with the derivative of g^2, on values.

    g2(x, s, norm_sq) is g^2(x, S) given s = S(x) and norm_sq = ||S||^2;
    frechet(x, s, f, cross) is the linear response of g^2 at S in the
    direction f, given f(x) and cross = <S, f>.  The arguments broadcast as
    arrays whose last axis runs over x, so a (B, n) stack of draws passes
    norm_sq as (B, 1) and gets its B rows of g^2 in one call.  g2 must stay
    bounded away from zero on the function class in use; varsigma_exact, when
    given, is int g^2 as a function of ||S||^2.
    """

    g2: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    frechet: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = None
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


def econometric_scale(c0: float, c1: float = 0.0, c2: float = 0.0, c3: float = 0.0) -> ScaleModel:
    """g^2(x, S) = c0 + c1 x + c2 S(x)^2 + c3 ||S||^2 with c0 > 0.

    The Frechet derivative is 2 c2 S(x) f(x) + 2 c3 int S f, and
    varsigma(S) = c0 + c1/2 + (c2 + c3) ||S||^2 in closed form.
    """
    if c0 <= 0.0:
        raise ValueError(f"c0 must be positive, got {c0}")
    if min(c1, c2, c3) < 0.0:
        raise ValueError("scale constants must be nonnegative")

    def g2(x, s, norm_sq):
        return c0 + c1 * np.asarray(x, dtype=float) + c2 * s**2 + c3 * norm_sq

    def frechet(x, s, f, cross):
        return 2.0 * c2 * s * f + 2.0 * c3 * cross

    return ScaleModel(g2=g2, frechet=frechet,
                      varsigma_exact=lambda norm_sq: c0 + 0.5 * c1 + (c2 + c3) * norm_sq,
                      name=f"econometric({c0},{c1},{c2},{c3})")


def homogeneous_scale(sigma: float = 1.0) -> ScaleModel:
    """Constant noise level; the Frechet derivative vanishes identically."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    s2 = float(sigma) ** 2
    return ScaleModel(
        g2=lambda x, s, norm_sq: np.full(np.broadcast(x, s, norm_sq).shape, s2),
        frechet=lambda x, s, f, cross: np.zeros(np.broadcast(x, s, f, cross).shape),
        varsigma_exact=lambda norm_sq: s2,
        name=f"homogeneous({sigma})",
    )


@dataclass(frozen=True)
class NoiseSpec:
    """Centered unit-variance noise with finite fourth moment.

    kinds: gaussian, rademacher, uniform, student_t (df >= 5 so the fourth
    moment exists after normalizing to unit variance).
    """

    kind: str = "gaussian"
    df: int = 12

    KINDS = ("gaussian", "rademacher", "uniform", "student_t")

    def __post_init__(self):
        if not isinstance(self.kind, str):
            raise ValueError(f"noise kind must be a string, got {self.kind!r}")
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind == "student_t" and not (isinstance(self.df, (int, float)) and self.df >= 5):
            raise ValueError(f"student_t requires df >= 5, got {self.df!r}")

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.kind == "gaussian":
            return rng.standard_normal(size)
        if self.kind == "rademacher":
            return rng.integers(0, 2, size=size) * 2.0 - 1.0
        if self.kind == "uniform":
            return rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=size)
        return rng.standard_t(self.df, size=size) * math.sqrt((self.df - 2.0) / self.df)

    def fourth_moment(self) -> float:
        if self.kind == "gaussian":
            return 3.0
        if self.kind == "rademacher":
            return 1.0
        if self.kind == "uniform":
            return 9.0 / 5.0
        return 3.0 + 6.0 / (self.df - 4.0)

    @property
    def label(self) -> str:
        return f"student_t{self.df}" if self.kind == "student_t" else self.kind


def l_star(n: int) -> float:
    """Admissible fourth-moment level: slowly increasing, at least 3."""
    return max(3.0, math.log(n))


def generate_observations(S, scale: ScaleModel, noise: NoiseSpec, grid: DesignGrid, rng) -> np.ndarray:
    """y_j = S(x_j) + g(x_j, S) xi_j with xi i.i.d. from the noise spec."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
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
    rng,
) -> tuple[np.ndarray, ScaleModel]:
    """Taper the observations and regularize the noise floor.

    Returns y_j chi(x_j) + epsilon zeta_j with fresh standard Gaussian zeta,
    plus the induced scale model g~(x,S) = sqrt(g^2(x,S) chi^2(x) + eps^2),
    whose effective noise keeps zero mean and unit variance.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    Y = np.asarray(Y, dtype=float)
    if Y.shape != (grid.n,):
        raise ValueError(f"observation vector must have length n={grid.n}")
    zeta = rng.standard_normal(grid.n)
    Y_t = Y * chi.on_grid(grid) + epsilon * zeta

    eps2 = float(epsilon) ** 2

    def g2_t(x, s, norm_sq):
        return scale.g2(x, s, norm_sq) * chi(x) ** 2 + eps2

    def frechet_t(x, s, f, cross):
        if scale.frechet is None:
            raise ValueError("base scale model has no Frechet derivative")
        return scale.frechet(x, s, f, cross) * chi(x) ** 2

    tilted = ScaleModel(g2=g2_t, frechet=frechet_t, name=f"{scale.name}*chi+eps({epsilon})")
    return Y_t, tilted
