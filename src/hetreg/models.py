"""Heteroscedastic data generation: scale operators, noise menu, smooth cutoff.

Scale models carry g^2 together with its Frechet derivative and, when
available, the exact integrated scale varsigma(S) = int g^2(x, S) dx.  Every
model here needs S only through S(x), ||S||^2 and <S, f>, so g^2 and the
derivative take those values, for one S or for a whole stack of draws at once;
only `ScaleModel.g` and `ScaleModel.varsigma` take the function S.
Integrals of general functions use one composite Simpson rule on 2^14 + 1
fixed points (`simpson_rule`), which keeps every numeric result
deterministic.  Where the integrand is known in closed form the package uses
exact algebra instead: Parseval for trigonometric series, the Gram matrix of
the lower-bound kernel family, and 10-node Gauss per design cell for the
step-extension loss (`theory.cell_integrals`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .basis import DesignGrid, SampledFunction, as_sampled

__all__ = [
    "SIMPSON_PANELS",
    "substream",
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

SIMPSON_PANELS = 2**14  # fixed panel count for every quadrature in the package


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a (study, n, replicate, ...) coordinate.

    Built on SeedSequence spawn keys, so replicate r sees the same stream
    whether the run is serial or split across workers.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key)))


@lru_cache(maxsize=8)
def simpson_rule(a: float = 0.0, b: float = 1.0, panels: int = SIMPSON_PANELS) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (nodes, weights) of the composite Simpson rule on [a, b]."""
    if panels % 2:
        raise ValueError("panel count must be even")
    x = np.linspace(a, b, panels + 1)
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (b - a) / (3.0 * panels)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def simpson_integral(f, a: float = 0.0, b: float = 1.0, panels: int = SIMPSON_PANELS) -> float:
    """Composite Simpson rule with an even, fixed number of panels."""
    x, w = simpson_rule(a, b, panels)
    return float(w @ np.asarray(f(x), dtype=float))


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
    from scipy.integrate import cumulative_simpson

    u, _ = simpson_rule(-1.0, 1.0)
    cdf = cumulative_simpson(mollifier(u), x=u, initial=0.0)
    cdf /= cdf[-1]  # unit mass exactly, so ramps hit 0 and 1
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
    _ALIASES = {"uniform_normalized": "uniform", "student_t_normalized": "student_t"}

    def __post_init__(self):
        object.__setattr__(self, "kind", self._ALIASES.get(self.kind, self.kind))
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind == "student_t" and self.df < 5:
            raise ValueError("student_t requires df >= 5")

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
