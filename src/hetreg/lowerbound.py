"""Minimax lower-bound machinery: local kernel family, least favorable prior,
van Trees-type bound and Monte Carlo Bayes risk.

M = [1/(2h)] - 1 blocks of width 2h, centred at 2mh, each carry a mollified local
trigonometric expansion; they cover only M 2h of [0, 1] (0.62 to 0.80 on S3 for
n = 101 to 100001).  An independent centered Gaussian prior over the coefficients
turns the minimax problem into a Bayesian one that van Trees bounds from below
(Gill & Levit, Bernoulli 1995).  The bound is exact and draws nothing: its
Gaussian expectations of g^-2 and g^-4 are closed forms under a fixed
Gauss-Laguerre rule.
The Monte Carlo Bayes risk observes its cell, one n, by `selection.observe_cell`
and scores it by `selection.score_cell`, as the studies do, with no FFT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.laguerre import laggauss

from .basis import BLOCK_ENTRIES, DesignGrid, basis_eval_matrix, grid_values, pack_spectrum, row_dots, serial_matmul
from .models import NoiseSpec, ScaleModel, mean_se, mollifier_cdf, simpson_integral, substreams
from .selection import observe_cell, score_cell
from .theory import pinsker_constant
from .weights import TuningSequences, weight_family

# substream is unused here but stays importable from this module:
# bench/tracing.py patches it at this lookup site.
from .models import substream  # noqa: F401

__all__ = [
    "mollified_indicator",
    "local_basis",
    "KernelFamily",
    "kernel_function",
    "ebar",
    "lagrange_solution",
    "LeastFavorablePrior",
    "least_favorable_prior",
    "ConditionsReport",
    "check_conditions_A",
    "van_trees_term",
    "VanTreesReport",
    "van_trees_bound",
    "prior_van_trees_bound",
    "prior_expected_norm_sq",
    "lower_bound_target",
    "BAYES_ESTIMATORS",
    "bayes_risk_mc",
]

BAYES_ESTIMATORS = ("zero", "projection", "adaptive")


def mollified_indicator(eta: float, x) -> np.ndarray:
    """chi_eta: 1 on |x| <= 1-2 eta, 0 on |x| >= 1, smooth monotone ramps between."""
    if not (0.0 < eta < 0.5):
        raise ValueError(f"eta must lie in (0, 1/2), got {eta}")
    x = np.asarray(x, dtype=float)
    upper = (1.0 - eta - x) / eta
    lower = (-1.0 + eta - x) / eta
    return mollifier_cdf(upper) - mollifier_cdf(lower)


def local_basis(j: int, x) -> np.ndarray:
    """Orthonormal trigonometric basis of L2[-1,1]: e_1 = 1/sqrt(2), then
    cos(pi [j/2] x) for even j and sin(pi [j/2] x) for odd j."""
    if j < 1:
        raise ValueError(f"basis index must be >= 1, got {j}")
    x = np.asarray(x, dtype=float)
    if j == 1:
        return np.full_like(x, 1.0 / math.sqrt(2.0))
    arg = math.pi * (j // 2) * x
    return np.cos(arg) if j % 2 == 0 else np.sin(arg)


@dataclass(frozen=True)
class KernelFamily:
    """Geometry of the block-local expansion."""

    h: float
    N: int
    eta: float
    M: int = field(init=False)
    centers: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.h <= 0.0 or self.N < 1:
            raise ValueError("need h > 0 and N >= 1")
        M = self.block_count(self.h)
        if M < 1:
            raise ValueError(f"half-width h={self.h:.4g} leaves no interior block")
        object.__setattr__(self, "M", M)
        centers = 2.0 * self.h * np.arange(1, M + 1, dtype=float)
        centers.flags.writeable = False
        object.__setattr__(self, "centers", centers)

    @staticmethod
    def block_count(h: float) -> int:  # M = [1/(2h)] - 1 blocks of width 2h, centred at 2mh
        return int(1.0 / (2.0 * h)) - 1

    def local_coord(self, m: int, x) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.centers[m - 1]) / self.h

    def block(self, m: int, x) -> np.ndarray:
        """(N, len(x)) values of D_{m,j}(x) = e_j(v_m(x)) chi_eta(v_m(x)), j = 1..N,
        each supported on block m."""
        v = self.local_coord(m, x)
        out = np.zeros((self.N, len(v)))
        inside = np.abs(v) < 1.0
        if np.any(inside):
            vi = v[inside]
            chi = mollified_indicator(self.eta, vi)
            for j in range(1, self.N + 1):
                out[j - 1, inside] = local_basis(j, vi) * chi
        return out

    def design_tensor(self, x) -> np.ndarray:
        """(M, N, len(x)) values of every D_{m,j} at the points x."""
        x = np.asarray(x, dtype=float)
        return np.stack([self.block(m, x) for m in range(1, self.M + 1)])


def kernel_function(z, family: KernelFamily, x):
    """S_z(x) = sum_{m,j} z_{m,j} D_{m,j}(x); at most one block covers any x."""
    z = np.asarray(z, dtype=float)
    if z.shape != (family.M, family.N):
        raise ValueError(f"coefficient array must be {family.M} x {family.N}")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xf = np.atleast_1d(x).astype(float)
    tensor = family.design_tensor(xf)
    out = np.einsum("mj,mjx->x", z, tensor)
    return float(out[0]) if scalar else out.reshape(np.atleast_1d(x).shape)


@lru_cache(maxsize=32)
def ebar(j: int, eta: float) -> float:
    """int_{-1}^{1} e_j^2 chi_eta."""
    return simpson_integral(lambda v: local_basis(j, v) ** 2 * mollified_indicator(eta, v),
                            -1.0, 1.0)


def lagrange_solution(R: float, N: int, k: int) -> np.ndarray:
    """y*_j = a* j^-k - 1, with water level a*(R), maximizing sum y/(1+y)
    under sum y_j j^(2k) <= R (the constraint is active at the optimum)."""
    j = np.arange(1, N + 1, dtype=float)
    a_star = (R + np.sum(j ** (2 * k))) / np.sum(j**k)
    return a_star * j ** (-float(k)) - 1.0


@dataclass(frozen=True)
class LeastFavorablePrior:
    """Gaussian prior theta_{m,j} = t_{m,j} zeta_{m,j} over the kernel family."""

    family: KernelFamily
    k: int
    r: float
    eps: float
    n: int
    t: np.ndarray            # (M, N) standard deviations
    y_star: np.ndarray       # (N,)
    R_star: float
    h_star: float
    d_n: float
    dropped_j: tuple
    g0_centers: np.ndarray
    varsigma_zero: float     # int g0^2

    @property
    def t_star(self) -> float:
        """max_m sum_j t_{m,j}, the uniform-size coefficient."""
        return float(np.max(np.sum(self.t, axis=1)))

    @property
    def eps_prime(self) -> float:
        return self.eps / (2.0 * self.k + self.eps * self.k + 1.0)

    @cached_property
    def family_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(D, G, C) at the prior's own n, built on first use: D (P, n) the kernel
        family on the design, and from `_family_integrals` its Gram matrix G (P, P)
        and its cross matrix C (n, P) with phi_1..phi_n.  An even n has no design
        and is refused here, with `DesignGrid`'s message."""
        grid = DesignGrid(self.n)
        fam = self.family
        D = fam.design_tensor(grid.points).reshape(fam.M * fam.N, self.n)
        return (D, *_family_integrals(fam, self.n))


def _default_N(k: int, n: int) -> int:
    # the canonical [ln^4 n] + 1 choice is infeasible until astronomically
    # large n (h_n would exceed 1); the desk-scale cap keeps N = o(n^(1/(2k+1)))
    # so that h_n -> 0, and becomes inactive for very large n.
    canonical = int(math.log(n) ** 4) + 1
    cap = max(1, int(1.5 * n ** (1.0 / (2.0 * k + 1.0)) / math.log(n)))
    return min(canonical, cap)


def least_favorable_prior(
    k: int,
    r: float,
    n: int,
    eps: float = 0.2,
    g0: Callable[[np.ndarray], np.ndarray] | None = None,
    eta: float = 0.05,
) -> LeastFavorablePrior:
    """Construct the maximizing prior for sample size n.

    Frequencies whose optimal weight y*_j would be negative (a finite-n
    effect) are dropped from the top, re-solving the constrained problem on
    the retained set, which keeps the Lagrange structure intact.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    if k < 1 or r <= 0.0 or n < 3:
        raise ValueError("need k >= 1, r > 0, n >= 3")
    if g0 is None:
        g0 = lambda x: np.ones_like(np.asarray(x, dtype=float))
    varsigma_zero = simpson_integral(lambda x: np.asarray(g0(x), dtype=float) ** 2)
    two_k1 = 2.0 * k + 1.0
    c_eps = 2.0**two_k1 * (1.0 - eps) * r / (math.pi ** (2 * k) * varsigma_zero)
    upsilon = (1.0 + eps) * k / (c_eps * (k + 1.0) * two_k1)
    h_star = upsilon ** (1.0 / two_k1)

    N = _default_N(k, n)
    while N >= 1:
        h = h_star * n ** (-1.0 / two_k1) * N
        if KernelFamily.block_count(h) >= 1:
            break
        N -= 1
    if N < 1:
        raise ValueError(f"no admissible block geometry at n={n}; increase n")

    family = KernelFamily(h=h, N=N, eta=eta)
    g0_centers = np.asarray(g0(family.centers), dtype=float)
    ghat0 = 2.0 * h * float(np.sum(g0_centers**2))
    R_star = 2.0**two_k1 * (1.0 - eps) * r * n * h**two_k1 / (math.pi ** (2 * k) * ghat0)

    # drop top frequencies whose weight would be negative, re-solving each time
    N_ret = N
    while N_ret >= 1:
        y_star = lagrange_solution(R_star, N_ret, k)
        if y_star[-1] >= 0.0:
            break
        N_ret -= 1
    if N_ret < 1:
        raise ValueError(f"prior weights all negative at n={n}")
    if N_ret < N:
        family = KernelFamily(h=h, N=N_ret, eta=eta)

    t = np.outer(g0_centers, np.sqrt(y_star)) / math.sqrt(n * h)
    return LeastFavorablePrior(
        family=family, k=k, r=r, eps=eps, n=n, t=t,
        y_star=y_star, R_star=R_star, h_star=h_star,
        d_n=math.sqrt(N), dropped_j=tuple(range(N_ret + 1, N + 1)),
        g0_centers=g0_centers, varsigma_zero=varsigma_zero,
    )


EPS0 = 0.5  # the eps0 > 0 of condition A4's exponent


class ConditionsReport(NamedTuple):
    n: int
    N: int
    M: int
    h: float
    a2_sum: float    # (d_n / h^(2k-1)) sum t^2 j^(2(k-1))
    a2_peak: float   # sqrt(d_n) t*
    a3_sum: float    # (1 / h^(2k-1)) sum t^2 j^(2k)
    a3_target: float  # (1 - eps) r (2/pi)^(2k)
    a4_sum: float    # (1 / h^(4k-2+eps0)) sum t^4 j^(4k)
    positivity_ok: bool


def check_conditions_A(prior: LeastFavorablePrior) -> ConditionsReport:
    """Numeric values of the prior-size conditions at the prior's own n."""
    k, h = prior.k, prior.family.h
    j = np.arange(1, prior.family.N + 1, dtype=float)
    t2 = prior.t**2
    a2_sum = prior.d_n / h ** (2 * k - 1) * float(np.sum(t2 * j ** (2 * (k - 1))))
    a3_sum = 1.0 / h ** (2 * k - 1) * float(np.sum(t2 * j ** (2 * k)))
    a4_sum = 1.0 / h ** (4 * k - 2 + EPS0) * float(np.sum(prior.t**4 * j ** (4 * k)))
    a3_target = (1.0 - prior.eps) * prior.r * (2.0 / math.pi) ** (2 * k)
    return ConditionsReport(
        n=prior.n, N=prior.family.N, M=prior.family.M, h=h,
        a2_sum=a2_sum, a2_peak=math.sqrt(prior.d_n) * prior.t_star,
        a3_sum=a3_sum, a3_target=a3_target, a4_sum=a4_sum,
        positivity_ok=bool(np.all(prior.y_star >= 0.0)),
    )


def _check_prior_sd(prior_sd) -> None:
    if np.any(np.asarray(prior_sd) <= 0.0):
        raise ValueError("prior standard deviation must be positive")


def van_trees_term(tau_bar, fisher, bias, prior_sd):
    """The bound's coordinates tau_bar^2 / (F + B + t^-2), for scalars or arrays."""
    _check_prior_sd(prior_sd)
    return tau_bar**2 / (fisher + bias + prior_sd**-2.0)


class VanTreesReport(NamedTuple):
    bound: float
    fisher: np.ndarray   # F_p, per coordinate
    bias: np.ndarray     # B_p, per coordinate


LAGUERRE_NODES = 24  # Gauss-Laguerre nodes of the bound's u integrals; 48 move no term by 1e-12
ONE_GROUP = 8  # up to this many directions the bound takes them as one group


@lru_cache(maxsize=2)
def _laguerre_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    return laggauss(nodes)


def _direction_groups(D, gram) -> tuple[list[np.ndarray], np.ndarray]:
    """The directions in groups, no two of them coupled by G or met by one design point,
    and each point's group (group 0 for a point that meets none): the connected
    components of "G couples them or a point meets both", or one group up to ONE_GROUP
    directions, where a group's loop would cost more than it saves."""
    P, n = D.shape
    if P <= ONE_GROUP:
        return [np.arange(P)], np.zeros(n, dtype=int)
    met = (D != 0).astype(float)
    linked = ((gram != 0) | (met @ met.T > 0) | np.eye(P, dtype=bool)).astype(float)
    for _ in range(P.bit_length()):  # squaring closes it over paths of up to 2^P.bit_length() links
        linked = (linked @ linked > 0).astype(float)
    label = np.argmax(linked, axis=1)  # the first direction of each one's component
    first = np.unique(label)
    return [np.flatnonzero(label == f) for f in first], np.searchsorted(first, label[np.argmax(met, axis=0)])


def _scale_coefficients(scale: ScaleModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(alpha, beta, gamma) on x with g^2 = alpha + beta S(x)^2 + gamma ||S||^2, read from
    g2(x, 0, 0) and frechet's partials at s = 1 and 0; a scale whose g2(x, 2, 3) is not
    alpha + 4 beta + 3 gamma to 1e-12, or with alpha <= 0 or beta, gamma < 0, is refused."""
    ones = np.ones_like(x)
    alpha, beta, gamma = (np.asarray(c, dtype=float) * ones for c in (
        scale.g2(x, 0.0, 0.0), scale.frechet(x, 1.0)[0] / 2.0, scale.frechet(x, 0.0)[1] / 2.0))
    probe = np.asarray(scale.g2(x, 2.0, 3.0), dtype=float)
    if not np.all((np.abs(probe - (alpha + 4.0 * beta + 3.0 * gamma)) <= 1e-12 * np.abs(probe))
                  & (alpha > 0.0) & (beta >= 0.0) & (gamma >= 0.0)):
        raise ValueError(f"scale {scale.name!r} is not g^2 = alpha + beta S(x)^2 + gamma ||S||^2 "
                         "with alpha > 0 and beta, gamma >= 0")
    return alpha, beta, gamma


def van_trees_bound(D, gram, tau_bar, prior_sd, scale: ScaleModel, grid: DesignGrid) -> VanTreesReport:
    """Bayes-risk lower bound for the linear family S_z = sum_p z_p f_p with independent
    centered Gaussian prior z ~ N(0, Sigma), Sigma = diag(prior_sd^2), in closed form.

    D (P, n) holds the directions f_p on the design and `gram` (P, P) their L2 Gram
    matrix G.  With g^2 = alpha + beta s^2 + gamma z'Gz and s = d_x'z at x
    (`_scale_coefficients`), F_p = sum_x D_p^2 E g^-2 and B_p = sum_x E L_p^2 / (2 g^4),
    L_p = 2 beta s D_p + 2 gamma (Gz)_p the response of g^2 in direction f_p.  Write
    g^-2 = int_0^inf e^(-u g^2) du and g^-4 = int_0^inf u e^(-u g^2) du, diagonalise
    Sigma^1/2 G Sigma^1/2 = U Lambda U', and let v = U' Sigma^1/2 d_x, E = Sigma^-1/2 U,
    rho_i = 1 / (1 + 2 u gamma lambda_i), kappa = sum_i v_i^2 rho_i and d = 1 + 2 u beta kappa.
    Then E e^(-u g^2) = e^(-u alpha) (prod_i rho_i / d)^(1/2), and under the Gaussian it
    tilts to, s^2, s (Gz)_p and (Gz)_p^2 have the means kappa / d, (E Lambda rho v)_p / d and
    (E Lambda^2 rho E')_pp - 2 u beta (E Lambda rho v)_p^2 / d (Mathai & Provost 1992, ch. 3).
    The u integrals are a LAGUERRE_NODES-point Gauss-Laguerre sum in y = u alpha; with
    the prior's load L = max_x (beta E s^2 + gamma E ||S||^2) / alpha, it holds F_p and
    B_p to about 1e-13 at the least favorable priors (L <= 0.02), to 4e-9 at L = 0.33
    and to 6e-4 at L = 2.6.  The work runs group by group (`_direction_groups`): U is
    block diagonal over the groups, so a point's v and (E Lambda rho v) live in its own
    group's directions, and only the determinant and (E Lambda^2 rho E')_pp take every
    eigenvalue.  A group's points run in slabs of BLOCK_ENTRIES // (nodes P); every
    product is a `serial_matmul` aligned at the slab's first point or a `row_dots`, node
    and direction sums run in order, and the sums over x wait for the last slab, so the
    bits follow neither the slab nor the BLAS thread count.
    """
    D = np.asarray(D, dtype=float)
    gram = np.asarray(gram, dtype=float)
    tau_bar = np.asarray(tau_bar, dtype=float)
    prior_sd = np.asarray(prior_sd, dtype=float)
    P, n = len(D), grid.n
    if D.shape != (P, n) or gram.shape != (P, P):
        raise ValueError(f"need design values (P, {n}) and a (P, P) Gram matrix, "
                         f"got {D.shape} and {gram.shape}")
    if tau_bar.shape != (P,) or prior_sd.shape != (P,):
        raise ValueError("tau_bar and prior_sd must match the number of directions")
    _check_prior_sd(prior_sd)
    alpha, beta, gamma = _scale_coefficients(scale, grid.points)
    y, w = _laguerre_rule(LAGUERRE_NODES)
    y, w, wy = y[:, None], w[:, None], (w * y)[:, None]
    # directions and points in group order, so that each group is a block of rows and of columns
    groups, owner = _direction_groups(D, gram)
    dirs, pts = np.concatenate(groups), np.argsort(owner, kind="stable")
    Dg, sd, alpha, beta, gamma = D[dirs][:, pts], prior_sd[dirs], alpha[pts], beta[pts], gamma[pts]
    rows = [0, *accumulate(len(J) for J in groups)]
    cols = np.searchsorted(owner[pts], np.arange(len(groups) + 1))
    # Sigma^1/2 G Sigma^1/2 = U Lambda U' group by group; lam holds every group's eigenvalues,
    # EL each group's E Lambda and EL2 all of E^2 Lambda^2, as right factors
    eig = [np.linalg.eigh(sd[i:j, None] * gram[J][:, J] * sd[i:j]) for J, i, j in zip(groups, rows, rows[1:])]
    lam = np.concatenate([val for val, _ in eig])
    EL = [(U / sd[i:j, None] * val).T for (val, U), i, j in zip(eig, rows, rows[1:])]
    EL2 = np.zeros((P, P))
    for M, i, j in zip(EL, rows, rows[1:]):
        EL2[i:j, i:j] = M * M
    # terms[:P] sum to F_p and terms[P:] to B_p over x.  numpy adds a (nodes, P, s) slab over
    # nodes or directions in order when its last axis has >= 2 entries, so a group's slabs
    # have >= 2 points unless it meets only one
    terms, step = np.zeros((2 * P, n)), max(2, BLOCK_ENTRIES // (len(y) * P))
    for (_, U), M, i, j, start, stop in zip(eig, EL, rows, rows[1:], cols, cols[1:]):
        to_v, starts = sd[i:j, None] * U, range(0, stop - start - 1, step) or range(stop - start)
        for lo, hi in zip(starts, [*starts[1:], stop - start]):
            x = slice(start + lo, start + hi)
            a, b, c, Dx = alpha[x], beta[x], gamma[x], Dg[i:j, x]
            v = serial_matmul(Dx.T, to_v, lo).T                          # (N, s), zero off the group
            u = y / a                                                    # (nodes, s)
            rho = 1.0 / (1.0 + (2.0 * u * c)[:, None] * lam[:, None])    # (nodes, P, s)
            X = rho[:, i:j] * v
            kappa = np.add.reduce(X * v, axis=1)
            d = 1.0 + 2.0 * u * b * kappa
            h = np.sqrt(np.multiply.reduce(rho, axis=1) / d)            # E e^(-u (g^2 - alpha))
            q = wy * h / a**2                                            # the g^-4 moments' weights
            T = serial_matmul(X.transpose(0, 2, 1), M, lo).transpose(0, 2, 1).copy()  # (E Lambda rho v)_p
            qT = (q / d)[:, None] * T
            rho *= q[:, None]
            Gz2 = serial_matmul(np.add.reduce(rho, axis=0).T, EL2, lo).T  # E (Gz)_p^2 g^-4, here and
            Gz2[i:j] -= np.add.reduce((2.0 * u * b)[:, None] * qT * T, axis=0)  # in the group
            ss, sGz = np.add.reduce(q * kappa / d, axis=0), np.add.reduce(qT, axis=0)  # E s^2 g^-4, E s (Gz)_p g^-4
            terms[i:j, x] = Dx**2 * np.add.reduce(w * h / a, axis=0)    # D_p^2 E g^-2
            terms[P:, x] = 2.0 * c * c * Gz2
            terms[P + i : P + j, x] += 2.0 * (b * b * ss * Dx**2 + 2.0 * b * c * Dx * sGz)
    sums, fisher, bias = row_dots(terms, np.ones(n)), np.empty(P), np.empty(P)
    fisher[dirs], bias[dirs] = sums[:P], sums[P:]
    bound = float(np.sum(van_trees_term(tau_bar, fisher, bias, prior_sd)))
    return VanTreesReport(bound, fisher, bias)


def _family_integrals(family: KernelFamily, n: int) -> tuple[np.ndarray, np.ndarray]:
    """L2 Gram matrix G (P, P) of the flattened D_{m,j} and their inner products
    C (n, P) with phi_1..phi_n, from one sample of the family.

    The rule is equal weights 1/K on the periodic nodes k/K, k = 0..K-1, with K
    the smallest power of two >= max(2^14, 2n).  Every D_{m,j} is smooth with
    support inside (0, 1), so on the circle this rule is spectrally accurate
    (Trefethen & Weideman, SIAM Review 2014).  Each block's sample S_m (N, K)
    gives its diagonal block S_m S_m' / K of G and, by one real FFT, its N
    columns of C, `pack_spectrum` of the bins sum_k S_pk exp(-2 pi i q k / K) / K
    for q < K / 2; one block is sampled at a time.  The phi_j are orthonormal
    on these nodes, so C obeys Bessel's inequality sum_j C_jp^2 <= G_pp at
    every n; blocks meet only where chi = 0, so G is block diagonal.
    """
    N, P = family.N, family.M * family.N
    K = max(2**14, 1 << (2 * n - 1).bit_length())
    x = np.arange(K) / K
    gram = np.zeros((P, P))
    cross = np.empty((n, P))
    for m, lo in enumerate(range(0, P, N), start=1):
        S = family.block(m, x)
        gram[lo : lo + N, lo : lo + N] = row_dots(S[:, None, :], S[None, :, :]) / K
        cross[:, lo : lo + N] = pack_spectrum(np.fft.rfft(S, axis=1, norm="forward"), n).T
    return gram, cross


def prior_van_trees_bound(prior: LeastFavorablePrior, scale: ScaleModel) -> VanTreesReport:
    """Double-sum bound sum_{m,j} h ebar_j(chi)^2 / (F_{m,j} + B_{m,j} + t^-2)
    on the prior's design, from its `family_arrays` D and G."""
    fam = prior.family
    tau_bar = np.tile([math.sqrt(fam.h) * ebar(j, fam.eta) for j in range(1, fam.N + 1)], fam.M)
    D, gram, _ = prior.family_arrays
    return van_trees_bound(D, gram, tau_bar, prior.t.ravel(), scale, DesignGrid(prior.n))


def prior_expected_norm_sq(prior: LeastFavorablePrior) -> float:
    """E ||S_theta||^2 = sum_p t_p^2 G_pp, G from the prior's `family_arrays`."""
    return float(prior.t.ravel() ** 2 @ np.diag(prior.family_arrays[1]))


def lower_bound_target(prior: LeastFavorablePrior) -> float:
    """Finite-eps target constant multiplying the Pinsker constant at S == 0."""
    k = prior.k
    gamma = pinsker_constant(k, prior.r, prior.varsigma_zero)
    return (
        (1.0 + prior.eps_prime)
        * (1.0 - prior.eps) ** (1.0 / (2.0 * k + 1.0))
        / (1.0 + prior.eps) ** (1.0 / (2.0 * k + 1.0))
        * gamma
    )


def bayes_risk_mc(
    names,
    prior: LeastFavorablePrior,
    scale: ScaleModel,
    seqs: TuningSequences,
    reps: int = 500,
    seed: int = 0,
) -> list[tuple[float, float]]:
    """Average continuous-norm loss of each named estimator, one of
    `BAYES_ESTIMATORS`, over one set of prior draws and Gaussian noise; (mean,
    standard error) per name, in order.

    Replicate r draws its prior coefficients t, then its noise, in one call to its own
    substream, each generator made as it is drawn from.  `selection.observe_cell` observes
    Y = t @ D + g * noise on the prior's design (n = prior.n; D, G, C its `family_arrays`)
    against grid_values(C t), t'Gt taken per block, and `selection.score_cell` scores the
    cell against C t and t'Gt:
    `zero` is the column of a zero taper row (t'Gt) after `weight_family(n, seqs)`,
    `projection` the full projection's and `adaptive` the last.
    """
    for name in names:
        if name not in BAYES_ESTIMATORS:
            raise ValueError(f"unknown bayes estimator {name!r}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if not names:
        return []
    D, gram, cross = prior.family_arrays
    grid, n = DesignGrid(prior.n), prior.n
    W = weight_family(n, seqs).W
    K, m = W.shape
    L = np.vstack([W, np.zeros(m)])
    columns = [{"zero": K, "projection": K + 1, "adaptive": K + 2}[name] for name in names]
    analysis = basis_eval_matrix(max(m, seqs.l_n), grid)
    analysis /= n
    on_design = grid_values(cross.T)  # (P, n): each direction's projection on phi_1..phi_n
    T, norm_sq = np.empty((reps, len(D))), np.empty(reps)

    def truth(lo, hi, z):
        t = np.multiply(z, prior.t.ravel(), out=T[lo:hi])
        norm_sq[lo:hi] = row_dots(serial_matmul(t, gram, lo), t)
        s = serial_matmul(t, D, lo)
        return s, np.sqrt(scale.g2(grid.points, s, norm_sq[lo:hi, None])), serial_matmul(t, on_design, lo)

    head, energy, dots = observe_cell(substreams(seed, 13, n, reps=range(reps)), NoiseSpec("gaussian"), truth,
                                      reps, analysis, lead=len(D))
    loss, _ = score_cell(head, energy, dots, n, L, serial_matmul(T, cross[:m].T, 0), norm_sq[:, None], W, seqs)
    return [mean_se(loss[:, c]) for c in columns]
