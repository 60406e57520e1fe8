"""Monte Carlo risk studies: oracle inequality, efficiency trend, lower bound.

Replicate r of a study always draws from the substream keyed by (seed, study
tag, n, noise index, r).  Each (n, noise) cell is observed by
`selection.observe_cell` and scored by `selection.score_cell`, as the Bayes risk
is, in the calling thread; the `workers` setting, still accepted, changes no
output byte.  Every study estimator but the full projection is a row of one
taper stack cut to its support, and the cell's two losses for every row, for
the full projection and for the adaptive estimator come by Parseval, with no
FFT; every estimator is a fixed column of them, and the family sweep every
study keeps is among them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .basis import DesignGrid, SampledFunction, TrigPolynomial, basis_eval_matrix, fourier_rows
from .lowerbound import (
    BAYES_ESTIMATORS,
    bayes_risk_mc,
    check_conditions_A,
    least_favorable_prior,
    lower_bound_target,
    prior_van_trees_bound,
)
from .models import NoiseSpec, ScaleModel, econometric_scale, homogeneous_scale, mean_se, smooth_cutoff, substreams
from .selection import observe_cell, score_cell
from .theory import (
    SobolevBall,
    cell_integrals,
    ellipsoid_norm_sq,
    exact_fourier_coeff,
    oracle_index,
    pinsker_constant,
)
from .weights import WeightFamily, default_sequences, family_cutoffs, pinsker_weights, weight_family

# basis_matrix, estimate, select, substream and ThreadPoolExecutor are unused
# here but stay importable from this module: bench/tracing.py patches them at
# this lookup site.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from .basis import basis_matrix  # noqa: F401
from .models import substream  # noqa: F401
from .selection import estimate, select  # noqa: F401

__all__ = [
    "ExperimentConfig",
    "RiskRow",
    "CSV_COLUMNS",
    "resolve_test_function",
    "resolve_scale",
    "risk_study",
    "oracle_study",
    "efficiency_study",
    "lower_bound_study",
    "write_csv",
    "oracle_coefficient",
]

_TAG_RISK = 3
_ESTIMATORS = ("adaptive", "oracle_weight", "projection", "zero", "per_family")  # and projection:d
_LOWERBOUND_DEFAULTS = {
    "eps": 0.2, "eta": 0.05, "prior_mc": 500, "bayes_estimators": BAYES_ESTIMATORS,
}


def _check_names(key: str, names) -> None:
    """Refuse a list of estimator names that is no list (or tuple) of strings."""
    if not isinstance(names, (list, tuple)) or not all(isinstance(name, str) for name in names):
        raise ValueError(f"{key} must be a list of strings, got {names!r}")


def _finite(value) -> bool:
    """Whether value is a finite int or float; a boolean is neither."""
    return not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)


def _check_keys(section: str, spec, allowed) -> None:
    """Refuse a config section that is not a mapping or has a key outside `allowed`."""
    if not isinstance(spec, dict):
        raise ValueError(f"{section} must be a mapping, got {spec!r}")
    unknown = set(spec) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {section} keys: {sorted(unknown)}")


@dataclass
class ExperimentConfig:
    n_grid: list = field(default_factory=lambda: [101])
    reps: int = 200
    seed: int = 20260810
    workers: int = 1  # validated, but replicates run in the calling thread whatever its value
    test_function: dict = field(default_factory=lambda: {"preset": "S1"})
    ball: dict | None = None
    scale: dict = field(default_factory=lambda: {"c0": 1.0, "c1": 1.0, "c2": 0.5, "c3": 0.5})
    noise_menu: list = field(default_factory=lambda: [{"kind": "gaussian"}])
    estimators: list = field(default_factory=lambda: ["adaptive", "oracle_weight", "projection"])
    rho: float | None = None
    k_bar: float = 0.0
    omega_bar: float = 0.0
    lowerbound: dict = field(default_factory=dict)
    output_path: str = "."
    save_losses: bool = False

    def __post_init__(self):
        if not isinstance(self.n_grid, list):
            raise ValueError(f"n_grid must be a list of odd integers >= 3, got {self.n_grid!r}")
        if not self.n_grid:
            raise ValueError("n_grid must hold at least one n, got []")
        for n in self.n_grid:
            if isinstance(n, bool) or not isinstance(n, int) or n % 2 == 0 or n < 3:
                raise ValueError(f"all n must be odd integers >= 3, got {n!r}")
        if len(set(self.n_grid)) < len(self.n_grid):  # a study keys its cells by (n, label)
            raise ValueError(f"n_grid values must be unique, got {self.n_grid}")
        for key, low in (("reps", 1), ("workers", 1), ("seed", 0)):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, int) or value < low:
                raise ValueError(f"{key} must be an integer >= {low}, got {value!r}")
        for key in ("rho", "k_bar", "omega_bar"):
            value = getattr(self, key)
            if value is None and key == "rho":
                continue  # the default penalty 1 / (3 + sqrt(ln n))
            if not _finite(value):
                raise ValueError(f"{key} must be a finite number, got {value!r}")
        if not isinstance(self.save_losses, bool):
            raise ValueError(f"save_losses must be a boolean, got {self.save_losses!r}")
        if not isinstance(self.output_path, str):
            raise ValueError(f"output_path must be a string, got {self.output_path!r}")
        _check_names("estimators", self.estimators)
        for name in self.estimators:
            if name.startswith("projection:") and not name[len("projection:"):].isdecimal():
                raise ValueError(f"estimator {name!r} must be projection:d with an integer d >= 0")
            if name not in _ESTIMATORS and not name.startswith("projection:"):
                raise ValueError(f"unknown estimator {name!r}")
        if len(set(self.estimators)) < len(self.estimators):  # a study keys its rows by name
            raise ValueError(f"estimators must be unique, got {list(self.estimators)}")
        for n in self.n_grid:  # bad tuning (e.g. rho) or an all-zero family, before any replicate
            family_cutoffs(n, self.sequences(n))
        # a scale is either sigma alone (homogeneous) or econometric coefficients
        homogeneous = isinstance(self.scale, dict) and "sigma" in self.scale
        _check_keys("scale", self.scale, ("sigma",) if homogeneous else ("c0", "c1", "c2", "c3"))
        resolve_scale(self.scale)  # refuses a constant that is no finite number or out of range
        _check_keys("test_function", self.test_function, ("preset", "trig_coeffs", "name"))
        tf = self.test_function
        if tf.get("preset", "S1") not in ("S1", "S2", "S3"):
            raise ValueError(f"test_function preset must be S1, S2 or S3, got {tf['preset']!r}")
        coeffs = tf.get("trig_coeffs", [0.0])
        if not isinstance(coeffs, list) or not coeffs or not all(_finite(c) for c in coeffs):
            raise ValueError(f"test_function trig_coeffs must be a nonempty list of finite numbers, got {coeffs!r}")
        if not isinstance(tf.get("name", ""), str):
            raise ValueError(f"test_function name must be a string, got {tf['name']!r}")
        if self.ball is not None:
            _check_keys("ball", self.ball, ("k", "r"))
            k, r = self.ball.get("k", 1), self.ball.get("r")  # r None: the function's own norm
            if isinstance(k, bool) or not isinstance(k, int) or k < 1:
                raise ValueError(f"ball k must be an integer >= 1, got {k!r}")
            if r is not None and not (_finite(r) and r > 0.0):
                raise ValueError(f"ball r must be a positive finite number or null, got {r!r}")
        with np.errstate(over="ignore", invalid="ignore"):  # an a_j or a square past 1.8e308 is inf
            _, ball, margin = resolve_test_function(self)
        if not math.isfinite(margin):  # r is finite, or the norm itself
            what = "trig_coeffs" if "trig_coeffs" in tf else f"preset {tf.get('preset', 'S1')}"
            got = f", got {coeffs!r}" if "trig_coeffs" in tf else ""
            raise ValueError(f"test_function {what} must have a finite ellipsoid norm at k = {ball.k}{got}")
        if not self.noise_menu:
            raise ValueError(f"noise_menu must hold at least one noise, got {self.noise_menu!r}")
        labels = []
        for nspec in self.noise_menu:
            student = isinstance(nspec, dict) and nspec.get("kind") == "student_t"
            _check_keys("noise", nspec, ("kind", "df") if student else ("kind",))
            labels.append(NoiseSpec(**nspec).label)  # refuses an unknown kind or a bad df
        if len(set(labels)) < len(labels):  # a study keys its cells by (n, label)
            raise ValueError(f"noise labels must be unique, got {labels}")
        _check_keys("lowerbound", self.lowerbound, _LOWERBOUND_DEFAULTS)
        lb = {**_LOWERBOUND_DEFAULTS, **self.lowerbound}
        if isinstance(lb["prior_mc"], bool) or not isinstance(lb["prior_mc"], int) or lb["prior_mc"] < 1:
            raise ValueError(f"lowerbound prior_mc must be an integer >= 1, got {lb['prior_mc']!r}")
        for key, high in (("eps", 1.0), ("eta", 0.5)):  # nan and inf fail the interval too
            if not (_finite(lb[key]) and 0.0 < lb[key] < high):
                raise ValueError(f"lowerbound {key} must be a number in (0, {high:g}), got {lb[key]!r}")
        _check_names("lowerbound bayes_estimators", lb["bayes_estimators"])
        for name in lb["bayes_estimators"]:
            if name not in BAYES_ESTIMATORS:
                raise ValueError(f"unknown bayes estimator {name!r}")
        if len(set(lb["bayes_estimators"])) < len(lb["bayes_estimators"]):  # the JSON keys them by name
            raise ValueError(f"bayes estimators must be unique, got {list(lb['bayes_estimators'])}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        _check_keys("config", d, cls.__dataclass_fields__)
        return cls(**d)

    def sequences(self, n: int):
        return default_sequences(n, k_bar=self.k_bar, omega_bar=self.omega_bar, rho=self.rho)


def resolve_scale(spec: dict) -> ScaleModel:
    if "sigma" in spec:
        return homogeneous_scale(spec["sigma"])
    return econometric_scale(**{"c0": 1.0, **spec})  # c1, c2 and c3 default to 0


def resolve_test_function(cfg: ExperimentConfig) -> tuple[SampledFunction, SobolevBall, float]:
    """Test function, its smoothness ball, and the membership margin.

    Presets: S1 = 2 phi_2 + phi_5 (k = 1, exact coefficients), S2 = smooth
    bump (k = 2), S3 = 0.  The margin is r - sum a_j theta_j^2; a study must
    refuse to run when it is negative.  Without `ball.r`, r is the function's
    own norm, or 1 when that is 0 (S3 and any zero custom function).
    """
    spec = cfg.test_function
    preset = spec.get("preset", "S1")
    if preset in ("S1", "S3") and "trig_coeffs" not in spec:
        spec = {"trig_coeffs": [0.0, 2.0, 0.0, 0.0, 1.0] if preset == "S1" else [0.0], "name": preset}
    if "trig_coeffs" in spec:
        S = TrigPolynomial(spec["trig_coeffs"], name=spec.get("name", "custom"))
        k = (cfg.ball or {}).get("k", 1)
        exact = ellipsoid_norm_sq(S.coeffs, k)
        r = (cfg.ball or {}).get("r") or exact or 1.0
        return S, SobolevBall(k, r), r - exact
    if preset == "S2":
        S = smooth_cutoff(0.3, 0.7)
        S.name = "S2-bump"
        k = (cfg.ball or {}).get("k", 2)
        theta = np.array([exact_fourier_coeff(S, j) for j in range(1, 65)])
        measured = ellipsoid_norm_sq(theta, k)
        r = (cfg.ball or {}).get("r") or 1.05 * measured
        return S, SobolevBall(k, r), r - measured
    raise ValueError(f"unknown test function preset {preset!r}")


@dataclass
class _StudyContext:
    """Per-n quantities shared by every noise of the menu and every replicate.

    L: the family's tapers, then the fixed estimators' weights, cut to their
    support; `columns`: each named estimator's column of `score_cell`'s
    losses, a row of L, len(L) for the full projection and len(L) + 1 for
    the adaptive estimator."""

    grid: DesignGrid
    seqs: object
    family: WeightFamily
    S_design: np.ndarray
    g_design: np.ndarray
    seed: int
    L: np.ndarray
    columns: np.ndarray
    analysis: np.ndarray  # (n, d): Y @ analysis = theta_hat_1..theta_hat_d, d = max(w, l_n)
    on_design: np.ndarray  # (2, n): the targets on the design, S and n * int S per cell
    targets: np.ndarray   # (2, w): their first w coefficients
    consts: np.ndarray    # (2,): ||theta_n||^2 over all n coefficients, ||S||^2


def _make_context(cfg: ExperimentConfig, n: int, estimators: list[str], S: SampledFunction,
                  ball: SobolevBall, scale: ScaleModel) -> _StudyContext:
    grid = DesignGrid(n)
    seqs = cfg.sequences(n)
    family = weight_family(n, seqs)
    K, m = family.W.shape
    S_design = S.on_grid(grid)
    fixed = {}  # the fixed estimators' weights at length n
    for name in estimators:
        if name == "oracle_weight":
            fixed[name] = pinsker_weights(oracle_index(ball, scale.varsigma(S), n, seqs), n, seqs)
        elif name not in ("adaptive", "projection"):  # zero or projection:d, as ExperimentConfig checked
            d = 0 if name == "zero" else int(name.split(":", 1)[1])
            fixed[name] = (np.arange(n) < d).astype(float)  # keeps the first d coefficients
    # every weight is 0 past column w, the width of L
    w = max([m] + [int(np.max(np.flatnonzero(lam), initial=-1)) + 1 for lam in fixed.values()])
    L = np.vstack([np.pad(family.W, ((0, 0), (0, w - m))), *(lam[:w] for lam in fixed.values())])
    index = {name: K + i for i, name in enumerate([*fixed, "projection", "adaptive"])}
    columns = np.array([index[name] for name in estimators], dtype=int)
    # the step-extension L2 loss needs int S per cell and int S^2 only once
    cell_int_s, s_l2_sq = cell_integrals(S, n)
    # targets by FFT: a loss cancels ||S||^2, so t must not carry the analysis product's rounding
    theta_n, theta_cells = fourier_rows(np.stack([S_design, cell_int_s]))
    analysis = basis_eval_matrix(max(w, seqs.l_n), grid)
    analysis /= n
    return _StudyContext(
        grid=grid, seqs=seqs, family=family, S_design=S_design,
        g_design=scale.g(grid.points, S), seed=cfg.seed, L=L, columns=columns, analysis=analysis,
        on_design=np.stack([S_design, n * cell_int_s]),
        targets=np.stack([theta_n, n * theta_cells])[:, :w],
        consts=np.array([np.sum(theta_n**2), s_l2_sq]),
    )


def _run_replicates(ctx: _StudyContext, noise: NoiseSpec, noise_idx: int, reps: int):
    """Losses (reps, E, 2) of every replicate of one noise, plus the family sweep (reps, K).

    Y = S + g * xi is observed against both targets (S on the design for ||S_lam - S||_n^2,
    n int_cell S for the step extension's ||T(S_lam) - S||^2, whose constant is ||S||^2);
    the sweep is a copy, so no view keeps the cell's loss table.
    """
    n = ctx.grid.n
    head, energy, dots = observe_cell(substreams(ctx.seed, _TAG_RISK, n, noise_idx, reps=range(reps)), noise,
                                      lambda lo, hi, z: (ctx.S_design, ctx.g_design, ctx.on_design[:, None]),
                                      reps, ctx.analysis)
    loss, _ = score_cell(head, energy, dots, n, ctx.L, ctx.targets[:, None], ctx.consts[:, None, None],
                         ctx.family.W, ctx.seqs)
    return np.moveaxis(loss[..., ctx.columns], 0, -1), loss[0, :, : len(ctx.family)].copy()


def oracle_coefficient(rho: float) -> float:
    """(1 + 3 rho - 2 rho^2) / (1 - 3 rho), the oracle-inequality factor."""
    if not (0.0 < rho < 1.0 / 3.0):
        raise ValueError("rho must lie in (0, 1/3)")
    return (1.0 + 3.0 * rho - 2.0 * rho**2) / (1.0 - 3.0 * rho)


class RiskRow(NamedTuple):
    estimator: str
    noise: str
    n: int
    risk_empiric: float
    se_empiric: float
    risk_l2: float
    se_l2: float
    normalized_ratio: float
    gamma_k: float
    seed: int


CSV_COLUMNS = RiskRow._fields


def write_csv(rows, path, columns=CSV_COLUMNS) -> None:
    """The one CSV writer: a header of `columns`, then one line per tuple of `rows`, each ended by
    a bare newline; a float, numpy's too, is written as its repr. Creates the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")  # quotes a field with a comma, such as lambda[1,0.25]
        out.writerow(columns)
        out.writerows([float(v) if isinstance(v, float) else v for v in row] for row in rows)


def _study_rows(cfg: ExperimentConfig, estimators: list[str], losses_sink: list | None = None):
    """Risk rows for every (estimator, noise, n) plus the family sweeps, keyed (n, label)."""
    S, ball, margin = resolve_test_function(cfg)
    if margin < 0.0:
        raise ValueError(
            f"test function lies outside W^{ball.k}_{ball.r}: membership margin {margin:.6g}"
        )
    scale = resolve_scale(cfg.scale)
    varsigma = scale.varsigma(S)
    gamma = pinsker_constant(ball.k, ball.r, varsigma)
    rate = 2.0 * ball.k / (2.0 * ball.k + 1.0)

    def row(name, label, n, m_n, se_n, m_2=math.nan, se_2=math.nan):
        ratio = n**rate * m_n / gamma
        return RiskRow(name, label, n, m_n, se_n, m_2, se_2, ratio, gamma, cfg.seed)

    rows: list[RiskRow] = []
    sweeps: dict[tuple[int, str], np.ndarray] = {}
    per_noise: dict[tuple[str, str, int], tuple] = {}
    named = [e for e in estimators if e != "per_family"]
    for n in cfg.n_grid:
        ctx = _make_context(cfg, n, named, S, ball, scale)
        for noise_idx, nspec in enumerate(cfg.noise_menu):
            noise = NoiseSpec(**nspec)
            losses, sweep = _run_replicates(ctx, noise, noise_idx, cfg.reps)
            sweeps[(n, noise.label)] = sweep
            if "per_family" in estimators:
                for kk, (alpha, _) in enumerate(ctx.family):
                    m_f, se_f = mean_se(sweep[:, kk])
                    label = f"lambda[{alpha.beta},{alpha.t:.6g}]"
                    rows.append(row(label, noise.label, n, m_f, se_f))
            for e, name in enumerate(named):
                m_n, se_n = mean_se(losses[:, e, 0])
                m_2, se_2 = mean_se(losses[:, e, 1])
                rows.append(row(name, noise.label, n, m_n, se_n, m_2, se_2))
                key = (name, "menu_max", n)
                if key not in per_noise or m_n > per_noise[key][0]:
                    per_noise[key] = (m_n, se_n, m_2, se_2)
                if losses_sink is not None:
                    losses_sink.extend((name, noise.label, n, rep, *losses[rep, e])
                                       for rep in range(cfg.reps))
    if len(cfg.noise_menu) > 1:
        # lower envelope of the sup over the noise family, labeled as such
        for (name, label, n), (m_n, se_n, m_2, se_2) in per_noise.items():
            rows.append(row(name, label, n, m_n, se_n, m_2, se_2))
    return rows, sweeps, (S, ball, scale, gamma, rate)


def risk_study(cfg: ExperimentConfig):
    losses_sink = [] if cfg.save_losses else None
    rows, _, _ = _study_rows(cfg, list(cfg.estimators), losses_sink=losses_sink)
    summary = {
        "study": "risk",
        "seed": cfg.seed,
        "reps": cfg.reps,
        "estimators": list(cfg.estimators),
        "n_grid": list(cfg.n_grid),
    }
    return rows, summary, losses_sink


def oracle_study(cfg: ExperimentConfig):
    """Adaptive risk vs the family minimum, with the oracle-inequality slack.

    slack_n estimates the unobservable remainder; it is clamped at zero when
    the inequality already holds outright, and the n * slack trend must grow
    slower than sqrt(n).
    """
    rows, sweeps, (S, ball, scale, gamma, rate) = _study_rows(cfg, ["adaptive"])
    adaptive = {(r.n, r.noise): r.risk_empiric for r in rows}
    per_n = {}
    for (n, label), sweep in sweeps.items():
        coeff = oracle_coefficient(cfg.sequences(n).rho)
        fam_means = sweep.mean(axis=0)
        best = int(np.argmin(fam_means))
        min_risk = float(fam_means[best])
        raw = adaptive[n, label] - coeff * min_risk
        per_n.setdefault(label, []).append({
            "n": n, "coefficient": coeff,
            "adaptive_risk": adaptive[n, label],
            "min_family_risk": min_risk,
            "best_family_member": best,
            "slack_raw": raw,
            "slack": max(raw, 0.0),
        })
        rows.append(RiskRow(
            estimator="family_min", noise=label, n=n,
            risk_empiric=min_risk, se_empiric=mean_se(sweep[:, best])[1],
            risk_l2=math.nan, se_l2=math.nan,
            normalized_ratio=n**rate * min_risk / gamma, gamma_k=gamma, seed=cfg.seed,
        ))
    trend = {}
    for label, recs in per_n.items():
        ns = np.array([rec["n"] for rec in recs], dtype=float)
        sn = np.array([rec["slack"] * rec["n"] for rec in recs])
        pos = sn > 0.0
        if pos.sum() >= 2:
            slope = float(np.polyfit(np.log(ns[pos]), np.log(sn[pos]), 1)[0])
            slower = bool(slope < 0.5)
        else:
            # the inequality holds outright; no measurable remainder to fit
            slope = None
            slower = True
        trend[label] = {
            "slack_times_n": sn.tolist(),
            "log_log_slope": slope,
            "grows_slower_than_sqrt_n": slower,
        }
    summary = {
        "study": "oracle", "seed": cfg.seed, "reps": cfg.reps,
        "rho": cfg.sequences(cfg.n_grid[0]).rho,
        "per_noise": per_n, "trend": trend,
    }
    return rows, summary, None


def efficiency_study(cfg: ExperimentConfig):
    """Normalized risks n^(2k/(2k+1)) R / gamma_k for adaptive and oracle weights;
    the trend reads oracle_weight, so both are scored whatever `cfg.estimators` holds."""
    rows, _, (S, ball, scale, gamma, rate) = _study_rows(cfg, ["adaptive", "oracle_weight"])
    trend = {}
    for label in {r.noise for r in rows}:
        recs = sorted(
            (r for r in rows if r.noise == label and r.estimator == "oracle_weight"),
            key=lambda r: r.n,
        )
        ratios = [r.normalized_ratio for r in recs]
        ses = [r.n**rate * r.se_empiric / gamma for r in recs]
        ok = all(
            ratios[i + 1] <= ratios[i] + 2.0 * math.hypot(ses[i], ses[i + 1])
            for i in range(len(ratios) - 1)
        )
        trend[label] = {
            "ns": [r.n for r in recs],
            "oracle_ratios": ratios,
            "ratio_ses": ses,
            "nonincreasing_within_2se": ok,
            "final_ratio": ratios[-1],
        }
    summary = {
        "study": "efficiency", "seed": cfg.seed, "reps": cfg.reps,
        "ball": {"k": ball.k, "r": ball.r},
        "varsigma": scale.varsigma(S), "gamma_k": gamma, "trend": trend,
    }
    return rows, summary, None


def lower_bound_study(cfg: ExperimentConfig):
    """van Trees bound for the constructed prior vs MC Bayes risks (Gaussian noise)."""
    lb = {**_LOWERBOUND_DEFAULTS, **cfg.lowerbound}
    S, ball, _ = resolve_test_function(cfg)
    scale = resolve_scale(cfg.scale)
    g0 = lambda x: np.sqrt(scale.g2(x, 0.0, 0.0))
    rate = 2.0 * ball.k / (2.0 * ball.k + 1.0)
    rows: list[RiskRow] = []
    records = []
    for n in cfg.n_grid:
        prior = least_favorable_prior(ball.k, ball.r, n, eps=lb["eps"], g0=g0, eta=lb["eta"])
        gamma0 = pinsker_constant(ball.k, ball.r, prior.varsigma_zero)
        report = prior_van_trees_bound(prior, scale)
        names = lb["bayes_estimators"]
        risks = dict(zip(names, bayes_risk_mc(names, prior, scale, cfg.sequences(n),
                                              reps=cfg.reps, seed=cfg.seed)))
        records.append({
            "n": n,
            "bound": report.bound,
            "normalized_bound": n**rate * report.bound,
            "target_constant": lower_bound_target(prior),
            "prior": {
                "N": prior.family.N, "M": prior.family.M, "h": prior.family.h,
                "R_star": prior.R_star, "h_star": prior.h_star,
                "dropped_j": list(prior.dropped_j),
            },
            "conditions": check_conditions_A(prior)._asdict(),
            "bayes_risks": {name: {"risk": risk, "se": se, "exceeds_bound": bool(risk >= report.bound)}
                            for name, (risk, se) in risks.items()},
        })
        # the bound and every Bayes risk are L2 risks at this n, one CSV row each
        for name, (risk, se) in [("van_trees_bound", (report.bound, 0.0)),
                                 *((f"bayes_{name}", r) for name, r in risks.items())]:
            rows.append(RiskRow(name, "gaussian", n, math.nan, math.nan, risk, se,
                                n**rate * risk / gamma0, gamma0, cfg.seed))
    summary = {
        "study": "lower_bound", "seed": cfg.seed, "reps": cfg.reps,
        "eps": lb["eps"], "eta": lb["eta"], "records": records,
    }
    return rows, summary, None
