"""The benchmark's workloads: inputs made from a seed, one request, checks.

Every workload drives hetreg in-process through `hetreg.cli.main`, the same
entry point as the `hetreg` command, with one closed-loop caller.  Inputs are
written in set-up, before any timing.  Checks test invariants of the outputs
rather than digests, so a change that only moves last digits still passes.
See NOTES.md for why each workload exists and what it should move.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
from pathlib import Path

import numpy as np

import hetreg.cli

HERE = Path(__file__).resolve().parent
SCALE = {"c0": 1.0, "c1": 1.0, "c2": 0.5, "c3": 0.5}
GAUSSIAN = [{"kind": "gaussian"}]

# acceptance criteria 4 and 5 (tests/test_acceptance.py), seed left to the run
ORACLE_CONFIG = dict(
    n_grid=[101, 301, 501, 1001], reps=200, workers=2,
    test_function={"preset": "S1"}, scale=SCALE, noise_menu=GAUSSIAN, rho=0.25,
)
EFFICIENCY_CONFIG = dict(
    n_grid=[101, 301, 1001, 3001], reps=200, workers=2,
    test_function={"preset": "S1"}, scale=SCALE, noise_menu=GAUSSIAN,
    estimators=["adaptive", "oracle_weight"],
)
# the criterion-6 prior; reps and prior_mc sized so one call takes seconds
LOWER_BOUND_CONFIG = dict(
    n_grid=[51, 101], reps=400, workers=1,
    test_function={"preset": "S3"}, ball={"k": 1, "r": 1.0}, scale=SCALE,
    lowerbound={"eps": 0.2, "eta": 0.05, "prior_mc": 500,
                "bayes_estimators": ["zero", "projection", "adaptive"]},
)
REFERENCE_SE = 5.0  # a study risk may sit this many combined standard errors off the reference


@functools.cache
def reference_risks() -> dict:
    """Risks of the mc_studies configs averaged over many seeds (make_reference.py)."""
    return json.loads((HERE / "reference_risks.json").read_text())["risks"]


def call_cli(argv: list[str]) -> None:
    """One `hetreg ...` invocation; looked up at call time so tracing sees it."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = hetreg.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"hetreg {argv[0]} exited with {code}")


def derived_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def write_config(path: Path, config: dict, **overrides) -> Path:
    path.write_text(json.dumps({**config, **overrides}, indent=2, sort_keys=True))
    return path


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def grid_synthesis(c: np.ndarray) -> np.ndarray:
    """sum_j c_j phi_j(l/n) for l = 1..n by one inverse FFT (n odd)."""
    n = len(c)
    a = np.zeros(n, dtype=complex)
    a[1 : (n - 1) // 2 + 1] = c[1::2] - 1j * c[2::2]
    vals = c[0] + math.sqrt(2.0) * n * np.fft.ifft(a).real
    return np.roll(vals, -1)  # index 0 is x = n/n


def s1_observations(n: int, rng: np.random.Generator) -> np.ndarray:
    """y = S1 + g xi with S1 = 2 phi_2 + phi_5 and g^2 = 1 + x + S1^2/2 + ||S1||^2/2."""
    x = np.arange(1, n + 1) / n
    s = 2.0 * math.sqrt(2.0) * np.cos(2.0 * math.pi * x) + math.sqrt(2.0) * np.sin(4.0 * math.pi * x)
    g2 = 1.0 + x + 0.5 * s**2 + 0.5 * 5.0
    return s + np.sqrt(g2) * rng.standard_normal(n)


class EstimateCli:
    """`hetreg estimate` on pre-written S1 datasets, n = 101 / 1001 / 5001 in equal thirds."""

    name = "estimate_cli"
    SIZES = (101, 1001, 5001)
    PER_SIZE = 10
    round = 5 * len(SIZES)      # a round holds every size equally often
    min_requests = 210          # the kept half of the rounds leaves >= 10 samples beyond p90
    quantum = len(SIZES) * PER_SIZE

    def __init__(self, work: Path, seed: int, write: bool = True):
        rng = np.random.default_rng(seed)
        paths = {n: [work / f"y_{n}_{k}.csv" for k in range(self.PER_SIZE)] for n in self.SIZES}
        self.data = {}
        for n, size_paths in paths.items():
            x = np.arange(1, n + 1) / n
            for path in size_paths:
                self.data[path] = y = s1_observations(n, rng)
                if write:
                    np.savetxt(path, np.column_stack([x, y]), fmt="%.17g",
                               delimiter=",", header="x,y", comments="")
        # each consecutive triple holds one dataset of every size in shuffled order
        self.order = [paths[self.SIZES[i]][k] for k in range(self.PER_SIZE)
                      for i in rng.permutation(len(self.SIZES))]
        self.warm = [size_paths[0] for size_paths in paths.values()]
        self.out = work / "estimate.json"

    def warm_up(self) -> None:
        for path in self.warm:
            call_cli(["estimate", "--data", str(path), "--out", str(self.out)])

    def run(self, i: int, extra=()) -> int:
        call_cli(["estimate", "--data", str(self.order[i % len(self.order)]), "--out", str(self.out)])
        return 1

    def check(self, i: int) -> list[str]:
        y = self.data[self.order[i % len(self.order)]]
        return check_estimate(self.out.read_text(), y)


def check_estimate(text: str, y: np.ndarray) -> list[str]:
    try:
        out = _strict_json(text)
    except ValueError as exc:
        return [f"estimate JSON: {exc}"]
    n = len(y)
    theta = np.asarray(out["theta_hat"], dtype=float)
    lam = np.asarray(out["lambda_hat"], dtype=float)
    at_grid = np.asarray(out["estimate_at_grid"], dtype=float)
    if out["n"] != n or theta.shape != (n,) or lam.shape != (n,) or at_grid.shape != (n,):
        return [f"estimate n={n}: output lengths do not match the data"]
    errors = []
    energy = float(np.mean(y**2))
    if abs(float(np.sum(theta**2)) - energy) > 1e-10 * max(1.0, energy):
        errors.append(f"estimate n={n}: Parseval fails")
    best = min(out["costs"], key=lambda c: (c["cost"], c["beta"], c["t"]))
    if (best["beta"], best["t"]) != (out["selected"]["beta"], out["selected"]["t"]):
        errors.append(f"estimate n={n}: selected {out['selected']} is not the argmin {best}")
    c = lam * theta
    if np.max(np.abs(grid_synthesis(c) - at_grid)) > 1e-9 * (1.0 + float(np.sum(np.abs(c)))):
        errors.append(f"estimate n={n}: estimate_at_grid differs from sum lambda theta phi")
    return errors


class _StudyWorkload:
    """Passes of CLI studies; every pass of a run must write the same bytes."""

    round = 1
    min_requests = 2
    quantum = 1
    studies: list[tuple[str, str, dict]] = []   # (subcommand, output stem, config)
    warm_overrides: dict = {}

    def __init__(self, work: Path, seed: int, write: bool = True):
        self.out = work / "out"
        self.warm_out = work / "warm"
        self.configs = []
        seeds = derived_seeds(seed, len(self.studies))
        for (cmd, stem, config), s in zip(self.studies, seeds):
            run_cfg = work / f"{stem}.json"
            warm_cfg = work / f"{stem}_warm.json"
            if write:
                write_config(run_cfg, config, seed=s)
                write_config(warm_cfg, config, seed=s, **self.warm_overrides)
            self.configs.append((cmd, stem, run_cfg, warm_cfg))
        self.items = sum(self.items_of(config) for _, _, config in self.studies)
        self.first_pass: dict[str, bytes] | None = None

    @staticmethod
    def items_of(config: dict) -> int:
        return len(config["n_grid"]) * len(config.get("noise_menu", GAUSSIAN)) * config["reps"]

    def warm_up(self) -> None:
        for cmd, _, _, warm_cfg in self.configs:
            call_cli([cmd, "--config", str(warm_cfg), "--out", str(self.warm_out)])

    def run(self, i: int, extra=()) -> int:
        for cmd, _, run_cfg, _ in self.configs:
            call_cli([cmd, "--config", str(run_cfg), "--out", str(self.out), *extra])
        return self.items

    def check(self, i: int) -> list[str]:
        outputs = {p.name: p.read_bytes() for p in sorted(self.out.iterdir())}
        if self.first_pass is None:
            self.first_pass = outputs
        elif outputs != self.first_pass:
            return [f"{self.name}: pass {i} wrote different bytes than the first pass"]
        errors = []
        for _, stem, _, _ in self.configs:
            summary = _strict_json(outputs[f"{stem}.json"].decode())
            errors += self.check_summary(stem, summary, outputs[f"{stem}.csv"].decode())
        return errors


def csv_rows(text: str) -> list[dict]:
    header, *lines = text.strip().split("\n")
    keys = header.split(",")
    return [dict(zip(keys, line.split(","))) for line in lines]


class McStudies(_StudyWorkload):
    """`hetreg oracle` on the criterion-4 config, then `hetreg efficiency` on criterion 5."""

    name = "mc_studies"
    studies = [("oracle", "oracle", ORACLE_CONFIG), ("efficiency", "efficiency", EFFICIENCY_CONFIG)]
    warm_overrides = {"reps": 32}   # one replicate block per cell

    def check_summary(self, stem: str, summary: dict, csv_text: str) -> list[str]:
        errors = []
        if stem == "oracle":
            recs = summary["per_noise"]["gaussian"]
            if not all(r["adaptive_risk"] <= 6.5 * r["min_family_risk"] + r["slack"] + 1e-12
                       and abs(r["coefficient"] - 6.5) <= 1e-9 for r in recs):
                errors.append("oracle: the oracle inequality gate fails")
            if not summary["trend"]["gaussian"]["grows_slower_than_sqrt_n"]:
                errors.append("oracle: n * slack grows like sqrt(n) or faster")
        else:
            trend = summary["trend"]["gaussian"]
            if not trend["nonincreasing_within_2se"]:
                errors.append("efficiency: oracle ratios increase by more than 2 se")
            if not 0.3 <= trend["final_ratio"] <= 2.0:
                errors.append(f"efficiency: final ratio {trend['final_ratio']} outside [0.3, 2]")
        for row in csv_rows(csv_text):
            for risk_key, se_key in (("risk_empiric", "se_empiric"), ("risk_l2", "se_l2")):
                ref = reference_risks()[stem].get(row["estimator"], {}).get(f"{risk_key}/{row['n']}")
                if ref is None:
                    continue
                risk, se = float(row[risk_key]), float(row[se_key])
                if not abs(risk - ref[0]) <= REFERENCE_SE * math.hypot(se, ref[1]):
                    errors.append(f"{stem}: {row['estimator']} {risk_key} at n={row['n']} is {risk:.6g}, "
                                  f"reference {ref[0]:.6g} +- {REFERENCE_SE:g} se")
        return errors


class LowerBound(_StudyWorkload):
    """`hetreg lower-bound` with the criterion-6 prior (S3, k = r = 1, n = 51, 101)."""

    name = "lower_bound"
    studies = [("lower-bound", "lower_bound", LOWER_BOUND_CONFIG)]
    warm_overrides = {"reps": 8, "lowerbound": {**LOWER_BOUND_CONFIG["lowerbound"], "prior_mc": 8}}

    @staticmethod
    def items_of(config: dict) -> int:
        return len(config["n_grid"]) * config["reps"] * len(config["lowerbound"]["bayes_estimators"])

    def check_summary(self, stem: str, summary: dict, csv_text: str) -> list[str]:
        errors = []
        for rec in summary["records"]:
            for name, br in rec["bayes_risks"].items():
                if not br["risk"] >= rec["bound"] - 5.0 * br["se"]:
                    errors.append(f"lower_bound: n={rec['n']} {name} risk {br['risk']:.6g} "
                                  f"below bound {rec['bound']:.6g} - 5 se")
        return errors


WORKLOADS = {w.name: w for w in (EstimateCli, McStudies, LowerBound)}
