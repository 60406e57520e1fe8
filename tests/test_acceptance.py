"""Acceptance suite: one test per release criterion, one printed line each."""

import json
import time

import numpy as np
import pytest

from hetreg.basis import (
    DesignGrid,
    TrigPolynomial,
    basis_matrix,
    discrete_fourier,
    grid_values,
    trig_basis_eval,
)
from hetreg.experiments import ExperimentConfig, oracle_study, efficiency_study, risk_study, write_csv
from hetreg.lowerbound import (
    check_conditions_A,
    least_favorable_prior,
    prior_van_trees_bound,
    van_trees_bound,
)
from hetreg.models import econometric_scale, homogeneous_scale
from hetreg.theory import SobolevBall, pinsker_constant
from hetreg.weights import default_sequences
from oracles import (
    asymptotic_upper_risk,
    coeff_gap_bound,
    norm_transfer_bound,
    printed_pinsker_constant,
    random_ball_member,
    tail_energy_bound,
)


def report(criterion, passed, detail=""):
    print(f"[ACCEPTANCE {criterion}] {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


def test_criterion_1_exactness_suite():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in range(3, 502, 2):
        g = DesignGrid(n)
        Phi = basis_matrix(g)
        worst = max(worst, float(np.max(np.abs(Phi.T @ Phi / n - np.eye(n)))))
        Y = rng.standard_normal(n)
        theta_hat = discrete_fourier(Y, g)
        parseval = abs(float(np.mean(Y**2)) - float(np.sum(theta_hat**2)))
        worst = max(worst, parseval / max(1.0, float(np.mean(Y**2))))
        recon = float(np.max(np.abs(grid_values(theta_hat) - Y)))
        worst = max(worst, recon)
    elapsed = time.time() - t0
    report(
        "1 exactness",
        worst <= 1e-10 and elapsed < 30.0,
        f"max_error={worst:.3e} runtime={elapsed:.1f}s (all odd n in 3..501)",
    )


def test_criterion_2_inequality_oracle_suite():
    t0 = time.time()
    rng = np.random.default_rng(202)
    cases = 0
    violations = 0

    # weighted square-deviation bound: N^-m |sum_{l=2}^N l^m (phi_l^2 - 1)| <= 2^m
    x = np.linspace(0.0, 1.0, 1000)
    N_max = 501
    sq_dev = np.stack([trig_basis_eval(l, x) ** 2 - 1.0 for l in range(2, N_max + 1)])
    for m in range(4):
        weighted = (np.arange(2, N_max + 1, dtype=float) ** m)[:, None] * sq_dev
        cum = np.cumsum(weighted, axis=0)
        sup = np.max(np.abs(cum), axis=1)
        for idx, N in enumerate(range(2, N_max + 1)):
            cases += 1
            if sup[idx] > 2.0**m * float(N) ** m + 1e-9:
                violations += 1

    # tail-energy, coefficient-gap and norm-transfer bounds on random ball members
    for _ in range(25):
        k = int(rng.integers(1, 3))
        r = float(rng.uniform(0.5, 50.0))
        n = int(rng.choice([51, 101, 201, 301, 501]))
        g = DesignGrid(n)
        S = random_ball_member(rng, k, r, degree=min(n, 48), fill=float(rng.uniform(0.3, 1.0)))
        ball = SobolevBall(k, r)
        rep = tail_energy_bound(S, ball, g)
        cases += n - 1
        violations += 0 if rep.passed else 1
        rep = coeff_gap_bound(S, r, g)
        cases += n
        violations += 0 if rep.passed else 1
        for delta in (0.1, 0.5, 0.9):
            f_hat = S.on_grid(g) + rng.standard_normal(n) * float(rng.uniform(0.1, 2.0))
            rep = norm_transfer_bound(f_hat, S, delta, r, g)
            cases += 1
            violations += 0 if rep.passed else 1

    elapsed = time.time() - t0
    report(
        "2 inequality-oracles",
        violations == 0 and cases >= 1000 and elapsed < 60.0,
        f"cases={cases} violations={violations} runtime={elapsed:.1f}s",
    )


def test_criterion_3_constant_consistency():
    rng = np.random.default_rng(303)
    worst_rel = 0.0
    for k in range(1, 6):
        for _ in range(20):
            r = float(rng.uniform(0.1, 10.0))
            vs = float(rng.uniform(0.1, 10.0))
            pc = pinsker_constant(k, r, vs)
            aur = asymptotic_upper_risk(k, r, vs)
            worst_rel = max(worst_rel, abs(pc - aur) / abs(pc))
    ref = pinsker_constant(1, 1.0, 1.0)
    ref_ok = abs(ref - 0.42357) <= 1e-4
    printed = printed_pinsker_constant(1, 1.0, 1.0)
    printed_differs = abs(printed - ref) / ref > 0.5
    report(
        "3 pinsker-constant",
        worst_rel <= 1e-9 and ref_ok and printed_differs,
        f"max_rel_diff={worst_rel:.2e} gamma_1(1,1)={ref:.6f} printed_form={printed:.3e}",
    )


def test_criterion_4_oracle_inequality_desk_scale():
    t0 = time.time()
    cfg = ExperimentConfig.from_dict(dict(
        n_grid=[101, 301, 501, 1001],
        reps=200,
        seed=404,
        workers=2,
        test_function={"preset": "S1"},
        scale={"c0": 1.0, "c1": 1.0, "c2": 0.5, "c3": 0.5},
        noise_menu=[{"kind": "gaussian"}],
        rho=0.25,
    ))
    _, summary, _ = oracle_study(cfg)
    recs = summary["per_noise"]["gaussian"]
    holds = all(
        rec["adaptive_risk"] <= 6.5 * rec["min_family_risk"] + rec["slack"] + 1e-12
        for rec in recs
    )
    coeff_ok = all(rec["coefficient"] == pytest.approx(6.5) for rec in recs)
    trend = summary["trend"]["gaussian"]
    slope = trend["log_log_slope"]
    elapsed = time.time() - t0
    report(
        "4 oracle-inequality",
        holds and coeff_ok and trend["grows_slower_than_sqrt_n"] and elapsed < 900.0,
        f"slacks={[round(r['slack_raw'], 4) for r in recs]} slope={slope} runtime={elapsed:.0f}s",
    )


def test_criterion_5_efficiency_trend():
    t0 = time.time()
    cfg = ExperimentConfig.from_dict(dict(
        n_grid=[101, 301, 1001, 3001],
        reps=200,
        seed=505,
        workers=2,
        test_function={"preset": "S1"},
        scale={"c0": 1.0, "c1": 1.0, "c2": 0.5, "c3": 0.5},
        noise_menu=[{"kind": "gaussian"}],
        estimators=["adaptive", "oracle_weight"],
    ))
    _, summary, _ = efficiency_study(cfg)
    trend = summary["trend"]["gaussian"]
    ratios = trend["oracle_ratios"]
    final_in_corridor = 0.3 <= ratios[-1] <= 2.0
    elapsed = time.time() - t0
    report(
        "5 efficiency-trend",
        trend["nonincreasing_within_2se"] and final_in_corridor,
        f"ratios={[round(v, 3) for v in ratios]} final={ratios[-1]:.3f} in [0.3,2.0] runtime={elapsed:.0f}s",
    )


def test_criterion_6_van_trees_sanity():
    t0 = time.time()
    # degenerate one-parameter case through the production code path
    grid = DesignGrid(51)
    exact_ok = True
    for t in (0.2, 1.0, 3.0):
        rep = van_trees_bound(np.ones((1, 51)), np.ones((1, 1)), np.array([1.0]), np.array([t]),
                              homogeneous_scale(1.0), grid)
        exact_ok &= abs(rep.bound - t**2 / (51 * t**2 + 1.0)) <= 1e-12

    scale = econometric_scale(1.0, 1.0, 0.5, 0.5)
    zero_fn = TrigPolynomial([0.0])
    g0 = lambda x: scale.g(x, zero_fn)

    from hetreg.lowerbound import bayes_risk_mc

    all_exceed = True
    details = []
    for n in (51, 101):
        prior = least_favorable_prior(1, 1.0, n, eps=0.2, g0=g0)
        bound = prior_van_trees_bound(prior, scale).bound
        names = ("zero", "projection", "adaptive")
        risks = bayes_risk_mc(names, prior, scale, default_sequences(n), reps=2000, seed=607)
        for name, (risk, se) in zip(names, risks):
            ok = risk >= bound - 5.0 * se
            all_exceed &= ok
            details.append(f"n={n} {name}: {risk:.4f}>={bound:.4f}-5*{se:.4f}")
    elapsed = time.time() - t0
    report(
        "6 van-trees",
        exact_ok and all_exceed and elapsed < 600.0,
        f"degenerate_exact={exact_ok} runtime={elapsed:.0f}s; " + "; ".join(details[:3]) + " ...",
    )


def test_criterion_7_least_favorable_prior():
    pr_small = least_favorable_prior(1, 1.0, 1_000, eps=0.2)
    pr_big = least_favorable_prior(1, 1.0, 100_000, eps=0.2)
    rep_small = check_conditions_A(pr_small)
    rep_big = check_conditions_A(pr_big)
    a3_rel = abs(rep_big.a3_sum - rep_big.a3_target) / rep_big.a3_target
    decreasing = (
        rep_big.a2_sum < rep_small.a2_sum
        and rep_big.a2_peak < rep_small.a2_peak
        and rep_big.a4_sum < rep_small.a4_sum
    )
    positive = bool(np.all(pr_small.y_star >= 0.0) and np.all(pr_big.y_star >= 0.0))
    report(
        "7 least-favorable-prior",
        a3_rel <= 0.01 and decreasing and positive,
        f"A3_rel_err={a3_rel:.2e} A2:{rep_small.a2_sum:.3f}->{rep_big.a2_sum:.3f} "
        f"peak:{rep_small.a2_peak:.3f}->{rep_big.a2_peak:.3f} "
        f"A4:{rep_small.a4_sum:.4f}->{rep_big.a4_sum:.4f} positivity={positive}",
    )


def test_criterion_8_determinism(tmp_path):
    files = {}
    for workers in (1, 8):
        cfg = ExperimentConfig.from_dict(dict(
            n_grid=[51, 101],
            reps=64,
            seed=808,
            workers=workers,
            test_function={"preset": "S1"},
            scale={"c0": 1.0, "c1": 1.0, "c2": 0.5, "c3": 0.5},
            noise_menu=[{"kind": "gaussian"}, {"kind": "rademacher"}],
        ))
        rows, summary, _ = risk_study(cfg)
        csv_path = tmp_path / f"risk_w{workers}.csv"
        write_csv(rows, csv_path)
        json_path = tmp_path / f"risk_w{workers}.json"
        json_path.write_text(json.dumps(summary, sort_keys=True))
        files[workers] = (csv_path.read_bytes(), json_path.read_bytes())
    identical = files[1] == files[8]
    report("8 determinism", identical, "1 vs 8 workers: byte-identical CSV and summary")
