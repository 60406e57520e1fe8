import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetreg.basis import DesignGrid, fourier_rows, row_dots, serial_matmul
from hetreg.cli import build_parser, main as cli_main
from hetreg.experiments import (
    CSV_COLUMNS,
    ExperimentConfig,
    _make_context,
    _run_replicates,
    efficiency_study,
    lower_bound_study,
    oracle_coefficient,
    oracle_study,
    resolve_scale,
    resolve_test_function,
    risk_study,
    write_csv,
)
from hetreg.models import NoiseSpec, substreams
from hetreg.selection import estimate, family_costs, tail_energy
from hetreg.theory import cell_integrals, oracle_index
from hetreg.weights import default_sequences, pinsker_weights, weight_family


def small_config(**over):
    base = dict(
        n_grid=[51],
        reps=24,
        seed=555,
        workers=1,
        test_function={"preset": "S1"},
        scale={"c0": 1.0, "c1": 1.0, "c2": 0.5, "c3": 0.5},
        noise_menu=[{"kind": "gaussian"}],
        estimators=["adaptive", "oracle_weight", "projection"],
    )
    base.update(over)
    return ExperimentConfig.from_dict(base)


ESTIMATOR_KINDS = ["adaptive", "oracle_weight", "projection", "projection:5", "zero"]


def direct_losses(cfg):
    """Per replicate, each estimator's (empiric, L2) loss and every taper's empiric
    loss, computed one replicate at a time off the dense evaluator."""
    from hetreg.basis import discrete_fourier, trig_series
    from hetreg.experiments import resolve_scale
    from hetreg.models import NoiseSpec, substream
    from hetreg.theory import oracle_index
    from hetreg.weights import pinsker_weights
    from oracles import step_l2_distance_sq

    S, ball, _ = resolve_test_function(cfg)
    scale = resolve_scale(cfg.scale)
    expected, per_taper = {}, {}
    for n in cfg.n_grid:
        g, seqs = DesignGrid(n), cfg.sequences(n)
        family = weight_family(n, seqs)
        fixed = {
            "oracle_weight": pinsker_weights(oracle_index(ball, scale.varsigma(S), n, seqs), n, seqs),
            "projection": np.ones(n),
            "projection:5": np.where(np.arange(n) < 5, 1.0, 0.0),
            "zero": np.zeros(n),
        }
        theta_n = discrete_fourier(S.on_grid(g), g)
        sweep = []
        for rep in range(cfg.reps):
            rng = substream(cfg.seed, 3, n, 0, rep)
            y = S.on_grid(g) + scale.g(g.points, S) * NoiseSpec("gaussian").draw(rng, n)
            out = estimate(y, g, seqs, family)
            th = out.theta_hat
            for name, lam in [("adaptive", out.lambda_hat), *fixed.items()]:
                c = lam * th
                expected[name, n, rep] = (float(np.sum((c - theta_n) ** 2)),
                                          step_l2_distance_sq(trig_series(c, g.points), S, g))
            tapers = np.array([pinsker_weights(alpha, n, seqs) for alpha, _ in family])
            sweep.append(np.sum((tapers * th - theta_n) ** 2, axis=1))
        per_taper[n] = np.array(sweep)
    return expected, per_taper


class TestConfig:
    def test_rejects_even_n(self):
        with pytest.raises(ValueError):
            small_config(n_grid=[50])

    def test_rejects_rho_one_third(self):
        # refused when the config is built, before any oracle replicate runs
        with pytest.raises(ValueError, match=r"rho must lie in \(0, 1/3\)"):
            small_config(rho=1.0 / 3.0)

    @pytest.mark.parametrize("key", ["reps", "workers"])
    @pytest.mark.parametrize("value", [0, -3, 2.5, "2", True, False])
    def test_rejects_bad_reps_and_workers(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be an integer >= 1"):
            small_config(**{key: value})

    @pytest.mark.parametrize("value", [-1, 3.7, True, "3", None])
    def test_rejects_bad_seed(self, value):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            small_config(seed=value)

    def test_accepts_seed_zero(self):
        assert small_config(seed=0).seed == 0

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"bogus": 1})

    @pytest.mark.parametrize("lowerbound", [
        {"prior_mcc": 50}, {"prior_mc": 0}, {"prior_mc": "500"},
        {"bayes_estimators": ["lasso"]}, [], {"bayes_estimators": ["adaptive", "adaptive"]},
        {"prior_mc": True},
    ])
    def test_rejects_bad_lowerbound(self, lowerbound):
        with pytest.raises(ValueError):
            small_config(lowerbound=lowerbound)

    def test_accepts_every_nested_key(self):
        small_config(scale={"c0": 1.0, "c1": 0.0, "c2": 0.5, "c3": 0.5},
                     test_function={"preset": "S1", "trig_coeffs": [0.0, 1.0], "name": "x"},
                     ball={"k": 1, "r": 10.0},
                     noise_menu=[{"kind": "student_t", "df": 7}])
        small_config(scale={"sigma": 2.0}, ball=None)
        small_config(ball={"k": 2, "r": None})
        small_config(scale={})

    @pytest.mark.parametrize("key, high", [("eps", 1.0), ("eta", 0.5)])
    @pytest.mark.parametrize("value", [0.0, -0.1, "0.2", None, True, False,
                                       math.nan, math.inf, -math.inf, [0.2]])
    def test_rejects_bad_eps_and_eta(self, key, high, value):
        with pytest.raises(ValueError, match=rf"lowerbound {key} must be a number in \(0, {high:g}\)"):
            small_config(lowerbound={key: value})

    @pytest.mark.parametrize("key, high", [("eps", 1.0), ("eta", 0.5)])
    def test_eps_and_eta_intervals_are_open(self, key, high):
        with pytest.raises(ValueError, match=f"lowerbound {key} must be a number"):
            small_config(lowerbound={key: high})
        small_config(lowerbound={key: 0.99 * high})

    def test_accepts_every_lowerbound_key(self):
        small_config(lowerbound={"eps": 0.1, "eta": 0.1, "prior_mc": 1,
                                 "bayes_estimators": ["zero", "projection", "adaptive"]})

    def test_presets_have_nonnegative_margin(self):
        for preset in ("S1", "S2", "S3"):
            cfg = small_config(test_function={"preset": preset}, ball=None)
            _, ball, margin = resolve_test_function(cfg)
            assert margin >= 0.0

    def test_s1_preset_is_its_trig_coeffs(self):
        S, ball, margin = resolve_test_function(small_config(test_function={"preset": "S1"}))
        T, ball_t, margin_t = resolve_test_function(
            small_config(test_function={"trig_coeffs": [0.0, 2.0, 0.0, 0.0, 1.0], "name": "S1"})
        )
        assert (S.name, ball, margin) == (T.name, ball_t, margin_t) == ("S1", ball, 0.0)
        np.testing.assert_array_equal(S.coeffs, T.coeffs)

    @pytest.mark.parametrize("name", ["projection:-3", "projection:x", "lasso",
                                      "projection:abc", "projection:", "projection:+3", "adaptive"])
    def test_refuses_unknown_or_negative_estimators(self, name):
        with pytest.raises(ValueError):
            risk_study(small_config(reps=4, estimators=["adaptive", name]))

    def test_refuses_function_outside_ball(self):
        cfg = small_config(ball={"k": 1, "r": 1.0})  # S1 needs r ~ 320
        with pytest.raises(ValueError, match="margin"):
            risk_study(cfg)


class TestOracleCoefficient:
    def test_quarter(self):
        assert oracle_coefficient(0.25) == pytest.approx(6.5)

    def test_small_rho_limit(self):
        assert oracle_coefficient(1e-9) == pytest.approx(1.0, abs=1e-6)

    def test_invalid(self):
        with pytest.raises(ValueError):
            oracle_coefficient(0.4)


class TestMcRisk:
    def test_full_projection_pure_noise(self):
        # lam == 1, S == 0, g == 1: E||S_hat - S||_n^2 = 1
        cfg = small_config(
            test_function={"preset": "S3"}, scale={"sigma": 1.0}, reps=400, estimators=["projection"],
        )
        [out], _, _ = risk_study(cfg)
        assert abs(out.risk_empiric - 1.0) <= 4.0 * out.se_empiric

    def test_adaptive_no_worse_than_full_projection(self):
        cfg = small_config(reps=100, n_grid=[101])
        rows, _, _ = risk_study(cfg)
        by_name = {r.estimator: r for r in rows}
        a, p = by_name["adaptive"], by_name["projection"]
        assert a.risk_empiric <= p.risk_empiric + 3.0 * math.hypot(a.se_empiric, p.se_empiric)

    def test_risk_rows_have_gamma_and_ratio(self):
        cfg = small_config(reps=8)
        rows, _, _ = risk_study(cfg)
        for r in rows:
            assert r.gamma_k > 0.0
            assert r.normalized_ratio == pytest.approx(
                r.n ** (2.0 / 3.0) * r.risk_empiric / r.gamma_k
            )

    def test_single_coefficient_projection_pure_noise(self):
        # lam = indicator{1}, S == 0, g == 1: risk = 1/n
        cfg = small_config(
            test_function={"preset": "S3"}, scale={"sigma": 1.0}, reps=400, estimators=["projection:1"],
        )
        [out], _, _ = risk_study(cfg)
        assert abs(out.risk_empiric - 1.0 / 51.0) <= 4.0 * out.se_empiric

    def test_per_family_rows(self, tmp_path):
        cfg = small_config(reps=10, estimators=["adaptive", "per_family"])
        rows, _, _ = risk_study(cfg)
        fam_rows = [r for r in rows if r.estimator.startswith("lambda[")]
        from hetreg.weights import default_sequences

        s = default_sequences(51)
        assert len(fam_rows) == s.k_star * s.m
        assert all(r.risk_empiric >= 0.0 for r in fam_rows)
        # a family label lambda[beta,t] holds a comma; it used to make an 11-field row
        write_csv(rows, tmp_path / "risk.csv")
        with open(tmp_path / "risk.csv", newline="") as fh:
            table = list(csv.reader(fh))
        assert table[0] == list(CSV_COLUMNS) and len(table) == len(rows) + 1
        assert all(len(line) == len(CSV_COLUMNS) for line in table)
        assert [line[0] for line in table[1:]] == [r.estimator for r in rows]

    def test_batched_losses_match_per_replicate_estimate(self):
        # the block gets every estimator's two losses and the family sweep from
        # one stack of matmuls; each must equal the direct loss on that replicate
        from hetreg.experiments import _study_rows

        for preset in ("S1", "S2"):  # S2's theta_n fills every coefficient
            cfg = small_config(reps=40, n_grid=[51, 101], estimators=ESTIMATOR_KINDS + ["per_family"],
                               test_function={"preset": preset}, save_losses=True)
            rows, _, losses = risk_study(cfg)
            _, sweeps, _ = _study_rows(cfg, ["adaptive"])  # the oracle study's sweep
            expected, per_taper = direct_losses(cfg)
            for n in cfg.n_grid:
                np.testing.assert_allclose(sweeps[n, "gaussian"], per_taper[n], rtol=1e-10)
                for (alpha, _), col in zip(weight_family(n, cfg.sequences(n)), per_taper[n].T):
                    label = f"lambda[{alpha.beta},{alpha.t:.6g}]"
                    row = next(r for r in rows if r.n == n and r.estimator == label)
                    assert row.risk_empiric == pytest.approx(col.mean(), rel=1e-10)
            assert len(losses) == len(expected) == len(ESTIMATOR_KINDS) * len(cfg.n_grid) * cfg.reps
            for name, _, n, rep, loss_n, loss_l2 in losses:
                assert loss_n == pytest.approx(expected[name, n, rep][0], rel=1e-10)
                assert loss_l2 == pytest.approx(expected[name, n, rep][1], rel=1e-10)

    def test_studies_run_without_an_inverse_fft(self, monkeypatch):
        # both losses come from the coefficients, never from synthesized grid values
        def no_irfft(*args, **kwargs):
            raise AssertionError("a study replicate called the inverse FFT")

        monkeypatch.setattr(np.fft, "irfft", no_irfft)
        kinds = ESTIMATOR_KINDS + ["per_family"]
        rows, _, _ = risk_study(small_config(reps=8, n_grid=[51, 101], estimators=kinds))
        assert len(rows) > len(kinds)
        oracle_study(small_config(reps=8, n_grid=[51, 101], rho=0.25))

    def test_empiric_vs_continuous_norm_consistency(self):
        # norm transfer at delta = 1/2: R_n >= R_l2 / 2 - r / n^2
        cfg = small_config(reps=50, n_grid=[101])
        rows, _, _ = risk_study(cfg)
        from hetreg.experiments import resolve_test_function

        _, ball, _ = resolve_test_function(cfg)
        for r in rows:
            assert r.risk_empiric >= 0.5 * r.risk_l2 - ball.r / r.n**2 - 1e-9


def study_context(cfg, n, estimators):
    S, ball, _ = resolve_test_function(cfg)
    return _make_context(cfg, n, estimators, S, ball, resolve_scale(cfg.scale))


class TestHeadOnlyBlock:
    """A block computes theta_hat only up to the taper support, and no FFT; the cell
    scores every replicate from the blocks' heads, energies and dots."""

    @settings(max_examples=30, deadline=None)
    @given(n=st.one_of(st.sampled_from([3, 101, 3001]),
                       st.integers(1, 2000).map(lambda k: 2 * k + 1)),
           rows=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           level=st.floats(min_value=1e-3, max_value=1e3))
    def test_head_and_parseval_tail_equal_the_fft(self, n, rows, seed, level):
        ctx = study_context(small_config(n_grid=[n]), n, ESTIMATOR_KINDS)
        rng = np.random.default_rng(seed)
        Y = level * (np.cos(2.0 * np.pi * 3.0 * DesignGrid(n).points) + rng.standard_normal((rows, n)))
        head, energy = serial_matmul(Y, ctx.analysis, 0), row_dots(Y, Y) / n
        tail = energy - np.sum(head[:, : ctx.seqs.l_n] ** 2, axis=1)  # as `score_cell` takes it
        theta_hat = fourier_rows(Y)
        d = ctx.analysis.shape[1]
        assert max(ctx.L.shape[1], ctx.seqs.l_n) == d <= n
        np.testing.assert_allclose(head, theta_hat[:, :d], rtol=1e-12,
                                   atol=1e-12 * np.abs(theta_hat).max())
        np.testing.assert_allclose(energy, np.sum(theta_hat**2, axis=1), rtol=1e-12)
        # the tail is a difference of energies: exact up to rounding of the row energy
        np.testing.assert_allclose(tail, tail_energy(theta_hat, ctx.seqs.l_n), rtol=1e-12,
                                   atol=1e-12 * energy.max())

    @pytest.mark.parametrize("n", [51, 101, 1001])
    @pytest.mark.parametrize("preset", ["S1", "S2"])
    def test_block_equals_fft_reference(self, monkeypatch, n, preset):
        # the reference draws the same stack, takes the full FFT and scores
        # every estimator's full-length weights; the cell runs in blocks of 16
        from hetreg import selection

        cfg = small_config(n_grid=[n], test_function={"preset": preset})
        ctx = study_context(cfg, n, ESTIMATOR_KINDS)
        S, ball, _ = resolve_test_function(cfg)
        seqs, family = ctx.seqs, ctx.family
        picks = []

        def recorded(*args):
            costs = family_costs(*args)
            picks.append(np.argmin(costs, axis=-1))
            return costs

        monkeypatch.setattr(selection, "family_costs", recorded)
        monkeypatch.setattr(selection, "BLOCK_ENTRIES", 16 * n)
        gaussian = NoiseSpec("gaussian")
        losses, sweep = _run_replicates(ctx, gaussian, 0, 45)

        Y = np.stack([gaussian.draw(rng, n) for rng in substreams(cfg.seed, 3, n, 0, reps=range(45))])
        Y = ctx.S_design + ctx.g_design * Y
        theta_hat = fourier_rows(Y)
        pick = np.argmin(family_costs(family.W, theta_hat, tail_energy(theta_hat, seqs.l_n), n, seqs), axis=-1)
        assert len(picks) == 1
        np.testing.assert_array_equal(picks[0], pick)
        cell_int_s, s_l2_sq = cell_integrals(S, n)
        theta_n, t = fourier_rows(S.on_grid(DesignGrid(n))), n * fourier_rows(cell_int_s)
        tapers = np.array([pinsker_weights(alpha, n, seqs) for alpha, _ in family])
        oracle = oracle_index(ball, resolve_scale(cfg.scale).varsigma(S), n, seqs)
        fixed = {
            "oracle_weight": pinsker_weights(oracle, n, seqs),
            "projection": np.ones(n),
            "projection:5": (np.arange(n) < 5).astype(float),
            "zero": np.zeros(n),
        }
        for e, name in enumerate(ESTIMATOR_KINDS):
            c = (tapers[pick] if name == "adaptive" else fixed[name]) * theta_hat
            ref = np.stack([np.sum((c - theta_n) ** 2, axis=1),
                            np.sum(c**2, axis=1) - 2.0 * c @ t + s_l2_sq], axis=1)
            np.testing.assert_allclose(losses[:, e], ref, rtol=1e-12, err_msg=name)
        np.testing.assert_allclose(
            sweep, np.sum((tapers[None] * theta_hat[:, None] - theta_n) ** 2, axis=2), rtol=1e-12)

    def test_full_projection_does_not_widen_the_head(self):
        cfg = small_config(n_grid=[1001])
        narrow = study_context(cfg, 1001, ["adaptive"])
        wide = study_context(cfg, 1001, ["adaptive", "projection"])
        assert narrow.analysis.shape == wide.analysis.shape == (1001, narrow.L.shape[1])
        assert study_context(cfg, 1001, ["projection:500"]).analysis.shape == (1001, 500)


class TestBayesMinimaxOrdering:
    def test_bayes_risk_below_max_frequentist_over_prior_draws(self):
        # averaging over the prior cannot exceed the worst sampled S
        import numpy as np

        from hetreg.basis import DesignGrid, grid_values
        from hetreg.lowerbound import bayes_risk_mc, kernel_function, least_favorable_prior
        from hetreg.models import SIMPSON_PANELS, NoiseSpec, homogeneous_scale, substream
        from hetreg.selection import estimate as run_estimate
        from hetreg.basis import basis_eval_matrix

        scale = homogeneous_scale(1.0)
        grid = DesignGrid(51)
        prior = least_favorable_prior(1, 1.0, 51, eps=0.2)

        def adaptive(Y, g):
            out = run_estimate(Y, g)
            return out.lambda_hat * out.theta_hat

        [(bayes, bayes_se)] = bayes_risk_mc(["adaptive"], prior, scale, default_sequences(51),
                                            reps=400, seed=21)

        xq = np.linspace(0.0, 1.0, SIMPSON_PANELS + 1)
        wq = np.ones(len(xq))
        wq[1:-1:2] = 4.0
        wq[2:-1:2] = 2.0
        wq /= 3.0 * SIMPSON_PANELS
        Phi_q = basis_eval_matrix(51, xq)
        noise = NoiseSpec("gaussian")
        freq_risks = []
        for d in range(8):
            theta = prior.t * substream(77, 1, d).standard_normal(prior.t.shape)
            s_design = kernel_function(theta, prior.family, grid.points)
            s_quad = kernel_function(theta, prior.family, xq)
            losses = []
            for rep in range(120):
                rng = substream(77, 2, d, rep)
                Y = s_design + noise.draw(rng, 51)
                c = adaptive(Y, grid)
                losses.append(float(wq @ (Phi_q @ c - s_quad) ** 2))
            freq_risks.append(float(np.mean(losses)))
        assert bayes <= max(freq_risks) + 5.0 * bayes_se


class TestOracleStudy:
    def test_summary_structure_and_inequality(self):
        cfg = small_config(reps=60, n_grid=[51, 101], rho=0.25)
        rows, summary, _ = oracle_study(cfg)
        assert summary["rho"] == 0.25
        recs = summary["per_noise"]["gaussian"]
        for rec in recs:
            assert rec["coefficient"] == pytest.approx(6.5)
            # the inequality with the recorded slack holds by construction
            assert rec["adaptive_risk"] <= rec["coefficient"] * rec["min_family_risk"] + rec["slack"] + 1e-12
            assert rec["slack"] >= 0.0
        assert {r.estimator for r in rows} == {"adaptive", "family_min"}

    def test_each_noise_reads_its_own_cell(self):
        cfg = small_config(reps=20, n_grid=[51, 101], rho=0.25,
                           noise_menu=[{"kind": "gaussian"}, {"kind": "student_t", "df": 6}])
        rows, summary, _ = oracle_study(cfg)
        risk = {(r.estimator, r.noise, r.n): r.risk_empiric for r in rows}
        for label in ("gaussian", "student_t6"):
            recs = summary["per_noise"][label]
            assert [rec["n"] for rec in recs] == [51, 101]
            for rec in recs:
                assert rec["adaptive_risk"] == risk["adaptive", label, rec["n"]]
                assert rec["min_family_risk"] == risk["family_min", label, rec["n"]]
        assert risk["adaptive", "gaussian", 51] != risk["adaptive", "student_t6", 51]

    def test_trend_pass_flag_present(self):
        cfg = small_config(reps=40, n_grid=[51, 101], rho=0.25)
        _, summary, _ = oracle_study(cfg)
        assert "grows_slower_than_sqrt_n" in summary["trend"]["gaussian"]


class TestEfficiencyStudy:
    def test_rows_and_trend(self):
        cfg = small_config(reps=60, n_grid=[51, 101])
        rows, summary, _ = efficiency_study(cfg)
        trend = summary["trend"]["gaussian"]
        assert trend["ns"] == [51, 101]
        assert len(trend["oracle_ratios"]) == 2
        assert all(r > 0 for r in trend["oracle_ratios"])

    def test_trend_reads_oracle_weight_whatever_the_estimators(self):
        # the trend is oracle_weight's: a config that names other estimators
        # must not leave it empty (it wrote ns [] and a NaN final ratio)
        rows, summary, _ = efficiency_study(small_config(reps=20, n_grid=[51, 101],
                                                         estimators=["adaptive", "projection"]))
        assert {r.estimator for r in rows} == {"adaptive", "oracle_weight"}
        assert summary["trend"]["gaussian"]["ns"] == [51, 101]
        _, both, _ = efficiency_study(small_config(reps=20, n_grid=[51, 101]))
        assert summary == both

    def test_homogeneous_scale_recovers_classical_normalization(self):
        from hetreg.theory import pinsker_constant

        cfg = small_config(reps=10, scale={"sigma": 1.0})
        _, summary, _ = efficiency_study(cfg)
        k, r = summary["ball"]["k"], summary["ball"]["r"]
        assert summary["varsigma"] == pytest.approx(1.0)
        assert summary["gamma_k"] == pytest.approx(pinsker_constant(k, r, 1.0))

    def test_criterion_5_config_peaks_below_5_mib(self):
        # 200 replicates at n = 3001 run in blocks of BLOCK_ENTRIES // n = 87 rows,
        # each drawn in place: 2 MiB of observations at a time
        import tracemalloc

        cfg = small_config(n_grid=[101, 301, 1001, 3001], reps=200, seed=505, workers=2,
                           estimators=["adaptive", "oracle_weight"])
        tracemalloc.start()
        efficiency_study(cfg)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 5 * 2**20


class TestLowerBoundStudy:
    def test_records(self):
        cfg = small_config(
            reps=80, n_grid=[51],
            lowerbound={"eps": 0.2, "eta": 0.05, "prior_mc": 80,
                        "bayes_estimators": ["zero", "adaptive"]},
        )
        rows, summary, _ = lower_bound_study(cfg)
        rec = summary["records"][0]
        assert rec["bound"] > 0.0
        for name, br in rec["bayes_risks"].items():
            assert br["risk"] + 5.0 * br["se"] >= rec["bound"]
        assert any(r.estimator == "van_trees_bound" for r in rows)

    @pytest.mark.parametrize("n", [51, 101])
    def test_adaptive_bayes_risk_is_estimate(self, n):
        # the adaptive Bayes loss is that of `estimate` on each replicate's
        # observations, drawn as bayes_risk_mc draws them and scored one at a time
        from hetreg.lowerbound import bayes_risk_mc, least_favorable_prior
        from hetreg.models import econometric_scale, substream

        scale = econometric_scale(1.0, 1.0, 0.5, 0.5)
        prior = least_favorable_prior(1, 1.0, n, eps=0.2)
        D, G, C = prior.family_arrays
        seqs, grid, reps = default_sequences(n), DesignGrid(n), 30
        family = weight_family(n, seqs)
        picked, losses = set(), []
        for rep in range(reps):
            rng = substream(4, 13, n, rep)
            t = rng.standard_normal(len(D)) * prior.t.ravel()
            s = t @ D
            Y = s + np.sqrt(scale.g2(grid.points, s, t @ G @ t)) * rng.standard_normal(n)
            out = estimate(Y, grid, seqs, family)
            picked.add(out.selected)
            c = out.lambda_hat * out.theta_hat
            losses.append(c @ c - 2.0 * c @ (C @ t) + t @ G @ t)
        assert len(picked) > 1
        [risk] = bayes_risk_mc(["adaptive"], prior, scale, seqs, reps=reps, seed=4)
        np.testing.assert_allclose(risk, (np.mean(losses), np.std(losses, ddof=1) / math.sqrt(reps)),
                                   rtol=1e-9)


class TestBayesOnePass:
    """Every Bayes estimator of a lower-bound study is scored on one pass of draws."""

    def test_one_call_equals_single_estimator_calls(self):
        from hetreg.lowerbound import bayes_risk_mc, least_favorable_prior
        from hetreg.models import econometric_scale

        n = 51
        seqs = small_config(n_grid=[n]).sequences(n)
        scale = econometric_scale(1.0, 1.0, 0.5, 0.5)
        prior = least_favorable_prior(1, 1.0, n, eps=0.2)
        names = ["zero", "projection", "adaptive"]
        together = bayes_risk_mc(names, prior, scale, seqs, reps=30, seed=4)
        alone = [bayes_risk_mc([name], prior, scale, seqs, reps=30, seed=4)[0] for name in names]
        assert together == alone
        assert len(set(together)) == 3

    @pytest.mark.parametrize("names", [["adaptive"], ["zero", "projection", "adaptive"]])
    def test_one_draw_pass_per_n(self, monkeypatch, names):
        from hetreg import experiments, lowerbound

        calls = {"substream": 0, "substreams": 0, "bayes_risk_mc": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(lowerbound, "substream", counted("substream", lowerbound.substream))
        monkeypatch.setattr(lowerbound, "substreams", counted("substreams", lowerbound.substreams))
        monkeypatch.setattr(experiments, "bayes_risk_mc",
                            counted("bayes_risk_mc", experiments.bayes_risk_mc))
        cfg = small_config(n_grid=[51, 101], reps=9,
                           lowerbound={"prior_mc": 5, "bayes_estimators": names})
        _, summary, _ = lower_bound_study(cfg)
        # for each n: one block of replicate substreams, seeded at once, for the
        # single Bayes-risk pass; the van Trees bound draws nothing
        assert calls == {"substream": 0, "substreams": 2, "bayes_risk_mc": 2}
        assert [list(rec["bayes_risks"]) for rec in summary["records"]] == [names, names]

    def test_one_analysis_matrix_per_n(self, monkeypatch):
        # every block takes theta_hat's head from one analysis matrix per n, with no FFT
        from hetreg import lowerbound, selection

        calls = {"fourier_rows": [], "basis_eval_matrix": []}
        evaluate = lowerbound.basis_eval_matrix

        def counted(d, x):
            calls["basis_eval_matrix"].append(x.n)
            return evaluate(d, x)

        monkeypatch.setattr(lowerbound, "fourier_rows", lambda Y: calls["fourier_rows"].append(np.shape(Y)),
                            raising=False)
        monkeypatch.setattr(lowerbound, "basis_eval_matrix", counted)
        monkeypatch.setattr(selection, "BLOCK_ENTRIES", 3 * 101)  # 5 Bayes blocks over the two n
        monkeypatch.setattr(lowerbound, "BLOCK_ENTRIES", 3 * 101)  # and the van Trees slabs
        cfg = small_config(n_grid=[51, 101], reps=9,
                           lowerbound={"prior_mc": 5, "bayes_estimators": ["zero", "projection", "adaptive"]})
        lower_bound_study(cfg)
        assert calls == {"fourier_rows": [], "basis_eval_matrix": [51, 101]}

    @pytest.mark.parametrize("n", [51, 101, 1001])
    def test_losses_equal_the_fft_formulas(self, monkeypatch, n):
        # every replicate's losses and pick against the full spectrum of the same
        # draws: |th|^2 - 2 th . C t + t'Gt, and the taper rows with the FFT tail
        from hetreg import lowerbound, selection
        from hetreg.models import econometric_scale
        from hetreg.selection import taper_losses

        rows, picks = [], []
        costs_of = selection.family_costs

        def recorded(*args):
            costs = costs_of(*args)
            picks.append(np.argmin(costs, axis=-1))
            return costs

        monkeypatch.setattr(lowerbound, "mean_se", lambda row: rows.append(row.copy()) or (0.0, 0.0))
        monkeypatch.setattr(selection, "family_costs", recorded)
        monkeypatch.setattr(selection, "BLOCK_ENTRIES", 16 * n)  # several blocks at every n
        reps, seed = 40, 9
        scale = econometric_scale(1.0, 1.0, 0.5, 0.5)
        prior = lowerbound.least_favorable_prior(1, 1.0, n, eps=0.2)
        seqs = default_sequences(n)
        lowerbound.bayes_risk_mc(["zero", "projection", "adaptive"], prior, scale, seqs, reps=reps, seed=seed)

        D, gram, cross = prior.family_arrays
        T, xi = np.empty((reps, len(D))), np.empty((reps, n))
        for i, rng in enumerate(substreams(seed, 13, n, reps=range(reps))):
            rng.standard_normal(out=T[i])
            rng.standard_normal(out=xi[i])
        T *= prior.t.ravel()
        s = serial_matmul(T, D, 0)
        tGt = row_dots(serial_matmul(T, gram, 0), T)
        th = fourier_rows(s + np.sqrt(scale.g2(DesignGrid(n).points, s, tGt[:, None])) * xi)
        Tc = serial_matmul(T, cross.T, 0)
        W = weight_family(n, seqs).W
        m = W.shape[1]
        pick = np.argmin(family_costs(W, th, tail_energy(th, seqs.l_n), n, seqs), axis=-1)
        expected = [tGt, row_dots(th, th) - 2.0 * row_dots(th, Tc) + tGt,
                    taper_losses(W, th[:, :m], Tc[:, :m], tGt[:, None])[np.arange(reps), pick]]
        np.testing.assert_array_equal(np.concatenate(picks), pick)
        assert len(rows) == 3
        np.testing.assert_array_equal(rows[0], tGt)  # `zero` is a taper row of zeros: exactly t'Gt
        for got, want in zip(rows, expected):
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_family_integrals_once_per_n(self, monkeypatch):
        # the bound and the Bayes risks share one prior, so one (G, C), per n
        from hetreg import lowerbound

        sizes = []
        integrals = lowerbound._family_integrals

        def counted(family, n):
            sizes.append(n)
            return integrals(family, n)

        monkeypatch.setattr(lowerbound, "_family_integrals", counted)
        cfg = small_config(n_grid=[51, 101], reps=9,
                           lowerbound={"prior_mc": 5, "bayes_estimators": ["zero", "adaptive"]})
        lower_bound_study(cfg)
        assert sizes == [51, 101]


def run_cli_process(argv, tmp_path, **env):
    """`hetreg <argv>` in a fresh interpreter; returns the top-level packages it imported."""
    src = str(Path(__import__("hetreg").__file__).resolve().parents[1])
    code = ("import json, sys; from hetreg.cli import main; code = main(sys.argv[1:]); "
            "print(json.dumps(sorted({m.split('.')[0] for m in sys.modules}))); sys.exit(code)")
    env = {**os.environ, "PYTHONPATH": src, **env}
    done = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


TINY_LOWER_BOUND = {
    "n_grid": [51, 101], "reps": 8, "test_function": {"preset": "S3"}, "ball": {"k": 1, "r": 1.0},
    "scale": {"c0": 1.0, "c1": 1.0, "c2": 0.5, "c3": 0.5},
    "lowerbound": {"prior_mc": 8, "bayes_estimators": ["zero", "projection", "adaptive"]},
}


class TestDeterminism:
    def test_lower_bound_runs_without_scipy(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps(TINY_LOWER_BOUND))
        imported = run_cli_process(["lower-bound", "--config", "cfg.json", "--out", "."], tmp_path)
        assert "hetreg" in imported and "numpy" in imported
        assert "scipy" not in imported

    def test_lower_bound_bytes_do_not_follow_blas_threads(self, tmp_path):
        # a threaded BLAS dot sums one partial dot per thread; every dot of the
        # lower-bound path, and a study's row dots at n >= 10001, are taken in fixed chunks instead;
        # at n = 20001 the Bayes risk's one-row head products (n d > 2^18) run as threaded gemv,
        # and its 14 replicates span two blocks of 13, so the second block's products start at 13;
        # at n = 1001 the van Trees bound runs two groups of N = 2 directions through its einsum sums
        (tmp_path / "cfg.json").write_text(json.dumps({**TINY_LOWER_BOUND, "n_grid": [51, 101, 1001]}))
        (tmp_path / "large.json").write_text(json.dumps({"n_grid": [10001], "reps": 3}))
        (tmp_path / "large_lb.json").write_text(json.dumps(
            {**TINY_LOWER_BOUND, "n_grid": [20001], "reps": 14, "lowerbound": {"prior_mc": 4}}))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            out.mkdir()
            files = []
            for study, cfg in (("lower-bound", "cfg.json"), ("efficiency", "large.json"),
                               ("lower-bound", "large_lb.json")):
                run_cli_process([study, "--config", cfg, "--out", out.name], tmp_path,
                                OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
                stem = study.replace("-", "_")
                files += [(out / f"{stem}.{ext}").read_bytes() for ext in ("csv", "json")]
            outputs.append(files)
        assert outputs[0] == outputs[1]

    def test_worker_count_does_not_change_rows(self):
        cfg1 = small_config(reps=70, workers=1, n_grid=[51, 101])
        cfg8 = small_config(reps=70, workers=8, n_grid=[51, 101])
        rows1, _, _ = risk_study(cfg1)
        rows8, _, _ = risk_study(cfg8)
        assert rows1 == rows8

    @pytest.mark.parametrize("n", [101, 1001, 3001, 16385])
    def test_replicate_losses_do_not_follow_reps(self, n):
        # a short trailing row block of a product used to run as gemv, or as a
        # gemm of another height, and round differently from a full one; from
        # n = 16385 on, einsum rounded a one-row block's energy |Y|^2 differently too
        def losses(reps):
            cfg = small_config(n_grid=[n], reps=reps, estimators=ESTIMATOR_KINDS, save_losses=True)
            return {(e, rep): (a, b) for e, _, _, rep, a, b in risk_study(cfg)[2]}

        for few, more in ((1, 2), (3, 4), (7, 12)):
            short, long = losses(few), losses(more)
            assert short == {key: long[key] for key in short}

    @pytest.mark.parametrize("n", [101, 3001, 20001])
    def test_blocks_do_not_change_the_losses(self, monkeypatch, n):
        # blocks of 3 or 16 replicates give the one-block losses bit for bit; 70
        # replicates reach the tail rows (height mod 4) of the taper products'
        # padded row blocks (heights 62 at n = 3001, 15 at 20001), which OpenBLAS
        # rounds apart from the others: at n = 20001, projection:5's losses moved
        # with their block while the blocks were not aligned to the replicate index
        from hetreg import selection

        cfg = small_config(n_grid=[n], reps=70, save_losses=True,
                           estimators=["adaptive", "oracle_weight", "projection", "zero", "projection:5"],
                           noise_menu=[{"kind": "gaussian"}, {"kind": "student_t", "df": 12}])

        def losses(rows):
            monkeypatch.setattr(selection, "BLOCK_ENTRIES", rows * n)
            return risk_study(cfg)[2]

        whole = losses(70)
        for rows in (3, 16):
            assert losses(rows) == whole

    def test_csv_bytes_identical(self, tmp_path):
        paths = []
        for w in (1, 8):
            cfg = small_config(reps=40, workers=w)
            rows, _, _ = risk_study(cfg)
            p = tmp_path / f"risk_{w}.csv"
            write_csv(rows, p)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_header(self, tmp_path):
        cfg = small_config(reps=4)
        rows, _, _ = risk_study(cfg)
        p = tmp_path / "risk.csv"
        write_csv(rows, p)
        assert p.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)


class TestNoiseMenuEnvelope:
    def test_menu_max_rows_emitted(self):
        cfg = small_config(
            reps=12,
            noise_menu=[{"kind": "gaussian"}, {"kind": "rademacher"},
                        {"kind": "uniform"}, {"kind": "student_t", "df": 12}],
        )
        rows, _, _ = risk_study(cfg)
        labels = {r.noise for r in rows}
        assert "menu_max" in labels
        for est in cfg.estimators:
            per = [r for r in rows if r.estimator == est and r.noise != "menu_max"]
            env = next(r for r in rows if r.estimator == est and r.noise == "menu_max")
            assert env.risk_empiric == pytest.approx(max(r.risk_empiric for r in per))

    def test_one_cell_per_n(self, monkeypatch):
        # nothing in a study cell depends on the noise, so the whole menu shares one per n
        from hetreg import experiments

        sizes = []
        make_context = experiments._make_context

        def counted(cfg, n, *args):
            sizes.append(n)
            return make_context(cfg, n, *args)

        monkeypatch.setattr(experiments, "_make_context", counted)
        cfg = small_config(reps=6, n_grid=[51, 101],
                           noise_menu=[{"kind": "gaussian"}, {"kind": "student_t", "df": 12}])
        rows, _, _ = risk_study(cfg)
        assert sizes == [51, 101]
        assert [(r.noise, r.n) for r in rows if r.estimator == "adaptive"] == [
            ("gaussian", 51), ("student_t12", 51), ("gaussian", 101), ("student_t12", 101),
            ("menu_max", 51), ("menu_max", 101),
        ]


def y_text(y) -> str:
    """A dataset of one column y, each value written as its repr."""
    return "y\n" + "".join(f"{float(v)!r}\n" for v in y)


def refused_estimate(tmp_path, text):
    """The exit code of `hetreg estimate --out` on a dataset file holding `text`; it writes no file."""
    data_path, out_path = tmp_path / "data.csv", tmp_path / "est.json"
    data_path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        cli_main(["estimate", "--data", str(data_path), "--out", str(out_path)])
    assert not out_path.exists()
    return exc.value.code


class TestCli:
    def test_simulate_then_estimate_roundtrip(self, tmp_path):
        cfg = dict(small_config(n_grid=[51]).__dict__)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        data_path = tmp_path / "data.csv"
        assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(data_path)]) == 0
        out_path = tmp_path / "est.json"
        assert cli_main(["estimate", "--data", str(data_path), "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["n"] == 51
        assert len(payload["theta_hat"]) == 51
        assert payload["costs"]
        assert min(c["cost"] for c in payload["costs"]) == pytest.approx(
            next(c["cost"] for c in payload["costs"]
                 if (c["beta"], c["t"]) == (payload["selected"]["beta"], payload["selected"]["t"]))
        )

    def test_study_outputs_files(self, tmp_path):
        cfg = dict(small_config(reps=6).__dict__)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert cli_main(["risk", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        assert (out_dir / "risk.csv").exists()
        assert (out_dir / "risk.json").exists()

    @pytest.mark.parametrize("estimators", [["per_family"], []], ids=["per_family", "none"])
    def test_risk_without_named_estimators(self, tmp_path, estimators):
        # no named estimator leaves an empty column list: the study still writes
        # the family sweep's rows, or a header alone
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(small_config(reps=4, estimators=estimators).__dict__)))
        out_dir = tmp_path / "out"
        assert cli_main(["risk", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        with open(out_dir / "risk.csv", newline="") as fh:
            table = list(csv.reader(fh))
        s = default_sequences(51)
        assert table[0] == list(CSV_COLUMNS)
        assert len(table) == 1 + (s.k_star * s.m if estimators else 0)
        assert all(row[0].startswith("lambda[") for row in table[1:])

    @pytest.mark.parametrize("argv, message", [
        (["--reps", "0"], "hetreg risk: reps must be an integer >= 1, got 0"),
        (["--workers", "-3"], "hetreg risk: workers must be an integer >= 1, got -3"),
        (["--seed", "-1"], "hetreg risk: seed must be an integer >= 0, got -1"),
    ])
    def test_study_overrides_are_validated(self, tmp_path, argv, message):
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli_main(["risk", "--out", str(out_dir), *argv])
        assert str(exc.value.code) == message
        assert not out_dir.exists()

    def test_config_workers_are_validated(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"workers": 2.5}))
        with pytest.raises(SystemExit) as exc:
            cli_main(["oracle", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert str(exc.value.code) == "hetreg oracle: workers must be an integer >= 1, got 2.5"

    @pytest.mark.parametrize("key", ["reps", "workers"])
    def test_config_boolean_counts_are_refused(self, tmp_path, key):
        # JSON true is no replicate count: it used to run one replicate and record "reps": true
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_grid": [51], "reps": 4, key: True}))
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli_main(["risk", "--config", str(cfg_path), "--out", str(out_dir)])
        assert str(exc.value.code) == f"hetreg risk: {key} must be an integer >= 1, got True"
        assert not out_dir.exists()

    @pytest.mark.parametrize("seed", [3.7, -1, True])
    def test_config_seed_is_validated(self, tmp_path, seed):
        # a float seed would key every draw by int(seed) while the CSV records the float
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_grid": [51], "reps": 4, "seed": seed}))
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli_main(["risk", "--config", str(cfg_path), "--out", str(out_dir)])
        assert str(exc.value.code) == f"hetreg risk: seed must be an integer >= 0, got {seed!r}"
        assert not out_dir.exists()

    @pytest.mark.parametrize("section, message", [
        # a string is truthy: it used to write risk_losses.csv and exit 0
        ({"save_losses": "no"}, "save_losses must be a boolean, got 'no'"),
        ({"output_path": 5}, "output_path must be a string, got 5"),
        # a string is iterable: it used to be refused as unknown estimator 'a'
        ({"estimators": "adaptive"}, "estimators must be a list of strings, got 'adaptive'"),
        ({"estimators": ["adaptive", 3]}, "estimators must be a list of strings, got ['adaptive', 3]"),
        # a repeated name used to write two identical rows, and a bad d to exit on int()'s message
        ({"estimators": ["adaptive", "adaptive"]}, "estimators must be unique, got ['adaptive', 'adaptive']"),
        ({"estimators": ["projection:abc"]},
         "estimator 'projection:abc' must be projection:d with an integer d >= 0"),
        ({"estimators": ["projection:"]}, "estimator 'projection:' must be projection:d with an integer d >= 0"),
        ({"estimators": ["lasso"]}, "unknown estimator 'lasso'"),
    ])
    def test_config_types_are_validated(self, tmp_path, monkeypatch, section, message):
        monkeypatch.chdir(tmp_path)
        out_dir = tmp_path / "out"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_grid": [51], "reps": 4, "output_path": str(out_dir),
                                        **section}))
        with pytest.raises(SystemExit) as exc:
            cli_main(["risk", "--config", str(cfg_path)])
        assert str(exc.value.code) == f"hetreg risk: {message}"
        assert not out_dir.exists() and list(tmp_path.iterdir()) == [cfg_path]

    @pytest.mark.parametrize("lowerbound, message", [
        ({"prior_mcc": 50}, "unknown lowerbound keys: ['prior_mcc']"),
        ({"prior_mc": 0}, "lowerbound prior_mc must be an integer >= 1, got 0"),
        ({"prior_mc": -3}, "lowerbound prior_mc must be an integer >= 1, got -3"),
        ({"prior_mc": 2.5}, "lowerbound prior_mc must be an integer >= 1, got 2.5"),
        ({"bayes_estimators": ["zero", "lasso"]}, "unknown bayes estimator 'lasso'"),
        ({"bayes_estimators": ["adaptive", "zero", "adaptive"]},
         "bayes estimators must be unique, got ['adaptive', 'zero', 'adaptive']"),
        ({"prior_mc": True}, "lowerbound prior_mc must be an integer >= 1, got True"),
        ({"eps": "0.2"}, "lowerbound eps must be a number in (0, 1), got '0.2'"),
        ({"eps": 1.5}, "lowerbound eps must be a number in (0, 1), got 1.5"),
        ({"eps": False}, "lowerbound eps must be a number in (0, 1), got False"),
        ({"eta": None}, "lowerbound eta must be a number in (0, 0.5), got None"),
        ({"eta": 0.5}, "lowerbound eta must be a number in (0, 0.5), got 0.5"),
        ({"eta": True}, "lowerbound eta must be a number in (0, 0.5), got True"),
        ({"bayes_estimators": "zero"},
         "lowerbound bayes_estimators must be a list of strings, got 'zero'"),
    ])
    def test_lower_bound_config_is_validated(self, tmp_path, lowerbound, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_grid": [51], "reps": 4, "lowerbound": lowerbound}))
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli_main(["lower-bound", "--config", str(cfg_path), "--out", str(out_dir)])
        assert str(exc.value.code) == f"hetreg lower-bound: {message}"
        assert not out_dir.exists()

    def test_lower_bound_refuses_an_overflowing_g0(self, tmp_path):
        # c0 = c1 = 1e308 are finite and pass the scale's checks, but g0^2 = c0 + c1 x overflows:
        # the prior's c_eps read 0 and `least_favorable_prior` raised ZeroDivisionError
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_grid": [51], "reps": 4, "scale": {"c0": 1e308, "c1": 1e308}}))
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc, np.errstate(over="ignore"):
            cli_main(["lower-bound", "--config", str(cfg_path), "--out", str(out_dir)])
        assert str(exc.value.code) == "hetreg lower-bound: g0 must have a finite positive integral of g0^2, got inf"
        assert not out_dir.exists()

    @pytest.mark.parametrize("section, message", [
        ({"scale": {"c0": 1.0, "c22": 0.5}}, "unknown scale keys: ['c22']"),
        ({"scale": {"sigma": 1.0, "c0": 1.0}}, "unknown scale keys: ['c0']"),
        ({"scale": 1.0}, "scale must be a mapping, got 1.0"),
        ({"test_function": {"preset": "S1", "trig_coef": [1, 2]}},
         "unknown test_function keys: ['trig_coef']"),
        ({"ball": {"kk": 3}}, "unknown ball keys: ['kk']"),
        ({"ball": [1, 1.0]}, "ball must be a mapping, got [1, 1.0]"),
        ({"noise_menu": [{"kind": "gaussian"}, {"kind": "student_t", "dff": 3}]},
         "unknown noise keys: ['dff']"),
        ({"noise_menu": ["gaussian"]}, "noise must be a mapping, got 'gaussian'"),
        ({"ball": {"k": 1.5}}, "ball k must be an integer >= 1, got 1.5"),
        ({"ball": {"k": 0, "r": 1.0}}, "ball k must be an integer >= 1, got 0"),
        ({"ball": {"k": True}}, "ball k must be an integer >= 1, got True"),
        ({"ball": {"k": "1"}}, "ball k must be an integer >= 1, got '1'"),
        ({"ball": {"k": 1, "r": -1}}, "ball r must be a positive finite number or null, got -1"),
        ({"ball": {"r": 0.0}}, "ball r must be a positive finite number or null, got 0.0"),
        ({"ball": {"r": "1"}}, "ball r must be a positive finite number or null, got '1'"),
        ({"ball": {"r": 1e400}}, "ball r must be a positive finite number or null, got inf"),
        ({"scale": {"c0": "1"}}, "scale c0 must be a finite number, got '1'"),
        ({"scale": {"c0": 1.0, "c2": True}}, "scale c2 must be a finite number, got True"),
        ({"scale": {"c0": math.nan}}, "scale c0 must be a finite number, got nan"),
        ({"scale": {"c0": 1.0, "c3": -math.inf}}, "scale c3 must be a finite number, got -inf"),
        ({"scale": {"sigma": "a"}}, "scale sigma must be a finite number, got 'a'"),
        ({"scale": {"sigma": math.inf}}, "scale sigma must be a finite number, got inf"),
        ({"scale": {"sigma": None}}, "scale sigma must be a finite number, got None"),
        ({"scale": {"sigma": 0.0}}, "sigma must be positive"),
        ({"scale": {"sigma": 1e200}}, "scale sigma^2 must be a finite number, got inf"),
        ({"test_function": {"trig_coeffs": [0.0, math.nan, 1.0]}},
         "test_function trig_coeffs must be a nonempty list of finite numbers, got [0.0, nan, 1.0]"),
        ({"test_function": {"trig_coeffs": [[1.0, 2.0]]}},
         "test_function trig_coeffs must be a nonempty list of finite numbers, got [[1.0, 2.0]]"),
        ({"test_function": {"trig_coeffs": [1.0, math.inf]}},
         "test_function trig_coeffs must be a nonempty list of finite numbers, got [1.0, inf]"),
        ({"test_function": {"trig_coeffs": [-math.inf]}},
         "test_function trig_coeffs must be a nonempty list of finite numbers, got [-inf]"),
        ({"test_function": {"trig_coeffs": [0.0, True]}},
         "test_function trig_coeffs must be a nonempty list of finite numbers, got [0.0, True]"),
        ({"test_function": {"trig_coeffs": ["1.0"]}},
         "test_function trig_coeffs must be a nonempty list of finite numbers, got ['1.0']"),
        ({"test_function": {"trig_coeffs": []}},
         "test_function trig_coeffs must be a nonempty list of finite numbers, got []"),
        ({"test_function": {"trig_coeffs": 1.0}},
         "test_function trig_coeffs must be a nonempty list of finite numbers, got 1.0"),
        ({"test_function": {"trig_coeffs": [0.0, 1.0], "name": 7}}, "test_function name must be a string, got 7"),
        ({"test_function": {"preset": "S4"}}, "test_function preset must be S1, S2 or S3, got 'S4'"),
        ({"test_function": {"preset": None, "trig_coeffs": [1.0]}},
         "test_function preset must be S1, S2 or S3, got None"),
        ({"n_grid": [11], "test_function": {"trig_coeffs": [0.0, 1e200]}},
         "test_function trig_coeffs must have a finite ellipsoid norm at k = 1, got [0.0, 1e+200]"),
        ({"n_grid": [11], "test_function": {"trig_coeffs": [1e160]}},
         "test_function trig_coeffs must have a finite ellipsoid norm at k = 1, got [1e+160]"),
        ({"n_grid": [11], "ball": {"k": 200}}, "test_function preset S1 must have a finite ellipsoid norm at k = 200"),
        ({"n_grid": [11], "test_function": {"preset": "S2"}, "ball": {"k": 80}, "reps": 2},
         "test_function preset S2 must have a finite ellipsoid norm at k = 80"),
    ])
    def test_nested_config_is_validated(self, tmp_path, section, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_grid": [51], "reps": 4, **section}))
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli_main(["risk", "--config", str(cfg_path), "--out", str(out_dir)])
        assert str(exc.value.code) == f"hetreg risk: {message}"
        assert not out_dir.exists()

    @pytest.mark.parametrize("section, message", [
        ({"n_grid": [51.5]}, "all n must be odd integers >= 3, got 51.5"),
        ({"n_grid": ["51"]}, "all n must be odd integers >= 3, got '51'"),
        ({"n_grid": 51}, "n_grid must be a list of odd integers >= 3, got 51"),
        ({"rho": "x"}, "rho must be a finite number, got 'x'"),
        ({"k_bar": None}, "k_bar must be a finite number, got None"),
        ({"omega_bar": -100},
         "every taper is zero: the largest cutoff omega is -95.0912 <= 1 (omega_bar=-100)"),
        ({"n_grid": [11, 11]}, "n_grid values must be unique, got [11, 11]"),
        ({"n_grid": [51, 101, 51]}, "n_grid values must be unique, got [51, 101, 51]"),
    ])
    def test_grid_and_tuning_are_validated(self, tmp_path, section, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_grid": [51], "reps": 4, **section}))
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli_main(["risk", "--config", str(cfg_path), "--out", str(out_dir)])
        assert str(exc.value.code) == f"hetreg risk: {message}"
        assert not out_dir.exists()

    @pytest.mark.parametrize("entry, message", [
        ({"kind": "bogus"}, "unknown noise kind 'bogus'"),
        ({"kind": "student_t", "df": 3}, "student_t requires df >= 5, got 3"),
        ({"kind": "student_t", "df": "8"}, "student_t requires df >= 5, got '8'"),
        ({"kind": ["gaussian"]}, "noise kind must be a string, got ['gaussian']"),
        ({"kind": "gaussian"}, "noise labels must be unique, got ['gaussian', 'gaussian']"),
        ({"kind": "student_t", "df": float("inf")}, "student_t requires df >= 5, got inf"),
        ({"kind": "gaussian", "df": "x"}, "unknown noise keys: ['df']"),
        ({"kind": "rademacher", "df": 12}, "unknown noise keys: ['df']"),
    ])
    def test_noise_menu_is_refused_before_any_replicate(self, tmp_path, monkeypatch, entry, message):
        from hetreg import experiments

        def refuse(*args):
            raise AssertionError("no replicate should run")

        monkeypatch.setattr(experiments, "_run_replicates", refuse)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_grid": [1001, 3001], "reps": 400,
                                        "noise_menu": [{"kind": "gaussian"}, entry]}))
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli_main(["risk", "--config", str(cfg_path), "--out", str(out_dir)])
        assert str(exc.value.code) == f"hetreg risk: {message}"
        assert not out_dir.exists()

    def test_all_zero_family_is_refused_before_any_replicate(self, tmp_path, monkeypatch):
        # n = 1001 alone would run; the all-zero family at n = 51 stops the study first
        from hetreg import experiments

        def refuse(*args):
            raise AssertionError("no replicate should run")

        monkeypatch.setattr(experiments, "_run_replicates", refuse)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_grid": [1001, 51], "reps": 400, "omega_bar": -4.5}))
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli_main(["risk", "--config", str(cfg_path), "--out", str(out_dir)])
        assert str(exc.value.code) == ("hetreg risk: every taper is zero: the largest cutoff omega "
                                       "is 0.408772 <= 1 (omega_bar=-4.5)")
        assert not out_dir.exists()

    @pytest.mark.parametrize("study", ["risk", "oracle", "efficiency"])
    @pytest.mark.parametrize("section, message", [
        ({"n_grid": []}, "n_grid must hold at least one n, got []"),
        ({"noise_menu": []}, "noise_menu must hold at least one noise, got []"),
    ], ids=["n_grid", "noise_menu"])
    def test_empty_grid_or_menu_is_refused(self, tmp_path, study, section, message):
        # an empty grid or menu has no cell to run: no empty table, no traceback
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_grid": [51], "reps": 4, **section}))
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli_main([study, "--config", str(cfg_path), "--out", str(out_dir)])
        assert str(exc.value.code) == f"hetreg {study}: {message}"
        assert not out_dir.exists()

    @pytest.mark.parametrize("config", [5, [1, 2], "risk"], ids=["number", "list", "string"])
    def test_config_must_be_a_mapping(self, tmp_path, config):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        with pytest.raises(SystemExit) as exc:
            cli_main(["risk", "--config", str(cfg_path), "--reps", "4", "--out", str(tmp_path / "out")])
        assert str(exc.value.code) == f"hetreg risk: config must be a mapping, got {config!r}"

    @pytest.mark.parametrize("argv", [["risk", "--config"], ["estimate", "--data"]], ids=["config", "data"])
    def test_missing_input_file_is_one_line(self, tmp_path, argv):
        missing = tmp_path / "missing"
        with pytest.raises(SystemExit) as exc:
            cli_main([*argv, str(missing), "--out", str(tmp_path / "out")])
        assert str(exc.value.code) == (f"hetreg {argv[0]}: [Errno 2] No such file or "
                                       f"directory: {str(missing)!r}")

    def test_study_call_validates_one_config(self, tmp_path, monkeypatch):
        # the file and the flags are merged first, so the config is built and checked once
        calls = []
        post_init = ExperimentConfig.__post_init__

        def counted(self):
            calls.append(self.seed)
            post_init(self)

        monkeypatch.setattr(ExperimentConfig, "__post_init__", counted)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_grid": [51, 101], "reps": 4, "seed": 1}))
        assert cli_main(["efficiency", "--config", str(cfg_path), "--seed", "2", "--reps", "6",
                         "--out", str(tmp_path / "out")]) == 0
        assert calls == [2]

    def test_one_parser_keeps_no_state_between_calls(self, tmp_path, monkeypatch):
        # the parser is built once per process; a flag given to one call is not seen by the next
        assert build_parser() is build_parser()
        seeds = []
        post_init = ExperimentConfig.__post_init__

        def counted(self):
            seeds.append(self.seed)
            post_init(self)

        monkeypatch.setattr(ExperimentConfig, "__post_init__", counted)
        (tmp_path / "lb.json").write_text(json.dumps({**TINY_LOWER_BOUND, "seed": 5}))
        (tmp_path / "oracle.json").write_text(json.dumps({"n_grid": [51], "reps": 4, "seed": 11}))
        assert cli_main(["lower-bound", "--config", str(tmp_path / "lb.json"), "--seed", "3",
                         "--out", str(tmp_path)]) == 0
        assert cli_main(["oracle", "--config", str(tmp_path / "oracle.json"), "--out", str(tmp_path)]) == 0
        assert seeds == [3, 11]

    def test_simulate_refuses_infinite_df(self, tmp_path):
        # an infinite df would draw nan for every y
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"noise_menu": [{"kind": "student_t", "df": float("inf")}]}))
        data_path = tmp_path / "data.csv"
        env = {**os.environ, "PYTHONPATH": str(Path(__import__("hetreg").__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-m", "hetreg.cli", "simulate", "--config", str(cfg_path),
                               "--out", str(data_path)], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 1
        assert done.stderr.splitlines()[-1] == "hetreg simulate: student_t requires df >= 5, got inf"
        assert not data_path.exists()

    def test_simulate_refuses_non_finite_coefficients(self, tmp_path):
        # a nan coefficient would write nan for every y and s_true, and one whose
        # square overflows would write +-inf
        cases = [
            ({"test_function": {"trig_coeffs": [0.0, math.nan, 1.0]}},
             "test_function trig_coeffs must be a nonempty list of finite numbers, got [0.0, nan, 1.0]"),
            ({"n_grid": [11], "test_function": {"trig_coeffs": [0.0, 1e200]}},
             "test_function trig_coeffs must have a finite ellipsoid norm at k = 1, got [0.0, 1e+200]"),
            ({"n_grid": [11], "test_function": {"trig_coeffs": [1e160]}},
             "test_function trig_coeffs must have a finite ellipsoid norm at k = 1, got [1e+160]"),
            ({"n_grid": [11], "ball": {"k": 200}}, "test_function preset S1 must have a finite ellipsoid norm at k = 200"),
        ]
        env = {**os.environ, "PYTHONPATH": str(Path(__import__("hetreg").__file__).resolve().parents[1])}
        for cfg, message in cases:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(cfg))
            data_path = tmp_path / "data.csv"
            done = subprocess.run([sys.executable, "-m", "hetreg.cli", "simulate", "--config", str(cfg_path),
                                   "--out", str(data_path)], env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 1
            assert done.stderr.splitlines()[-1] == f"hetreg simulate: {message}"
            assert not data_path.exists()

    def test_simulate_zero_custom_function_is_s3(self, tmp_path):
        # a zero custom function without ball.r takes S3's r = 1, and draws S3's data
        outputs = []
        for tf in ({"trig_coeffs": [0.0]}, {"preset": "S3"}):
            cfg_path, data_path = tmp_path / "cfg.json", tmp_path / f"data{len(outputs)}.csv"
            cfg_path.write_text(json.dumps({"n_grid": [11], "test_function": tf}))
            assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(data_path)]) == 0
            outputs.append(data_path.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("flag", ["--reps", "--workers"])
    def test_simulate_has_no_study_knobs(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            cli_main(["simulate", "--out", str(tmp_path / "d.csv"), flag, "2"])
        assert exc.value.code == 2  # argparse: unrecognized argument

    def test_estimate_rejects_nan(self, tmp_path):
        y = np.sin(np.arange(51.0))
        y[7] = np.nan
        code = refused_estimate(tmp_path, y_text(y))
        assert code not in (0, None)
        assert "must be finite" in str(code)
        assert "index 7" in str(code)

    def test_estimate_rejects_overflowing_costs(self, tmp_path):
        code = refused_estimate(tmp_path, y_text(1e200 * np.linspace(1.0, 2.0, 51)))
        assert "hetreg estimate: cost J_n is not finite" in str(code)

    def test_estimate_rejects_one_row(self, tmp_path):
        assert refused_estimate(tmp_path, "y\n1.0\n") == "hetreg estimate: need odd n >= 3, got 1"

    def test_estimate_header_names_are_stripped(self, tmp_path):
        y = np.sin(np.arange(51.0))
        outs = []
        for header in ("x,y", "x, y"):
            data_path = tmp_path / "data.csv"
            data_path.write_text(header + "\n" + "".join(f"{i},{float(v)!r}\n" for i, v in enumerate(y)))
            out_path = tmp_path / f"est_{len(outs)}.json"
            assert cli_main(["estimate", "--data", str(data_path), "--out", str(out_path)]) == 0
            outs.append(out_path.read_bytes())
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["theta_hat"] == fourier_rows(y).tolist()

    @pytest.mark.parametrize("text, message", [
        ("x,y\n0.1,1.0\n0.2,\n0.3,2.0\n", "hetreg estimate: could not convert string '' to float64"),
        ("x,z\n0.1,1.0\n", "hetreg estimate: dataset must be a CSV with a 'y' column"),
    ])
    def test_estimate_refuses_empty_field_and_missing_column(self, tmp_path, text, message):
        assert refused_estimate(tmp_path, text).startswith(message)

    @pytest.mark.parametrize("n", [101, 1001])
    def test_estimate_bytes_equal_json_dumps(self, tmp_path, n):
        # the three n-length arrays go through their list's repr, the rest through json
        import hetreg.cli

        y = np.sin(np.arange(float(n))) + 0.3 * np.cos(np.arange(float(n)) ** 2)
        data_path = tmp_path / "data.csv"
        data_path.write_text(y_text(y))
        out_path = tmp_path / "est.json"
        assert cli_main(["estimate", "--data", str(data_path), "--out", str(out_path)]) == 0
        payload = hetreg.cli._estimator_output_json(estimate(y, DesignGrid(n)), DesignGrid(n))
        arrays = {key for key, v in payload.items() if isinstance(v, np.ndarray)}
        assert arrays == {"estimate_at_grid", "lambda_hat", "theta_hat"}
        plain = {key: v.tolist() if key in arrays else v for key, v in payload.items()}
        expected = json.dumps(plain, indent=2, sort_keys=True, allow_nan=False) + "\n"
        assert out_path.read_bytes() == expected.encode()

    def test_estimate_out_into_a_new_directory_writes_the_stdout_bytes(self, tmp_path, capsys):
        data_path = tmp_path / "data.csv"
        data_path.write_text(y_text(np.sin(np.arange(51.0))))
        assert cli_main(["estimate", "--data", str(data_path)]) == 0
        out_path = tmp_path / "new" / "dir" / "fit.json"
        assert cli_main(["estimate", "--data", str(data_path), "--out", str(out_path)]) == 0
        assert out_path.read_bytes() == capsys.readouterr().out.encode()
        with pytest.raises(SystemExit) as exc:  # a write that fails takes the one error path
            cli_main(["estimate", "--data", str(data_path), "--out", str(data_path / "fit.json")])
        assert str(exc.value.code).startswith("hetreg estimate: [Errno")

    def test_estimate_refuses_a_non_finite_array_value(self, tmp_path, monkeypatch):
        import hetreg.cli

        monkeypatch.setattr(hetreg.cli, "grid_values", lambda c: np.where(np.arange(len(c)) == 3, np.inf, c))
        code = refused_estimate(tmp_path, y_text(np.sin(np.arange(51.0))))
        assert code.startswith("hetreg estimate: Out of range float values")

    def test_estimate_never_writes_nan_tokens(self, tmp_path, monkeypatch):
        import hetreg.cli

        real = hetreg.cli.estimate

        def nan_level(*args, **kwargs):
            out = real(*args, **kwargs)
            out.varsigma_hat = math.nan
            return out

        monkeypatch.setattr(hetreg.cli, "estimate", nan_level)
        assert "not JSON compliant" in str(refused_estimate(tmp_path, y_text(np.sin(np.arange(51.0)))))

    def test_save_losses(self, tmp_path):
        cfg = dict(small_config(reps=5, save_losses=True).__dict__)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "loss_out"
        cli_main(["risk", "--config", str(cfg_path), "--out", str(out_dir)])
        lines = (out_dir / "risk_losses.csv").read_text().splitlines()
        assert lines[0] == "estimator,noise,n,rep,loss_empiric,loss_l2"
        assert len(lines) == 1 + 5 * 3  # reps x estimators


class TestOneWriterPerFormat:
    """Every CSV goes through `write_csv` and every JSON file through `cli._json_text`."""

    def test_cli_neither_dumps_json_nor_opens_a_file_to_write(self):
        import ast

        import hetreg.cli

        def mode(call):  # open(file, mode) or path.open(mode); a mode that is no literal counts as a write
            given = [kw.value for kw in call.keywords if kw.arg == "mode"]
            given += call.args[1:2] if isinstance(call.func, ast.Name) else call.args[:1]
            if not given:
                return "r"
            return given[0].value if isinstance(given[0], ast.Constant) else "w"

        calls = [node for node in ast.walk(ast.parse(Path(hetreg.cli.__file__).read_text()))
                 if isinstance(node, ast.Call)]
        dumps = [c for c in calls if isinstance(c.func, ast.Attribute) and c.func.attr == "dump"]
        opens = [c for c in calls if getattr(c.func, "id", getattr(c.func, "attr", None)) == "open"]
        assert dumps == []
        assert [mode(c) for c in opens if set(mode(c)) & set("wax+")] == []

    def test_simulate_columns_read_back_bit_for_bit(self, tmp_path):
        from hetreg.models import generate_observations, substream

        cfg = small_config(n_grid=[101], seed=91, test_function={"preset": "S2"},
                           noise_menu=[{"kind": "student_t", "df": 7}])
        (tmp_path / "cfg.json").write_text(json.dumps(dict(cfg.__dict__)))
        data = tmp_path / "missing" / "data.csv"  # its directory is created
        assert cli_main(["simulate", "--config", str(tmp_path / "cfg.json"), "--out", str(data)]) == 0
        with open(data, newline="") as fh:
            table = list(csv.reader(fh))
        assert table[0] == ["x", "y", "s_true"]
        S, _, _ = resolve_test_function(cfg)
        grid = DesignGrid(101)
        y = generate_observations(S, resolve_scale(cfg.scale), NoiseSpec("student_t", 7), grid,
                                  substream(91, 1, 101, 0, 0))
        got = np.array([[float(v) for v in line] for line in table[1:]])
        assert got.tobytes() == np.stack([grid.points, y, S.on_grid(grid)], axis=1).tobytes()

    def test_losses_read_back_bit_for_bit(self, tmp_path):
        cfg = small_config(reps=5, save_losses=True, estimators=ESTIMATOR_KINDS,
                           noise_menu=[{"kind": "gaussian"}, {"kind": "student_t", "df": 12}])
        (tmp_path / "cfg.json").write_text(json.dumps(dict(cfg.__dict__)))
        assert cli_main(["risk", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "risk_losses.csv", newline="") as fh:
            table = list(csv.reader(fh))
        _, _, losses = risk_study(cfg)
        assert table[0] == ["estimator", "noise", "n", "rep", "loss_empiric", "loss_l2"]
        assert [line[:4] for line in table[1:]] == [[e, noise, str(n), str(rep)] for e, noise, n, rep, *_ in losses]
        got = np.array([[float(v) for v in line[4:]] for line in table[1:]])
        assert got.tobytes() == np.array([row[4:] for row in losses], dtype=float).tobytes()

    @pytest.mark.parametrize("study, run", [
        ("risk", risk_study), ("oracle", oracle_study), ("efficiency", efficiency_study),
        ("lower-bound", lower_bound_study),
    ])
    def test_study_json_bytes_equal_json_dumps(self, tmp_path, study, run):
        cfg = dict(TINY_LOWER_BOUND) if study == "lower-bound" else dict(small_config(n_grid=[51, 101], reps=6).__dict__)
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert cli_main([study, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)]) == 0
        _, summary, _ = run(ExperimentConfig.from_dict(cfg))
        expected = json.dumps(summary, indent=2, sort_keys=True) + "\n"
        assert (tmp_path / f"{study.replace('-', '_')}.json").read_bytes() == expected.encode()

    @pytest.mark.parametrize("payload", [{}, {"a": {}, "b": []}, {"b": [1.5, {}], "a": "x"}])
    def test_json_text_bytes_equal_json_dumps(self, payload):
        import hetreg.cli

        assert hetreg.cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_non_finite_summary_writes_no_file(self, tmp_path, monkeypatch, bad):
        import hetreg.cli

        def spoiled(cfg):
            rows, summary, losses = risk_study(cfg)
            return rows, {**summary, "extra": {"value": [1.0, bad]}}, losses

        monkeypatch.setitem(hetreg.cli._STUDIES, "risk", spoiled)
        (tmp_path / "cfg.json").write_text(json.dumps(dict(small_config(reps=4, save_losses=True).__dict__)))
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli_main(["risk", "--config", str(tmp_path / "cfg.json"), "--out", str(out_dir)])
        assert str(exc.value.code).startswith("hetreg risk: Out of range float values")
        assert not out_dir.exists()

    def test_no_output_holds_a_carriage_return(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps(dict(small_config(reps=4, save_losses=True).__dict__)))
        (tmp_path / "lb.json").write_text(json.dumps(TINY_LOWER_BOUND))
        out = tmp_path / "out"
        cli_main(["simulate", "--config", str(tmp_path / "cfg.json"), "--out", str(out / "data.csv")])
        cli_main(["estimate", "--data", str(out / "data.csv"), "--out", str(out / "fit.json")])
        for study in ("risk", "oracle", "efficiency"):
            cli_main([study, "--config", str(tmp_path / "cfg.json"), "--out", str(out)])
        cli_main(["lower-bound", "--config", str(tmp_path / "lb.json"), "--out", str(out)])
        written = sorted(p.name for p in out.iterdir())
        assert written == sorted(["data.csv", "fit.json", "risk.csv", "risk.json", "risk_losses.csv", "oracle.csv",
                                  "oracle.json", "efficiency.csv", "efficiency.json", "lower_bound.csv",
                                  "lower_bound.json"])
        assert [name for name in written if b"\r" in (out / name).read_bytes()] == []
