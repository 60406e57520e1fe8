import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import norm

from hetreg import lowerbound
from hetreg.basis import (
    DesignGrid,
    SampledFunction,
    TrigPolynomial,
    basis_eval_matrix,
    basis_matrix,
    pack_spectrum,
    trig_basis_eval,
    trig_series,
)
from hetreg.lowerbound import (
    KernelFamily,
    _family_integrals,
    bayes_risk_mc,
    check_conditions_A,
    ebar,
    kernel_function,
    lagrange_solution,
    least_favorable_prior,
    local_basis,
    lower_bound_target,
    mollified_indicator,
    prior_expected_norm_sq,
    prior_van_trees_bound,
    van_trees_bound,
    van_trees_term,
)
from hetreg.models import (
    SIMPSON_PANELS,
    ScaleModel,
    econometric_scale,
    homogeneous_scale,
    simpson_integral,
    simpson_rule,
    substream,
)
from hetreg.selection import estimate
from hetreg.weights import default_sequences, weight_family
from scales import scale_models


def element_fns(fam):
    """The D_{m,j} in (m, j) order, one closure per kernel element."""
    return [lambda x, m=m, j=j: fam.block(m, x)[j - 1]
            for m in range(1, fam.M + 1) for j in range(1, fam.N + 1)]


class TestMollifiedIndicator:
    def test_plateau(self):
        assert mollified_indicator(0.1, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert mollified_indicator(0.1, 0.79) == pytest.approx(1.0, abs=1e-12)

    def test_support(self):
        assert mollified_indicator(0.1, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert mollified_indicator(0.1, -1.3) == pytest.approx(0.0, abs=1e-12)

    def test_mass_approaches_two(self):
        errs = []
        for eta in (0.1, 0.05, 0.01):
            mass = simpson_integral(lambda x: mollified_indicator(eta, x), -1.0, 1.0)
            errs.append(abs(mass - 2.0))
        assert errs[0] < 0.25
        # error is O(eta): halving eta roughly halves the error
        assert errs[1] == pytest.approx(errs[0] / 2.0, rel=0.2)
        assert errs[2] < errs[1] < errs[0]

    def test_invalid_eta(self):
        with pytest.raises(ValueError):
            mollified_indicator(0.6, 0.0)


class TestLocalBasis:
    def test_first_element(self):
        assert local_basis(1, 0.3) == pytest.approx(1.0 / math.sqrt(2.0))

    def test_cosine_at_zero(self):
        assert local_basis(2, 0.0) == pytest.approx(1.0)

    def test_orthonormal_on_interval(self):
        x = np.linspace(-1.0, 1.0, SIMPSON_PANELS + 1)
        w = np.ones(len(x))
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w *= 2.0 / (3.0 * SIMPSON_PANELS)
        E = np.stack([local_basis(j, x) for j in range(1, 13)])
        gram = (E * w) @ E.T
        np.testing.assert_allclose(gram, np.eye(12), atol=1e-8)


class TestKernelFamily:
    def test_geometry(self):
        fam = KernelFamily(h=0.1, N=3, eta=0.05)
        assert fam.M == 4
        np.testing.assert_allclose(fam.centers, [0.2, 0.4, 0.6, 0.8])

    def test_no_blocks_rejected(self):
        with pytest.raises(ValueError):
            KernelFamily(h=0.3, N=1, eta=0.05)

    def test_zero_coefficients(self):
        fam = KernelFamily(h=0.1, N=2, eta=0.05)
        z = np.zeros((fam.M, fam.N))
        assert kernel_function(z, fam, 0.37) == 0.0

    def test_single_coefficient_at_center(self):
        fam = KernelFamily(h=0.1, N=2, eta=0.05)
        z = np.zeros((fam.M, fam.N))
        z[1, 0] = 1.7
        # D_{2,1}(center_2) = e_1(0) chi(0) = 1/sqrt(2)
        assert kernel_function(z, fam, fam.centers[1]) == pytest.approx(1.7 / math.sqrt(2.0))

    def test_disjoint_supports(self):
        fam = KernelFamily(h=0.1, N=2, eta=0.05)
        x = np.linspace(0.0, 1.0, 2001)
        d11 = fam.block(1, x)[0]
        d32 = fam.block(3, x)[1]
        assert np.max(np.abs(d11 * d32)) == 0.0

    def test_block_orthogonality_integrals(self):
        fam = KernelFamily(h=0.12, N=3, eta=0.05)
        # same block: int D_mj D_mj' = h int e_j e_j' chi^2
        for j, jp in ((1, 1), (1, 2), (2, 3)):
            val = simpson_integral(lambda x: fam.block(2, x)[j - 1] * fam.block(2, x)[jp - 1])
            tgt = fam.h * simpson_integral(
                lambda v: local_basis(j, v) * local_basis(jp, v)
                * mollified_indicator(fam.eta, v) ** 2,
                -1.0, 1.0,
            )
            assert val == pytest.approx(tgt, abs=1e-9)
        cross = simpson_integral(lambda x: fam.block(1, x)[0] * fam.block(2, x)[0])
        assert cross == pytest.approx(0.0, abs=1e-15)


class TestLagrangeSolution:
    def test_boundary_radius_kills_top_frequency(self):
        N, k = 7, 2
        j = np.arange(1, N + 1, dtype=float)
        R = N**k * np.sum(j**k) - np.sum(j ** (2 * k))
        y = lagrange_solution(R, N, k)
        assert y[-1] == pytest.approx(0.0, abs=1e-9)

    def test_decreasing(self):
        y = lagrange_solution(500.0, 10, 1)
        assert np.all(np.diff(y) < 0.0)

    def test_constraint_active(self):
        R, N, k = 321.0, 9, 1
        y = lagrange_solution(R, N, k)
        j = np.arange(1, N + 1, dtype=float)
        assert float(np.sum(y * j ** (2 * k))) == pytest.approx(R, rel=1e-12)


class TestLeastFavorablePrior:
    def test_condition_a3_is_exact(self):
        pr = least_favorable_prior(1, 1.0, 100_000, eps=0.2)
        rep = check_conditions_A(pr)
        assert rep.a3_sum == pytest.approx(rep.a3_target, rel=1e-10)

    def test_positivity_and_monotone_y(self):
        pr = least_favorable_prior(1, 1.0, 10_001, eps=0.2)
        assert np.all(pr.y_star >= 0.0)
        if len(pr.y_star) > 1:
            assert np.all(np.diff(pr.y_star) < 0.0)

    def test_coefficients_formula(self):
        pr = least_favorable_prior(1, 2.0, 1001, eps=0.2)
        t_expected = np.outer(
            pr.g0_centers, np.sqrt(pr.y_star)
        ) / math.sqrt(1001 * pr.family.h)
        np.testing.assert_allclose(pr.t, t_expected)

    def test_trend_a2_a4_decreasing(self):
        reports = [check_conditions_A(least_favorable_prior(1, 1.0, n, eps=0.2)) for n in (1000, 100_000)]
        assert reports[1].a2_sum < reports[0].a2_sum
        assert reports[1].a2_peak < reports[0].a2_peak
        assert reports[1].a4_sum < reports[0].a4_sum

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            least_favorable_prior(1, 1.0, 1001, eps=1.5)


class TestSamplePrior:
    def test_zero_scale(self):
        pr = least_favorable_prior(1, 1.0, 1001, eps=0.2)
        pr_zero = pr.__class__(**{**pr.__dict__, "t": np.zeros_like(pr.t)})
        theta = pr_zero.t * substream(0, 1).standard_normal(pr_zero.t.shape)
        np.testing.assert_array_equal(theta, 0.0)

    def test_clip_event_frequency(self):
        pr = least_favorable_prior(1, 1.0, 10_001, eps=0.2)
        reps = 4000
        misses = 0
        for rep in range(reps):
            zeta = substream(3, 2, rep).standard_normal(pr.t.shape)
            misses += np.max(zeta**2) > pr.d_n  # outside the clipping event
        p_bound = pr.t.size * 2.0 * norm.sf(math.sqrt(pr.d_n))
        freq = misses / reps
        se = math.sqrt(max(freq * (1 - freq), 1e-6) / reps)
        assert freq <= p_bound + 4.0 * se

    def test_sup_bound_on_clip_event(self):
        pr = least_favorable_prior(1, 1.0, 10_001, eps=0.2)
        x = np.linspace(0.0, 1.0, 4001)
        peak = check_conditions_A(pr).a2_peak  # sqrt(d_n) t*, the uniform bound on the clipping event
        for rep in range(50):
            zeta = substream(4, 3, rep).standard_normal(pr.t.shape)
            if np.max(zeta**2) <= pr.d_n:
                sup = float(np.max(np.abs(kernel_function(pr.t * zeta, pr.family, x))))
                assert sup <= peak + 1e-12


class TestVanTrees:
    def test_degenerate_single_parameter(self):
        # S_z = z (constant sensitivity), g == 1: bound = t^2 / (n t^2 + 1)
        grid = DesignGrid(51)
        for t in (0.3, 1.0, 2.5):
            rep = van_trees_bound(
                np.ones((1, 51)), np.ones((1, 1)), np.array([1.0]), np.array([t]),
                homogeneous_scale(1.0), grid, mc_reps=5, seed=0,
            )
            assert rep.bound == pytest.approx(t**2 / (51 * t**2 + 1.0), abs=1e-12)

    def test_constant_scale_has_zero_bias_term(self):
        grid = DesignGrid(101)
        pr = least_favorable_prior(1, 1.0, 101, eps=0.2)
        rep = prior_van_trees_bound(pr, homogeneous_scale(2.0), mc_reps=5, seed=0)
        np.testing.assert_array_equal(rep.bias, 0.0)
        # F = sigma^-2 sum_i D^2(x_i)
        D = pr.family.design_tensor(grid.points).reshape(pr.t.size, -1)
        np.testing.assert_allclose(rep.fisher, 0.25 * np.sum(D**2, axis=1), rtol=1e-12)

    def test_term_monotonicity(self):
        base = van_trees_term(1.0, 10.0, 1.0, 0.5)
        assert van_trees_term(1.0, 20.0, 1.0, 0.5) < base
        assert van_trees_term(1.0, 10.0, 5.0, 0.5) < base
        assert van_trees_term(1.0, 10.0, 1.0, 0.25) < base

    @pytest.mark.parametrize("sd", [0.0, -0.5])
    def test_refuses_non_positive_prior_sd(self, sd):
        # one such direction refuses the whole bound, as the scalar term does
        grid = DesignGrid(51)
        with pytest.raises(ValueError, match="prior standard deviation must be positive"):
            van_trees_bound(np.ones((2, 51)), np.eye(2), np.ones(2), np.array([1.0, sd]),
                            homogeneous_scale(1.0), grid, mc_reps=5)
        with pytest.raises(ValueError, match="prior standard deviation must be positive"):
            van_trees_term(1.0, 10.0, 1.0, sd)

    def test_missing_frechet_rejected(self):
        # the Frechet derivative is a required field: a model without one is never built
        with pytest.raises(TypeError, match="frechet"):
            ScaleModel(g2=lambda x, s, norm_sq: np.ones_like(np.asarray(x, dtype=float)))

    def test_draws_are_one_array_of_the_per_draw_stream(self):
        # (mc_reps, P) normals from one generator are the mc_reps size-P draws, bit for bit
        rng = substream(606, 11, 101, 7)
        rows = np.stack([rng.standard_normal(7) for _ in range(50)])
        np.testing.assert_array_equal(substream(606, 11, 101, 7).standard_normal((50, 7)), rows)

    @pytest.mark.parametrize("mc_reps", [0, -3])
    def test_refuses_no_draws(self, mc_reps):
        grid = DesignGrid(51)
        with pytest.raises(ValueError, match="mc_reps must be >= 1"):
            van_trees_bound(np.ones((1, 51)), np.ones((1, 1)), np.array([1.0]), np.array([1.0]),
                            homogeneous_scale(1.0), grid, mc_reps=mc_reps)

    @pytest.mark.parametrize("D, gram", [
        (np.ones((1, 50)), np.ones((1, 1))),   # design values off the grid's length
        (np.ones(51), np.ones((1, 1))),        # one direction not given as a (1, n) row
        (np.ones((1, 51)), np.ones((2, 2))),   # Gram matrix of other directions
        (np.ones((1, 51)), np.ones(1)),
    ])
    def test_refuses_misshapen_directions(self, D, gram):
        with pytest.raises(ValueError, match="design values"):
            van_trees_bound(D, gram, np.array([1.0]), np.array([1.0]), homogeneous_scale(1.0),
                            DesignGrid(51))

    def test_zero_estimator_beats_bound(self):
        scale = econometric_scale(1.0, 1.0, 0.5, 0.5)
        zero_fn = TrigPolynomial([0.0])
        g0 = lambda x: scale.g(x, zero_fn)
        pr = least_favorable_prior(1, 1.0, 51, eps=0.2, g0=g0)
        bound = prior_van_trees_bound(pr, scale, mc_reps=300, seed=1).bound
        [(risk, se)] = bayes_risk_mc(["zero"], pr, scale, default_sequences(51), reps=500, seed=2)
        assert risk >= bound - 5.0 * se
        # analytic sanity for the zero estimator
        assert abs(risk - prior_expected_norm_sq(pr)) <= 4.0 * se


class TestVanTreesAlgebra:
    """F and B from frechet's two partials against the direct (draws, P, n) sum."""

    @staticmethod
    def reference(D, gram, sd, scale, grid, mc_reps, seed):
        """F_p and B_p with every draw's response L = a D + b Gz over all P directions at once."""
        P = len(D)
        Z = substream(seed, 11, grid.n, P).standard_normal((mc_reps, P)) * sd
        s, Gz = Z @ D, Z @ gram
        g2 = scale.g2(grid.points, s, np.sum(Gz * Z, axis=1)[:, None])
        a, b = (np.broadcast_to(p, s.shape)[:, None, :] for p in scale.frechet(grid.points, s))
        L = a * D + b * Gz[:, :, None]
        fisher = D**2 @ np.mean(1.0 / g2, axis=0)
        bias = np.mean(0.5 * np.sum(L**2 / g2[:, None, :] ** 2, axis=2), axis=0)
        return fisher, bias

    @pytest.mark.parametrize("n", [101, 1001])
    @pytest.mark.parametrize("scale", scale_models(), ids=lambda m: m.name)
    def test_fisher_and_bias_match_the_broadcast(self, scale, n):
        pr = least_favorable_prior(1, 1.0, n, eps=0.2)
        D, gram, _ = pr.family_arrays
        sd, grid = pr.t.ravel(), DesignGrid(n)
        rep = van_trees_bound(D, gram, np.ones(len(sd)), sd, scale, grid, mc_reps=40, seed=5)
        fisher, bias = self.reference(D, gram, sd, scale, grid, mc_reps=40, seed=5)
        np.testing.assert_allclose(rep.fisher, fisher, rtol=1e-12, atol=0)
        np.testing.assert_allclose(rep.bias, bias, rtol=1e-12, atol=0)


class TestBayesRisk:
    def test_zero_estimator_mean_energy(self):
        scale = homogeneous_scale(1.0)
        pr = least_favorable_prior(1, 1.0, 101, eps=0.2)
        [(risk, se)] = bayes_risk_mc(["zero"], pr, scale, default_sequences(101), reps=800, seed=3)
        assert abs(risk - prior_expected_norm_sq(pr)) <= 4.0 * se

    def test_risk_nonnegative(self):
        scale = homogeneous_scale(1.0)
        pr = least_favorable_prior(1, 1.0, 51, eps=0.2)
        [(risk, _)] = bayes_risk_mc(["zero"], pr, scale, default_sequences(51), reps=20, seed=4)
        assert risk >= 0.0

    def test_refuses_no_replicates_and_unknown_names(self, monkeypatch):
        def refuse(*key, reps):
            raise AssertionError("no replicate should be drawn")

        monkeypatch.setattr(lowerbound, "substreams", refuse)
        pr = least_favorable_prior(1, 1.0, 51, eps=0.2)
        scale, seqs = homogeneous_scale(1.0), default_sequences(51)
        with pytest.raises(ValueError, match="reps must be >= 1"):
            bayes_risk_mc(["zero"], pr, scale, seqs, reps=0)
        # a study estimator that is no Bayes estimator, a typo, a callable
        for bad in ("oracle_weight", "projection:3", "Adaptive", lambda Y, g: np.zeros(np.shape(Y))):
            with pytest.raises(ValueError, match="unknown bayes estimator"):
                bayes_risk_mc(["zero", bad], pr, scale, seqs, reps=3)

    def test_no_estimators_draw_nothing(self, monkeypatch):
        def refuse(*key, reps):
            raise AssertionError("no replicate should be drawn")

        monkeypatch.setattr(lowerbound, "substreams", refuse)
        pr = least_favorable_prior(1, 1.0, 51, eps=0.2)
        assert bayes_risk_mc([], pr, homogeneous_scale(1.0), default_sequences(51), reps=5) == []

    @pytest.mark.parametrize("rows", [3, 24])
    def test_blocks_do_not_change_the_risk(self, monkeypatch, rows):
        # blocks of `rows` replicates or draws give the one-block risk and bound bit for bit
        scale = econometric_scale(1.0, 1.0, 0.5, 0.5)
        pr = least_favorable_prior(1, 1.0, 1001, eps=0.2)  # P = 4 directions

        def run():
            risk = bayes_risk_mc(["zero", "projection", "adaptive"], pr, scale,
                                 default_sequences(1001), reps=10, seed=9)
            report = prior_van_trees_bound(pr, scale, mc_reps=10, seed=9)
            return risk, report.bound, report.fisher.tolist(), report.bias.tolist()

        whole = run()
        monkeypatch.setattr(lowerbound, "BLOCK_ENTRIES", rows * 1001)
        assert run() == whole

    def test_adaptive_beats_bound(self):
        scale = homogeneous_scale(1.0)
        pr = least_favorable_prior(1, 1.0, 101, eps=0.2)
        bound = prior_van_trees_bound(pr, scale, mc_reps=100, seed=5).bound
        [(risk, se)] = bayes_risk_mc(["adaptive"], pr, scale, default_sequences(101), reps=400, seed=6)
        assert risk >= bound - 5.0 * se


class TestNormalizedCorridor:
    def test_double_sum_bound_in_corridor(self):
        # finite-n sanity corridor around the eps-deflated Pinsker target
        n = 100_001
        pr = least_favorable_prior(1, 1.0, n, eps=0.2)
        rep = prior_van_trees_bound(pr, homogeneous_scale(1.0), mc_reps=30, seed=7)
        target = lower_bound_target(pr)
        normalized = n ** (2.0 / 3.0) * rep.bound
        assert 0.5 * target <= normalized <= 1.1 * target


class TestExactAlgebra:
    """The lower-bound layer's Gram/Parseval algebra against Simpson quadrature."""

    SCALE = econometric_scale(1.0, 1.0, 0.5, 0.5)

    def prior(self, n):
        zero = TrigPolynomial([0.0])
        return least_favorable_prior(1, 1.0, n, eps=0.2, g0=lambda x: self.SCALE.g(x, zero))

    def draws(self, prior, count=3):
        return [(prior.t * substream(31, prior.n, i).standard_normal(prior.t.shape)).ravel()
                for i in range(count)]

    @pytest.mark.parametrize("n", [51, 101])
    def test_loss_matches_simpson_path(self, n):
        # the exact loss against the Simpson one of the same draws and noise,
        # with S_theta by `kernel_function` and the estimate by `trig_series`
        grid = DesignGrid(n)
        pr = self.prior(n)
        xq, wq = simpson_rule()
        for name, est in TestDesignCache.estimators(n).items():
            losses = []
            for rep in range(4):
                rng = substream(8, 13, n, rep)
                theta = pr.t * rng.standard_normal(pr.t.shape)
                S = SampledFunction(lambda x: kernel_function(theta, pr.family, x))
                Y = S(grid.points) + self.SCALE.g(grid.points, S) * rng.standard_normal(n)
                losses.append(wq @ (trig_series(est(Y, grid), xq) - S(xq)) ** 2)
            simpson = (np.mean(losses), np.std(losses, ddof=1) / 2.0)
            [exact] = bayes_risk_mc([name], pr, self.SCALE, default_sequences(n), reps=4, seed=8)
            np.testing.assert_allclose(exact, simpson, rtol=1e-9, err_msg=name)

    @pytest.mark.parametrize("n", [51, 101])
    def test_combo_inner_and_norm(self, n):
        # for S_z = sum_p z_p D_p: ||S_z||^2 = z'Gz and <S_z, D_p> = (Gz)_p
        fam = self.prior(n).family
        fns = element_fns(fam)
        gram, _ = _family_integrals(fam, n)
        for z in self.draws(self.prior(n)):
            S = SampledFunction(lambda x: kernel_function(z.reshape(fam.M, fam.N), fam, x))
            assert z @ gram @ z == pytest.approx(simpson_integral(lambda x: S(x) ** 2), rel=1e-9)
            for p, fp in enumerate(fns):
                ref = simpson_integral(lambda x: S(x) * fp(x))
                assert (gram @ z)[p] == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("n", [51, 101])
    def test_frechet_unchanged(self, n):
        # the response from the partials, fed (Gz)_p, equals the one with a quadrature cross term
        c2, c3 = 0.5, 0.5
        x = DesignGrid(n).points
        fam = self.prior(n).family
        fns = element_fns(fam)
        gram, _ = _family_integrals(fam, n)
        for z in self.draws(self.prior(n)):
            S = SampledFunction(lambda t: kernel_function(z.reshape(fam.M, fam.N), fam, t))
            a, b = self.SCALE.frechet(x, S(x))
            for p, fp in enumerate(fns):
                quad = 2.0 * c2 * S(x) * fp(x) + 2.0 * c3 * simpson_integral(
                    lambda t: S(t) * fp(t)
                )
                np.testing.assert_allclose(
                    a * fp(x) + b * (gram @ z)[p], quad, rtol=1e-10, atol=1e-14
                )

    @pytest.mark.parametrize("n", [51, 101])
    def test_fft_cross_matrix_equals_dense(self, n):
        # on the rule's own nodes (K = 2^14 up to n = 8191): the dense basis product
        fam = self.prior(n).family
        x = np.arange(2**14) / 2**14
        S = fam.design_tensor(x).reshape(fam.M * fam.N, -1)
        gram, cross = _family_integrals(fam, n)
        dense = basis_eval_matrix(n, x).T @ S.T / 2**14
        np.testing.assert_allclose(cross, dense, rtol=0, atol=1e-14)
        np.testing.assert_allclose(gram, S @ S.T / 2**14, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [51, 101, 1001])
    def test_blocks_equal_the_whole_family_sample(self, n):
        # one block at a time gives the whole (P, K) sample's C exactly and its G to rounding
        fam = self.prior(n).family
        K = max(2**14, 1 << (2 * n - 1).bit_length())
        S = fam.design_tensor(np.arange(K) / K).reshape(fam.M * fam.N, K)
        gram, cross = _family_integrals(fam, n)
        np.testing.assert_array_equal(cross, pack_spectrum(np.fft.rfft(S, axis=1, norm="forward"), n).T)
        np.testing.assert_allclose(gram, S @ S.T / K, rtol=1e-14, atol=1e-16)
        block = np.kron(np.eye(fam.M), np.ones((fam.N, fam.N))) == 1
        assert np.all(gram[~block] == 0.0)

    @pytest.mark.parametrize("n", [51, 101])
    def test_expected_norm_is_the_gram_diagonal(self, n):
        # E ||S_theta||^2 = sum t_{m,j}^2 h int e_j^2 chi^2 by Simpson, block by block
        pr = self.prior(n)
        fam = pr.family
        e2 = [simpson_integral(lambda v: (local_basis(j, v) * mollified_indicator(fam.eta, v)) ** 2,
                               -1.0, 1.0) for j in range(1, fam.N + 1)]
        ref = float(np.sum(pr.t**2 * fam.h * np.array(e2)))
        assert prior_expected_norm_sq(pr) == pytest.approx(ref, rel=1e-9)


def gauss_cross(fam, js, panels=1024, order=16):
    """Rows js - 1 of C, int D_p phi_j, by composite Gauss-Legendre on each block,
    phi_j evaluated one basis column at a time (no dense (nodes, n) basis)."""
    g, gw = np.polynomial.legendre.leggauss(order)
    half = 1.0 / panels
    v = (np.linspace(-1.0 + half, 1.0 - half, panels)[:, None] + half * g).ravel()
    w = np.tile(half * gw, panels)
    E = np.stack([local_basis(j, v) * mollified_indicator(fam.eta, v) for j in range(1, fam.N + 1)])
    ref = np.empty((len(js), fam.M * fam.N))
    for m, c in enumerate(fam.centers):
        x = c + fam.h * v
        for r, j in enumerate(js):
            ref[r, m * fam.N : (m + 1) * fam.N] = fam.h * E @ (trig_basis_eval(int(j), x) * w)
    return ref


class TestCrossMatrixAtLargeN:
    """C against Bessel's inequality and a per-block Gauss reference, beyond the old 2^14 nodes."""

    @pytest.mark.parametrize("n", [1001, 16385, 65537])
    def test_bessel(self, n):
        fam = least_favorable_prior(1, 1.0, n, eps=0.2).family
        gram, cross = _family_integrals(fam, n)
        assert np.all(np.sum(cross**2, axis=0) <= np.diag(gram) * (1.0 + 1e-9))
        # blocks meet only where chi = 0: G is exactly block diagonal
        assert np.all(gram[np.kron(np.eye(fam.M), np.ones((fam.N, fam.N))) == 0] == 0.0)

    @pytest.mark.parametrize("n", [1001, 16385])
    def test_matches_gauss(self, n):
        fam = least_favorable_prior(1, 1.0, n, eps=0.2).family
        _, cross = _family_integrals(fam, n)
        rng = np.random.default_rng(n)
        js = np.unique(np.concatenate([np.arange(1, 41), np.arange(n - 39, n + 1),
                                       rng.integers(41, n - 39, 40)]))
        np.testing.assert_allclose(cross[js - 1], gauss_cross(fam, js), rtol=0, atol=1e-10)


class TestDesignCache:
    """Prior draws on the design are matmuls over one family sample, never a kernel element."""

    SCALE = TestExactAlgebra.SCALE
    prior = TestExactAlgebra.prior
    draws = TestExactAlgebra.draws

    @staticmethod
    def estimators(n):
        """Reference estimators, one observation vector at a time, for `bayes_risk_mc`'s names."""
        seqs = default_sequences(n)
        family = weight_family(n, seqs)

        def adaptive(Y, g):
            out = estimate(Y, g, seqs, family)
            return out.lambda_hat * out.theta_hat

        return {
            "zero": lambda Y, g: np.zeros(g.n),
            "projection": lambda Y, g: basis_matrix(g).T @ Y / g.n,
            "adaptive": adaptive,
        }

    @pytest.mark.parametrize("n", [51, 101])
    def test_combo_on_design_equals_sum_off_cache(self, n):
        # a block of draws on the design, Z @ D with D one design_tensor sample,
        # equals sum_p z_p D_p evaluated element by element
        grid = DesignGrid(n)
        pr = self.prior(n)
        fns = element_fns(pr.family)
        D = pr.family.design_tensor(grid.points).reshape(len(fns), grid.n)
        Z = np.stack(self.draws(pr))
        for z, row in zip(Z, Z @ D):
            ref = sum(zp * fp(grid.points) for zp, fp in zip(z, fns))
            np.testing.assert_allclose(row, ref, rtol=1e-14, atol=0)
            kernel = kernel_function(z.reshape(pr.t.shape), pr.family, grid.points)
            np.testing.assert_allclose(row, kernel, rtol=1e-14, atol=0)

    def reference(self, pr, grid, mc_reps, reps):
        """The bound and the risks by a plain loop: one draw at a time, S_z on the
        design by `kernel_function`, no block and no shared design sample."""
        fam, x, n = pr.family, grid.points, grid.n
        fns = element_fns(fam)
        G, C = _family_integrals(fam, n)
        sd = pr.t.ravel()
        rng = substream(606, 11, n, len(fns))
        ginv2, bias = np.zeros(n), np.zeros(len(fns))
        for _ in range(mc_reps):
            z = rng.standard_normal(len(fns)) * sd
            s = kernel_function(z.reshape(pr.t.shape), fam, x)
            g2 = self.SCALE.g2(x, s, z @ G @ z)
            ginv2 += 1.0 / g2 / mc_reps
            a, b = self.SCALE.frechet(x, s)
            for p, fp in enumerate(fns):
                L = a * fp(x) + b * (G[p] @ z)
                bias[p] += 0.5 * np.sum(L**2 / g2**2) / mc_reps
        fisher = np.array([fp(x) ** 2 @ ginv2 for fp in fns])
        tau = np.tile([math.sqrt(fam.h) * ebar(j, fam.eta) for j in range(1, fam.N + 1)], fam.M)
        bound = float(np.sum(tau**2 / (fisher + bias + sd**-2.0)))
        risks = {}
        for name, est in self.estimators(n).items():
            losses = []
            for rep in range(reps):
                rng = substream(607, 13, n, rep)
                theta = pr.t * rng.standard_normal(pr.t.shape)
                t = theta.ravel()
                s = kernel_function(theta, fam, x)
                Y = s + np.sqrt(self.SCALE.g2(x, s, t @ G @ t)) * rng.standard_normal(n)
                c = est(Y, grid)
                losses.append(c @ c - 2.0 * c @ (C @ t) + t @ G @ t)
            risks[name] = (np.mean(losses), np.std(losses, ddof=1) / math.sqrt(reps))
        return bound, risks

    @pytest.mark.parametrize("n", [51, 101, 1001])
    def test_bound_and_risks_match_uncached_path(self, n):
        grid = DesignGrid(n)
        pr = self.prior(n)
        ref_bound, ref_risks = self.reference(pr, grid, mc_reps=40, reps=40)
        bound = prior_van_trees_bound(pr, self.SCALE, mc_reps=40, seed=606).bound
        assert bound == pytest.approx(ref_bound, rel=1e-9)
        names = list(self.estimators(n))
        risks = bayes_risk_mc(names, pr, self.SCALE, default_sequences(n), reps=40, seed=607)
        for name, risk in zip(names, risks):
            np.testing.assert_allclose(risk, ref_risks[name], rtol=1e-9, err_msg=name)

    def test_element_calls_do_not_grow_with_reps(self, monkeypatch):
        calls = {"design_tensor": 0, "block": 0, "g2": 0, "frechet": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(KernelFamily, "design_tensor",
                            counted("design_tensor", KernelFamily.design_tensor))
        monkeypatch.setattr(KernelFamily, "block", counted("block", KernelFamily.block))
        scale = dataclasses.replace(self.SCALE, g2=counted("g2", self.SCALE.g2),
                                    frechet=counted("frechet", self.SCALE.frechet))
        def count(reps):
            calls.update(design_tensor=0, block=0, g2=0, frechet=0)
            pr = self.prior(51)
            prior_van_trees_bound(pr, scale, mc_reps=reps, seed=1)
            bayes_risk_mc(["projection"], pr, scale, default_sequences(51), reps=reps, seed=2)
            return dict(calls)

        few = count(3)
        assert few == count(12)
        # one prior samples the family once on the design and once on the rule's
        # nodes, each a block at a time, for both the bound and the risk; the
        # bound takes frechet's two partials once per block of draws
        M = self.prior(51).family.M
        assert few == {"design_tensor": 1, "block": 2 * M, "g2": 2, "frechet": 1}

    def test_family_integrals_once_per_prior(self, monkeypatch):
        # the bound, the Bayes risk and E ||S||^2 of one prior share one (D, G, C)
        sizes = []
        sampler = lowerbound._family_integrals

        def counted(family, n):
            sizes.append(n)
            return sampler(family, n)

        monkeypatch.setattr(lowerbound, "_family_integrals", counted)
        pr = self.prior(51)
        prior_van_trees_bound(pr, self.SCALE, mc_reps=3, seed=1)
        bayes_risk_mc(["zero"], pr, self.SCALE, default_sequences(51), reps=3, seed=2)
        prior_expected_norm_sq(pr)
        assert sizes == [51]

    @pytest.mark.parametrize("call", ["bound", "risk", "norm"])
    def test_even_n_is_refused(self, call):
        # a prior at even n is valid, but it has no design to run on
        pr = least_favorable_prior(1, 1.0, 1000, eps=0.2)
        run = {
            "bound": lambda: prior_van_trees_bound(pr, self.SCALE, mc_reps=3),
            # even n has no tuning either; the missing design is refused first
            "risk": lambda: bayes_risk_mc(["zero"], pr, self.SCALE, default_sequences(1001), reps=3),
            "norm": lambda: prior_expected_norm_sq(pr),
        }[call]
        with pytest.raises(ValueError, match="design size must be an odd positive integer"):
            run()
