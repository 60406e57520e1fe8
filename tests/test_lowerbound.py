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
    fourier_rows,
    trig_series,
)
from hetreg.lowerbound import (
    KernelFamily,
    _family_gram,
    _trig_inner_products,
    bayes_risk_mc,
    check_conditions_A,
    conditions_trend,
    ebar,
    kernel_family,
    kernel_function,
    lagrange_solution,
    least_favorable_prior,
    local_basis,
    lower_bound_target,
    mollified_indicator,
    prior_expected_norm_sq,
    prior_van_trees_bound,
    sample_prior,
    van_trees_bound,
    van_trees_term,
)
from hetreg.models import (
    SIMPSON_PANELS,
    econometric_scale,
    homogeneous_scale,
    simpson_integral,
    simpson_rule,
    substream,
)
from hetreg.selection import estimate
from hetreg.weights import default_sequences, weight_family


def stacked(est):
    """A one-row estimator run on every row of a (B, n) stack, as bayes_risk_mc calls it."""
    return lambda Y, g: np.stack([est(y, g) for y in Y])


def zero_stack(Y, g):
    return np.zeros(np.shape(Y))


def element_fns(fam):
    """The D_{m,j} in (m, j) order, one closure per kernel element."""
    return [lambda x, m=m, j=j: fam.element(m, j, x)
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
        fam = kernel_family(h=0.1, N=3)
        assert fam.M == 4
        np.testing.assert_allclose(fam.centers, [0.2, 0.4, 0.6, 0.8])

    def test_no_blocks_rejected(self):
        with pytest.raises(ValueError):
            kernel_family(h=0.3, N=1)

    def test_zero_coefficients(self):
        fam = kernel_family(h=0.1, N=2)
        z = np.zeros((fam.M, fam.N))
        assert kernel_function(z, fam, 0.37) == 0.0

    def test_single_coefficient_at_center(self):
        fam = kernel_family(h=0.1, N=2, eta=0.05)
        z = np.zeros((fam.M, fam.N))
        z[1, 0] = 1.7
        # D_{2,1}(center_2) = e_1(0) chi(0) = 1/sqrt(2)
        assert kernel_function(z, fam, fam.centers[1]) == pytest.approx(1.7 / math.sqrt(2.0))

    def test_disjoint_supports(self):
        fam = kernel_family(h=0.1, N=2, eta=0.05)
        x = np.linspace(0.0, 1.0, 2001)
        d11 = fam.element(1, 1, x)
        d32 = fam.element(3, 2, x)
        assert np.max(np.abs(d11 * d32)) == 0.0

    def test_block_orthogonality_integrals(self):
        fam = kernel_family(h=0.12, N=3, eta=0.05)
        # same block: int D_mj D_mj' = h int e_j e_j' chi^2
        for j, jp in ((1, 1), (1, 2), (2, 3)):
            val = simpson_integral(lambda x: fam.element(2, j, x) * fam.element(2, jp, x))
            tgt = fam.h * simpson_integral(
                lambda v: local_basis(j, v) * local_basis(jp, v)
                * mollified_indicator(fam.eta, v) ** 2,
                -1.0, 1.0,
            )
            assert val == pytest.approx(tgt, abs=1e-9)
        cross = simpson_integral(lambda x: fam.element(1, 1, x) * fam.element(2, 1, x))
        assert cross == pytest.approx(0.0, abs=1e-15)


class TestLagrangeSolution:
    def test_boundary_radius_kills_top_frequency(self):
        N, k = 7, 2
        j = np.arange(1, N + 1, dtype=float)
        R = N**k * np.sum(j**k) - np.sum(j ** (2 * k))
        a_star, y = lagrange_solution(R, N, k)
        assert y[-1] == pytest.approx(0.0, abs=1e-9)

    def test_decreasing(self):
        _, y = lagrange_solution(500.0, 10, 1)
        assert np.all(np.diff(y) < 0.0)

    def test_constraint_active(self):
        R, N, k = 321.0, 9, 1
        _, y = lagrange_solution(R, N, k)
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
        reports = conditions_trend(1, 1.0, [1000, 100_000], eps=0.2)
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
        theta, _ = sample_prior(pr_zero, substream(0, 1))
        np.testing.assert_array_equal(theta, 0.0)

    def test_clip_event_frequency(self):
        pr = least_favorable_prior(1, 1.0, 10_001, eps=0.2)
        reps = 4000
        misses = 0
        for rep in range(reps):
            _, ok = sample_prior(pr, substream(3, 2, rep))
            misses += not ok
        p_bound = pr.t.size * 2.0 * norm.sf(math.sqrt(pr.d_n))
        freq = misses / reps
        se = math.sqrt(max(freq * (1 - freq), 1e-6) / reps)
        assert freq <= p_bound + 4.0 * se

    def test_sup_bound_on_clip_event(self):
        pr = least_favorable_prior(1, 1.0, 10_001, eps=0.2)
        x = np.linspace(0.0, 1.0, 4001)
        for rep in range(50):
            theta, ok = sample_prior(pr, substream(4, 3, rep))
            if ok:
                sup = float(np.max(np.abs(kernel_function(theta, pr.family, x))))
                assert sup <= pr.sup_bound() + 1e-12


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
        rep = prior_van_trees_bound(pr, homogeneous_scale(2.0), grid, mc_reps=5, seed=0)
        np.testing.assert_array_equal(rep.bias, 0.0)
        # F = sigma^-2 sum_i D^2(x_i)
        D = pr.family.design_tensor(grid.points).reshape(pr.t.size, -1)
        np.testing.assert_allclose(rep.fisher, 0.25 * np.sum(D**2, axis=1), rtol=1e-12)

    def test_term_monotonicity(self):
        base = van_trees_term(1.0, 10.0, 1.0, 0.5)
        assert van_trees_term(1.0, 20.0, 1.0, 0.5) < base
        assert van_trees_term(1.0, 10.0, 5.0, 0.5) < base
        assert van_trees_term(1.0, 10.0, 1.0, 0.25) < base

    def test_missing_frechet_rejected(self):
        from hetreg.models import ScaleModel

        bare = ScaleModel(g2=lambda x, s, norm_sq: np.ones_like(np.asarray(x, dtype=float)))
        grid = DesignGrid(51)
        with pytest.raises(ValueError):
            van_trees_bound(np.ones((1, 51)), np.ones((1, 1)), np.array([1.0]), np.array([1.0]),
                            bare, grid)

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
        grid = DesignGrid(51)
        pr = least_favorable_prior(1, 1.0, 51, eps=0.2, g0=g0)
        bound = prior_van_trees_bound(pr, scale, grid, mc_reps=300, seed=1).bound
        [(risk, se)] = bayes_risk_mc([zero_stack], pr, scale, grid, reps=500, seed=2)
        assert risk >= bound - 5.0 * se
        # analytic sanity for the zero estimator
        assert abs(risk - prior_expected_norm_sq(pr)) <= 4.0 * se


class TestBayesRisk:
    def test_zero_estimator_mean_energy(self):
        scale = homogeneous_scale(1.0)
        grid = DesignGrid(101)
        pr = least_favorable_prior(1, 1.0, 101, eps=0.2)
        [(risk, se)] = bayes_risk_mc([zero_stack], pr, scale, grid, reps=800, seed=3)
        assert abs(risk - prior_expected_norm_sq(pr)) <= 4.0 * se

    def test_risk_nonnegative(self):
        scale = homogeneous_scale(1.0)
        grid = DesignGrid(51)
        pr = least_favorable_prior(1, 1.0, 51, eps=0.2)
        [(risk, _)] = bayes_risk_mc([zero_stack], pr, scale, grid, reps=20, seed=4)
        assert risk >= 0.0

    def test_refuses_no_replicates_and_bad_estimates(self):
        grid = DesignGrid(51)
        pr = least_favorable_prior(1, 1.0, 51, eps=0.2)
        scale = homogeneous_scale(1.0)
        with pytest.raises(ValueError, match="reps must be >= 1"):
            bayes_risk_mc([zero_stack], pr, scale, grid, reps=0)
        # a stack of the wrong width, one row for the whole stack, a scalar, a function
        for bad in (lambda Y, g: np.zeros((len(Y), g.n + 1)), lambda Y, g: np.zeros(g.n),
                    lambda Y, g: 0.0, lambda Y, g: TrigPolynomial(np.zeros(g.n))):
            with pytest.raises(ValueError, match=r"\(3, 51\) stack of coefficient vectors"):
                bayes_risk_mc([zero_stack, bad], pr, scale, grid, reps=3)

    def test_no_estimators_draw_nothing(self, monkeypatch):
        def refuse(*key, reps):
            raise AssertionError("no replicate should be drawn")

        monkeypatch.setattr(lowerbound, "substreams", refuse)
        pr = least_favorable_prior(1, 1.0, 51, eps=0.2)
        assert bayes_risk_mc([], pr, homogeneous_scale(1.0), DesignGrid(51), reps=5) == []

    @pytest.mark.parametrize("rows", [3, 24])
    def test_blocks_do_not_change_the_risk(self, monkeypatch, rows):
        # blocks of `rows` replicates, and of rows / 8 draws for the bound,
        # give the one-block numbers
        scale = econometric_scale(1.0, 1.0, 0.5, 0.5)
        grid = DesignGrid(51)
        pr = least_favorable_prior(1, 1.0, 1001, eps=0.2)  # P = 8 directions

        def project(Y, g):
            return fourier_rows(Y)

        def run():
            risk = bayes_risk_mc([project], pr, scale, grid, reps=10, seed=9)
            return risk, prior_van_trees_bound(pr, scale, grid, mc_reps=10, seed=9).bound

        whole = run()
        monkeypatch.setattr(lowerbound, "BLOCK_ENTRIES", rows * grid.n)
        blocked = run()
        assert blocked[0] == whole[0]
        assert blocked[1] == pytest.approx(whole[1], rel=1e-13)

    def test_row_dots_are_single_row_dots(self):
        # every loss term rounds as the one-draw product c @ c would
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((2, 40, 101))
        dots = lowerbound._row_dots(a, b)
        assert all(dots[r] == a[r] @ b[r] for r in range(40))

    def test_adaptive_beats_bound(self):
        scale = homogeneous_scale(1.0)
        grid = DesignGrid(101)
        pr = least_favorable_prior(1, 1.0, 101, eps=0.2)
        bound = prior_van_trees_bound(pr, scale, grid, mc_reps=100, seed=5).bound

        def adaptive(Y, g):
            out = estimate(Y, g)
            return out.lambda_hat * out.coeffs.theta_hat

        [(risk, se)] = bayes_risk_mc([stacked(adaptive)], pr, scale, grid, reps=400, seed=6)
        assert risk >= bound - 5.0 * se


class TestNormalizedCorridor:
    def test_double_sum_bound_in_corridor(self):
        # finite-n sanity corridor around the eps-deflated Pinsker target
        n = 100_001
        pr = least_favorable_prior(1, 1.0, n, eps=0.2)
        grid = DesignGrid(n)
        rep = prior_van_trees_bound(pr, homogeneous_scale(1.0), grid, mc_reps=30, seed=7)
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
        return [sample_prior(prior, substream(31, prior.n, i))[0].ravel() for i in range(count)]

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
                theta, _ = sample_prior(pr, rng)
                S = SampledFunction(lambda x: kernel_function(theta, pr.family, x))
                Y = S(grid.points) + self.SCALE.g(grid.points, S) * rng.standard_normal(n)
                losses.append(wq @ (trig_series(est(Y, grid), xq) - S(xq)) ** 2)
            simpson = (np.mean(losses), np.std(losses, ddof=1) / 2.0)
            [exact] = bayes_risk_mc([stacked(est)], pr, self.SCALE, grid, reps=4, seed=8)
            np.testing.assert_allclose(exact, simpson, rtol=1e-9, err_msg=name)

    @pytest.mark.parametrize("n", [51, 101])
    def test_combo_inner_and_norm(self, n):
        # for S_z = sum_p z_p D_p: ||S_z||^2 = z'Gz and <S_z, D_p> = (Gz)_p
        fam = self.prior(n).family
        fns = element_fns(fam)
        gram = _family_gram(fam)
        for z in self.draws(self.prior(n)):
            S = SampledFunction(lambda x: kernel_function(z.reshape(fam.M, fam.N), fam, x))
            assert z @ gram @ z == pytest.approx(simpson_integral(lambda x: S(x) ** 2), rel=1e-9)
            for p, fp in enumerate(fns):
                ref = simpson_integral(lambda x: S(x) * fp(x))
                assert (gram @ z)[p] == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("n", [51, 101])
    def test_frechet_unchanged(self, n):
        # the Frechet response fed (Gz)_p equals the one with a quadrature cross term
        c2, c3 = 0.5, 0.5
        x = DesignGrid(n).points
        fam = self.prior(n).family
        fns = element_fns(fam)
        gram = _family_gram(fam)
        for z in self.draws(self.prior(n)):
            S = SampledFunction(lambda t: kernel_function(z.reshape(fam.M, fam.N), fam, t))
            for p, fp in enumerate(fns):
                quad = 2.0 * c2 * S(x) * fp(x) + 2.0 * c3 * simpson_integral(
                    lambda t: S(t) * fp(t)
                )
                np.testing.assert_allclose(
                    self.SCALE.frechet(x, S(x), fp(x), (gram @ z)[p]), quad, rtol=1e-10, atol=1e-14
                )

    @pytest.mark.parametrize("n", [51, 101])
    def test_fft_cross_matrix_equals_dense(self, n):
        fam = self.prior(n).family
        xq, wq = simpson_rule()
        weighted = fam.design_tensor(xq).reshape(fam.M * fam.N, -1) * wq
        dense = basis_eval_matrix(n, xq).T @ weighted.T
        np.testing.assert_allclose(_trig_inner_products(n, weighted), dense, rtol=0, atol=1e-14)

    def test_fft_cross_matrix_aliases_beyond_grid(self):
        # 16 panels: frequencies up to 25 wrap around the 16-point grid
        x, w = simpson_rule(0.0, 1.0, 16)
        weighted = np.stack([np.exp(-x), x**2]) * w
        dense = basis_eval_matrix(51, x).T @ weighted.T
        np.testing.assert_allclose(_trig_inner_products(51, weighted), dense, rtol=0, atol=1e-13)


class TestDesignCache:
    """Prior draws on the design are matmuls over one family sample, never a kernel element."""

    SCALE = TestExactAlgebra.SCALE
    prior = TestExactAlgebra.prior
    draws = TestExactAlgebra.draws

    @staticmethod
    def estimators(n):
        seqs = default_sequences(n)
        family = weight_family(n, seqs)

        def adaptive(Y, g):
            out = estimate(Y, g, seqs, family)
            return out.lambda_hat * out.coeffs.theta_hat

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
        G = _family_gram(fam)
        xq, wq = simpson_rule()
        C = _trig_inner_products(n, fam.design_tensor(xq).reshape(len(fns), -1) * wq)
        sd = pr.t.ravel()
        rng = substream(606, 11, n, len(fns))
        ginv2, bias = np.zeros(n), np.zeros(len(fns))
        for _ in range(mc_reps):
            z = rng.standard_normal(len(fns)) * sd
            s = kernel_function(z.reshape(pr.t.shape), fam, x)
            g2 = self.SCALE.g2(x, s, z @ G @ z)
            ginv2 += 1.0 / g2 / mc_reps
            for p, fp in enumerate(fns):
                L = self.SCALE.frechet(x, s, fp(x), G[p] @ z)
                bias[p] += 0.5 * np.sum(L**2 / g2**2) / mc_reps
        fisher = np.array([fp(x) ** 2 @ ginv2 for fp in fns])
        tau = np.tile([math.sqrt(fam.h) * ebar(j, fam.eta) for j in range(1, fam.N + 1)], fam.M)
        bound = float(np.sum(tau**2 / (fisher + bias + sd**-2.0)))
        risks = {}
        for name, est in self.estimators(n).items():
            losses = []
            for rep in range(reps):
                rng = substream(607, 13, n, rep)
                theta, _ = sample_prior(pr, rng)
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
        bound = prior_van_trees_bound(pr, self.SCALE, grid, mc_reps=40, seed=606).bound
        assert bound == pytest.approx(ref_bound, rel=1e-9)
        ests = self.estimators(n)
        risks = bayes_risk_mc([stacked(e) for e in ests.values()], pr, self.SCALE, grid,
                              reps=40, seed=607)
        for name, risk in zip(ests, risks):
            np.testing.assert_allclose(risk, ref_risks[name], rtol=1e-9, err_msg=name)

    def test_element_calls_do_not_grow_with_reps(self, monkeypatch):
        calls = {"element": 0, "design_tensor": 0, "g2": 0, "frechet": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(KernelFamily, "element", counted("element", KernelFamily.element))
        monkeypatch.setattr(KernelFamily, "design_tensor",
                            counted("design_tensor", KernelFamily.design_tensor))
        scale = dataclasses.replace(self.SCALE, g2=counted("g2", self.SCALE.g2),
                                    frechet=counted("frechet", self.SCALE.frechet))
        grid = DesignGrid(51)
        pr = self.prior(51)
        project = stacked(self.estimators(51)["projection"])

        def count(reps):
            calls.update(element=0, design_tensor=0, g2=0, frechet=0)
            prior_van_trees_bound(pr, scale, grid, mc_reps=reps, seed=1)
            bayes_risk_mc([project], pr, scale, grid, reps=reps, seed=2)
            return dict(calls)

        few = count(3)
        assert few == count(12)
        # one design sample for the bound; the design and the Simpson nodes for the risk
        assert few == {"element": 0, "design_tensor": 3, "g2": 2, "frechet": 1}
