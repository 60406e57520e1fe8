import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import norm

from hetreg import lowerbound, selection
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
    NoiseSpec,
    ScaleModel,
    econometric_scale,
    homogeneous_scale,
    simpson_integral,
    simpson_rule,
    substream,
)
from hetreg.selection import estimate
from hetreg.weights import default_sequences, weight_family
from oracles import van_trees_draws, van_trees_quadrature
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
                homogeneous_scale(1.0), grid,
            )
            assert rep.bound == pytest.approx(t**2 / (51 * t**2 + 1.0), abs=1e-12)

    def test_constant_scale_has_zero_bias_term(self):
        grid = DesignGrid(101)
        pr = least_favorable_prior(1, 1.0, 101, eps=0.2)
        rep = prior_van_trees_bound(pr, homogeneous_scale(2.0))
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
                            homogeneous_scale(1.0), grid)
        with pytest.raises(ValueError, match="prior standard deviation must be positive"):
            van_trees_term(1.0, 10.0, 1.0, sd)

    def test_missing_frechet_rejected(self):
        # the Frechet derivative is a required field: a model without one is never built
        with pytest.raises(TypeError, match="frechet"):
            ScaleModel(g2=lambda x, s, norm_sq: np.ones_like(np.asarray(x, dtype=float)))

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
        bound = prior_van_trees_bound(pr, scale).bound
        [(risk, se)] = bayes_risk_mc(["zero"], pr, scale, default_sequences(51), reps=500, seed=2)
        assert risk >= bound - 5.0 * se
        # analytic sanity for the zero estimator
        assert abs(risk - prior_expected_norm_sq(pr)) <= 4.0 * se


class TestVanTreesAlgebra:
    """The closed-form F_p and B_p against the Monte Carlo they replaced (`van_trees_draws`)."""

    DRAWS = 40_000

    @staticmethod
    def directions(n):
        pr = least_favorable_prior(1, 1.0, n, eps=0.2)
        D, gram, _ = pr.family_arrays
        return D, gram, pr.t.ravel(), DesignGrid(n)

    @pytest.mark.parametrize("n, scale", [(n, scale) for n in (51, 101) for scale in scale_models()]
                             + [(1001, econometric_scale(1.0, 1.0, 0.5, 0.5))],
                             ids=lambda a: getattr(a, "name", a))
    def test_fisher_and_bias_within_4_se_of_monte_carlo(self, n, scale):
        D, gram, sd, grid = self.directions(n)
        rep = van_trees_bound(D, gram, np.ones(len(sd)), sd, scale, grid)
        for exact, draws in zip(rep[1:], van_trees_draws(D, gram, sd, scale, grid, self.DRAWS, seed=5)):
            mean, se = draws.mean(axis=0), draws.std(axis=0, ddof=1) / math.sqrt(self.DRAWS)
            # the homogeneous scale draws one value: se is 0 there, up to the mean's rounding
            assert np.all(np.abs(exact - mean) <= 4.0 * se + 1e-12 * np.abs(mean)), (exact, mean, se)

    @pytest.mark.parametrize("scale", scale_models(), ids=lambda m: m.name)
    def test_fisher_and_bias_match_gauss_hermite(self, scale):
        # two coupled directions under a prior whose load (beta E s^2 + gamma E ||S||^2) / alpha
        # reaches 0.33, some 17 times the least favorable priors', so that every term of
        # the closed form shows; the 24 Laguerre nodes still hold it to 4e-9 there
        grid = DesignGrid(51)
        D = np.stack([np.sin(np.pi * grid.points), np.cos(3.0 * np.pi * grid.points) + 0.5])
        gram, sd = np.array([[0.5, 0.2], [0.2, 0.9]]), np.array([0.2, 0.15])
        rep = van_trees_bound(D, gram, np.ones(2), sd, scale, grid)
        for exact, reference in zip(rep[1:], van_trees_quadrature(D, gram, sd, scale, grid)):
            np.testing.assert_allclose(exact, reference, rtol=1e-8, atol=0)

    @pytest.mark.parametrize("n", [51, 101, 1001])
    def test_doubling_the_nodes_moves_nothing(self, monkeypatch, n):
        pr = least_favorable_prior(1, 1.0, n, eps=0.2)

        def reports(nodes):
            monkeypatch.setattr(lowerbound, "LAGUERRE_NODES", nodes)
            return [prior_van_trees_bound(pr, scale) for scale in scale_models()]

        for rule, doubled in zip(reports(lowerbound.LAGUERRE_NODES), reports(2 * lowerbound.LAGUERRE_NODES)):
            for a, b in zip(rule, doubled):  # the bound, every F_p and every B_p
                np.testing.assert_allclose(b, a, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("g2, frechet", [
        (lambda x, s, norm_sq: 1.0 + s**4 + 0.0 * x, lambda x, s: (4.0 * s**3, 0.0)),  # not affine in s^2
        (lambda x, s, norm_sq: 0.5 * s**2 + norm_sq + 0.0 * x, lambda x, s: (1.0 * s, 2.0)),  # no noise floor
    ])
    def test_refuses_a_scale_of_another_form(self, g2, frechet):
        pr = least_favorable_prior(1, 1.0, 51, eps=0.2)
        with pytest.raises(ValueError, match="scale 'odd' is not g\\^2 = alpha"):
            prior_van_trees_bound(pr, ScaleModel(g2=g2, frechet=frechet, name="odd"))

    def test_groups_match_one_group(self, monkeypatch):
        # at n = 10001 the P = 12 directions fall into M = 4 groups of N = 3, which give the
        # one-group bound to rounding, and slabs of 37 points move no bit of it
        pr, scale = least_favorable_prior(1, 1.0, 10_001, eps=0.2), econometric_scale(1.0, 1.0, 0.5, 0.5)
        D, gram, _ = pr.family_arrays
        groups, _ = lowerbound._direction_groups(D, gram)
        assert [list(J) for J in groups] == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]
        grouped = prior_van_trees_bound(pr, scale)
        monkeypatch.setattr(lowerbound, "BLOCK_ENTRIES", 37 * lowerbound.LAGUERRE_NODES * 12)
        slabs = prior_van_trees_bound(pr, scale)
        assert slabs.bound == grouped.bound
        np.testing.assert_array_equal(slabs.fisher, grouped.fisher)
        np.testing.assert_array_equal(slabs.bias, grouped.bias)
        monkeypatch.setattr(lowerbound, "ONE_GROUP", 12)
        for a, b in zip(prior_van_trees_bound(pr, scale), grouped):
            np.testing.assert_allclose(b, a, rtol=1e-12, atol=0)

    def test_a_point_meeting_two_directions_joins_their_groups(self, monkeypatch):
        # G couples no two directions, but points meet pairs (0, 5) and (5, 9): the groups
        # are [0, 5, 9] and one per other direction, out of order in x, and they give the
        # one-group bound to rounding
        n, P = 51, 10
        D = np.zeros((P, n))
        for p in range(P):
            D[p, 5 * p : 5 * p + 3] = 1.0 + p
        D[5, 1], D[9, 27] = 0.5, 0.25
        gram = np.diag(np.linspace(0.5, 2.0, P))
        groups, owner = lowerbound._direction_groups(D, gram)
        assert [list(J) for J in groups] == [[0, 5, 9], *([p] for p in range(1, P) if p not in (5, 9))]
        assert owner[1] == 0 and owner[27] == 0 and owner[50] == 0  # x = 50 meets no direction
        args = (D, gram, np.ones(P), np.linspace(0.1, 0.3, P), econometric_scale(1.0, 1.0, 0.5, 0.5), DesignGrid(n))
        grouped = van_trees_bound(*args)
        monkeypatch.setattr(lowerbound, "ONE_GROUP", P)
        for a, b in zip(van_trees_bound(*args), grouped):
            np.testing.assert_allclose(b, a, rtol=1e-12, atol=0)


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
            report = prior_van_trees_bound(pr, scale)
            return risk, report.bound, report.fisher.tolist(), report.bias.tolist()

        whole = run()
        monkeypatch.setattr(selection, "BLOCK_ENTRIES", rows * 1001)  # the Bayes risk's blocks
        monkeypatch.setattr(lowerbound, "BLOCK_ENTRIES", rows * 1001)  # the van Trees draws'
        assert run() == whole

    def test_blocks_do_not_move_a_replicates_scores(self, monkeypatch):
        # the scorer gets the one-block inputs bit for bit, replicate by replicate.  P = 34
        # directions (M = 2 blocks of N = 17) take tG in padded row blocks of 226 replicates,
        # whose last two rows OpenBLAS rounds apart from the others; t'Gt mostly absorbs that,
        # but not for replicate 225 at seed 6, so blocks of 7 catch a tG product that is not
        # aligned at its block's first replicate
        pr = least_favorable_prior(1, 1.0, 101, eps=0.2)
        family = KernelFamily(pr.family.h, 17, pr.family.eta)
        wide = dataclasses.replace(pr, family=family, t=np.full((family.M, family.N), 0.05))
        scale, score = econometric_scale(1.0, 1.0, 0.5, 0.5), lowerbound.score_cell

        def scored(rows):
            monkeypatch.setattr(selection, "BLOCK_ENTRIES", rows * 101)
            inputs = []
            monkeypatch.setattr(lowerbound, "score_cell", lambda *args: inputs.append(args) or score(*args))
            risk = bayes_risk_mc(["zero", "projection", "adaptive"], wide, scale, default_sequences(101),
                                 reps=230, seed=6)
            [args] = inputs
            return risk, [a for a in args if isinstance(a, np.ndarray)]

        whole_risk, whole = scored(230)
        risk, blocks = scored(7)
        assert risk == whole_risk and len(blocks) == len(whole)
        for got, want in zip(blocks, whole):
            np.testing.assert_array_equal(got, want)

    def test_generators_are_made_as_they_are_drawn(self, monkeypatch):
        # one draw per replicate, t then its noise, from a generator made as it is needed:
        # a block's truth runs when exactly the generators of its replicates so far are made
        n, reps, made, draws, seen = 101, 10, [], [], []
        streams, draw, observe = lowerbound.substreams, NoiseSpec.draw, lowerbound.observe_cell

        def counted_streams(*key, reps):
            for rng in streams(*key, reps=reps):
                made.append(rng)
                yield rng

        def counted_draw(self, rng, size, out=None):
            draws.append(size)
            return draw(self, rng, size, out=out)

        def observed(rngs, noise, truth, reps, analysis, lead=0):
            def counted_truth(lo, hi, z):
                seen.append((hi, len(made)))
                return truth(lo, hi, z)

            return observe(rngs, noise, counted_truth, reps, analysis, lead=lead)

        pr = least_favorable_prior(1, 1.0, n, eps=0.2)
        scale, seqs = econometric_scale(1.0, 1.0, 0.5, 0.5), default_sequences(n)
        whole = bayes_risk_mc(["zero", "adaptive"], pr, scale, seqs, reps=reps, seed=8)
        monkeypatch.setattr(lowerbound, "substreams", counted_streams)
        monkeypatch.setattr(NoiseSpec, "draw", counted_draw)
        monkeypatch.setattr(lowerbound, "observe_cell", observed)
        monkeypatch.setattr(selection, "BLOCK_ENTRIES", 3 * n)
        assert bayes_risk_mc(["zero", "adaptive"], pr, scale, seqs, reps=reps, seed=8) == whole
        assert seen == [(3, 3), (6, 6), (9, 9), (10, 10)]
        assert draws == [pr.t.size + n] * reps

    def test_adaptive_beats_bound(self):
        scale = homogeneous_scale(1.0)
        pr = least_favorable_prior(1, 1.0, 101, eps=0.2)
        bound = prior_van_trees_bound(pr, scale).bound
        [(risk, se)] = bayes_risk_mc(["adaptive"], pr, scale, default_sequences(101), reps=400, seed=6)
        assert risk >= bound - 5.0 * se


class TestNormalizedCorridor:
    def test_double_sum_bound_in_corridor(self):
        # finite-n sanity corridor around the eps-deflated Pinsker target
        n = 100_001
        pr = least_favorable_prior(1, 1.0, n, eps=0.2)
        rep = prior_van_trees_bound(pr, homogeneous_scale(1.0))
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

    def reference(self, pr, grid, reps):
        """The bound and the risks by a plain loop: the bound's directions element by
        element, one replicate at a time, S_z on the design by `kernel_function`, no block
        and no shared design sample."""
        fam, x, n = pr.family, grid.points, grid.n
        fns = element_fns(fam)
        G, C = _family_integrals(fam, n)
        tau = np.tile([math.sqrt(fam.h) * ebar(j, fam.eta) for j in range(1, fam.N + 1)], fam.M)
        bound = van_trees_bound(np.stack([fp(x) for fp in fns]), G, tau, pr.t.ravel(), self.SCALE, grid).bound
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
        ref_bound, ref_risks = self.reference(pr, grid, reps=40)
        bound = prior_van_trees_bound(pr, self.SCALE).bound
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
            prior_van_trees_bound(pr, scale)
            bayes_risk_mc(["projection"], pr, scale, default_sequences(51), reps=reps, seed=2)
            return dict(calls)

        few = count(3)
        assert few == count(12)
        # one prior samples the family once on the design and once on the rule's
        # nodes, each a block at a time, for both the bound and the risk; the
        # bound reads g2 twice and frechet twice for the scale's coefficients
        M = self.prior(51).family.M
        assert few == {"design_tensor": 1, "block": 2 * M, "g2": 3, "frechet": 2}

    def test_family_integrals_once_per_prior(self, monkeypatch):
        # the bound, the Bayes risk and E ||S||^2 of one prior share one (D, G, C)
        sizes = []
        sampler = lowerbound._family_integrals

        def counted(family, n):
            sizes.append(n)
            return sampler(family, n)

        monkeypatch.setattr(lowerbound, "_family_integrals", counted)
        pr = self.prior(51)
        prior_van_trees_bound(pr, self.SCALE)
        bayes_risk_mc(["zero"], pr, self.SCALE, default_sequences(51), reps=3, seed=2)
        prior_expected_norm_sq(pr)
        assert sizes == [51]

    @pytest.mark.parametrize("call", ["bound", "risk", "norm"])
    def test_even_n_is_refused(self, call):
        # a prior at even n is valid, but it has no design to run on
        pr = least_favorable_prior(1, 1.0, 1000, eps=0.2)
        run = {
            "bound": lambda: prior_van_trees_bound(pr, self.SCALE),
            # even n has no tuning either; the missing design is refused first
            "risk": lambda: bayes_risk_mc(["zero"], pr, self.SCALE, default_sequences(1001), reps=3),
            "norm": lambda: prior_expected_norm_sq(pr),
        }[call]
        with pytest.raises(ValueError, match="design size must be an odd positive integer"):
            run()
