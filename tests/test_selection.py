import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hetreg.basis import (
    DesignGrid,
    FourierCoeffs,
    TrigPolynomial,
    discrete_fourier,
    fourier_rows,
    trig_basis_eval,
    trig_series,
)
from hetreg.models import NoiseSpec, generate_observations, homogeneous_scale, substream
from hetreg.selection import (
    cost,
    cost_terms,
    estimate,
    family_costs,
    select,
    select_rows,
    tail_energy,
    varsigma_hat,
)
from hetreg.weights import WeightIndex, default_sequences, pinsker_weights, weight_family


class TestEstimateInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        g = DesignGrid(51)
        y = np.zeros(51)
        y[3] = bad
        with pytest.raises(ValueError, match=r"must be finite: 1 of 51 .* index 3"):
            estimate(y, g)

    def test_overflowing_costs_rejected(self):
        # finite but so large that theta_hat^2 overflows: no taper may be selected
        y = 1e200 * np.linspace(1.0, 2.0, 51)
        with pytest.raises(ValueError, match="not finite"):
            estimate(y, DesignGrid(51))


def noisy_rows(n: int, rows: int, seed: int) -> np.ndarray:
    """theta_hat of S1 plus unit noise, the regime the selector works in."""
    x = DesignGrid(n).points
    S = TrigPolynomial([0.0, 2.0, 0.0, 0.0, 1.0])(x)
    return fourier_rows(S + np.random.default_rng(seed).standard_normal((rows, n)))


class TestFamilyCosts:
    @given(n=st.sampled_from([11, 51, 101, 301]), seed=st.integers(0, 2**32 - 1),
           s=st.floats(min_value=1e-3, max_value=1e3))
    def test_two_homogeneous(self, n, seed, s):
        seqs = default_sequences(n)
        W = weight_family(n, seqs).W
        th = noisy_rows(n, 3, seed)
        base = family_costs(W, th, tail_energy(th, seqs.l_n), n, seqs)
        np.testing.assert_allclose(family_costs(W, s * th, tail_energy(s * th, seqs.l_n), n, seqs),
                                   s**2 * base,
                                   rtol=1e-9, atol=1e-12 * s**2 * np.abs(base).max())

    @given(n=st.sampled_from([11, 51, 101, 301]), seed=st.integers(0, 2**32 - 1),
           k=st.integers(min_value=-60, max_value=60))
    def test_argmin_scale_invariant(self, n, seed, k):
        # a power of two scales every cost exactly, so the argmin cannot move
        seqs = default_sequences(n)
        W = weight_family(n, seqs).W
        th = noisy_rows(n, 3, seed)
        scaled = 2.0**k * th
        np.testing.assert_array_equal(
            select_rows(W, scaled, tail_energy(scaled, seqs.l_n), n, seqs)[0],
            select_rows(W, th, tail_energy(th, seqs.l_n), n, seqs)[0])

    @given(n=st.sampled_from([11, 51, 101, 301]), seed=st.integers(0, 2**32 - 1))
    def test_batched_argmin_equals_select(self, n, seed):
        seqs = default_sequences(n)
        fam = weight_family(n, seqs)
        th = noisy_rows(n, 8, seed)
        best, costs = select_rows(fam.W, th, tail_energy(th, seqs.l_n), n, seqs)
        for row, b, c in zip(th, best, costs):
            out = select(fam, FourierCoeffs(n, row), seqs)
            assert out.selected == fam[b][0]
            np.testing.assert_allclose(list(out.costs.values()), c, rtol=1e-12, atol=1e-15)


    @given(n=st.sampled_from([11, 51, 101, 301]), seed=st.integers(0, 2**32 - 1),
           extra=st.integers(min_value=0, max_value=400))
    def test_tapers_cut_past_their_support(self, n, seed, extra):
        # the tapers are 0 past column m: the stack at its support width, or cut
        # anywhere past m against only the head of theta_hat, costs and picks
        # as the full-length stack does
        seqs = default_sequences(n)
        W = weight_family(n, seqs).W
        full_W = np.zeros((len(W), n))
        full_W[:, : W.shape[1]] = W
        m = min(n, int(np.flatnonzero(W.any(axis=0))[-1]) + 1 + extra)
        th = noisy_rows(n, 8, seed)
        tail = tail_energy(th, seqs.l_n)
        full_best, full = select_rows(full_W, th, tail, n, seqs)
        for cut_W in (W, np.ascontiguousarray(full_W[:, :m])):
            cut_best, cut = select_rows(cut_W, th[:, : cut_W.shape[1]], tail, n, seqs)
            np.testing.assert_allclose(cut, full, rtol=1e-12, atol=1e-15)
            np.testing.assert_array_equal(cut_best, full_best)
        np.testing.assert_allclose(family_costs(W, th[0], tail[0], n, seqs), full[0],
                                   rtol=1e-12, atol=1e-15)


class TestVarsigmaHat:
    def test_no_tail_energy(self):
        g = DesignGrid(11)
        coeffs = discrete_fourier(trig_basis_eval(1, g.points), g)
        assert varsigma_hat(coeffs, 1) == pytest.approx(0.0, abs=1e-24)

    def test_single_tail_term(self):
        g = DesignGrid(11)
        c = discrete_fourier(3.0 * trig_basis_eval(11, g.points), g)
        assert varsigma_hat(c, 10) == pytest.approx(9.0)

    def test_out_of_range(self):
        g = DesignGrid(11)
        coeffs = discrete_fourier(np.zeros(11), g)
        for bad in (0, 11, 20):
            with pytest.raises(ValueError):
                varsigma_hat(coeffs, bad)

    def test_pure_noise_mean_level(self):
        # S == 0, sigma == 1: E varsigma_hat = (n - l_n)/n
        n, reps = 1001, 1000
        g = DesignGrid(n)
        seqs = default_sequences(n)
        scale = homogeneous_scale(1.0)
        noise = NoiseSpec("gaussian")
        zero = TrigPolynomial([0.0])
        vals = np.empty(reps)
        for rep in range(reps):
            Y = generate_observations(zero, scale, noise, g, substream(99, 5, n, rep))
            vals[rep] = varsigma_hat(discrete_fourier(Y, g), seqs.l_n)
        expected = (n - seqs.l_n) / n
        se = vals.std(ddof=1) / np.sqrt(reps)
        assert abs(vals.mean() - expected) <= 3.0 * se


class TestCost:
    def test_zero_weights(self):
        g = DesignGrid(11)
        coeffs = discrete_fourier(np.arange(11.0), g)
        assert cost(np.zeros(11), coeffs, 1.0, 0.25) == 0.0

    def test_full_weights_identity(self):
        # lam == 1: J = -sum theta_hat^2 + 2 vs + rho vs
        rng = np.random.default_rng(0)
        g = DesignGrid(51)
        coeffs = discrete_fourier(rng.standard_normal(51), g)
        vs, rho = 0.7, 0.2
        expected = -float(np.sum(coeffs.theta_hat**2)) + 2.0 * vs + rho * vs
        assert cost(np.ones(51), coeffs, vs, rho) == pytest.approx(expected, rel=1e-12)

    def test_quadratic_loss_identity(self):
        # with the exact product theta_hat * theta and rho = 0,
        # J + ||S||_n^2 equals the empiric quadratic loss
        rng = np.random.default_rng(1)
        n = 101
        g = DesignGrid(n)
        S = TrigPolynomial([0.0, 2.0, 0.0, 0.0, 1.0])
        Y = S.on_grid(g) + 0.5 * rng.standard_normal(n)
        coeffs = discrete_fourier(Y, g)
        theta_n = discrete_fourier(S.on_grid(g), g).theta_hat
        lam = rng.uniform(0.0, 1.0, n)
        terms = cost_terms(lam, coeffs, 0.0, 0.0, theta_tilde=coeffs.theta_hat * theta_n)
        loss = float(np.sum((lam * coeffs.theta_hat - theta_n) ** 2))
        norm_s = float(np.sum(theta_n**2))
        assert terms.total + norm_s == pytest.approx(loss, abs=1e-10)

    def test_dimension_mismatch(self):
        g = DesignGrid(11)
        coeffs = discrete_fourier(np.zeros(11), g)
        with pytest.raises(ValueError):
            cost(np.ones(9), coeffs, 1.0, 0.2)


class TestSelect:
    def test_single_member_family(self):
        g = DesignGrid(51)
        seqs = default_sequences(51)
        fam = weight_family(51, seqs)[:1]
        coeffs = discrete_fourier(np.ones(51), g)
        out = select(fam, coeffs, seqs)
        assert out.selected == fam[0][0]

    def test_tie_prefers_smaller_index(self):
        g = DesignGrid(51)
        seqs = default_sequences(51)
        lam = np.zeros(51)
        fam = [(WeightIndex(1, 0.1), lam), (WeightIndex(2, 0.1), lam.copy())]
        coeffs = discrete_fourier(np.ones(51), g)
        out = select(fam, coeffs, seqs)
        assert out.selected == WeightIndex(1, 0.1)

    def test_pair_list_selects_like_family(self):
        seqs = default_sequences(101)
        fam = weight_family(101, seqs)
        coeffs = FourierCoeffs(101, noisy_rows(101, 1, 5)[0])
        a, b = select(fam, coeffs, seqs), select(list(fam), coeffs, seqs)
        assert (a.selected, a.costs) == (b.selected, b.costs)

    def test_empty_family(self):
        g = DesignGrid(51)
        coeffs = discrete_fourier(np.ones(51), g)
        with pytest.raises(ValueError):
            select([], coeffs, default_sequences(51))

    def test_exhaustive_argmin_audit_noiseless(self):
        n = 101
        g = DesignGrid(n)
        seqs = default_sequences(n)
        S = TrigPolynomial([2.0, 1.0, 0.5])
        out = estimate(S.on_grid(g), g, seqs)
        j_min = min(out.costs.values())
        assert out.costs[out.selected] == j_min
        for alpha, c in out.costs.items():
            assert out.costs[out.selected] <= c

    def test_costs_map_matches_cost_function(self):
        rng = np.random.default_rng(5)
        n = 51
        g = DesignGrid(n)
        seqs = default_sequences(n)
        fam = weight_family(n, seqs)
        coeffs = discrete_fourier(rng.standard_normal(n), g)
        out = select(fam, coeffs, seqs)
        for alpha, _ in fam[::7]:
            assert out.costs[alpha] == pytest.approx(
                cost(pinsker_weights(alpha, n, seqs), coeffs, out.varsigma_hat, seqs.rho), rel=1e-12
            )


class TestEstimatePipeline:
    def test_deterministic(self):
        rng = np.random.default_rng(11)
        g = DesignGrid(101)
        Y = rng.standard_normal(101)
        a = estimate(Y, g)
        b = estimate(Y.copy(), g)
        assert a.selected == b.selected
        np.testing.assert_array_equal(a.lambda_hat, b.lambda_hat)
        np.testing.assert_array_equal(a.coeffs.theta_hat, b.coeffs.theta_hat)
        assert a.varsigma_hat == b.varsigma_hat

    @pytest.mark.parametrize("n", [51, 1001, 5001])
    def test_estimate_sums_over_the_taper_support(self, n):
        # the fitted function off the grid equals the full-length series of all n coefficients
        rng = np.random.default_rng(n)
        g = DesignGrid(n)
        fit = estimate(np.sin(2.0 * np.pi * g.points) + rng.standard_normal(n), g)
        x = rng.random(500)
        full = trig_series(fit.lambda_hat * fit.coeffs.theta_hat, x)
        np.testing.assert_allclose(fit.estimate(x), full, rtol=1e-12)
        assert fit.lambda_hat.shape == (n,)

    def test_all_zero_taper_keeps_one_coefficient(self):
        g = DesignGrid(51)
        coeffs = discrete_fourier(np.ones(51), g)
        out = select([(WeightIndex(1, 0.1), np.zeros(51))], coeffs, default_sequences(51))
        np.testing.assert_array_equal(out.estimate(np.linspace(0.0, 1.0, 7)), 0.0)
        assert out.estimate(0.3) == 0.0

    def test_zero_observations(self):
        g = DesignGrid(51)
        out = estimate(np.zeros(51), g)
        np.testing.assert_array_equal(out.estimate(g.points), 0.0)

    def test_noiseless_risk_matches_best_projection(self):
        # smooth S with no energy beyond l_n: selection minimizes the loss
        n = 501
        g = DesignGrid(n)
        seqs = default_sequences(n)
        S = TrigPolynomial([0.0, 2.0, 0.0, 0.0, 1.0])
        s_design = S.on_grid(g)
        theta_n = discrete_fourier(s_design, g).theta_hat
        out = estimate(s_design, g, seqs)
        risk_star = float(np.sum((out.lambda_hat * out.coeffs.theta_hat - theta_n) ** 2))
        fam = weight_family(n, seqs)
        best = min(
            float(np.sum((pinsker_weights(alpha, n, seqs) * out.coeffs.theta_hat - theta_n) ** 2))
            for alpha, _ in fam
        )
        assert risk_star <= best + 1e-8

    def test_parseval_cost_identity(self):
        rng = np.random.default_rng(2)
        n = 101
        g = DesignGrid(n)
        Y = rng.standard_normal(n)
        out = estimate(Y, g)
        c = out.lambda_hat * out.coeffs.theta_hat
        norm_n = float(np.mean(out.estimate(g.points) ** 2))
        assert norm_n == pytest.approx(float(np.sum(c**2)), abs=1e-10)
