import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hetreg.basis import (
    DesignGrid,
    TrigPolynomial,
    basis_matrix,
    discrete_fourier,
    fourier_rows,
    row_dots,
    serial_matmul,
    trig_basis_eval,
    trig_series,
)
from hetreg.models import NoiseSpec, generate_observations, homogeneous_scale, substream
from hetreg.selection import (
    estimate,
    family_costs,
    score_cell,
    select,
    tail_energy,
    taper_losses,
)
from hetreg.weights import WeightFamily, WeightIndex, default_sequences, pinsker_weights, weight_family


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
            np.argmin(family_costs(W, scaled, tail_energy(scaled, seqs.l_n), n, seqs), axis=-1),
            np.argmin(family_costs(W, th, tail_energy(th, seqs.l_n), n, seqs), axis=-1))

    @given(n=st.sampled_from([11, 51, 101, 301]), seed=st.integers(0, 2**32 - 1))
    def test_batched_argmin_equals_select(self, n, seed):
        seqs = default_sequences(n)
        fam = weight_family(n, seqs)
        th = noisy_rows(n, 8, seed)
        costs = family_costs(fam.W, th, tail_energy(th, seqs.l_n), n, seqs)
        best = np.argmin(costs, axis=-1)
        for row, b, c in zip(th, best, costs):
            out = select(fam, row, seqs)
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
        full = family_costs(full_W, th, tail, n, seqs)
        full_best = np.argmin(full, axis=-1)
        for cut_W in (W, np.ascontiguousarray(full_W[:, :m])):
            cut = family_costs(cut_W, th[:, : cut_W.shape[1]], tail, n, seqs)
            cut_best = np.argmin(cut, axis=-1)
            np.testing.assert_allclose(cut, full, rtol=1e-12, atol=1e-15)
            np.testing.assert_array_equal(cut_best, full_best)
        np.testing.assert_allclose(family_costs(W, th[0], tail[0], n, seqs), full[0],
                                   rtol=1e-12, atol=1e-15)


class TestScoreBlock:
    @pytest.mark.parametrize("study", [True, False], ids=["study", "bayes"])
    @pytest.mark.parametrize("n", [51, 301])
    def test_last_column_is_the_picked_taper(self, n, study):
        # the adaptive estimator's loss is column len(L) + 1: the taper loss at
        # the pick, bit for bit, after the taper rows and the full projection
        seqs = default_sequences(n)
        grid = DesignGrid(n)
        W = weight_family(n, seqs).W
        L = np.vstack([W, np.zeros(W.shape[1]), np.ones(W.shape[1])])
        rng = np.random.default_rng(n)
        S = TrigPolynomial([0.0, 2.0, 0.0, 0.0, 1.0])(grid.points)
        Y = S + rng.standard_normal((16, n))
        analysis = basis_matrix(grid)[:, : max(L.shape[1], seqs.l_n)] / n
        if study:  # (2, B) losses: two targets shared by every row
            on_design = np.stack([S, 0.5 * S])[:, None]
            consts = np.array([5.0, 1.25])[:, None, None]
        else:  # (B,) losses: one target per row
            on_design = S + 0.1 * rng.standard_normal((16, n))
            consts = np.sum(fourier_rows(on_design) ** 2, axis=1)[:, None]
        targets = fourier_rows(on_design)[..., : L.shape[1]]
        head, energy = serial_matmul(Y, analysis, 0), row_dots(Y, Y) / n
        loss, pick = score_cell(head, energy, row_dots(Y, on_design), n, L, targets, consts, W, seqs)
        tail = energy - np.sum(head[:, : seqs.l_n] ** 2, axis=1)
        taper = taper_losses(L, head[:, : L.shape[1]], targets, consts)
        assert loss.shape == taper.shape[:-1] + (len(L) + 2,)
        np.testing.assert_array_equal(pick, np.argmin(family_costs(W, head, tail, n, seqs), axis=-1))
        np.testing.assert_array_equal(loss[..., : len(L)], taper)
        np.testing.assert_array_equal(loss[..., -1], taper[..., np.arange(len(Y)), pick])

    @staticmethod
    def cell(n: int, reps: int, d: int):
        seqs = default_sequences(n)
        W = weight_family(n, seqs).W
        rng = np.random.default_rng(n)
        head, energy, dots = rng.standard_normal((reps, d)), rng.uniform(1.0, 2.0, reps), rng.standard_normal(reps)
        return head, energy, dots, n, W, np.zeros(W.shape[1]), np.ones((reps, 1)), W, seqs

    def test_refuses_a_head_narrower_than_l_n(self):
        # a head cut short would sum a shorter tail and select on it
        seqs = default_sequences(301)
        head, energy, dots, *rest = self.cell(301, 4, seqs.l_n - 1)
        with pytest.raises(ValueError, match=rf"head has width {seqs.l_n - 1}, narrower than l_n = {seqs.l_n}"):
            score_cell(head, energy, dots, *rest)

    @pytest.mark.parametrize("which", ["energy", "dots"])
    def test_refuses_a_replicate_count_unlike_the_head(self, which):
        head, energy, dots, *rest = self.cell(301, 4, 301)
        energy, dots = (energy[:3], dots) if which == "energy" else (energy, dots[:3])
        with pytest.raises(ValueError, match=r"must hold one value per replicate of the head \(4, 301\)"):
            score_cell(head, energy, dots, *rest)


def test_no_selection_function_takes_first():
    # only basis.serial_matmul and the block loops know a block's first replicate
    import inspect

    from hetreg import selection

    public = [getattr(selection, name) for name in selection.__all__]
    assert [f.__name__ for f in public if callable(f) and "first" in inspect.signature(f).parameters] == []


class TestVarsigmaHat:
    def test_no_tail_energy(self):
        g = DesignGrid(11)
        theta_hat = discrete_fourier(trig_basis_eval(1, g.points), g)
        assert tail_energy(theta_hat, 1) == pytest.approx(0.0, abs=1e-24)

    def test_single_tail_term(self):
        g = DesignGrid(11)
        theta_hat = discrete_fourier(3.0 * trig_basis_eval(11, g.points), g)
        assert tail_energy(theta_hat, 10) == pytest.approx(9.0)

    def test_out_of_range(self):
        g = DesignGrid(11)
        theta_hat = discrete_fourier(np.zeros(11), g)
        for bad in (0, 11, 20):
            with pytest.raises(ValueError, match=f"need 1 <= l_n < n, got l_n={bad}, n=11"):
                tail_energy(theta_hat, bad)

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
            vals[rep] = tail_energy(discrete_fourier(Y, g), seqs.l_n)
        expected = (n - seqs.l_n) / n
        se = vals.std(ddof=1) / np.sqrt(reps)
        assert abs(vals.mean() - expected) <= 3.0 * se


class TestCost:
    """J_n of single tapers, as one-row stacks through `family_costs`."""

    def test_zero_weights(self):
        g = DesignGrid(11)
        theta_hat = discrete_fourier(np.arange(11.0), g)
        seqs = default_sequences(11, rho=0.25)
        assert family_costs(np.zeros((1, 11)), theta_hat, 1.0, 11, seqs)[0] == 0.0

    def test_full_weights_identity(self):
        # lam == 1: J = -sum theta_hat^2 + 2 vs + rho vs
        rng = np.random.default_rng(0)
        g = DesignGrid(51)
        theta_hat = discrete_fourier(rng.standard_normal(51), g)
        vs, rho = 0.7, 0.2
        expected = -float(np.sum(theta_hat**2)) + 2.0 * vs + rho * vs
        cost = family_costs(np.ones((1, 51)), theta_hat, vs, 51, default_sequences(51, rho=rho))
        assert cost[0] == pytest.approx(expected, rel=1e-12)

    def test_quadratic_loss_identity(self):
        # noiseless, with the tail at 0: J_n + |theta_n|^2 = |lam theta_n - theta_n|^2
        # for every taper of the family
        n = 101
        g = DesignGrid(n)
        seqs = default_sequences(n)
        S = TrigPolynomial([0.5, 2.0, 0.0, -1.0, 1.0, 0.0, 0.3, 0.0, 0.0, 0.2])
        theta_n = discrete_fourier(S.on_grid(g), g)
        fam = weight_family(n, seqs)
        m = fam.W.shape[1]
        costs = family_costs(fam.W, theta_n, 0.0, n, seqs)
        for (alpha, lam), c in zip(fam, costs):
            loss = float(np.sum((lam * theta_n[:m] - theta_n[:m]) ** 2) + np.sum(theta_n[m:] ** 2))
            assert c + float(np.sum(theta_n**2)) == pytest.approx(loss, abs=1e-10), alpha

    def test_dimension_mismatch(self):
        # a head narrower than the stack names both widths
        g = DesignGrid(11)
        theta_hat = discrete_fourier(np.zeros(11), g)
        with pytest.raises(ValueError, match="head has width 9, narrower than the taper stack's width 11"):
            family_costs(np.ones((1, 11)), theta_hat[:9], 1.0, 11, default_sequences(11, rho=0.2))


class TestSelect:
    def test_single_member_family(self):
        g = DesignGrid(51)
        seqs = default_sequences(51)
        fam = weight_family(51, seqs)
        one = WeightFamily([fam[0][0]], fam.W[:1])
        out = select(one, discrete_fourier(np.ones(51), g), seqs)
        assert out.selected == fam[0][0]
        assert list(out.costs) == [fam[0][0]]

    def test_tie_prefers_smaller_index(self):
        g = DesignGrid(51)
        seqs = default_sequences(51)
        fam = WeightFamily([WeightIndex(1, 0.1), WeightIndex(2, 0.1)], np.zeros((2, 51)))
        out = select(fam, discrete_fourier(np.ones(51), g), seqs)
        assert out.selected == WeightIndex(1, 0.1)

    def test_empty_family(self):
        g = DesignGrid(51)
        with pytest.raises(ValueError, match="nonempty"):
            select(WeightFamily([], np.zeros((0, 51))), discrete_fourier(np.ones(51), g),
                   default_sequences(51))

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
        # J_n(lam) = sum lam^2 th^2 - 2 sum lam (th^2 - vs/n) + rho |lam|^2 vs/n,
        # vs the tail energy past l_n
        rng = np.random.default_rng(5)
        n = 51
        g = DesignGrid(n)
        seqs = default_sequences(n)
        fam = weight_family(n, seqs)
        th = discrete_fourier(rng.standard_normal(n), g)
        out = select(fam, th, seqs)
        vs = float(np.sum(th[seqs.l_n :] ** 2))
        assert out.varsigma_hat == pytest.approx(vs, rel=1e-12)
        for alpha, _ in fam[::7]:
            lam = pinsker_weights(alpha, n, seqs)
            j_n = (np.sum(lam**2 * th**2) - 2.0 * np.sum(lam * (th**2 - vs / n))
                   + seqs.rho * np.sum(lam**2) * vs / n)
            assert out.costs[alpha] == pytest.approx(j_n, rel=1e-12)


class TestEstimatePipeline:
    def test_deterministic(self):
        rng = np.random.default_rng(11)
        g = DesignGrid(101)
        Y = rng.standard_normal(101)
        a = estimate(Y, g)
        b = estimate(Y.copy(), g)
        assert a.selected == b.selected
        np.testing.assert_array_equal(a.lambda_hat, b.lambda_hat)
        np.testing.assert_array_equal(a.theta_hat, b.theta_hat)
        assert a.varsigma_hat == b.varsigma_hat

    @pytest.mark.parametrize("n", [51, 1001, 5001])
    def test_estimate_sums_over_the_taper_support(self, n):
        # the fitted function off the grid equals the full-length series of all n coefficients
        rng = np.random.default_rng(n)
        g = DesignGrid(n)
        fit = estimate(np.sin(2.0 * np.pi * g.points) + rng.standard_normal(n), g)
        x = rng.random(500)
        full = trig_series(fit.lambda_hat * fit.theta_hat, x)
        np.testing.assert_allclose(fit.estimate(x), full, rtol=1e-12)
        assert fit.lambda_hat.shape == (n,)

    def test_all_zero_taper_keeps_one_coefficient(self):
        g = DesignGrid(51)
        fam = WeightFamily([WeightIndex(1, 0.1)], np.zeros((1, 51)))
        out = select(fam, discrete_fourier(np.ones(51), g), default_sequences(51))
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
        theta_n = discrete_fourier(s_design, g)
        out = estimate(s_design, g, seqs)
        risk_star = float(np.sum((out.lambda_hat * out.theta_hat - theta_n) ** 2))
        fam = weight_family(n, seqs)
        best = min(
            float(np.sum((pinsker_weights(alpha, n, seqs) * out.theta_hat - theta_n) ** 2))
            for alpha, _ in fam
        )
        assert risk_star <= best + 1e-8

    def test_parseval_cost_identity(self):
        rng = np.random.default_rng(2)
        n = 101
        g = DesignGrid(n)
        Y = rng.standard_normal(n)
        out = estimate(Y, g)
        c = out.lambda_hat * out.theta_hat
        norm_n = float(np.mean(out.estimate(g.points) ** 2))
        assert norm_n == pytest.approx(float(np.sum(c**2)), abs=1e-10)
