import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hetreg.basis import DesignGrid, TrigPolynomial
from hetreg.models import (
    SIMPSON_PANELS,
    _cumulative_simpson,
    _mollifier_cdf_table,
    NoiseSpec,
    econometric_scale,
    generate_observations,
    homogeneous_scale,
    l_star,
    mollifier,
    nonperiodic_transform,
    simpson_integral,
    simpson_rule,
    smooth_cutoff,
    substream,
    substreams,
)

S1 = TrigPolynomial([0.0, 2.0, 0.0, 0.0, 1.0])


class TestSimpson:
    def test_polynomial_exact(self):
        assert simpson_integral(lambda x: x**3) == pytest.approx(0.25, abs=1e-14)

    def test_trig(self):
        assert simpson_integral(lambda x: np.cos(2 * np.pi * x) ** 2) == pytest.approx(0.5, abs=1e-12)

    def test_mollifier_mass(self):
        assert simpson_integral(mollifier, -1.0, 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_rule_is_shared_and_read_only(self):
        x, w = simpson_rule(-1.0, 1.0)
        assert simpson_rule(-1.0, 1.0)[1] is w
        assert not x.flags.writeable and not w.flags.writeable
        assert (x[0], x[-1], len(x)) == (-1.0, 1.0, SIMPSON_PANELS + 1)
        assert float(np.sum(w)) == pytest.approx(2.0, abs=1e-14)
        np.testing.assert_allclose(w[:4] / w[0], [1.0, 4.0, 2.0, 4.0])


class TestCumulativeSimpson:
    """The numpy port of SciPy's cumulative Simpson rule, held to SciPy bit for bit."""

    def test_mollifier_table_equals_scipy(self):
        from scipy.integrate import cumulative_simpson

        u, cdf = _mollifier_cdf_table()
        np.testing.assert_array_equal(u, simpson_rule(-1.0, 1.0)[0])
        ref = cumulative_simpson(mollifier(u), x=u, initial=0.0)
        np.testing.assert_array_equal(cdf, ref / ref[-1])
        assert (cdf[0], cdf[-1]) == (0.0, 1.0)

    @given(size=st.integers(3, 64), seed=st.integers(0, 2**32 - 1))
    def test_equals_scipy_on_unequal_nodes(self, size, seed):
        from scipy.integrate import cumulative_simpson

        # odd and even node counts, so both last-interval cases are met
        rng = np.random.default_rng(seed)
        x = np.cumsum(rng.uniform(0.01, 1.0, size))
        y = rng.standard_normal(size)
        np.testing.assert_array_equal(_cumulative_simpson(y, x),
                                      cumulative_simpson(y, x=x, initial=0.0))


def seed_sequence_rng(seed, *key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


# a key entry: 0, one uint32 word, or two to three words
KEY_ENTRY = st.one_of(st.just(0), st.integers(0, 2**32 - 1), st.integers(2**32, 2**80))


class TestSubstreams:
    @given(
        seed=st.one_of(st.just(0), st.integers(0, 2**32 - 1), st.integers(0, 2**128 - 1)),
        key=st.lists(KEY_ENTRY, max_size=4),
        start=st.one_of(st.integers(0, 100), st.integers(2**32 - 3, 2**32 + 3), st.integers(0, 2**62)),
        count=st.integers(1, 5),
        kind=st.sampled_from(NoiseSpec.KINDS),
    )
    def test_draws_equal_seed_sequence_bit_for_bit(self, seed, key, start, count, kind):
        noise = NoiseSpec(kind, df=7)
        reps = range(start, start + count)
        assert len(list(substreams(seed, *key, reps=reps))) == count
        for rep, rng in zip(reps, substreams(seed, *key, reps=reps)):
            ref = seed_sequence_rng(seed, *key, rep)
            # 11 rademacher draws leave half a uint64 behind in the uint32 buffer
            for size in (7, 4):
                np.testing.assert_array_equal(noise.draw(rng, size), noise.draw(ref, size))
            np.testing.assert_array_equal(rng.standard_normal(2), ref.standard_normal(2))
        np.testing.assert_array_equal(substream(seed, *key, start).standard_normal(5),
                                      seed_sequence_rng(seed, *key, start).standard_normal(5))

    def test_one_block_equals_substream_per_replicate(self):
        reps = [5, 0, 2**33, 7, 7]
        block = [rng.integers(0, 2, size=11) for rng in substreams(20260810, 3, 101, 0, reps=reps)]
        single = [substream(20260810, 3, 101, 0, r).integers(0, 2, size=11) for r in reps]
        np.testing.assert_array_equal(block, single)

    def test_no_replicates_yield_nothing(self):
        assert list(substreams(1, 2, reps=range(0))) == []
        assert list(substreams(1, 2, reps=[])) == []

    @pytest.mark.parametrize("seed, key, reps", [
        (-1, (0,), [0]), (1, (-2,), [0]), (1, (2, -3), [0]), (1, (2,), [3, -1]),
    ])
    def test_negative_entries_refused_like_seed_sequence(self, seed, key, reps):
        with pytest.raises(ValueError):
            seed_sequence_rng(seed, *key, *reps)
        with pytest.raises(ValueError, match="nonnegative"):
            substreams(seed, *key, reps=reps)

    def test_bad_reps_refused(self):
        for reps in ([2**64], [1.5], [[1, 2]]):
            with pytest.raises(ValueError, match="reps must be"):
                substreams(1, 2, reps=reps)
        with pytest.raises(ValueError, match="at least one key"):
            substream(1)


def l2_inner(S, f) -> float:
    return simpson_integral(lambda x: S(x) * f(x))


class TestEconometricScale:
    def test_constant_case(self):
        m = econometric_scale(1.0)
        x = np.array([0.1, 0.9])
        assert m.g2(x, S1(x), S1.l2_norm_sq()) == pytest.approx([1.0, 1.0])

    def test_linear_term(self):
        m = econometric_scale(1.0, 1.0)
        x = np.array([0.5])
        assert m.g2(x, S1(x), S1.l2_norm_sq())[0] == pytest.approx(1.5)

    def test_function_terms(self):
        # S = phi_2: S(0)^2 = 2 and ||S||^2 = 1
        m = econometric_scale(1.0, 0.0, 1.0, 1.0)
        S = TrigPolynomial([0.0, 1.0])
        x = np.array([0.0])
        assert m.g2(x, S(x), S.l2_norm_sq())[0] == pytest.approx(4.0)
        assert m.g(x, S)[0] == pytest.approx(2.0)

    def test_varsigma_closed_form(self):
        m = econometric_scale(1.0, 1.0, 0.5, 0.5)
        assert m.varsigma(S1) == pytest.approx(1.0 + 0.5 + 1.0 * 5.0)
        # quadrature route agrees with the closed form
        quad = simpson_integral(lambda x: m.g2(x, S1(x), S1.l2_norm_sq()))
        assert quad == pytest.approx(m.varsigma(S1), rel=1e-10)

    def test_invalid_constants(self):
        with pytest.raises(ValueError):
            econometric_scale(0.0)
        with pytest.raises(ValueError):
            econometric_scale(1.0, -0.1)

    def test_frechet_linearity(self):
        m = econometric_scale(1.0, 1.0, 0.7, 0.3)
        rng = np.random.default_rng(0)
        f = TrigPolynomial(rng.standard_normal(6))
        h = TrigPolynomial(rng.standard_normal(6))
        fh = TrigPolynomial(f.coeffs + h.coeffs)
        x = rng.uniform(0, 1, 8)
        s = S1(x)
        lhs = m.frechet(x, s, fh(x), l2_inner(S1, fh))
        rhs = m.frechet(x, s, f(x), l2_inner(S1, f)) + m.frechet(x, s, h(x), l2_inner(S1, h))
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_frechet_slope(self):
        # g^2(S + s f) - g^2(S) - s L(f) must vanish faster than s
        m = econometric_scale(1.0, 0.0, 1.0, 1.0)
        rng = np.random.default_rng(4)
        f = TrigPolynomial(rng.standard_normal(6))
        x = np.array([0.2, 0.8])
        L = m.frechet(x, S1(x), f(x), l2_inner(S1, f))
        base = m.g2(x, S1(x), S1.l2_norm_sq())
        errs = []
        for s in (1e-2, 1e-3, 1e-4):
            Sp = TrigPolynomial(np.append(S1.coeffs, np.zeros(1)) + s * f.coeffs)
            err = np.max(np.abs(m.g2(x, Sp(x), Sp.l2_norm_sq()) - base - s * L))
            errs.append(err / s)
        # ratio err/s shrinks linearly in s (the residual is quadratic)
        assert errs[1] == pytest.approx(errs[0] * 0.1, rel=0.05)
        assert errs[2] == pytest.approx(errs[0] * 0.01, rel=0.05)

    def test_growth_bound(self):
        # |L(f)| <= C* (|S(x) f(x)| + |f|_1 + ||S|| ||f||) with finite C*
        c2, c3 = 0.7, 0.4
        m = econometric_scale(1.0, 0.5, c2, c3)
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(25):
            S = TrigPolynomial(rng.standard_normal(7))
            f = TrigPolynomial(rng.standard_normal(7))
            x = rng.uniform(0, 1, 16)
            L = np.abs(m.frechet(x, S(x), f(x), l2_inner(S, f)))
            f1 = simpson_integral(lambda t: np.abs(f(t)))
            env = (
                np.abs(S(x) * f(x))
                + f1
                + math.sqrt(S.l2_norm_sq()) * math.sqrt(f.l2_norm_sq())
            )
            worst = max(worst, float(np.max(L / env)))
        assert worst <= 2.0 * max(c2, c3) + 1e-9


def scale_models():
    econ = econometric_scale(1.0, 1.0, 0.5, 0.5)
    g = DesignGrid(11)
    _, tilted = nonperiodic_transform(np.zeros(g.n), econ, smooth_cutoff(0.3, 0.7), 0.05, g, 0)
    return [econ, econometric_scale(0.5, 0.0, 2.0, 0.0), homogeneous_scale(1.5), tilted]


class TestScaleModelStacks:
    @pytest.mark.parametrize("m", scale_models(), ids=lambda m: m.name)
    def test_stack_equals_single_rows(self, m):
        # one call on B draws gives, bit for bit, the B single-draw calls
        rng = np.random.default_rng(12)
        B, P, n = 5, 3, 17
        x = np.sort(rng.uniform(0.0, 1.0, n))
        s = rng.standard_normal((B, n))
        norm_sq = rng.uniform(0.0, 2.0, B)
        f = rng.standard_normal((P, n))
        cross = rng.standard_normal((B, P))
        g2 = m.g2(x, s, norm_sq[:, None])
        L = m.frechet(x, s[:, None, :], f, cross[:, :, None])
        assert g2.shape == (B, n) and L.shape == (B, P, n)
        for b in range(B):
            np.testing.assert_array_equal(g2[b], m.g2(x, s[b], norm_sq[b]))
            for p in range(P):
                np.testing.assert_array_equal(L[b, p], m.frechet(x, s[b], f[p], cross[b, p]))

    @pytest.mark.parametrize("m", scale_models(), ids=lambda m: m.name)
    def test_g_and_varsigma_take_the_function(self, m):
        x = np.linspace(0.0, 1.0, 9)
        np.testing.assert_array_equal(m.g(x, S1), np.sqrt(m.g2(x, S1(x), S1.l2_norm_sq())))
        quad = simpson_integral(lambda t: m.g2(t, S1(t), S1.l2_norm_sq()))
        assert m.varsigma(S1) == pytest.approx(quad, rel=1e-10)


class TestNoise:
    @pytest.mark.parametrize("kind,df", [("gaussian", 12), ("rademacher", 12),
                                         ("uniform", 12), ("student_t", 12)])
    def test_moments(self, kind, df):
        spec = NoiseSpec(kind, df=df)
        rng = np.random.default_rng(17)
        x = spec.draw(rng, 100_000)
        se_mean = x.std(ddof=1) / math.sqrt(len(x))
        assert abs(x.mean()) <= 4.0 * se_mean
        m2 = float(np.mean(x**2))
        se_m2 = np.std(x**2, ddof=1) / math.sqrt(len(x))
        assert abs(m2 - 1.0) <= 4.0 * se_m2 + 1e-12
        m4 = float(np.mean(x**4))
        assert m4 <= l_star(100_000)
        assert spec.fourth_moment() <= l_star(100_000)

    def test_rademacher_support(self):
        spec = NoiseSpec("rademacher")
        x = spec.draw(np.random.default_rng(3), 1000)
        assert set(np.unique(x)) == {-1.0, 1.0}

    def test_student_df_floor(self):
        with pytest.raises(ValueError):
            NoiseSpec("student_t", df=4)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            NoiseSpec("cauchy")


class TestGenerateObservations:
    def test_rademacher_two_point_law(self):
        g = DesignGrid(51)
        scale = econometric_scale(1.0, 1.0, 0.5, 0.5)
        Y = generate_observations(S1, scale, NoiseSpec("rademacher"), g, 7)
        s = S1.on_grid(g)
        gv = scale.g(g.points, S1)
        ok = np.isclose(Y, s + gv) | np.isclose(Y, s - gv)
        assert np.all(ok)

    def test_reproducible(self):
        g = DesignGrid(101)
        scale = homogeneous_scale(1.0)
        a = generate_observations(S1, scale, NoiseSpec("gaussian"), g, substream(5, 1, 2))
        b = generate_observations(S1, scale, NoiseSpec("gaussian"), g, substream(5, 1, 2))
        np.testing.assert_array_equal(a, b)

    def test_mean_and_variance(self):
        # E y_j = S(x_j) and var y_j = g^2(x_j, S), checked at one design point
        g = DesignGrid(11)
        scale = econometric_scale(1.0, 1.0, 0.5, 0.5)
        reps = 10_000
        rng = np.random.default_rng(123)
        ys = np.stack([
            generate_observations(S1, scale, NoiseSpec("uniform"), g, rng)
            for _ in range(reps)
        ])
        j = 4
        se = ys[:, j].std(ddof=1) / math.sqrt(reps)
        assert abs(ys[:, j].mean() - S1.on_grid(g)[j]) <= 4.0 * se
        v = ys[:, j].var(ddof=1)
        se_v = np.std((ys[:, j] - ys[:, j].mean()) ** 2, ddof=1) / math.sqrt(reps)
        assert abs(v - scale.g(g.points, S1)[j] ** 2) <= 4.0 * se_v


class TestSmoothCutoff:
    def test_plateau_exact(self):
        chi = smooth_cutoff(0.3, 0.7)
        x = np.linspace(0.3, 0.7, 100)
        np.testing.assert_allclose(chi(x), 1.0, atol=1e-12)

    def test_vanishes_at_boundary(self):
        chi = smooth_cutoff(0.3, 0.7)
        assert chi(0.0) == pytest.approx(0.0, abs=1e-12)
        assert chi(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_range(self):
        chi = smooth_cutoff(0.2, 0.9)
        x = np.linspace(0, 1, 1001)
        v = chi(x)
        assert np.all(v >= -1e-12) and np.all(v <= 1.0 + 1e-12)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            smooth_cutoff(0.7, 0.3)


class TestNonperiodicTransform:
    def test_floor_on_scale(self):
        chi = smooth_cutoff(0.3, 0.7)
        scale = econometric_scale(1.0, 1.0, 0.5, 0.5)
        g = DesignGrid(101)
        Y = generate_observations(S1, scale, NoiseSpec("gaussian"), g, 0)
        _, tilted = nonperiodic_transform(Y, scale, chi, 0.05, g, 1)
        assert np.all(tilted.g(g.points, S1) >= 0.05 - 1e-12)

    def test_pure_noise_region(self):
        # where chi vanishes the transformed data is exactly eps * zeta
        chi = smooth_cutoff(0.3, 0.7)
        scale = homogeneous_scale(1.0)
        g = DesignGrid(101)
        Y = generate_observations(S1, scale, NoiseSpec("gaussian"), g, 0)
        rng_clone = substream(2, 0)
        zeta = rng_clone.standard_normal(g.n)
        Yt, _ = nonperiodic_transform(Y, scale, chi, 0.05, g, substream(2, 0))
        left = g.points < 0.3 / 2 - min(0.3, 0.3) / 4  # below a' - eta
        assert np.any(left)
        np.testing.assert_allclose(Yt[left], 0.05 * zeta[left], atol=1e-12)

    def test_variance_identity(self):
        chi = smooth_cutoff(0.3, 0.7)
        scale = homogeneous_scale(1.0)
        g = DesignGrid(11)
        reps = 10_000
        eps = 0.1
        vals = np.empty((reps, g.n))
        s_chi = S1.on_grid(g) * chi.on_grid(g)
        for rep in range(reps):
            Y = generate_observations(S1, scale, NoiseSpec("gaussian"), g, substream(8, 1, rep))
            Yt, _ = nonperiodic_transform(Y, scale, chi, eps, g, substream(8, 2, rep))
            vals[rep] = Yt - s_chi
        j = 5
        target = chi.on_grid(g)[j] ** 2 + eps**2
        v = vals[:, j].var(ddof=1)
        se_v = np.std(vals[:, j] ** 2, ddof=1) / math.sqrt(reps)
        assert abs(v - target) <= 4.0 * se_v
