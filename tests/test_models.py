import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hetreg.basis import DesignGrid, TrigPolynomial
from hetreg.models import (
    SIMPSON_PANELS,
    _mollifier_cdf_table,
    NoiseSpec,
    econometric_scale,
    generate_observations,
    homogeneous_scale,
    mollifier,
    nonperiodic_transform,
    simpson_integral,
    simpson_rule,
    smooth_cutoff,
    substream,
    substreams,
)
from scales import scale_models

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

    def test_mollifier_cdf_table(self):
        # running Simpson panel sums over the intervals of the rule's nodes, each
        # with its midpoint: SciPy's cumulative Simpson rule there, up to rounding
        from scipy.integrate import cumulative_simpson

        u, cdf = _mollifier_cdf_table()
        np.testing.assert_array_equal(u, simpson_rule(-1.0, 1.0)[0])
        assert (cdf[0], cdf[-1]) == (0.0, 1.0)
        assert np.all(np.diff(cdf) >= 0.0)
        ref = cumulative_simpson(mollifier(u), x=u, initial=0.0)
        np.testing.assert_allclose(cdf, ref / ref[-1], rtol=0, atol=1e-12)


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


def test_substreams_yield_one_generator_per_replicate():
    # every yielded generator stays valid after the next one is yielded
    reps = [3, 0, 2**40, 3]
    streams = list(substreams(11, 4, 101, reps=reps))
    for r, rng in zip(reps, streams):
        np.testing.assert_array_equal(rng.standard_normal(6), substream(11, 4, 101, r).standard_normal(6))


def l2_inner(S, f) -> float:
    return simpson_integral(lambda x: S(x) * f(x))


def response(m, x, S, f):
    """The response of g^2 at S in the direction f, a f(x) + b <S, f>, from the partials."""
    a, b = m.frechet(x, S(x))
    return a * f(x) + b * l2_inner(S, f)


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

    @pytest.mark.parametrize("c", [True, "1", None, math.nan, math.inf, -math.inf])
    def test_constants_must_be_finite_numbers(self, c):
        for i, name in enumerate(("c0", "c1", "c2", "c3")):
            consts = [1.0, 0.0, 0.0, 0.0]
            consts[i] = c
            with pytest.raises(ValueError, match=f"scale {name} must be a finite number"):
                econometric_scale(*consts)
        with pytest.raises(ValueError, match="scale sigma must be a finite number"):
            homogeneous_scale(c)

    def test_frechet_linearity(self):
        m = econometric_scale(1.0, 1.0, 0.7, 0.3)
        rng = np.random.default_rng(0)
        f = TrigPolynomial(rng.standard_normal(6))
        h = TrigPolynomial(rng.standard_normal(6))
        fh = TrigPolynomial(f.coeffs + h.coeffs)
        x = rng.uniform(0, 1, 8)
        lhs = response(m, x, S1, fh)
        rhs = response(m, x, S1, f) + response(m, x, S1, h)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_frechet_slope(self):
        # g^2(S + s f) - g^2(S) - s L(f) must vanish faster than s
        m = econometric_scale(1.0, 0.0, 1.0, 1.0)
        rng = np.random.default_rng(4)
        f = TrigPolynomial(rng.standard_normal(6))
        x = np.array([0.2, 0.8])
        L = response(m, x, S1, f)
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
            L = np.abs(response(m, x, S, f))
            f1 = simpson_integral(lambda t: np.abs(f(t)))
            env = (
                np.abs(S(x) * f(x))
                + f1
                + math.sqrt(S.l2_norm_sq()) * math.sqrt(f.l2_norm_sq())
            )
            worst = max(worst, float(np.max(L / env)))
        assert worst <= 2.0 * max(c2, c3) + 1e-9


class TestScaleModelStacks:
    @pytest.mark.parametrize("m", scale_models(), ids=lambda m: m.name)
    def test_stack_equals_single_rows(self, m):
        # one call on B draws gives, bit for bit, the B single-draw calls
        rng = np.random.default_rng(12)
        B, n = 5, 17
        x = np.sort(rng.uniform(0.0, 1.0, n))
        s = rng.standard_normal((B, n))
        norm_sq = rng.uniform(0.0, 2.0, B)
        g2 = m.g2(x, s, norm_sq[:, None])
        a, b = (np.broadcast_to(p, s.shape) for p in m.frechet(x, s))
        assert g2.shape == (B, n)
        for r in range(B):
            np.testing.assert_array_equal(g2[r], m.g2(x, s[r], norm_sq[r]))
            a_r, b_r = m.frechet(x, s[r])
            np.testing.assert_array_equal(a[r], np.broadcast_to(a_r, n))
            np.testing.assert_array_equal(b[r], np.broadcast_to(b_r, n))

    @pytest.mark.parametrize("m", scale_models(), ids=lambda m: m.name)
    @given(x=st.floats(0.0, 1.0), s=st.floats(-4.0, 4.0), norm_sq=st.floats(0.0, 4.0))
    def test_frechet_is_its_two_coefficients(self, m, x, s, norm_sq):
        # frechet(x, s) = (a, b) = (dg^2/ds, 2 dg^2/dnorm_sq), so the response in a
        # direction f is a f(x) + b <S, f>; every g^2 here is quadratic in s and
        # linear in norm_sq, so central differences leave only rounding
        h = 1e-3
        a, b = m.frechet(x, s)
        da = (m.g2(x, s + h, norm_sq) - m.g2(x, s - h, norm_sq)) / (2.0 * h)
        db = (m.g2(x, s, norm_sq + h) - m.g2(x, s, norm_sq - h)) / h
        np.testing.assert_allclose([a, b], [da, db], rtol=1e-8, atol=1e-9)

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
        # E xi^4: 3, 1, 9/5 and 3 + 6 / (df - 4) for the unit-variance kinds
        exact_m4 = {"gaussian": 3.0, "rademacher": 1.0, "uniform": 1.8, "student_t": 3.0 + 6.0 / (df - 4)}
        se_m4 = np.std(x**4, ddof=1) / math.sqrt(len(x))
        assert abs(float(np.mean(x**4)) - exact_m4[kind]) <= 4.0 * se_m4 + 1e-12

    @pytest.mark.parametrize("kind", NoiseSpec.KINDS)
    def test_draw_into_a_row_keeps_the_bits(self, kind):
        spec = NoiseSpec(kind, df=12)
        block = np.zeros((3, 101))
        row = block[1]
        assert spec.draw(np.random.default_rng(5), 101, out=row) is row
        assert row.tobytes() == spec.draw(np.random.default_rng(5), 101).tobytes()
        assert not block[[0, 2]].any()

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
        Y = generate_observations(S1, scale, NoiseSpec("rademacher"), g, np.random.default_rng(7))
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
        Y = generate_observations(S1, scale, NoiseSpec("gaussian"), g, np.random.default_rng(0))
        _, tilted = nonperiodic_transform(Y, scale, chi, 0.05, g, np.random.default_rng(1))
        assert np.all(tilted.g(g.points, S1) >= 0.05 - 1e-12)

    def test_pure_noise_region(self):
        # where chi vanishes the transformed data is exactly eps * zeta
        chi = smooth_cutoff(0.3, 0.7)
        scale = homogeneous_scale(1.0)
        g = DesignGrid(101)
        Y = generate_observations(S1, scale, NoiseSpec("gaussian"), g, np.random.default_rng(0))
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
        # replicate rep draws from substream(8, 1, rep) and substream(8, 2, rep)
        streams = zip(substreams(8, 1, reps=range(reps)), substreams(8, 2, reps=range(reps)))
        for rep, (rng_y, rng_t) in enumerate(streams):
            Y = generate_observations(S1, scale, NoiseSpec("gaussian"), g, rng_y)
            Yt, _ = nonperiodic_transform(Y, scale, chi, eps, g, rng_t)
            vals[rep] = Yt - s_chi
        j = 5
        target = chi.on_grid(g)[j] ** 2 + eps**2
        v = vals[:, j].var(ddof=1)
        se_v = np.std(vals[:, j] ** 2, ddof=1) / math.sqrt(reps)
        assert abs(v - target) <= 4.0 * se_v
