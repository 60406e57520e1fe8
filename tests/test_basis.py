import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hetreg.basis import (
    BLOCK_ENTRIES,
    DesignGrid,
    SampledFunction,
    TrigPolynomial,
    basis_eval_matrix,
    basis_matrix,
    discrete_fourier,
    fourier_rows,
    grid_values,
    row_dots,
    serial_matmul,
    trig_basis_eval,
    trig_series,
)

odd_n = st.integers(min_value=1, max_value=150).map(lambda h: 2 * h + 1)  # 3..301
leading = st.sampled_from([(), (1,), (3,), (2, 2)])
seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestTrigBasis:
    def test_first_function_is_one(self):
        assert trig_basis_eval(1, 0.37) == pytest.approx(1.0)

    def test_cosine_at_zero(self):
        assert trig_basis_eval(2, 0.0) == pytest.approx(np.sqrt(2.0))

    def test_sine_quarter(self):
        # [3/2] = 1 so phi_3(0.25) = sqrt(2) sin(pi/2)
        assert trig_basis_eval(3, 0.25) == pytest.approx(np.sqrt(2.0))

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            trig_basis_eval(0, 0.5)

    @pytest.mark.parametrize("n", [3, 11, 51, 101])
    def test_orthonormal_on_grid(self, n):
        g = DesignGrid(n)
        Phi = basis_matrix(g)
        gram = Phi.T @ Phi / n
        assert np.max(np.abs(gram - np.eye(n))) < 1e-10

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="needs a long double wider than float64")
    @pytest.mark.parametrize("n, d", [(1001, 24), (1001, 25), (100001, 96)])
    def test_design_grid_phases_are_exact(self, n, d):
        # on a DesignGrid phi_j(l/n) takes the phase (q l mod n) / n: within a few
        # ulps of a long-double reference, where 2 pi q l / n in float64 is off
        # by 1.9e-14 at n = 1001 and 1.1e-13 at n = 100001
        mat = basis_eval_matrix(d, DesignGrid(n))
        assert mat.shape == (n, d)
        assert np.all(mat[:, 0] == 1.0)
        turn = 2 * np.longdouble("3.14159265358979323846264338327950288") * np.arange(n) / n
        ref = np.sqrt(np.longdouble(2)) * np.stack([np.cos(turn), np.sin(turn)])  # at phase k / n
        l = np.arange(1, n + 1)
        for j in range(2, d + 1):
            assert np.max(np.abs(mat[:, j - 1] - ref[j % 2, (j // 2) * l % n])) < 4e-15

    def test_design_grid_matrix_is_built_in_place(self):
        # the phase table and the gathered values take row chunks of at most
        # BLOCK_ENTRIES entries (2 MiB of float64) beside the (n, d) result
        tracemalloc.start()
        mat = basis_eval_matrix(64, DesignGrid(30001))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= mat.nbytes + 4 * BLOCK_ENTRIES * 8 <= mat.nbytes + 2**23

    def test_even_design_rejected(self):
        with pytest.raises(ValueError):
            DesignGrid(10)

    @pytest.mark.parametrize("n", [51.5, 51.0, "51"])
    def test_non_integer_design_rejected(self, n):
        with pytest.raises(ValueError, match=f"odd positive integer, got n={n!r}"):
            DesignGrid(n)


class TestDiscreteFourier:
    def test_single_basis_function(self):
        g = DesignGrid(11)
        theta_hat = discrete_fourier(trig_basis_eval(3, g.points), g)
        expected = np.zeros(11)
        expected[2] = 1.0
        np.testing.assert_allclose(theta_hat, expected, atol=1e-12)

    def test_zero_vector(self):
        g = DesignGrid(9)
        np.testing.assert_array_equal(discrete_fourier(np.zeros(9), g), 0.0)

    def test_linear_combination(self):
        g = DesignGrid(25)
        Y = 2.0 * trig_basis_eval(1, g.points) + 0.5 * trig_basis_eval(4, g.points)
        theta = discrete_fourier(Y, g)
        expected = np.zeros(25)
        expected[0] = 2.0
        expected[3] = 0.5
        np.testing.assert_allclose(theta, expected, atol=1e-12)

    def test_parseval(self):
        rng = np.random.default_rng(7)
        for n in (11, 101, 301):
            g = DesignGrid(n)
            Y = rng.standard_normal(n)
            theta = discrete_fourier(Y, g)
            lhs = float(np.mean(Y**2))
            rhs = float(np.sum(theta**2))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        g = DesignGrid(101)
        Y = rng.standard_normal(101)
        theta_hat = discrete_fourier(Y, g)
        np.testing.assert_allclose(grid_values(theta_hat), Y, atol=1e-10)


class TestFourierTransforms:
    @given(n=odd_n, shape=leading, seed=seeds)
    def test_fft_equals_dense_dft(self, n, shape, seed):
        Y = np.random.default_rng(seed).standard_normal(shape + (n,))
        dense = Y @ basis_matrix(DesignGrid(n)) / n
        np.testing.assert_allclose(fourier_rows(Y), dense, rtol=0, atol=1e-13)
        # an even length has no such basis: both directions refuse it
        for transform in (fourier_rows, grid_values):
            with pytest.raises(ValueError, match="odd"):
                transform(Y[..., 1:])

    @given(n=odd_n, shape=leading, seed=seeds, scale=st.sampled_from([1e-8, 1.0, 1e8]))
    def test_round_trip_and_parseval(self, n, shape, seed, scale):
        Y = scale * np.random.default_rng(seed).standard_normal(shape + (n,))
        theta = fourier_rows(Y)
        np.testing.assert_allclose(grid_values(theta), Y, rtol=0, atol=1e-12 * scale)
        energy = np.mean(Y**2, axis=-1)
        np.testing.assert_allclose(np.sum(theta**2, axis=-1), energy, rtol=1e-12)

    @given(n=odd_n, shape=leading, seed=seeds)
    def test_synthesis_is_n_times_the_adjoint_of_analysis(self, n, shape, seed):
        # the identities that let a study take grid losses from coefficients alone
        rng = np.random.default_rng(seed)
        c, v = rng.standard_normal(shape + (n,)), rng.standard_normal(n)
        vals = grid_values(c)
        np.testing.assert_allclose(vals @ v, c @ (n * fourier_rows(v)), rtol=1e-12, atol=1e-12 * n)
        np.testing.assert_allclose(np.sum(vals**2, axis=-1) / n, np.sum(c**2, axis=-1), rtol=1e-12)

    @given(n=odd_n, seed=seeds)
    def test_series_on_grid_equals_grid_values(self, n, seed):
        c = np.random.default_rng(seed).standard_normal(n)
        np.testing.assert_allclose(trig_series(c, DesignGrid(n).points), grid_values(c),
                                   rtol=0, atol=1e-11)

    def test_series_chunks_cover_every_point(self):
        # 4097 coefficients give chunks of 255 points, so 600 points take three
        c = np.random.default_rng(4).standard_normal(4097)
        x = np.linspace(0.0, 1.0, 600).reshape(20, 30)
        expected = (basis_eval_matrix(4097, x) @ c).reshape(20, 30)
        np.testing.assert_allclose(trig_series(c, x), expected, rtol=0, atol=1e-12)


class TestSerialMatmul:
    @given(lead=st.sampled_from([(), (2,)]), rows=st.integers(1, 400),
           k=st.sampled_from([1, 8, 101, 3001]), d=st.integers(1, 140), seed=seeds)
    def test_equals_one_product(self, lead, rows, k, d, seed):
        # row blocks of at most 2^18 multiply-adds and 1024 rows give the single product's values
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal(lead + (rows, k)), rng.standard_normal((k, d))
        np.testing.assert_allclose(serial_matmul(a, b, 0), a @ b, rtol=1e-13, atol=1e-13 * np.sqrt(k))

    @given(k=st.sampled_from([1, 8, 101, 3001]), d=st.integers(1, 40), seed=seeds)
    def test_a_row_does_not_follow_the_row_count(self, k, d, seed):
        # a short last block is padded to the full height: no row is left to
        # gemv, or to a gemm of another height
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal((70, k)), rng.standard_normal((k, d))
        full = serial_matmul(a, b, 0)
        for rows in (1, 2, 3, 5, 69):
            np.testing.assert_array_equal(serial_matmul(a[:rows], b, 0), full[:rows])

    @given(lead=st.sampled_from([(), (2,)]), k=st.sampled_from([1, 8, 56, 3001]), d=st.integers(1, 300),
           rows=st.integers(1, 70), seed=seeds)
    def test_a_row_does_not_follow_where_its_block_starts(self, lead, k, d, rows, seed):
        # blocks of `rows` rows, each given its first row's index, give the one-block
        # product bit for bit: OpenBLAS rounds the last (height mod 4) rows of a
        # gemm apart from the others, so the padded blocks keep one alignment
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal(lead + (70, k)), rng.standard_normal((k, d))
        parts = [serial_matmul(a[..., lo : lo + rows, :], b, lo) for lo in range(0, 70, rows)]
        np.testing.assert_array_equal(np.concatenate(parts, axis=-2), serial_matmul(a, b, 0))

    def test_narrow_product_takes_capped_blocks(self):
        # (2500, 1) @ (1, 1) runs as ten padded blocks of 256 rows, not one of 2^18
        rng = np.random.default_rng(8)
        a, b = rng.standard_normal((2500, 1)), rng.standard_normal((1, 1))
        full = serial_matmul(a, b, 0)
        np.testing.assert_allclose(full, a @ b, rtol=1e-15)
        for rows in (1, 256, 257, 513, 1024, 1025, 2049):
            np.testing.assert_array_equal(serial_matmul(a[:rows], b, 0), full[:rows])
        tracemalloc.start()
        serial_matmul(a[:1], b, 0)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 2**14  # a padded block of 256 rows takes some 6 KiB; of 1024 rows, 24 KiB

    def test_vector_is_one_product(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal(501), rng.standard_normal((501, 40))
        np.testing.assert_array_equal(serial_matmul(a, b, 0), a @ b)


class TestRowDots:
    @given(shapes=st.sampled_from([((), ()), ((3,), (3,)), ((2, 1), (1, 3)), ((4,), ())]),
           k=st.integers(1, 45000), seed=seeds)
    def test_equals_one_product(self, shapes, k, seed):
        # the dot of every pair of rows over the last axis, leading axes broadcast
        rng = np.random.default_rng(seed)
        a, b = (rng.standard_normal(lead + (k,)) for lead in shapes)
        np.testing.assert_allclose(row_dots(a, b), np.sum(a * b, axis=-1),
                                   rtol=1e-12, atol=1e-12 * np.sqrt(k))

    def test_chunks_are_the_halves_two_threads_take(self):
        # 16385 Simpson nodes: two dots of 8193 and 8192 entries, summed in order
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal(16385), rng.standard_normal(16385)
        assert row_dots(a, b) == a[:8193] @ b[:8193] + a[8193:] @ b[8193:]
        S = rng.standard_normal((3, 16384))
        gram = row_dots(S[:, None, :], S[None, :, :])
        assert all(gram[i, j] == S[i, :8192] @ S[j, :8192] + S[i, 8192:] @ S[j, 8192:]
                   for i in range(3) for j in range(3))

    @pytest.mark.parametrize("k", [51, 16385, 100001])
    def test_a_row_does_not_follow_the_row_count(self, k):
        # one chunk, two chunks of the ones two threads take, and eleven chunks
        rng = np.random.default_rng(k)
        a, b = rng.standard_normal((2, 12, k))
        full = row_dots(a, b)
        for rows in (1, 2, 5, 11):
            np.testing.assert_array_equal(row_dots(a[:rows], b[:rows]), full[:rows])
        assert all(row_dots(a[r], b[r]) == full[r] for r in range(12))  # one 1-d pair

    @pytest.mark.parametrize("a, b", [
        (np.ones(3), np.arange(5.0)),
        (np.ones((2, 3)), np.ones((2, 4))),
        (np.ones((4, 51)), np.ones((4, 1001))),  # row dots of two stacks of other widths
    ])
    def test_refuses_rows_of_different_lengths(self, a, b):
        # cutting the longer row to the shorter would give a number
        with pytest.raises(ValueError, match="rows differ in length"):
            row_dots(a, b)


class TestSynthesize:
    def test_projection_onto_constant(self):
        g = DesignGrid(21)
        Y = 3.0 * trig_basis_eval(1, g.points) + trig_basis_eval(2, g.points)
        theta_hat = discrete_fourier(Y, g)
        lam = np.zeros(21)
        lam[0] = 1.0
        np.testing.assert_allclose(grid_values(lam * theta_hat), 3.0, atol=1e-12)

    def test_off_grid_evaluation_matches_series(self):
        g = DesignGrid(11)
        Y = trig_basis_eval(4, g.points) - 0.3 * trig_basis_eval(7, g.points)
        theta_hat = discrete_fourier(Y, g)
        x = np.array([0.1, 0.33, 0.97])
        expected = trig_basis_eval(4, x) - 0.3 * trig_basis_eval(7, x)
        np.testing.assert_allclose(trig_series(theta_hat, x), expected, atol=1e-10)


class TestTrigPolynomial:
    def test_exact_norm_and_coeffs(self):
        S = TrigPolynomial([0.0, 2.0, 0.0, 0.0, 1.0])
        assert S.l2_norm_sq() == pytest.approx(5.0)
        assert S.fourier_coeff(2) == 2.0
        assert S.fourier_coeff(9) == 0.0

    def test_series_evaluation(self):
        S = TrigPolynomial([1.0, 0.5])
        x = np.linspace(0, 1, 17)
        np.testing.assert_allclose(S(x), 1.0 + 0.5 * np.sqrt(2) * np.cos(2 * np.pi * x))

    def test_no_coefficients_is_the_zero_function(self):
        S = TrigPolynomial([])
        assert S(0.3) == 0.0 and isinstance(S(0.3), float)
        x = np.linspace(0, 1, 17).reshape(1, 17)
        np.testing.assert_array_equal(S(x), np.zeros((1, 17)))
        assert S.l2_norm_sq() == 0.0 and S.fourier_coeff(1) == 0.0


class TestGridCache:
    """`on_grid` samples a SampledFunction at the grid points; a call evaluates at the points given."""

    @staticmethod
    def counted(calls):
        def fn(x):
            calls.append(x)
            return np.cos(3.0 * x) + x**2

        return SampledFunction(fn)

    @pytest.mark.parametrize("n", [3, 51, 101])
    def test_grid_points_equal_a_copy(self, n):
        g = DesignGrid(n)
        calls = []
        f = self.counted(calls)
        sampled = f.on_grid(g)
        np.testing.assert_array_equal(sampled, np.cos(3.0 * g.points) + g.points**2)
        np.testing.assert_array_equal(f(g.points), sampled)
        np.testing.assert_array_equal(f(g.points.copy()), sampled)
        assert len(calls) == 3

    def test_other_arrays_of_the_same_length_go_through_fn(self):
        g = DesignGrid(51)
        calls = []
        f = self.counted(calls)
        f.on_grid(g)
        others = [
            g.points,
            g.points.copy(),
            DesignGrid(51).points,
            np.linspace(0.0, 1.0, 51),
            g.points[::-1].copy(),
        ]
        for x in others:
            np.testing.assert_array_equal(f(x), np.cos(3.0 * x) + x**2)
        assert len(calls) == 1 + len(others)
        assert calls[-1] is others[-1]
        np.testing.assert_array_equal(f.on_grid(DesignGrid(101)), f(DesignGrid(101).points))
        assert len(f.on_grid(g)) == 51


class TestBasisSquareSums:
    def test_weighted_square_deviation_bound(self):
        # |sum_{l=2}^N l^m (phi_l^2(x) - 1)| <= 2^m N^m, spot values here,
        # the full sweep lives in the acceptance suite
        x = np.linspace(0.0, 1.0, 101)
        for N in (5, 17, 64, 129):
            vals = np.stack([trig_basis_eval(l, x) ** 2 - 1.0 for l in range(2, N + 1)])
            for m in range(4):
                weights = np.arange(2, N + 1, dtype=float) ** m
                total = weights @ vals
                assert np.max(np.abs(total)) <= 2.0**m * float(N) ** m + 1e-9
