import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetreg.models import simpson_integral
from hetreg.weights import (
    TuningSequences,
    WeightIndex,
    a_beta,
    default_sequences,
    omega,
    pinsker_weights,
    weight_family,
)


class TestDefaultSequences:
    def test_values_at_1001(self):
        s = default_sequences(1001)
        assert s.eps == pytest.approx(1.0 / math.log(1001))
        assert s.m == 47
        assert s.k_star == 2
        assert s.l_n == 11

    def test_values_at_3(self):
        s = default_sequences(3)
        assert s.eps == pytest.approx(1.0 / math.log(3))
        assert s.m == 1
        assert s.k_star == 1

    @pytest.mark.parametrize("n", [3, 101, 1001, 100001])
    def test_rho_below_one_third(self, n):
        assert 0.0 < default_sequences(n).rho < 1.0 / 3.0

    @pytest.mark.parametrize("n", [2, 100, 1, 51.5, 51.0, "51"])
    def test_invalid_n(self, n):
        with pytest.raises(ValueError, match=f"need odd n >= 3, got {n!r}"):
            default_sequences(n)

    def test_rho_override(self):
        s = default_sequences(101, rho=0.25)
        assert s.rho == 0.25
        assert s.L_n == pytest.approx(1.0)

    def test_invalid_rho(self):
        with pytest.raises(ValueError):
            TuningSequences(eps=0.5, k_star=1, m=4, l_n=2, L_n=0.0, rho=0.5)

    def test_rho_one_third_rejected(self):
        # the oracle-inequality factor diverges at rho = 1/3
        with pytest.raises(ValueError, match=r"rho must lie in \(0, 1/3\), got 0\.333"):
            TuningSequences(eps=0.5, k_star=1, m=4, l_n=2, L_n=0.0, rho=1.0 / 3.0)
        with pytest.raises(ValueError, match=r"rho must lie in \(0, 1/3\)"):
            default_sequences(101, rho=1.0 / 3.0)


class TestABeta:
    def test_exact_values(self):
        assert a_beta(1) == pytest.approx(6.0 / math.pi**2)
        assert a_beta(2) == pytest.approx(15.0 / (2.0 * math.pi**4))
        assert a_beta(3) == pytest.approx(28.0 / (3.0 * math.pi**6))

    def test_invalid(self):
        with pytest.raises(ValueError):
            a_beta(0)


class TestOmega:
    def test_direct_evaluation(self):
        s = default_sequences(1001)
        # formula oracle: (A_1 * t * n)^(1/3)
        expected = (6.0 / math.pi**2 * 1.0 * 1001) ** (1.0 / 3.0)
        assert omega(WeightIndex(1, 1.0), 1001, s) == pytest.approx(expected)

    def test_additive_constant_in_small_t_limit(self):
        s = default_sequences(1001, omega_bar=5.0)
        assert omega(WeightIndex(1, 1e-12), 1001, s) == pytest.approx(5.0, abs=1e-3)

    @given(
        beta=st.integers(min_value=1, max_value=5),
        t1=st.floats(min_value=0.01, max_value=5.0),
        bump=st.floats(min_value=0.01, max_value=5.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_t(self, beta, t1, bump):
        s = default_sequences(1001)
        assert omega(WeightIndex(beta, t1 + bump), 1001, s) > omega(WeightIndex(beta, t1), 1001, s)


class TestPinskerWeights:
    def test_head_is_one_and_tail_is_zero(self):
        n = 1001
        s = default_sequences(n)
        alpha = WeightIndex(1, 1.0)
        om = omega(alpha, n, s)
        j0 = int(om * s.eps)
        lam = pinsker_weights(alpha, n, s)
        assert np.all(lam[:j0] == 1.0)
        assert np.all(lam[math.ceil(om) :] == 0.0)

    def test_taper_value(self):
        n = 1001
        s = default_sequences(n)
        lam = pinsker_weights(WeightIndex(1, 1.0), n, s)
        om = omega(WeightIndex(1, 1.0), n, s)
        assert lam[3] == pytest.approx(1.0 - 4.0 / om)
        # the value quoted from direct evaluation
        assert lam[3] == pytest.approx(0.5277, abs=2e-3)

    @given(
        beta=st.integers(min_value=1, max_value=4),
        i=st.integers(min_value=1, max_value=40),
        n=st.sampled_from([101, 501, 1001]),
    )
    @settings(max_examples=60, deadline=None)
    def test_range_and_monotone(self, beta, i, n):
        s = default_sequences(n)
        lam = pinsker_weights(WeightIndex(beta, min(i, s.m) * s.eps), n, s)
        assert np.all(lam >= 0.0) and np.all(lam <= 1.0)
        assert np.all(np.diff(lam) <= 1e-15)

    def test_large_omega_truncated_to_n(self):
        s = default_sequences(101)
        lam = pinsker_weights(WeightIndex(1, s.m * s.eps), 101, s)
        assert lam.shape == (101,)


class TestWeightFamily:
    def test_all_zero_family_refused(self):
        # a cutoff omega <= 1 zeroes every weight, and a negative one leaves no column
        for omega_bar in (-100.0, -5.0):
            with pytest.raises(ValueError, match=rf"every taper is zero: .* <= 1 \(omega_bar={omega_bar}\)"):
                weight_family(51, default_sequences(51, omega_bar=omega_bar))

    def test_size_at_1001(self):
        s = default_sequences(1001)
        fam = weight_family(1001, s)
        assert len(fam) == s.k_star * s.m == 94

    def test_enumeration_order_and_uniqueness(self):
        s = default_sequences(101)
        fam = weight_family(101, s)
        idx = [a for a, _ in fam]
        assert idx == sorted(idx)
        assert len(set(idx)) == len(idx)

    def test_tapers_are_rows_of_one_stack(self):
        s = default_sequences(101)
        fam = weight_family(101, s)
        m = fam.W.shape[1]
        assert fam.W.shape == (len(fam), m) and m < 101 and not fam.W.flags.writeable
        for alpha, lam in fam:
            assert np.shares_memory(lam, fam.W)
            np.testing.assert_array_equal(lam, pinsker_weights(alpha, 101, s)[:m])

    @pytest.mark.parametrize("n", [3, 51, 101, 3001, 100001])
    def test_stack_is_pinsker_weights_at_its_support(self, n):
        # the vectorised rows equal the one-member builder bit for bit, and
        # nothing past the stack's width is nonzero
        s = default_sequences(n)
        fam = weight_family(n, s)
        support = math.ceil(max(omega(alpha, n, s) for alpha, _ in fam))
        m = fam.W.shape[1]
        assert min(n, support) <= m <= min(n, support + 7)
        for alpha, lam in fam:
            full = pinsker_weights(alpha, n, s)
            assert np.array_equal(lam, full[:m])
            assert not full[m:].any()

    def test_stack_at_a_million(self):
        n = 10**6 + 1
        s = default_sequences(n)
        fam = weight_family(n, s)
        support = math.ceil(max(omega(alpha, n, s) for alpha, _ in fam))
        assert support == 203
        assert fam.W.shape == (570, 208)

    def test_members_in_unit_cube(self):
        s = default_sequences(301)
        for _, lam in weight_family(301, s):
            assert np.all((0.0 <= lam) & (lam <= 1.0))

    @pytest.mark.parametrize("n", [1001, 10001])
    def test_norm_over_omega_approaches_taper_integral(self, n):
        # |lam|^2 / omega -> eps-head + int_eps^1 (1-z^b)^2 dz; at desk n the
        # O(1/omega) Euler-Maclaurin boundary term is still visible, so the
        # oracle target includes it
        s = default_sequences(n)
        for beta in (1, 2):
            alpha = WeightIndex(beta, s.m * s.eps)
            om = omega(alpha, n, s)
            lam = pinsker_weights(alpha, n, s)
            measured = float(np.sum(lam**2)) / om
            tail = simpson_integral(lambda z: (1.0 - z**beta) ** 2, s.eps, 1.0)
            target = s.eps + tail - (1.0 - s.eps**beta) ** 2 / (2.0 * om)
            assert measured == pytest.approx(target, rel=0.05)

    def test_norm_bounded_by_omega(self):
        s = default_sequences(1001)
        for alpha, lam in weight_family(1001, s):
            assert np.sum(lam**2) <= min(1001.0, omega(alpha, 1001, s))
