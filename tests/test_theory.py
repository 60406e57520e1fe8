import math

import numpy as np
import pytest

from hetreg.basis import DesignGrid, SampledFunction, TrigPolynomial
from hetreg.models import simpson_integral
from hetreg.theory import (
    SobolevBall,
    cell_integrals,
    ellipsoid_coeff,
    ellipsoid_norm_sq,
    exact_fourier_coeff,
    oracle_index,
    pinsker_constant,
)
from hetreg.weights import WeightIndex, default_sequences
from oracles import (
    asymptotic_upper_risk,
    coeff_gap_bound,
    norm_transfer_bound,
    random_ball_member,
    step_l2_distance_sq,
    tail_energy_bound,
)


class TestEllipsoid:
    def test_first_coefficient(self):
        for k in range(1, 6):
            assert ellipsoid_coeff(1, k) == 1.0

    def test_values(self):
        assert ellipsoid_coeff(2, 1) == pytest.approx(1.0 + (2 * math.pi) ** 2)
        assert ellipsoid_coeff(3, 2) == pytest.approx(1.0 + (2 * math.pi) ** 2 + (2 * math.pi) ** 4)

    def test_monotone(self):
        # pairs (2p, 2p+1) share the frequency [j/2], so a_j is constant on a
        # pair and strictly increases with the frequency and with k
        vals = [ellipsoid_coeff(j, 2) for j in range(2, 30)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(ellipsoid_coeff(j + 2, 2) > ellipsoid_coeff(j, 2) for j in range(2, 28))
        assert ellipsoid_coeff(2, 1) == ellipsoid_coeff(3, 1)
        assert ellipsoid_coeff(5, 3) > ellipsoid_coeff(5, 2)

    def test_overflow_reads_inf(self):
        # (2 pi)^400 is past 1.8e308; a_1 has no power to overflow
        assert ellipsoid_coeff(3, 200) == math.inf
        assert ellipsoid_coeff(1, 200) == 1.0
        assert ellipsoid_coeff(65, 40) < math.inf

    def test_membership(self):
        # the margin r - sum a_j theta_j^2 of the ball (1, 4)
        assert 4.0 - ellipsoid_norm_sq(np.zeros(5), 1) == 4.0
        assert 4.0 - ellipsoid_norm_sq([2.0], 1) == pytest.approx(0.0, abs=1e-12)  # a_1 = 1, boundary
        theta2 = math.sqrt(4.0 / ellipsoid_coeff(2, 1))
        assert 4.0 - ellipsoid_norm_sq([0.0, theta2], 1) == pytest.approx(0.0, abs=1e-12)
        assert ellipsoid_norm_sq([1.0, 0.0, 0.5], 2) == 1.0 + 0.25 * ellipsoid_coeff(3, 2)


class TestPinskerConstant:
    def test_reference_value(self):
        # 6^(1/3) / (2 pi^(2/3))
        assert pinsker_constant(1, 1.0, 1.0) == pytest.approx(0.42357, abs=1e-4)

    def test_scaling_in_varsigma(self):
        g1 = pinsker_constant(2, 1.3, 1.0)
        g2 = pinsker_constant(2, 1.3, 5.0)
        assert g2 == pytest.approx(5.0 ** (4.0 / 5.0) * g1, rel=1e-12)

    def test_scaling_in_radius(self):
        g1 = pinsker_constant(3, 1.0, 2.0)
        g2 = pinsker_constant(3, 7.0, 2.0)
        assert g2 == pytest.approx(7.0 ** (1.0 / 7.0) * g1, rel=1e-12)

    def test_matches_upper_risk_limit(self):
        rng = np.random.default_rng(0)
        for k in range(1, 6):
            for _ in range(5):
                r = rng.uniform(0.1, 10.0)
                vs = rng.uniform(0.1, 10.0)
                assert pinsker_constant(k, r, vs) == pytest.approx(
                    asymptotic_upper_risk(k, r, vs), rel=1e-9
                )

    def test_printed_form_differs(self):
        assert pinsker_constant(1, 1.0, 1.0, as_printed=True) != pytest.approx(
            pinsker_constant(1, 1.0, 1.0), rel=1e-3
        )

    def test_taper_integral_closed_form(self):
        for k in range(1, 6):
            qa = simpson_integral(lambda z: (1.0 - z**k) ** 2)
            assert qa == pytest.approx(2.0 * k**2 / ((k + 1.0) * (2.0 * k + 1.0)), abs=1e-12)


class TestOracleIndex:
    def test_exact_grid_point(self):
        s = default_sequences(1001)
        ball = SobolevBall(1, s.eps)  # rbar = eps with varsigma 1
        assert oracle_index(ball, 1.0, 1001, s) == WeightIndex(1, s.eps)

    def test_clamped_at_m(self):
        s = default_sequences(101)
        ball = SobolevBall(1, 1000.0)
        assert oracle_index(ball, 1.0, 101, s).t == pytest.approx(s.m * s.eps)

    def test_halfway_example(self):
        s = default_sequences(1001)
        idx = oracle_index(SobolevBall(1, 1.0), 2.0, 1001, s)
        assert idx.beta == 1
        assert idx.t == pytest.approx(4 * s.eps)
        assert idx.t == pytest.approx(0.579, abs=1e-3)


class TestStepExtension:
    def test_constant(self):
        # the step extension of constant values is that constant
        g = DesignGrid(11)
        two_and_a_half = SampledFunction(lambda x: np.full_like(x, 2.5))
        assert step_l2_distance_sq(np.full(11, 2.5), two_and_a_half, g) == pytest.approx(0.0, abs=1e-13)

    def test_right_continuity_at_knots(self):
        # T(f) is f(x_l) on the cell ((l-1)/n, l/n]: at zero distance from that step function
        g = DesignGrid(11)
        vals = np.arange(11.0)
        step = SampledFunction(lambda x: vals[np.clip(np.ceil(x * 11).astype(int) - 1, 0, 10)])
        assert step_l2_distance_sq(vals, step, g) == pytest.approx(0.0, abs=1e-12)
        assert step_l2_distance_sq(vals[::-1], step, g) > 1.0

    def test_cell_integrals_of_trig_polynomial(self):
        S = TrigPolynomial([0.5, 2.0, 0.0, 0.0, 1.0])
        int_s, s_l2_sq = cell_integrals(S, 51)
        assert int_s.shape == (51,)
        assert float(np.sum(int_s)) == pytest.approx(0.5, abs=1e-13)
        assert s_l2_sq == pytest.approx(S.l2_norm_sq(), rel=1e-13)
        # cell 1 is [0, 1/51]
        assert int_s[0] == pytest.approx(simpson_integral(S, 0.0, 1.0 / 51), rel=1e-12)

    @pytest.mark.parametrize("n", [51, 301, 1001])
    def test_closed_form_cell_integrals_equal_gauss(self, n):
        # the TrigPolynomial closed form against per-cell Gauss on the same function,
        # with coefficients up to the highest frequency (n - 1)/2 of the grid
        rng = np.random.default_rng(n)
        coeffs = np.zeros(n)
        coeffs[:9] = rng.standard_normal(9)
        coeffs[-3:] = rng.standard_normal(3)
        S = TrigPolynomial(coeffs)
        int_s, s_l2_sq = cell_integrals(S, n)
        gauss, gauss_l2_sq = cell_integrals(SampledFunction(S), n)
        np.testing.assert_allclose(int_s, gauss, rtol=0, atol=1e-12 * np.max(np.abs(gauss)))
        assert s_l2_sq == float(np.sum(coeffs**2))
        assert s_l2_sq == pytest.approx(gauss_l2_sq, rel=1e-13)

    def test_norm_identity(self):
        # ||T(f)||^2 is the mean of f^2 over the design, to rounding error
        rng = np.random.default_rng(1)
        g = DesignGrid(51)
        vals = rng.standard_normal(51)
        zero = SampledFunction(lambda x: np.zeros_like(x))
        exact = step_l2_distance_sq(vals, zero, g)
        assert exact == pytest.approx(float(np.mean(vals**2)), rel=1e-12)


class TestInequalityOracles:
    def test_zero_function_passes_everything(self):
        g = DesignGrid(51)
        zero = TrigPolynomial([0.0])
        ball = SobolevBall(1, 1.0)
        assert tail_energy_bound(zero, ball, g).passed
        assert coeff_gap_bound(zero, 1.0, g).passed
        assert norm_transfer_bound(np.zeros(51), zero, 0.5, 1.0, g).passed

    def test_boundary_member_tail_bound(self):
        r = 2.0
        theta2 = math.sqrt(r / ellipsoid_coeff(2, 1))
        S = TrigPolynomial([0.0, theta2])
        g = DesignGrid(101)
        rep = tail_energy_bound(S, SobolevBall(1, r), g)
        assert rep.passed and rep.worst_slack > 0.0

    def test_random_battery(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            k = int(rng.integers(1, 3))
            r = float(rng.uniform(0.5, 8.0))
            n = int(rng.choice([51, 101, 201]))
            g = DesignGrid(n)
            S = random_ball_member(rng, k, r, degree=min(n, 40))
            assert tail_energy_bound(S, SobolevBall(k, r), g).passed
            assert coeff_gap_bound(S, r, g).passed
            f_hat = S.on_grid(g) + rng.standard_normal(n)
            delta = float(rng.uniform(0.05, 0.95))
            assert norm_transfer_bound(f_hat, S, delta, r, g).passed

    def test_exact_fourier_coeff_quadrature_matches_trig(self):
        S = TrigPolynomial([1.0, -0.5, 0.25])
        generic = SampledFunction(S)
        for j in range(1, 5):
            assert exact_fourier_coeff(generic, j) == pytest.approx(S.fourier_coeff(j), abs=1e-10)
