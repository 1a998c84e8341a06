"""Closed-form layer tests: frozen reference values, reduction identities,
monotonicity, and large-register finiteness."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from hrcslab import ConfigurationError
from hrcslab.estimators import ks_distance_to_porter_thomas
from hrcslab.theory import (
    critical_steps,
    haar_power_sum,
    hrcs_power_sum,
    ideal_xeb,
    marginal_cp_per_step,
    marginal_cp_spatial,
    marginal_cp_temporal,
    noisy_xeb,
    noisy_xeb_asymptotic,
    porter_thomas_cdf,
    porter_thomas_density,
    step_collision_probability,
    tvd_upper_bound,
    tvd_upper_bound_asymptotic,
)

from conftest import enumerate_noisy_joint_distribution, noisy_xeb_oracle


class TestHaarPowerSum:
    def test_single_qubit_collision_probability(self):
        assert haar_power_sum(1, 2) == pytest.approx(2 / 3, rel=1e-12)

    def test_two_qubit_third_moment(self):
        # 3! 4! / 6! = 144/720
        assert haar_power_sum(2, 3) == pytest.approx(0.2, rel=1e-12)

    def test_order_one_is_normalization(self):
        for n in (1, 5, 30, 64):
            assert haar_power_sum(n, 1) == pytest.approx(1.0, rel=1e-12)

    def test_collision_probability_form(self):
        for n in range(1, 20):
            assert haar_power_sum(n, 2) == pytest.approx(2 / (2 ** n + 1), rel=1e-12)

    def test_rejects_order_zero(self):
        with pytest.raises(ConfigurationError):
            haar_power_sum(3, 0)


def subsystem_cp(n_traced: int, n_measured: int) -> float:
    """CP when only n_measured qubits of a Haar state are sampled and the
    other n_traced are ignored: (d_t+1)/(d_t d_m+1)."""
    d_t, d_m = 2.0 ** n_traced, 2.0 ** n_measured
    return (d_t + 1.0) / (d_t * d_m + 1.0)


class TestHaarSubsystemCp:
    # the subsystem CP is the t = 1 value of both marginal CPs and the
    # late-time limit of the spatial one (TestMarginalCp)
    def test_full_sampling_limit(self):
        for n in (1, 2, 5):
            assert subsystem_cp(0, n) == pytest.approx(haar_power_sum(n, 2), rel=1e-12)
        assert subsystem_cp(0, 2) == pytest.approx(0.4, rel=1e-12)

    def test_one_one(self):
        assert subsystem_cp(1, 1) == pytest.approx(0.6, rel=1e-12)
        assert marginal_cp_spatial(1, 1, 1) == pytest.approx(0.6, rel=1e-12)

    def test_large_traced_system_uniformizes(self):
        # one step of a 40-qubit system sampled through its bath alone
        for n_b in (1, 2, 3):
            assert marginal_cp_temporal(40, n_b, 1) == pytest.approx(2.0 ** -n_b, rel=1e-9)


class TestStepPowerSums:
    def test_collision_probability_values(self):
        assert step_collision_probability(1, 1, 2) == pytest.approx(0.24, rel=1e-12)
        assert step_collision_probability(2, 1, 2) == pytest.approx(10 / 81, rel=1e-12)

    def test_k2_matches_collision_probability_closed_form(self):
        for n_a in (1, 2, 4, 8):
            for n_b in (1, 2, 4):
                for t in (1, 2, 3, 5, 8):
                    cp = step_collision_probability(n_a, n_b, t)
                    ps = hrcs_power_sum(n_a, n_b, t, 2)
                    assert ps == pytest.approx(cp, rel=1e-12), (n_a, n_b, t)

    def test_single_step_reduces_to_haar(self):
        for n_a in (1, 3, 7, 10):
            for n_b in (1, 2, 10):
                for k in range(2, 7):
                    lhs = hrcs_power_sum(n_a, n_b, 1, k)
                    rhs = haar_power_sum(n_a + n_b, k)
                    assert lhs == pytest.approx(rhs, rel=1e-12), (n_a, n_b, k)

    def test_third_moment_single_step(self):
        assert hrcs_power_sum(1, 1, 1, 3) == pytest.approx(0.2, rel=1e-12)

    def test_strictly_decreasing_in_steps(self):
        for k in (2, 3, 4):
            vals = [hrcs_power_sum(3, 2, t, k) for t in range(1, 12)]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_finite_and_positive_at_scale(self):
        # up to 64 effective qubits
        vals = [hrcs_power_sum(32, 2, 16, k) for k in (2, 6)]
        vals += [haar_power_sum(64, 6), step_collision_probability(50, 7, 2)]
        assert all(math.isfinite(v) and v > 0 for v in vals)

    def test_rejects_low_order(self):
        with pytest.raises(ConfigurationError):
            hrcs_power_sum(1, 1, 1, 1)


class TestCriticalSteps:
    def test_joint_cp_value(self):
        # the K = 2 threshold, d_B/(d_B-1) * (1/2 + d_A ln 2) at d_A = 64, d_B = 4
        expect = (4 / 3) * (0.5 + 64 * math.log(2))
        got = critical_steps(6, 2, epsilon=1.0, order=2)
        assert got == pytest.approx(expect, rel=1e-12)
        assert got == pytest.approx(59.815226074448665, rel=1e-9)

    def test_joint_ps_order_two_equals_joint_cp(self):
        # at K = 2 the power-sum threshold is the collision-probability one,
        # d_B/(d_B-1) * (1/2 + d_A ln(1+eps))
        for n_a, n_b in ((2, 1), (6, 2), (10, 3)):
            d_a, d_b = 2.0 ** n_a, 2.0 ** n_b
            joint_cp = d_b / (d_b - 1.0) * (0.5 + d_a * math.log1p(0.5))
            assert critical_steps(n_a, n_b, 0.5, 2) == pytest.approx(joint_cp, rel=1e-12)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ConfigurationError):
            critical_steps(2, 1, 0.0, 2)


class TestMarginalCp:
    @pytest.mark.parametrize(
        "form", [marginal_cp_spatial, marginal_cp_temporal, marginal_cp_per_step]
    )
    def test_zero_steps_refused(self, form):
        with pytest.raises(ConfigurationError, match="steps must be >= 1"):
            form(2, 1, 0)

    def test_spatial_single_step(self):
        assert marginal_cp_spatial(2, 1, 1) == pytest.approx(1 / 3, rel=1e-12)

    def test_temporal_squares(self):
        assert marginal_cp_temporal(1, 1, 2) == pytest.approx(0.36, rel=1e-12)

    def test_per_step_equals_temporal_at_one_step(self):
        for n_a, n_b in ((1, 1), (2, 1), (3, 2)):
            a = marginal_cp_per_step(n_a, n_b, 1)
            b = marginal_cp_temporal(n_a, n_b, 1)
            assert a == pytest.approx(b, rel=1e-12)
            assert marginal_cp_per_step(1, 1, 1) == pytest.approx(0.6, rel=1e-12)

    def test_single_step_reduction_to_subsystem_sampling(self):
        # sampling only the system traces the bath and vice versa
        for n_a, n_b in ((1, 1), (2, 1), (2, 2), (3, 1)):
            assert marginal_cp_spatial(n_a, n_b, 1) == pytest.approx(
                subsystem_cp(n_b, n_a), rel=1e-12
            )
            assert marginal_cp_temporal(n_a, n_b, 1) == pytest.approx(
                subsystem_cp(n_a, n_b), rel=1e-12
            )

    def test_temporal_strictly_decreasing(self):
        vals = [marginal_cp_temporal(3, 2, t) for t in range(1, 12)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_spatial_approaches_uniform(self):
        # late-time limit: (d_A d_B + 1)/(d_A^2 d_B + 1), near 1/d_A
        val = marginal_cp_spatial(6, 2, 40)
        d_a, d_b = 64.0, 4.0
        assert val == pytest.approx((d_a * d_b + 1) / (d_a ** 2 * d_b + 1), rel=1e-9)

    @pytest.mark.parametrize("n_a, n_b", [(2, 1), (2, 2), (5, 5)])
    def test_spatial_late_time_limit_is_subsystem_cp(self, n_a, n_b):
        # the system sampled, the whole register's history traced
        assert marginal_cp_spatial(n_a, n_b, 200) == subsystem_cp(n_a + n_b, n_a)


class TestPopDensities:
    def test_porter_thomas_at_zero(self):
        assert porter_thomas_density(2, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_porter_thomas_mean_by_quadrature(self):
        for d in (2, 16, 1024):
            pdf = lambda p: porter_thomas_density(d, p)  # noqa: E731
            mean, _ = integrate.quad(
                lambda p: p * pdf(p), 0.0, 1.0, points=[1.0 / d, 10.0 / d], limit=200
            )
            assert mean == pytest.approx(1.0 / d, abs=1e-8)

    def test_porter_thomas_normalized(self):
        for d in (2, 64):
            total, _ = integrate.quad(
                lambda p: porter_thomas_density(d, p), 0, 1, points=[1.0 / d], limit=200
            )
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_beta_marginal_reduces_to_porter_thomas(self):
        # sampling a subsystem of a Haar state gives Beta(d_t, (d_m-1) d_t)
        # outcome probabilities; with nothing traced, Beta(1, d-1) is the
        # Porter-Thomas law
        d = 64
        ps = np.linspace(0.0, 0.9, 25)
        log_beta = math.lgamma(1) + math.lgamma(d - 1) - math.lgamma(d)
        beta_vals = np.exp((d - 2) * np.log1p(-ps) - log_beta)
        np.testing.assert_allclose(porter_thomas_density(d, ps), beta_vals, rtol=1e-12)

    def test_cdf_consistency(self):
        d = 32
        for p in (0.001, 0.01, 0.1):
            num, _ = integrate.quad(lambda q: porter_thomas_density(d, q), 0, p)
            assert porter_thomas_cdf(d, p) == pytest.approx(num, abs=1e-10)

    @pytest.mark.parametrize("d", [2.0, 8.0, 2.0 ** 20])
    def test_cdf_at_one_is_one_without_a_warning(self, d):
        # (1 - p)^(d-1) is taken through log1p(-p), which is -inf at p = 1;
        # a distribution with a certain outcome reaches that point
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            assert porter_thomas_cdf(d, 1.0) == 1.0
            np.testing.assert_array_equal(porter_thomas_cdf(d, [0.0, 1.0]), [0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ks_distance_to_porter_thomas([1.0, 0.0, 0.0, 0.0], 2) == pytest.approx(0.75)


class TestTvdBound:
    def test_exact_value(self):
        got = tvd_upper_bound(1, 1, 2)
        assert got == pytest.approx(0.5 * math.sqrt(8 * 0.24), rel=1e-12)
        assert got == pytest.approx(0.6928203230275509, rel=1e-12)

    def test_asymptotic_at_one_step(self):
        for n_a in (1, 4, 9):
            assert tvd_upper_bound_asymptotic(n_a, 2, 1) == pytest.approx(
                1 / math.sqrt(2), rel=1e-12
            )


class TestIdealXeb:
    def test_single_step_closed_form(self):
        for n_a, n_b in ((1, 1), (2, 1), (2, 3)):
            d = 2.0 ** (n_a + n_b)
            assert ideal_xeb(n_a, n_b, 1) == pytest.approx((d - 1) / (d + 1), rel=1e-12)
        assert ideal_xeb(1, 1, 1) == pytest.approx(0.6, rel=1e-12)

    def test_two_step_value(self):
        assert ideal_xeb(1, 1, 2) == pytest.approx(0.92, rel=1e-12)

    def test_finite_where_the_collision_probability_underflows(self):
        # at 1+10, t = 120 the CP is about e^-784, below the smallest double,
        # while 2^N_eff Z is about 1.7e21; exact rationals are the oracle
        n_a, n_b, t = 1, 10, 120
        n_eff = n_a + t * n_b
        scaled = Fraction(2 ** n_eff * 2 * 3 ** (t - 1), 2049 ** t)
        assert step_collision_probability(n_a, n_b, t) == 0.0
        assert ideal_xeb(n_a, n_b, t) == pytest.approx(float(scaled - 1), rel=1e-10)
        assert tvd_upper_bound(n_a, n_b, t) == pytest.approx(
            0.5 * math.sqrt(float(scaled)), rel=1e-10
        )


class TestNoisyXeb:
    def test_exact_at_gamma_one_equals_ideal(self):
        # without noise the transfer-matrix recursion is that of the joint
        # collision probability
        for n_a, n_b in ((1, 1), (2, 2), (3, 3), (2, 1), (3, 2), (2, 3), (5, 5)):
            for t in range(1, 7):
                exact = noisy_xeb(n_a, n_b, t, 1.0)
                ideal = ideal_xeb(n_a, n_b, t)
                assert abs(exact - ideal) <= 1e-12 * max(1.0, abs(ideal)), (n_a, n_b, t)

    def test_asymptotic_anchor_value(self):
        got = noisy_xeb_asymptotic(5, 5, 10, 0.69)
        assert got == pytest.approx(0.0703, abs=5e-4)
        assert got == pytest.approx(0.07023885075388325, rel=1e-12)

    def test_asymptotic_rejects_noiseless_gamma(self):
        with pytest.raises(ConfigurationError):
            noisy_xeb_asymptotic(2, 2, 3, 1.0)

    def test_decays_to_positive_plateau(self):
        vals = [noisy_xeb(10, 10, t, 0.7) for t in range(1, 31)]
        knee = int(np.argmin(vals))
        assert knee >= 10
        assert all(b < a for a, b in zip(vals[: knee + 1], vals[1 : knee + 1]))
        assert vals[knee] > 0
        # post-knee drift stays inside a 1% band of the plateau value
        assert max(vals[knee:]) <= vals[knee] * 1.01

    def test_exact_asymptotic_gap_shrinks_with_size(self):
        def worst_gap(n):
            return max(
                abs(noisy_xeb(n, n, t, 0.7) / noisy_xeb_asymptotic(n, n, t, 0.7) - 1)
                for t in range(1, 11)
            )

        assert worst_gap(10) < worst_gap(5)

    @pytest.mark.parametrize("gamma", [1.5, -0.1, float("nan")])
    def test_exact_rejects_gamma_outside_unit_interval(self, gamma):
        with pytest.raises(ConfigurationError, match="must lie in"):
            noisy_xeb(2, 1, 3, gamma)

    @pytest.mark.parametrize(
        "n_a,n_b,t,gamma", [(1, 2, 2, 0.6), (1, 1, 3, 0.9), (2, 1, 4, 0.7), (1, 2, 6, 0.6)]
    )
    def test_exact_form_matches_two_copy_oracle(self, n_a, n_b, t, gamma):
        # the ensemble with no instances: an exact two-copy Haar twirl
        assert noisy_xeb(n_a, n_b, t, gamma) == pytest.approx(
            noisy_xeb_oracle(n_a, n_b, t, gamma), rel=1e-12
        )

    @pytest.mark.parametrize("n_a,n_b,t", [(1, 2, 2), (1, 1, 3), (2, 1, 4), (1, 2, 6)])
    def test_two_copy_oracle_noiseless_is_ideal_xeb(self, n_a, n_b, t):
        assert noisy_xeb_oracle(n_a, n_b, t, 1.0) == pytest.approx(
            ideal_xeb(n_a, n_b, t), rel=1e-12
        )

    @pytest.mark.parametrize(
        "n_a,n_b,t,gamma,instances", [(1, 1, 2, 0.7, 1200), (1, 2, 2, 0.6, 700)]
    )
    def test_exact_form_matches_density_oracle_ensemble(self, n_a, n_b, t, gamma, instances):
        # ensemble of exact per-instance overlaps sum_y P(y) Ptilde(y), no
        # sampling noise; pins the transfer-matrix composition to the channel
        from hrcslab import (
            HrcsConfig,
            enumerate_joint_distribution,
            ensemble_aggregate,
            instantiate_circuit,
        )

        cfg = HrcsConfig(n_system=n_a, n_bath=n_b, steps=t, master_seed=4242)
        vals = []
        for b in range(instances):
            steps = instantiate_circuit(cfg, b)
            clean = enumerate_joint_distribution(cfg, steps)
            dirty = enumerate_noisy_joint_distribution(cfg, steps, gamma)
            vals.append(2.0 ** cfg.n_eff * float(np.dot(clean, dirty)) - 1.0)
        stats = ensemble_aggregate(vals)
        target = noisy_xeb(n_a, n_b, t, gamma)
        assert abs(stats.mean - target) < 4 * stats.std_error
