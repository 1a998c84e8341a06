"""Closed-form layer tests: frozen reference values, reduction identities,
monotonicity, asymptotic envelopes, and large-register finiteness."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from hrcslab import ConfigurationError
from hrcslab.theory import (
    NoisyTransferMatrix,
    critical_steps,
    haar_power_sum,
    haar_subsystem_cp,
    hrcs_power_sum,
    ideal_xeb,
    marginal_cp,
    noisy_xeb,
    pop_density,
    porter_thomas_cdf,
    step_collision_probability,
    tvd_upper_bound,
)


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


class TestHaarSubsystemCp:
    def test_full_sampling_limit(self):
        assert haar_subsystem_cp(0, 2) == pytest.approx(0.4, rel=1e-12)

    def test_one_one(self):
        assert haar_subsystem_cp(1, 1) == pytest.approx(0.6, rel=1e-12)

    def test_large_traced_system_uniformizes(self):
        for n_b in (1, 2, 3):
            assert haar_subsystem_cp(40, n_b) == pytest.approx(2.0 ** -n_b, rel=1e-9)


class TestStepPowerSums:
    def test_collision_probability_values(self):
        assert step_collision_probability(1, 1, 2) == pytest.approx(0.24, rel=1e-12)
        assert step_collision_probability(2, 1, 2) == pytest.approx(10 / 81, rel=1e-12)

    def test_k2_matches_collision_probability_closed_form(self):
        for n_a in (1, 2, 4, 8):
            for n_b in (1, 2, 4):
                for t in (1, 2, 3, 5, 8):
                    cp = step_collision_probability(n_a, n_b, t)
                    ps = hrcs_power_sum(n_a, n_b, t, 2, "exact")
                    assert ps == pytest.approx(cp, rel=1e-12), (n_a, n_b, t)

    def test_single_step_reduces_to_haar(self):
        for n_a in (1, 3, 7, 10):
            for n_b in (1, 2, 10):
                for k in range(2, 7):
                    lhs = hrcs_power_sum(n_a, n_b, 1, k, "exact")
                    rhs = haar_power_sum(n_a + n_b, k)
                    assert lhs == pytest.approx(rhs, rel=1e-12), (n_a, n_b, k)

    def test_third_moment_single_step(self):
        assert hrcs_power_sum(1, 1, 1, 3, "exact") == pytest.approx(0.2, rel=1e-12)

    def test_strictly_decreasing_in_steps(self):
        for k in (2, 3, 4):
            vals = [hrcs_power_sum(3, 2, t, k, "exact") for t in range(1, 12)]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_asymptotic_envelope(self):
        # first-order error of the large-dimension form: within K(K-1)t/d_A
        for n_a in (10, 11, 12):
            d_a = 2.0 ** n_a
            for n_b in (1, 2):
                for k in (2, 3, 4):
                    for t in range(1, 11):
                        exact = hrcs_power_sum(n_a, n_b, t, k, "exact")
                        asym = hrcs_power_sum(n_a, n_b, t, k, "asymptotic")
                        assert abs(exact / asym - 1) <= k * (k - 1) * t / d_a

    def test_finite_and_positive_at_scale(self):
        # up to 64 effective qubits
        vals = [
            hrcs_power_sum(32, 2, 16, k, mode)
            for k in (2, 6)
            for mode in ("exact", "asymptotic")
        ]
        vals += [haar_power_sum(64, 6), step_collision_probability(50, 7, 2)]
        assert all(math.isfinite(v) and v > 0 for v in vals)

    def test_rejects_low_order(self):
        with pytest.raises(ConfigurationError):
            hrcs_power_sum(1, 1, 1, 1, "exact")


class TestCriticalSteps:
    def test_joint_cp_value(self):
        # d_B/(d_B-1) * (1/2 + d_A ln 2) at d_A = 64, d_B = 4
        expect = (4 / 3) * (0.5 + 64 * math.log(2))
        got = critical_steps("joint_cp", 6, 2, epsilon=1.0)
        assert got == pytest.approx(expect, rel=1e-12)
        assert got == pytest.approx(59.815226074448665, rel=1e-9)

    def test_joint_ps_order_two_equals_joint_cp(self):
        for n_a, n_b in ((2, 1), (6, 2), (10, 3)):
            a = critical_steps("joint_cp", n_a, n_b, 0.5)
            b = critical_steps("joint_ps", n_a, n_b, 0.5, order=2)
            assert a == pytest.approx(b, rel=1e-12)

    def test_temporal_value(self):
        got = critical_steps("temporal", 1, 1, epsilon=1.0)
        assert got == pytest.approx(4 * math.log(2), rel=1e-12)
        assert got == pytest.approx(2.772588722239781, rel=1e-12)

    def test_spatial_value(self):
        # log(d_A d_B / (d_A d_B eps - 1)) / log(d_B) at d_A=64, d_B=4
        got = critical_steps("spatial", 6, 2, 0.1)
        assert got == pytest.approx(math.log(256 / 24.6) / math.log(4), rel=1e-12)

    def test_per_step_value(self):
        # small register, modest epsilon: log(9/1.8)/log(4)
        got = critical_steps("per_step", 1, 2, 0.3)
        assert got == pytest.approx(math.log(5.0) / math.log(4.0), rel=1e-12)
        # large systems are per-step uniform from the start: threshold < 1
        assert critical_steps("per_step", 6, 2, 0.1) < 1.0

    def test_spatial_crossing_matches_formula(self):
        # the threshold is where the simplified spatial excess equals epsilon
        n_a, n_b, eps = 6, 2, 0.05
        tau = critical_steps("spatial", n_a, n_b, eps)
        d_a, d_b = 2.0 ** n_a, 2.0 ** n_b
        excess = 1.0 / (d_a * d_b) + d_b ** (-tau)
        assert excess == pytest.approx(eps, rel=1e-9)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ConfigurationError):
            critical_steps("joint_cp", 2, 1, 0.0)


class TestMarginalCp:
    def test_spatial_single_step(self):
        assert marginal_cp("spatial", 2, 1, 1) == pytest.approx(1 / 3, rel=1e-12)

    def test_temporal_squares(self):
        assert marginal_cp("temporal", 1, 1, 2) == pytest.approx(0.36, rel=1e-12)

    def test_per_step_equals_temporal_at_one_step(self):
        for n_a, n_b in ((1, 1), (2, 1), (3, 2)):
            a = marginal_cp("per_step", n_a, n_b, 1)
            b = marginal_cp("temporal", n_a, n_b, 1)
            assert a == pytest.approx(b, rel=1e-12)
            assert marginal_cp("per_step", 1, 1, 1) == pytest.approx(0.6, rel=1e-12)

    def test_single_step_reduction_to_subsystem_sampling(self):
        # sampling only the system traces the bath and vice versa
        for n_a, n_b in ((1, 1), (2, 1), (2, 2), (3, 1)):
            assert marginal_cp("spatial", n_a, n_b, 1) == pytest.approx(
                haar_subsystem_cp(n_b, n_a), rel=1e-12
            )
            assert marginal_cp("temporal", n_a, n_b, 1) == pytest.approx(
                haar_subsystem_cp(n_a, n_b), rel=1e-12
            )

    def test_temporal_strictly_decreasing(self):
        vals = [marginal_cp("temporal", 3, 2, t) for t in range(1, 12)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_spatial_approaches_uniform(self):
        # late-time limit: (d_A d_B + 1)/(d_A^2 d_B + 1), near 1/d_A
        val = marginal_cp("spatial", 6, 2, 40)
        d_a, d_b = 64.0, 4.0
        assert val == pytest.approx((d_a * d_b + 1) / (d_a ** 2 * d_b + 1), rel=1e-9)


class TestPopDensities:
    def test_porter_thomas_at_zero(self):
        assert pop_density("porter_thomas", 2, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_porter_thomas_mean_by_quadrature(self):
        for d in (2, 16, 1024):
            pdf = lambda p: pop_density("porter_thomas", d, p)  # noqa: E731
            mean, _ = integrate.quad(
                lambda p: p * pdf(p), 0.0, 1.0, points=[1.0 / d, 10.0 / d], limit=200
            )
            assert mean == pytest.approx(1.0 / d, abs=1e-8)

    def test_porter_thomas_normalized(self):
        for d in (2, 64):
            total, _ = integrate.quad(
                lambda p: pop_density("porter_thomas", d, p), 0, 1, points=[1.0 / d], limit=200
            )
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_beta_marginal_reduces_to_porter_thomas(self):
        # no traced subsystem: Beta(1, d-1) is the Porter-Thomas law
        ps = np.linspace(0.0, 0.9, 25)
        beta_vals = pop_density("beta_marginal", (1, 64), ps)
        pt_vals = pop_density("porter_thomas", 64, ps)
        np.testing.assert_allclose(beta_vals, pt_vals, atol=1e-9)

    @pytest.mark.parametrize("d_t, d_m", [(1, 2), (1, 64), (2, 2), (8, 4), (64, 16)])
    def test_beta_marginal_matches_scipy(self, d_t, d_m):
        # scipy.stats is an independent oracle; (1, 2), (1, 64) and (2, 2)
        # are the a = 1 and b = 1 corners, where p = 0 or p = 1 is finite
        ps = np.concatenate([np.linspace(0.0, 1.0, 201), [1e-12, 1e-6, 1 - 1e-6, 1 - 1e-12]])
        got = pop_density("beta_marginal", (d_t, d_m), ps)
        want = stats.beta.pdf(ps, d_t, (d_m - 1) * d_t)
        above = want > 1e-300
        np.testing.assert_allclose(got[above], want[above], rtol=1e-12, atol=0)
        np.testing.assert_allclose(got[~above], want[~above], rtol=0, atol=1e-300)
        for p in (0.0, 1.0):  # the scalar path, at the endpoints
            want = stats.beta.pdf(p, d_t, (d_m - 1) * d_t)
            assert pop_density("beta_marginal", (d_t, d_m), p) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("params", [(0, 4), (2, 1), (1.5, 4), (2, 2.5)])
    def test_beta_marginal_rejects_non_dimensions(self, params):
        with pytest.raises(ConfigurationError):
            pop_density("beta_marginal", params, 0.5)

    def test_beta_marginal_mean_is_uniform_probability(self):
        d_t, d_m = 8, 4
        mean, _ = integrate.quad(
            lambda p: p * pop_density("beta_marginal", (d_t, d_m), p), 0, 1, limit=200
        )
        assert mean == pytest.approx(1.0 / d_m, abs=1e-9)

    def test_cdf_consistency(self):
        d = 32
        for p in (0.001, 0.01, 0.1):
            num, _ = integrate.quad(lambda q: pop_density("porter_thomas", d, q), 0, p)
            assert porter_thomas_cdf(d, p) == pytest.approx(num, abs=1e-10)


class TestTvdBound:
    def test_exact_value(self):
        got = tvd_upper_bound(1, 1, 2, "exact")
        assert got == pytest.approx(0.5 * math.sqrt(8 * 0.24), rel=1e-12)
        assert got == pytest.approx(0.6928203230275509, rel=1e-12)

    def test_asymptotic_at_one_step(self):
        for n_a in (1, 4, 9):
            assert tvd_upper_bound(n_a, 2, 1, "asymptotic") == pytest.approx(
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

    def test_patched_composition(self):
        for n_a, n_b, t in ((1, 1, 2), (2, 2, 3), (5, 5, 10)):
            single = ideal_xeb(n_a, n_b, t)
            patched = ideal_xeb(n_a, n_b, t, patched=True)
            assert patched == pytest.approx((1 + single) ** 2 - 1, rel=1e-12)


class TestNoisyXeb:
    def test_transfer_matrix_reduces_to_noiseless(self):
        # without noise the identity and swap coefficients play symmetric
        # roles, and the boundary vectors are (1, 1)
        for n_a, n_b in ((1, 1), (2, 3), (5, 5)):
            tm = NoisyTransferMatrix.build(n_a, n_b, 1.0, 1.0)
            assert (tm.m01, tm.m11, tm.g_system, tm.g_bath) == (tm.m10, tm.m00, 1.0, 1.0)

    def test_noiseless_matrix_recursion_matches_closed_form(self):
        # dual route for the collision probability itself
        for n_a, n_b in ((1, 1), (2, 1), (3, 2)):
            d = 2.0 ** (n_a + n_b)
            m = NoisyTransferMatrix.build(n_a, n_b, 1.0, 1.0).as_array()
            for t in range(1, 7):
                vec = np.array([1.0, 1.0])
                for _ in range(t - 1):
                    vec = m @ vec
                val = (np.array([1.0, 1.0]) @ vec) / (d * (d + 1))
                total = 2.0 ** n_a * (2.0 ** n_b) ** t * val
                assert total == pytest.approx(
                    step_collision_probability(n_a, n_b, t), rel=1e-12
                )

    def test_exact_at_gamma_one_equals_ideal(self):
        for n in (1, 2, 3):
            for t in range(1, 6):
                exact = noisy_xeb(n, n, t, 1.0, "exact")
                ideal = ideal_xeb(n, n, t)
                assert abs(exact - ideal) <= 1e-12 * max(1.0, abs(ideal))

    def test_asymptotic_anchor_value(self):
        got = noisy_xeb(5, 5, 10, 0.69, "asymptotic")
        assert got == pytest.approx(0.0703, abs=5e-4)
        assert got == pytest.approx(0.07023885075388325, rel=1e-12)

    def test_asymptotic_rejects_noiseless_gamma(self):
        with pytest.raises(ConfigurationError):
            noisy_xeb(2, 2, 3, 1.0, "asymptotic")

    def test_decays_to_positive_plateau(self):
        vals = [noisy_xeb(10, 10, t, 0.7, "exact") for t in range(1, 31)]
        knee = int(np.argmin(vals))
        assert knee >= 10
        assert all(b < a for a, b in zip(vals[: knee + 1], vals[1 : knee + 1]))
        assert vals[knee] > 0
        # post-knee drift stays inside a 1% band of the plateau value
        assert max(vals[knee:]) <= vals[knee] * 1.01

    def test_exact_asymptotic_gap_shrinks_with_size(self):
        def worst_gap(n):
            return max(
                abs(noisy_xeb(n, n, t, 0.7, "exact") / noisy_xeb(n, n, t, 0.7, "asymptotic") - 1)
                for t in range(1, 11)
            )

        assert worst_gap(10) < worst_gap(5)

    def test_patched_composition(self):
        single = noisy_xeb(2, 2, 3, 0.8, "exact")
        patched = noisy_xeb(2, 2, 3, 0.8, "exact", patched=True)
        assert patched == pytest.approx((1 + single) ** 2 - 1, rel=1e-12)

    @pytest.mark.parametrize("gamma, gamma_bath", [(1.5, None), (0.7, -0.1)])
    def test_exact_rejects_gamma_outside_unit_interval(self, gamma, gamma_bath):
        with pytest.raises(ConfigurationError, match="must lie in"):
            noisy_xeb(2, 1, 3, gamma, gamma_bath=gamma_bath)

    def test_mixed_gamma_reduces_to_shared(self):
        a = noisy_xeb(2, 1, 3, 0.7, "exact")
        b = noisy_xeb(2, 1, 3, 0.7, "exact", gamma_bath=0.7)
        assert a == pytest.approx(b, rel=1e-15)

    @pytest.mark.parametrize(
        "n_a,n_b,t,g_sys,g_bath,instances",
        [(1, 1, 2, 0.7, 0.7, 1200), (1, 2, 2, 0.9, 0.6, 700)],
    )
    def test_exact_form_matches_density_oracle_ensemble(self, n_a, n_b, t, g_sys, g_bath, instances):
        # ensemble of exact per-instance overlaps sum_y P(y) Ptilde(y), no
        # sampling noise; pins the transfer-matrix composition to the channel
        from hrcslab import (
            HrcsConfig,
            NoiseModel,
            enumerate_joint_distribution,
            enumerate_noisy_joint_distribution,
            ensemble_aggregate,
            instantiate_circuit,
        )

        cfg = HrcsConfig(n_system=n_a, n_bath=n_b, steps=t, master_seed=4242)
        noise = NoiseModel(g_sys, g_bath)
        vals = []
        for b in range(instances):
            steps = instantiate_circuit(cfg, b)
            clean = enumerate_joint_distribution(cfg, steps).probabilities
            dirty = enumerate_noisy_joint_distribution(cfg, steps, noise).probabilities
            vals.append(2.0 ** cfg.n_eff * float(np.dot(clean, dirty)) - 1.0)
        stats = ensemble_aggregate(vals)
        target = noisy_xeb(n_a, n_b, t, g_sys, "exact", gamma_bath=g_bath)
        assert abs(stats.mean - target) < 4 * stats.std_error
