"""Estimator tests: power sums, XEB estimator, PoP histograms and KS
calibration, TVD, and ensemble aggregation."""

import math

import numpy as np
import pytest

from hrcslab import (
    ConfigurationError,
    EnsembleStats,
    ensemble_aggregate,
    enumerate_joint_distribution,
    instantiate_circuit,
    pop_histogram,
    power_sum_exact,
    sample_trajectories,
    tvd_exact,
    xeb_estimate,
)
from hrcslab.estimators import ks_distance_to_porter_thomas

from conftest import small_config


def porter_thomas_samples(d: int, count: int, rng) -> np.ndarray:
    """True Porter-Thomas draws through the inverse CDF."""
    return 1.0 - (1.0 - rng.random(count)) ** (1.0 / (d - 1.0))


class TestPowerSumExact:
    def test_uniform(self):
        assert power_sum_exact(np.full(64, 1 / 64), 2) == pytest.approx(1 / 64, rel=1e-12)

    def test_delta(self):
        vec = np.zeros(32)
        vec[7] = 1.0
        for k in (1, 2, 5):
            assert power_sum_exact(vec, k) == pytest.approx(1.0, rel=1e-12)

    def test_order_one_is_normalization(self):
        gen = np.random.default_rng(3)
        p = gen.random(257)
        p /= p.sum()
        assert power_sum_exact(p, 1) == pytest.approx(1.0, abs=1e-9)

    def test_accepts_joint_distribution(self):
        cfg = small_config()
        dist = enumerate_joint_distribution(cfg, instantiate_circuit(cfg, 0))
        direct = power_sum_exact(dist, 2)
        assert power_sum_exact(dist, 2) == direct


class TestPowerSumMc:
    @pytest.mark.parametrize("order", [2, 3])
    def test_matches_enumeration(self, order):
        # E_{y~p}[p(y)^(K-1)] = sum_y p(y)^K over noiseless shots
        cfg = small_config()
        steps = instantiate_circuit(cfg, 0)
        exact = power_sum_exact(enumerate_joint_distribution(cfg, steps), order)
        rng = np.random.default_rng(19)
        batch = sample_trajectories(cfg, steps, 10_000, 1.0, rng)
        stats = ensemble_aggregate(batch.model_probabilities ** (order - 1))
        assert abs(stats.mean - exact) < 4 * stats.std_error


class TestXebEstimate:
    def test_uniform_sampler_scores_zero(self):
        n_eff = 6
        values = np.full(500, 2.0 ** -n_eff)
        stats = xeb_estimate(values, n_eff)
        assert stats.mean == pytest.approx(0.0, abs=1e-12)
        assert stats.std_error == pytest.approx(0.0, abs=1e-12)

    def test_pooling_matches_flat_estimator(self):
        gen = np.random.default_rng(4)
        n_eff = 4
        groups = [gen.random(50) / 16 for _ in range(6)]
        pooled = xeb_estimate(np.concatenate(groups), n_eff)
        flat = 2.0 ** n_eff * np.concatenate(groups).mean() - 1
        assert pooled.mean == pytest.approx(flat, rel=1e-12)

    def test_ideal_sampler_matches_instance_fidelity(self):
        cfg = small_config()
        steps = instantiate_circuit(cfg, 5)
        exact = power_sum_exact(enumerate_joint_distribution(cfg, steps), 2)
        target = 2.0 ** cfg.n_eff * exact - 1
        rng = np.random.default_rng(23)
        batch = sample_trajectories(cfg, steps, 20_000, 1.0, rng)
        stats = xeb_estimate(batch.model_probabilities, cfg.n_eff)
        assert abs(stats.mean - target) < 4 * stats.std_error

    def test_noiseless_ensemble_fidelity_two_steps(self):
        # single system and bath qubit, two steps: ensemble XEB approaches
        # 8 * 0.24 - 1 = 0.92
        from hrcslab import HrcsConfig
        from hrcslab.engine import derive_seed

        cfg = HrcsConfig(n_system=1, n_bath=1, steps=2, master_seed=92)
        means = []
        for b in range(150):
            steps = instantiate_circuit(cfg, b)
            rng = np.random.default_rng(derive_seed(92, "xeb92", b))
            batch = sample_trajectories(cfg, steps, 300, 1.0, rng)
            means.append(xeb_estimate(batch.model_probabilities, cfg.n_eff).mean)
        stats = ensemble_aggregate(means)
        assert abs(stats.mean - 0.92) < 4 * stats.std_error


class TestPopHistogram:
    def test_delta_lands_in_top_bins(self):
        n_eff = 3
        hist = pop_histogram(np.full(40, 1.0 / 2 ** n_eff * 30), n_eff, bins=20)
        nonzero = np.nonzero(hist.densities)[0]
        assert nonzero.size >= 1 and nonzero.min() > 10

    def test_porter_thomas_integral_close_to_one(self, rng):
        n_eff = 10
        samples = porter_thomas_samples(2 ** n_eff, 50_000, rng)
        hist = pop_histogram(samples, n_eff)
        assert abs(hist.integral() - 1.0) < 0.02

    def test_reference_curve_shape(self, rng):
        hist = pop_histogram(porter_thomas_samples(2 ** 8, 5000, rng), 8)
        curve = hist.reference_curve()
        assert curve.shape == hist.bin_centers().shape
        assert np.all(curve >= 0)

    def test_json_round_trip(self, rng):
        import json

        hist = pop_histogram(porter_thomas_samples(2 ** 6, 500, rng), 6, bins=12)
        doc = json.loads(hist.to_json())
        assert doc["n_eff"] == 6 and doc["sample_count"] == 500
        assert len(doc["densities"]) == 12


class TestKsCalibration:
    def test_true_porter_thomas_passes_thresholds(self, rng):
        # calibration backing the acceptance thresholds: true PT draws at the
        # same pooled sample counts sit comfortably under 0.02 / 0.05
        for d, count, threshold in ((2 ** 10, 30 * 1024, 0.02), (2 ** 7, 30 * 128, 0.05)):
            worst = max(
                ks_distance_to_porter_thomas(porter_thomas_samples(d, count, rng), int(math.log2(d)))
                for _ in range(20)
            )
            assert worst < threshold

    def test_detects_wrong_law(self, rng):
        uniform = rng.random(4096) / 2 ** 10
        assert ks_distance_to_porter_thomas(uniform, 10) > 0.1


class TestTvd:
    def test_identical_is_zero(self):
        p = np.full(8, 1 / 8)
        assert tvd_exact(p, p) == 0.0

    def test_disjoint_deltas(self):
        a = np.zeros(4)
        b = np.zeros(4)
        a[0] = 1.0
        b[3] = 1.0
        assert tvd_exact(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            tvd_exact(np.ones(4) / 4, np.ones(8) / 8)


class TestAggregation:
    def test_single_value(self):
        stats = ensemble_aggregate([0.7])
        assert stats == EnsembleStats(1, 0.7, 0.0)

    def test_constant_sequence(self):
        stats = ensemble_aggregate([1.5] * 20)
        assert stats.mean == pytest.approx(1.5, rel=1e-12)
        assert stats.std_error == pytest.approx(0.0, abs=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            ensemble_aggregate([])
