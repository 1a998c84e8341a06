"""Estimator tests: correctly rounded sums, power sums, XEB estimator, KS
calibration, TVD, and ensemble aggregation."""

import math
import tracemalloc

import numpy as np
import pytest

from hrcslab import (
    ConfigurationError,
    EnsembleStats,
    HrcsConfig,
    ensemble_aggregate,
    enumerate_joint_distribution,
    instantiate_circuit,
    power_sum_exact,
    sample_trajectories,
    tvd_exact,
    xeb_estimate,
)
from hrcslab.estimators import (
    EXACT_SUM_MAX_ENTRIES,
    FSUM_MAX_ENTRIES,
    XEB_MAX_BITS,
    exact_sum,
    ks_distance_to_porter_thomas,
)

from conftest import small_config


def porter_thomas_samples(d: int, count: int, rng) -> np.ndarray:
    """True Porter-Thomas draws through the inverse CDF."""
    return 1.0 - (1.0 - rng.random(count)) ** (1.0 / (d - 1.0))


def sorted_fsum(values) -> float:
    """The sum power_sum_exact took before exact_sum: fsum, largest first."""
    return math.fsum(sorted(np.asarray(values, dtype=float).ravel().tolist(), reverse=True))


def same_float(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


# sizes on both sides of the binned path's threshold and of its 8192-term chunks
SUM_SIZES = (0, 1, 2, 511, 512, 513, 1000, 8193, 20_000)


def sum_inputs(kind: str, size: int, rng) -> np.ndarray:
    if kind == "zeros":
        return np.zeros(size) * rng.choice([1.0, -1.0], size)
    if kind == "subnormal":  # subnormals, the smallest normal and zeros, many of them tied
        pool = np.array([5e-324, 1e-320, 2.5e-310, 2.2250738585072014e-308, 0.0])
        return rng.choice(pool, size) * rng.choice([1.0, 3.0, 2.0 ** 40], size)
    if kind == "ties":  # halfway cases: 1 plus a run of half-ulps
        values = np.full(size, 2.0 ** -53)
        values[: size // 3] = 1.0
        rng.shuffle(values)
        return values
    if kind == "signed":  # mixed signs and magnitudes, with pairs that cancel but for low bits
        values = rng.standard_normal(size) * 2.0 ** rng.integers(-1080, 1000, size)
        values[: size // 2] = -values[size - size // 2:] * (1 + 2.0 ** -40)
        rng.shuffle(values)
        return values
    return (rng.exponential(size=size) / max(size, 1)) ** rng.integers(1, 17)  # "powers"


class TestExactSum:
    @pytest.mark.parametrize("size", SUM_SIZES)
    @pytest.mark.parametrize("kind", ["zeros", "subnormal", "ties", "signed", "powers"])
    def test_bitwise_sorted_fsum(self, kind, size):
        rng = np.random.default_rng(size)
        for _ in range(20):
            values = sum_inputs(kind, size, rng)
            assert same_float(exact_sum(values), sorted_fsum(values)), (kind, size)

    def test_worst_case_for_exactness(self):
        # 2^20 copies of the double below 1, all 53 of its bits set: one bin
        # takes every value, and its low-part sum reaches 2^20 (2^27 - 1)
        values = np.full(1 << 20, np.nextafter(1.0, 0.0))
        assert exact_sum(values) == 2.0 ** 20 - 2.0 ** -33 == math.fsum(values.tolist())

    def test_non_finite_values_are_left_to_fsum(self):
        tail = [1.0] * FSUM_MAX_ENTRIES
        assert exact_sum([math.inf] + tail) == math.inf
        assert math.isnan(exact_sum([math.nan] + tail))
        with pytest.raises(ValueError):
            exact_sum([math.inf, -math.inf] + tail)

    def test_too_many_entries_refused_before_allocating(self):
        values = np.broadcast_to(0.5, (EXACT_SUM_MAX_ENTRIES + 1,))
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match="exceeds"):
                exact_sum(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    @pytest.mark.parametrize("n_system, n_bath, steps", [(2, 1, 6), (2, 1, 10), (2, 1, 16),
                                                         (2, 2, 8)])
    def test_power_sums_and_tvd_match_sorted_fsum(self, n_system, n_bath, steps):
        cfg = HrcsConfig(n_system, n_bath, steps, master_seed=5)
        dists = [enumerate_joint_distribution(cfg, instantiate_circuit(cfg, i)) for i in (0, 1)]
        for order in (1, 2, 3, 4, 7):
            assert power_sum_exact(dists[0], order) == sorted_fsum(dists[0] ** order), order
        assert tvd_exact(*dists) == 0.5 * math.fsum(np.abs(dists[0] - dists[1]).tolist())


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


@pytest.mark.parametrize("estimate, bad", [
    pytest.param(estimate, bad, id=f"{estimate.__name__}-{bad!r}")
    for estimate in (power_sum_exact, xeb_estimate, ks_distance_to_porter_thomas)
    for bad in (2.5, True, "2", np.float64(3.0))
    + (() if estimate is power_sum_exact else (-1, XEB_MAX_BITS + 1))
])
def test_order_and_n_eff_must_be_integers(estimate, bad):
    # a float or bool order or n_eff was read as the number it equals, "2"
    # raised TypeError, an n_eff whose 2^n_eff no double holds raised
    # OverflowError, and a negative one scored a dimension below 1; a numpy
    # integer is its int
    p = np.array([0.5, 0.25, 0.25])
    assert estimate(p, np.int64(3)) == estimate(p, 3)
    with pytest.raises(ConfigurationError, match="order|n_eff"):
        estimate(p, bad)


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

    @pytest.mark.parametrize("mean, std_error, match", [
        (math.nan, 0.1, "non-finite mean"),
        (math.inf, 0.1, "non-finite mean"),
        (0.5, math.inf, "non-finite standard error"),
        (0.5, math.nan, "non-finite standard error"),
        (0.5, -0.1, "negative standard error"),
    ])
    def test_rejects_non_finite_or_negative_stats(self, mean, std_error, match):
        # a nan standard error passed the negative check, and inf is not JSON
        with pytest.raises(ConfigurationError, match=match):
            EnsembleStats(3, mean, std_error)

    def test_xeb_whose_spread_overflows_is_refused(self):
        # 2^1023 * p - 1 is finite, but the squared deviations overflow: the
        # standard error came back inf
        with pytest.raises(ConfigurationError, match="non-finite standard error"):
            xeb_estimate([0.5, 0.25, 0.25], 1023)
        # and a sum that overflows is refused as a non-finite mean, not warned of
        with pytest.raises(ConfigurationError, match="non-finite mean"):
            ensemble_aggregate([1e308, 1e308])
