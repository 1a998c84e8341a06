"""Protocol engine tests: the three execution modes and the density-matrix
oracle against each other and against the closed-form layer."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from hrcslab import (
    CapacityError,
    ConfigurationError,
    HrcsConfig,
    enumerate_joint_distribution,
    ensemble_aggregate,
    ideal_probabilities_batch,
    instantiate_circuit,
    marginalize,
    power_sum_exact,
    replay_no_reset_equivalence,
    sample_haar_unitary,
    sample_trajectories,
    theory,
)
from hrcslab import engine as engine_mod
from hrcslab.engine import (
    TrajectoryBatch,
    _random_paulis,
    derive_seed,
    instance_seed,
    step_matrix,
)
from hrcslab.circuits import HeaParams, apply_hea_batch, sample_hea_params

from conftest import (
    apply_strings,
    dense_hea_oracle,
    depolarize_bath,
    depolarize_system,
    enumerate_noisy_joint_distribution,
    joint_indices,
    pauli_string_matrix,
    small_config,
    unitarity_defect,
    y_factor,
)


def one_shot(config, unitaries, rng):
    """One protocol run: the batched sampler at a single shot (row 0)."""
    return sample_trajectories(config, unitaries, 1, 1.0, rng)


def all_paths(config):
    """Every joint outcome in index order, decoded into the replay's
    (bath_outcomes, final_outcomes) columns: z_1 most significant, x least."""
    idx = np.arange(1 << config.n_eff)
    shifts = config.n_system + config.n_bath * np.arange(config.steps - 1, -1, -1)
    bath = (idx[:, None] >> shifts) & ((1 << config.n_bath) - 1)
    return bath, idx & ((1 << config.n_system) - 1)


def identity_steps(config):
    dim = 1 << config.n_qubits
    return [np.eye(dim, dtype=complex) for _ in range(config.steps)]


def depth_first_reference(config, unitaries):
    """Joint distribution by a depth-first walk, one dense matrix-vector
    product per tree node: the oracle for the breadth-first enumerator."""
    d_sys, d_bath = 1 << config.n_system, 1 << config.n_bath
    mats = [step_matrix(step, 1 << config.n_qubits) for step in unitaries]
    out = np.zeros(1 << config.n_eff)

    def walk(state, k, prefix):
        blocks = (mats[k] @ state).reshape(d_bath, d_sys)
        for z, block in enumerate(blocks):
            leaf = prefix * d_bath + z
            if k + 1 == config.steps:
                out[leaf * d_sys : (leaf + 1) * d_sys] = np.abs(block) ** 2
            else:
                child = np.zeros(1 << config.n_qubits, dtype=complex)
                lo = 0 if config.reset_bath else z * d_sys
                child[lo : lo + d_sys] = block
                walk(child, k + 1, leaf)

    root = np.zeros(1 << config.n_qubits, dtype=complex)
    root[0] = 1.0
    walk(root, 0, 0)
    return out


def enumeration_config(shape, source, reset, seed=11):
    n_system, n_bath, steps = shape
    return HrcsConfig(
        n_system=n_system,
        n_bath=n_bath,
        steps=steps,
        reset_bath=reset,
        unitary_source=source,
        hea_layers=3 if source == "hea" else None,
        master_seed=seed,
    )


class TestInstantiation:
    def test_same_seed_same_unitaries(self):
        cfg = small_config()
        a = instantiate_circuit(cfg, 3)
        b = instantiate_circuit(cfg, 3)
        for u, v in zip(a, b):
            np.testing.assert_array_equal(u, v)

    def test_different_indices_differ(self):
        cfg = small_config()
        a = instantiate_circuit(cfg, 0)
        b = instantiate_circuit(cfg, 1)
        assert not np.allclose(a[0], b[0])

    def test_instances_independent_of_enumeration_order(self):
        cfg = small_config()
        direct = instantiate_circuit(cfg, 5)
        _ = [instantiate_circuit(cfg, i) for i in range(5)]
        again = instantiate_circuit(cfg, 5)
        for u, v in zip(direct, again):
            np.testing.assert_array_equal(u, v)

    def test_haar_source_dimensions(self):
        # a reset bath reads 0 before every step: only the first 2^n_A columns act
        cfg = HrcsConfig(n_system=1, n_bath=1, steps=3, master_seed=1)
        steps = instantiate_circuit(cfg, 0)
        assert len(steps) == 3
        for u in steps:
            assert u.shape == (4, 2)
            assert unitarity_defect(u) < 1e-12

    def test_no_reset_source_draws_full_unitaries(self):
        cfg = HrcsConfig(n_system=1, n_bath=1, steps=3, reset_bath=False, master_seed=1)
        for u in instantiate_circuit(cfg, 0):
            assert u.shape == (4, 4)
            assert unitarity_defect(u) < 1e-12

    # 2+2 draws whole Ginibre matrices from the instance's stream, 4+4 each
    # step's kept columns from its own
    @pytest.mark.parametrize("n_sys, n_bath", [(2, 2), (4, 4)])
    def test_reset_draws_are_the_full_draws_columns(self, n_sys, n_bath):
        cfg = small_config(n_system=n_sys, n_bath=n_bath, steps=3)
        full = instantiate_circuit(dataclasses.replace(cfg, reset_bath=False), 4)
        for u, v in zip(instantiate_circuit(cfg, 4), full):
            np.testing.assert_array_equal(u, v[:, : u.shape[1]])

    # 3+2 is the smallest register on the per-step rule (dim 32)
    @pytest.mark.parametrize("n_sys, n_bath", [(3, 2), (4, 4)])
    @pytest.mark.parametrize("reset", [True, False])
    def test_large_step_draws_from_its_own_seed(self, n_sys, n_bath, reset):
        cfg = small_config(n_system=n_sys, n_bath=n_bath, steps=3, reset_bath=reset)
        seed, dim = instance_seed(cfg, 4), 1 << cfg.n_qubits
        for k, u in enumerate(instantiate_circuit(cfg, 4)):
            rng = np.random.default_rng(derive_seed(seed, "step", k))
            np.testing.assert_array_equal(u, sample_haar_unitary(dim, rng, u.shape[1]))

    def test_hea_source_builds_sequences(self):
        cfg = HrcsConfig(
            n_system=1, n_bath=1, steps=2, unitary_source="hea", hea_layers=3, master_seed=1
        )
        steps = instantiate_circuit(cfg, 0)
        # each step is its drawn angles, in the order of the instance's stream
        rng = np.random.default_rng(instance_seed(cfg, 0))
        for step in steps:
            assert isinstance(step, HeaParams)
            drawn = sample_hea_params(2, 3, rng)
            np.testing.assert_array_equal(step.thetas, drawn.thetas)
            np.testing.assert_array_equal(step.phis, drawn.phis)

    def test_hea_needs_layers(self):
        with pytest.raises(ConfigurationError):
            HrcsConfig(n_system=1, n_bath=1, steps=1, unitary_source="hea")

    def test_seed_derivation_is_stable(self):
        assert derive_seed(1, "instance", 2) == derive_seed(1, "instance", 2)
        assert derive_seed(1, "instance", 2) != derive_seed(1, "instance", 3)


class TestTrajectories:
    def test_identity_circuit(self):
        cfg = small_config(steps=3)
        steps = identity_steps(cfg)
        shot = one_shot(cfg, steps, np.random.default_rng(0))
        assert shot.bath_outcomes[0].tolist() == [0, 0, 0]
        assert shot.final_outcomes[0] == 0
        assert shot.model_probabilities[0] == pytest.approx(1.0, abs=1e-12)
        ideal = ideal_probabilities_batch(cfg, steps, shot.bath_outcomes, shot.final_outcomes)
        assert ideal[0] == pytest.approx(1.0, abs=1e-12)

    def test_noiseless_model_probability_equals_joint_probability(self):
        cfg = small_config()
        steps = instantiate_circuit(cfg, 2)
        dist = enumerate_joint_distribution(cfg, steps)
        rng = np.random.default_rng(5)
        for _ in range(25):
            shot = one_shot(cfg, steps, rng)
            idx = joint_indices(shot, cfg)[0]
            assert shot.model_probabilities[0] == pytest.approx(dist[idx], rel=1e-10)

    def test_single_step_haar_cp_estimate(self):
        # ensemble mean of the path probability estimates the two-qubit Haar
        # collision probability 2/5
        cfg = HrcsConfig(n_system=1, n_bath=1, steps=1, master_seed=3)
        means = []
        for b in range(150):
            steps = instantiate_circuit(cfg, b)
            rng = np.random.default_rng(derive_seed(3, "traj", b))
            batch = sample_trajectories(cfg, steps, 40, 1.0, rng)
            means.append(float(batch.model_probabilities.mean()))
        stats = ensemble_aggregate(means)
        assert abs(stats.mean - 0.4) < 3 * stats.std_error

    def test_batch_and_single_agree_with_enumeration(self):
        cfg = small_config()
        steps = instantiate_circuit(cfg, 0)
        exact = power_sum_exact(enumerate_joint_distribution(cfg, steps), 2)
        rng = np.random.default_rng(11)
        batch = sample_trajectories(cfg, steps, 30_000, 1.0, rng)
        stats = ensemble_aggregate(batch.model_probabilities)
        assert abs(stats.mean - exact) < 4 * stats.std_error
        singles = [one_shot(cfg, steps, rng).model_probabilities[0] for _ in range(3000)]
        stats_single = ensemble_aggregate(singles)
        assert abs(stats_single.mean - exact) < 4 * stats_single.std_error

    def test_trajectory_frequencies_match_enumeration(self):
        cfg = small_config()
        steps = instantiate_circuit(cfg, 1)
        dist = enumerate_joint_distribution(cfg, steps)
        rng = np.random.default_rng(2)
        batch = sample_trajectories(cfg, steps, 100_000, 1.0, rng)
        hist = np.bincount(joint_indices(batch, cfg), minlength=dist.size)
        freq = hist / len(batch)
        se = np.sqrt(dist * (1 - dist) / len(batch))
        assert np.all(np.abs(freq - dist) <= 4 * se + 1e-9)

    def test_fully_depolarized_bath_outcomes_uniform(self):
        # gamma -> 0 on both registers: bath outcomes uniform, matching the
        # density-matrix oracle marginal
        cfg = HrcsConfig(n_system=1, n_bath=1, steps=1, master_seed=9)
        steps = instantiate_circuit(cfg, 0)
        oracle = enumerate_noisy_joint_distribution(cfg, steps, 0.0)
        oracle_bath = marginalize(oracle, cfg, "temporal")
        np.testing.assert_allclose(oracle_bath, [0.5, 0.5], atol=1e-10)
        rng = np.random.default_rng(31)
        batch = sample_trajectories(cfg, steps, 40_000, 0.0, rng)
        freq = np.bincount(batch.bath_outcomes[:, 0], minlength=2) / len(batch)
        assert np.all(np.abs(freq - oracle_bath) < 4 * np.sqrt(0.25 / len(batch)))

    @pytest.mark.parametrize("reset, source", [(True, "haar"), (False, "haar"), (False, "hea")])
    @pytest.mark.parametrize("gamma", [1.0, 0.7])
    def test_zero_shots_give_an_empty_batch(self, reset, source, gamma):
        # zero shots raised ZeroDivisionError in the bath sums; replay of zero paths gives []
        cfg = HrcsConfig(n_system=2, n_bath=2, steps=3, reset_bath=reset, unitary_source=source,
                         hea_layers=2 if source == "hea" else None)
        steps = instantiate_circuit(cfg, 0)
        batch = sample_trajectories(cfg, steps, np.int64(0), gamma, np.random.default_rng(0))
        assert len(batch) == 0 and batch.bath_outcomes.shape == (0, 3)
        assert batch.model_probabilities.shape == (0,)
        replay = ideal_probabilities_batch(cfg, steps, batch.bath_outcomes, batch.final_outcomes)
        assert replay.shape == (0,)

    def test_joint_indices_refused_beyond_int64(self):
        # 5 + 12 * 5 = 65 effective bits would wrap an int64 index
        cfg = HrcsConfig(n_system=5, n_bath=5, steps=12)
        batch = TrajectoryBatch(np.zeros((2, 12), dtype=np.int64), np.zeros(2, dtype=np.int64),
                                np.ones(2))
        with pytest.raises(ConfigurationError, match="int64"):
            joint_indices(batch, cfg)

    def test_joint_indices_at_63_bits(self):
        cfg = HrcsConfig(n_system=3, n_bath=5, steps=12)
        batch = TrajectoryBatch(np.full((1, 12), 31), np.full(1, 7), np.ones(1))
        assert joint_indices(batch, cfg).tolist() == [2**63 - 1]


class TestIdealProbability:
    def test_identity_circuit_zero_path(self):
        cfg = small_config(steps=2)
        ideal = ideal_probabilities_batch(cfg, identity_steps(cfg), *all_paths(cfg))
        assert ideal[0] == pytest.approx(1.0, abs=1e-12)

    def test_identity_circuit_orthogonal_path(self):
        cfg = small_config(steps=2)
        ideal = ideal_probabilities_batch(cfg, identity_steps(cfg), *all_paths(cfg))
        assert np.all(ideal[1:] == 0.0)

    def test_paths_sum_to_one(self):
        cfg = small_config()
        steps = instantiate_circuit(cfg, 4)
        total = ideal_probabilities_batch(cfg, steps, *all_paths(cfg)).sum()
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_matches_enumeration_entrywise(self):
        for reset in (True, False):
            cfg = small_config(reset_bath=reset)
            steps = instantiate_circuit(cfg, 6)
            dist = enumerate_joint_distribution(cfg, steps)
            ideal = ideal_probabilities_batch(cfg, steps, *all_paths(cfg))
            assert ideal == pytest.approx(dist, abs=1e-12)

    @pytest.mark.parametrize(
        "bath, final",
        [
            (np.zeros((1, 1), dtype=np.int64), np.zeros(1, dtype=np.int64)),
            # a (shots, 1) column of finals indexed a (3, 3) square of probabilities
            (np.zeros((3, 2), dtype=np.int64), np.zeros((3, 1), dtype=np.int64)),
            (np.zeros((3, 2), dtype=np.int64), np.zeros((1, 3), dtype=np.int64)),
            (np.zeros((3, 2), dtype=np.int64), np.zeros((), dtype=np.int64)),
            (np.zeros((3, 2)), np.zeros(3, dtype=np.int64)),
            (np.zeros((3, 2), dtype=np.int64), np.zeros(3)),
            (np.zeros((3, 2), dtype=bool), np.zeros(3, dtype=np.int64)),
        ],
        ids=["bath-steps", "final-column", "final-row", "final-scalar", "float-bath",
             "float-final", "bool-bath"],
    )
    def test_outcome_shape_validation(self, bath, final):
        cfg = small_config(steps=2)
        with pytest.raises(ConfigurationError, match="integer"):
            ideal_probabilities_batch(cfg, identity_steps(cfg), bath, final)

    @pytest.mark.parametrize("bath, final", [((-1, 0), 0), ((2, 0), 0), ((0, 0), -1), ((0, 0), 4)])
    def test_outcome_range_validation(self, bath, final):
        cfg = small_config(steps=2)  # 1 bath qubit, 2 system qubits
        with pytest.raises(ConfigurationError):
            ideal_probabilities_batch(
                cfg, identity_steps(cfg), np.array([bath]), np.array([final])
            )

    def test_oversized_register_refused(self, monkeypatch):
        # a 25-qubit register holds 512 MiB per replayed path: refused before
        # any step runs, as the sampler refuses it
        def no_work(*args):
            raise AssertionError("a step ran")

        cfg = HrcsConfig(n_system=13, n_bath=12, steps=2, unitary_source="hea", hea_layers=1)
        steps = [sample_hea_params(cfg.n_qubits, 1, np.random.default_rng(k)) for k in range(2)]
        monkeypatch.setattr(engine_mod, "_propagate", no_work)
        with pytest.raises(CapacityError, match="25 qubits"):
            ideal_probabilities_batch(
                cfg, steps, np.zeros((1, 2), dtype=np.int64), np.zeros(1, dtype=np.int64)
            )


class TestEnumeration:
    def test_identity_circuit_is_delta(self):
        cfg = small_config(steps=2)
        dist = enumerate_joint_distribution(cfg, identity_steps(cfg))
        expected = np.zeros(1 << cfg.n_eff)
        expected[0] = 1.0
        np.testing.assert_allclose(dist, expected, atol=1e-12)

    def test_normalization(self):
        cfg = small_config(n_bath=2, steps=3)
        steps = instantiate_circuit(cfg, 0)
        dist = enumerate_joint_distribution(cfg, steps)
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)

    def test_ensemble_collision_probability(self):
        cfg = small_config()
        vals = [
            power_sum_exact(enumerate_joint_distribution(cfg, instantiate_circuit(cfg, b)), 2)
            for b in range(150)
        ]
        stats = ensemble_aggregate(vals)
        target = theory.hrcs_power_sum(2, 1, 2, 2)
        assert abs(stats.mean - target) < 3 * stats.std_error

    def test_capacity_refused(self):
        cfg = HrcsConfig(n_system=2, n_bath=3, steps=7, master_seed=0)  # n_eff = 23
        with pytest.raises(CapacityError):
            enumerate_joint_distribution(cfg, [])

    @pytest.mark.parametrize("reset", [True, False])
    @pytest.mark.parametrize("source", ["haar", "hea"])
    @pytest.mark.parametrize("shape", [(1, 1, 6), (2, 1, 8), (2, 2, 4), (3, 3, 3), (1, 2, 3)])
    def test_matches_depth_first_reference(self, shape, source, reset):
        # batched and per-node products round differently; 1e-12 relative is
        # about 4500 ulp of float64
        # the reference walks the full register, so it gets the full draws;
        # a reset circuit enumerates with its isometries
        cfg = enumeration_config(shape, source, reset)
        full_cfg = dataclasses.replace(cfg, reset_bath=False)
        for instance in range(2):
            steps = instantiate_circuit(cfg, instance)
            np.testing.assert_allclose(
                enumerate_joint_distribution(cfg, steps),
                depth_first_reference(cfg, instantiate_circuit(full_cfg, instance)),
                rtol=1e-12,
                atol=0,
            )

    @pytest.mark.parametrize("reset", [True, False])
    @pytest.mark.parametrize("shape", [(1, 1, 5), (2, 1, 4), (2, 2, 3)])
    def test_later_steps_do_not_change_earlier_marginals(self, shape, reset):
        # summing out (z_t, x) of t steps leaves the (t-1)-step distribution,
        # summed over x, of the same leading unitaries
        cfg = enumeration_config(shape, "haar", reset)
        shorter = dataclasses.replace(cfg, steps=cfg.steps - 1)
        steps = instantiate_circuit(cfg, 0)
        prefixes = 1 << (shorter.steps * cfg.n_bath)
        full = enumerate_joint_distribution(cfg, steps)
        head = enumerate_joint_distribution(shorter, steps[:-1])
        np.testing.assert_allclose(
            full.reshape(prefixes, -1).sum(axis=1),
            head.reshape(prefixes, -1).sum(axis=1),
            rtol=1e-12,
            atol=1e-15,
        )

    def test_peak_memory_is_a_few_frontiers(self):
        # n_eff = 20: the last level holds 2^20 amplitudes of 16 B.  Measured
        # peak: 2.5 of those with a reset (the previous level's system blocks,
        # the dense step's product and its contiguous copy), 2.6 without one
        # (the rebuilt register is freed before the copy)
        for reset in (True, False):
            cfg = HrcsConfig(n_system=1, n_bath=1, steps=19, master_seed=4, reset_bath=reset)
            steps = instantiate_circuit(cfg, 0)
            tracemalloc.start()
            try:
                dist = enumerate_joint_distribution(cfg, steps)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert dist.sum() == pytest.approx(1.0, abs=1e-9), reset
            assert peak < 3 * (1 << cfg.n_eff) * 16, reset

    def test_hea_steps_enumerate_too(self):
        cfg = HrcsConfig(
            n_system=1, n_bath=1, steps=2, unitary_source="hea", hea_layers=4, master_seed=2
        )
        dist = enumerate_joint_distribution(cfg, instantiate_circuit(cfg, 0))
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)


class TestMarginalize:
    def test_marginals_normalized(self):
        cfg = small_config(steps=3)
        dist = enumerate_joint_distribution(cfg, instantiate_circuit(cfg, 1))
        for kind, step in (("spatial", None), ("temporal", None), ("per_step", 2)):
            vec = marginalize(dist, cfg, kind, step=step)
            assert vec.sum() == pytest.approx(1.0, abs=1e-9)

    def test_spatial_ensemble_cp_single_step(self):
        cfg = small_config(steps=1)
        vals = []
        for b in range(150):
            dist = enumerate_joint_distribution(cfg, instantiate_circuit(cfg, b))
            vals.append(power_sum_exact(marginalize(dist, cfg, "spatial"), 2))
        stats = ensemble_aggregate(vals)
        assert abs(stats.mean - 1 / 3) < 3 * stats.std_error

    def test_per_step_one_equals_temporal_at_single_step(self):
        cfg = small_config(steps=1)
        dist = enumerate_joint_distribution(cfg, instantiate_circuit(cfg, 3))
        np.testing.assert_array_equal(
            marginalize(dist, cfg, "per_step", step=1), marginalize(dist, cfg, "temporal")
        )

    def test_invalid_step_index(self):
        cfg = small_config(steps=2)
        dist = enumerate_joint_distribution(cfg, instantiate_circuit(cfg, 0))
        with pytest.raises(ConfigurationError):
            marginalize(dist, cfg, "per_step", step=3)

    @pytest.mark.parametrize("step", [1.5, 1.0, True, "1"])
    def test_non_integer_step_refused(self, step):
        # 1.5 lies in [1, t] but names no axis, so every axis was summed to 1.0
        cfg = small_config(steps=2)
        dist = enumerate_joint_distribution(cfg, instantiate_circuit(cfg, 0))
        with pytest.raises(ConfigurationError, match="step index"):
            marginalize(dist, cfg, "per_step", step=step)

    def test_numpy_integer_step_accepted(self):
        cfg = small_config(steps=2)
        dist = enumerate_joint_distribution(cfg, instantiate_circuit(cfg, 0))
        np.testing.assert_array_equal(
            marginalize(dist, cfg, "per_step", step=np.int64(2)),
            marginalize(dist, cfg, "per_step", step=2),
        )

    def test_wrong_length_refused(self):
        # a vector of another step count is refused with a ConfigurationError
        cfg = small_config(steps=2)
        dist = enumerate_joint_distribution(cfg, instantiate_circuit(cfg, 0))
        for other in (dataclasses.replace(cfg, steps=1), dataclasses.replace(cfg, steps=3)):
            with pytest.raises(ConfigurationError, match="do not cover"):
                marginalize(dist, other, "spatial")


class TestPauliUnraveling:
    @pytest.mark.parametrize("targets", [(0, 1), (2, 3, 4), (1,)])
    def test_matches_per_string_permutation(self, targets):
        # each row against the dense Kronecker product of its drawn string,
        # without the string's global phase i^(n_Y); the oracle's entries
        # are 0, +-1, +-i, so the match is bitwise
        n, shots, gamma = 5, 300, 0.2
        gen = np.random.default_rng(3)
        amps = gen.standard_normal((shots, 1 << n)) + 1j * gen.standard_normal((shots, 1 << n))
        expected = amps.copy()
        draws = np.random.default_rng(8)
        hit = draws.random(shots) < 1.0 - gamma
        codes = np.where(hit, draws.integers(4 ** len(targets), size=shots), 0)
        for row, code in enumerate(codes.tolist()):
            expected[row] = y_factor(code) * (pauli_string_matrix(code, targets, n) @ amps[row])
        strings = _random_paulis(shots, len(targets), gamma, np.random.default_rng(8))
        np.testing.assert_array_equal(apply_strings(amps, strings, targets[0]), expected)

    @staticmethod
    def digit_masks(codes, m):
        """X and Z masks from the code digits: 1 or 2 is X, 2 or 3 is Z."""
        digits = (codes[:, None] >> (2 * np.arange(m))) & 3
        bits = 1 << np.arange(m)
        return ((digits == 1) | (digits == 2)) @ bits, (digits >= 2) @ bits

    @pytest.mark.parametrize("m", range(1, 7))
    def test_masks_are_the_digits_of_every_code(self, m):
        class EveryCode:
            """Every one of the 4^m codes, each row hit."""

            def random(self, size):
                return np.zeros(size)

            def integers(self, high, size):
                assert high == size == 4 ** m
                return np.arange(size)

        codes = np.arange(4 ** m)
        flip, zmask = _random_paulis(codes.size, m, 0.0, EveryCode())
        want_flip, want_zmask = self.digit_masks(codes, m)
        np.testing.assert_array_equal(flip, want_flip)
        np.testing.assert_array_equal(zmask, want_zmask)

    @pytest.mark.parametrize("m", [7, 8, 13, 16, 17, 22, 23])
    def test_masks_of_random_codes_and_the_draws_they_make(self, m):
        # the two generator calls are the same as ever, so the stream after
        # them, and every later draw, is unchanged
        rng, twin = np.random.default_rng(m), np.random.default_rng(m)
        flip, zmask = _random_paulis(5000, m, 0.4, rng)
        codes = np.where(twin.random(5000) < 0.6, twin.integers(4 ** m, size=5000), 0)
        assert rng.bit_generator.state == twin.bit_generator.state
        want_flip, want_zmask = self.digit_masks(codes, m)
        assert flip.dtype == zmask.dtype == np.int64
        np.testing.assert_array_equal(flip, want_flip)
        np.testing.assert_array_equal(zmask, want_zmask)


def dense_noisy_sampler(config, unitaries, shots, gamma, rng):
    """The noisy sampler on the full register: each step's dense product,
    then each row times the dense Pauli string of its code, system codes
    drawn before bath codes, then the bath draw from the blocks' norms."""
    n, n_sys = config.n_qubits, config.n_system
    d_sys, d_bath = 1 << n_sys, 1 << config.n_bath
    rows = np.arange(shots)
    columns = d_sys if config.reset_bath else 1 << n
    mats = [step_matrix(step, columns) for step in unitaries]
    state = np.zeros((shots, 1 << n), dtype=complex)
    state[:, 0] = 1.0
    bath_outcomes = np.zeros((shots, config.steps), dtype=np.int64)
    model = np.ones(shots)

    def inverse_cdf(probs):
        cum = np.cumsum(probs, axis=1)
        u = rng.random(shots) * cum[:, -1]
        idx = np.minimum((u[:, None] >= cum).sum(axis=1), probs.shape[1] - 1)
        return idx, probs[rows, idx]

    for k, mat in enumerate(mats):
        amps = state[:, : mat.shape[1]] @ mat.T
        for targets in (range(n_sys), range(n_sys, n)):
            if gamma < 1.0:
                hit = rng.random(shots) < 1.0 - gamma
                codes = np.where(hit, rng.integers(4 ** len(targets), size=shots), 0)
                dense = {c: pauli_string_matrix(c, targets, n) for c in set(codes.tolist())}
                amps = np.stack([dense[c] @ a for c, a in zip(codes.tolist(), amps)])
        blocks = amps.reshape(shots, d_bath, d_sys)
        z, p_z = inverse_cdf((np.abs(blocks) ** 2).sum(axis=2))
        bath_outcomes[:, k] = z
        model *= p_z
        kept = blocks[rows, z] / np.sqrt(p_z)[:, None]
        state = np.zeros_like(amps)
        state.reshape(shots, d_bath, d_sys)[rows, 0 if config.reset_bath else z] = kept
    x, p_x = inverse_cdf(np.abs(kept) ** 2)
    return TrajectoryBatch(bath_outcomes, x, model * p_x)


class TestNoisySampler:
    @pytest.mark.parametrize("shape", [(2, 1), (1, 3), (3, 2)])
    @pytest.mark.parametrize("reset", [True, False])
    @pytest.mark.parametrize("source", ["haar", "hea"])
    @pytest.mark.parametrize("gamma", [0.7, 1.0, 0.3, 0.0], ids=[f"gammas{i}" for i in range(4)])
    def test_matches_dense_reference(self, shape, reset, source, gamma):
        # the sampler relabels the bath and acts on the kept system block;
        # the reference multiplies the whole register by each drawn string.
        # At gamma = 1 neither draws a string, so the sampler consumes the
        # stream as a noiseless sampler does, draw for draw
        cfg = HrcsConfig(
            n_system=shape[0], n_bath=shape[1], steps=3, reset_bath=reset,
            unitary_source=source, hea_layers=2 if source == "hea" else None, master_seed=4,
        )
        steps = instantiate_circuit(cfg, 0)
        runs = []
        for sampler in (sample_trajectories, dense_noisy_sampler):
            rng = np.random.default_rng(6)
            runs.append((sampler(cfg, steps, 200, gamma, rng), rng.random(4)))
        (got, got_next), (want, want_next) = runs
        np.testing.assert_array_equal(got.bath_outcomes, want.bath_outcomes)
        np.testing.assert_array_equal(got.final_outcomes, want.final_outcomes)
        np.testing.assert_array_equal(got_next, want_next)
        np.testing.assert_allclose(
            got.model_probabilities, want.model_probabilities, rtol=1e-12, atol=0
        )


class TestDepolarizeDensity:
    def test_identity_at_gamma_one(self):
        rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        out = depolarize_system(rho, 2, 2, 1.0)
        np.testing.assert_array_equal(out, rho)

    def test_trace_preserved(self):
        gen = np.random.default_rng(8)
        a = gen.standard_normal((8, 8)) + 1j * gen.standard_normal((8, 8))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        for channel in (depolarize_system, depolarize_bath):
            out = channel(rho, 4, 2, 0.3)
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)

    def test_full_strength_mixes_subsystem(self):
        state = np.zeros(4, dtype=complex)
        state[0] = 1.0
        rho = np.outer(state, state.conj())
        # index layout is bath*2 + system; the untouched factor stays pure |0>
        np.testing.assert_allclose(
            depolarize_system(rho, 2, 2, 0.0), np.diag([0.5, 0.5, 0.0, 0.0]), atol=1e-12
        )
        np.testing.assert_allclose(
            depolarize_bath(rho, 2, 2, 0.0), np.diag([0.5, 0.0, 0.5, 0.0]), atol=1e-12
        )
        both = depolarize_bath(depolarize_system(rho, 2, 2, 0.0), 2, 2, 0.0)
        np.testing.assert_allclose(both, np.eye(4) / 4, atol=1e-12)


class TestNoisyEnumeration:
    def test_noiseless_reduction(self):
        cfg = small_config(n_system=1, steps=2)
        steps = instantiate_circuit(cfg, 0)
        noisy = enumerate_noisy_joint_distribution(cfg, steps, 1.0)
        clean = enumerate_joint_distribution(cfg, steps)
        np.testing.assert_allclose(noisy, clean, atol=1e-10)

    def test_fully_mixed_marginals(self):
        cfg = HrcsConfig(n_system=2, n_bath=1, steps=1, master_seed=4)
        steps = instantiate_circuit(cfg, 0)
        dist = enumerate_noisy_joint_distribution(cfg, steps, 0.0)
        np.testing.assert_allclose(
            marginalize(dist, cfg, "spatial"), np.full(4, 0.25), atol=1e-10
        )
        np.testing.assert_allclose(
            marginalize(dist, cfg, "temporal"), np.full(2, 0.5), atol=1e-10
        )

    def test_normalized_and_matches_pauli_trajectories(self):
        cfg = HrcsConfig(n_system=1, n_bath=1, steps=2, master_seed=21)
        steps = instantiate_circuit(cfg, 0)
        oracle = enumerate_noisy_joint_distribution(cfg, steps, 0.7)
        assert oracle.sum() == pytest.approx(1.0, abs=1e-8)
        rng = np.random.default_rng(42)
        batch = sample_trajectories(cfg, steps, 200_000, 0.7, rng)
        hist = np.bincount(joint_indices(batch, cfg), minlength=8) / len(batch)
        assert np.abs(hist - oracle).sum() < 2e-2

    def test_reset_and_no_reset_oracles(self):
        for reset in (True, False):
            cfg = small_config(n_system=1, steps=2, reset_bath=reset)
            steps = instantiate_circuit(cfg, 3)
            noisy = enumerate_noisy_joint_distribution(cfg, steps, 0.6)
            assert noisy.sum() == pytest.approx(1.0, abs=1e-8)
            rng = np.random.default_rng(17)
            batch = sample_trajectories(cfg, steps, 150_000, 0.6, rng)
            hist = np.bincount(joint_indices(batch, cfg), minlength=8) / len(batch)
            assert np.abs(hist - noisy).sum() < 2e-2

    def test_capacity_refused(self):
        cfg = HrcsConfig(n_system=5, n_bath=4, steps=1, master_seed=0)
        with pytest.raises(CapacityError):
            enumerate_noisy_joint_distribution(cfg, [], 0.5)


class TestResetEquivalence:
    def test_identity_circuit_both_delta(self):
        cfg = small_config(steps=2)
        with_reset, without_reset = replay_no_reset_equivalence(cfg, identity_steps(cfg))
        assert with_reset[0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(
            with_reset, without_reset, atol=1e-12
        )

    def test_ensemble_cp_and_ps_match(self):
        cfg = small_config(steps=3)
        cp_r, cp_n, ps_r, ps_n = [], [], [], []
        for b in range(120):
            # both modes run one circuit: draw its full steps
            steps = instantiate_circuit(dataclasses.replace(cfg, reset_bath=False), b)
            dr, dn = replay_no_reset_equivalence(cfg, steps)
            cp_r.append(power_sum_exact(dr, 2))
            cp_n.append(power_sum_exact(dn, 2))
            ps_r.append(power_sum_exact(dr, 3))
            ps_n.append(power_sum_exact(dn, 3))
        for reset_vals, plain_vals in ((cp_r, cp_n), (ps_r, ps_n)):
            a = ensemble_aggregate(reset_vals)
            b = ensemble_aggregate(plain_vals)
            combined = np.hypot(a.std_error, b.std_error)
            assert abs(a.mean - b.mean) < 3 * combined


class TestStepMatrices:
    def test_dense_and_sequence_sources(self):
        # an HEA step compiles to the 2^n_A columns a reset bath reaches, or
        # to all 2^n
        for n_system, n_bath, layers in ((1, 1, 2), (3, 2, 8)):
            cfg = HrcsConfig(
                n_system=n_system, n_bath=n_bath, steps=2, unitary_source="hea",
                hea_layers=layers, master_seed=5,
            )
            steps = instantiate_circuit(cfg, 0)
            for columns in (1 << n_system, 1 << cfg.n_qubits):
                for step in steps:
                    m = step_matrix(step, columns)
                    assert m.shape == (1 << cfg.n_qubits, columns)
                    np.testing.assert_allclose(
                        m, dense_hea_oracle(step)[:, :columns], rtol=0, atol=1e-12
                    )
        dense_cfg = small_config(n_system=1, steps=2)
        dense = instantiate_circuit(dense_cfg, 0)
        for u in dense:
            np.testing.assert_array_equal(step_matrix(u, u.shape[1]), u)


def gate_kernel_propagate(picked, bath, step, d_bath, dense=engine_mod._propagate):
    """The step kernel with every HEA step run gate by gate on the rebuilt
    register: the reference the compiled HEA steps are checked against."""
    if isinstance(step, HeaParams):
        return apply_hea_batch(engine_mod._keep_branch(picked, bath, d_bath), step)
    return dense(picked, bath, step, d_bath)


class TestCompiledHeaSteps:
    # 32 shots at 3+2 and 64 at 5+5 compile every reset step, and without a
    # reset only the first, whose bath is still at 0
    @pytest.mark.parametrize("shape", [(3, 2, 32), (5, 5, 64)])
    @pytest.mark.parametrize("reset", [True, False])
    @pytest.mark.parametrize("gamma", [None, 0.7])
    def test_outcomes_match_gate_path(self, shape, reset, gamma, monkeypatch):
        n_system, n_bath, shots = shape
        cfg = HrcsConfig(
            n_system=n_system, n_bath=n_bath, steps=3, reset_bath=reset,
            unitary_source="hea", hea_layers=8, master_seed=7,
        )
        noise = 1.0 if gamma is None else gamma  # None: noiseless

        def run(steps):
            rng = np.random.default_rng(5)
            batch = sample_trajectories(cfg, steps, shots, noise, rng)
            replayed = ideal_probabilities_batch(
                cfg, steps, batch.bath_outcomes, batch.final_outcomes
            )
            return batch, replayed, rng.random(4)

        for instance in range(3):
            steps = instantiate_circuit(cfg, instance)
            compiled, compiled_replay, compiled_next = run(steps)
            with monkeypatch.context() as patch:
                # at 5+5 replay multiplies by the compiled forced blocks and
                # calls _propagate only on the first step's one row: with no
                # forced blocks it replays through the gate kernel too
                patch.setattr(engine_mod, "_propagate", gate_kernel_propagate)
                patch.setattr(engine_mod, "FORCED_BLOCK_QUBITS", 64)
                gates, gate_replay, gate_next = run(steps)
            np.testing.assert_array_equal(compiled.bath_outcomes, gates.bath_outcomes)
            np.testing.assert_array_equal(compiled.final_outcomes, gates.final_outcomes)
            np.testing.assert_array_equal(compiled_next, gate_next)
            np.testing.assert_allclose(
                compiled.model_probabilities, gates.model_probabilities, rtol=1e-12, atol=0
            )
            np.testing.assert_allclose(compiled_replay, gate_replay, rtol=1e-12, atol=0)

    # the first step runs its gates on the one |0> row every shot shares
    @pytest.mark.parametrize("n_system, n_bath, reset, shots, rows", [
        (5, 5, True, 16, [1, 16, 16]),  # 32 columns outnumber 16 shots: gates
        (5, 5, True, 64, [1, 32, 32]),  # 32 columns compiled once per step
        (5, 5, False, 64, [1, 64, 64]),  # a kept bath reaches all 1024 columns
        # a kept bath runs the gates even where its 32 columns fit the rows
        (3, 2, False, 64, [1, 64, 64]),
    ])
    def test_kernel_chosen_by_columns_and_rows(
        self, n_system, n_bath, reset, shots, rows, monkeypatch
    ):
        # the rows each apply_hea_batch call runs show which form a step took
        seen = []

        def spy(amps, params):
            seen.append(amps.shape[0])
            return apply_hea_batch(amps, params)

        cfg = HrcsConfig(
            n_system=n_system, n_bath=n_bath, steps=3, reset_bath=reset,
            unitary_source="hea", hea_layers=1, master_seed=7,
        )
        steps = instantiate_circuit(cfg, 0)
        monkeypatch.setattr(engine_mod, "apply_hea_batch", spy)
        sample_trajectories(cfg, steps, shots, 1.0, np.random.default_rng(0))
        assert seen == rows


def full_product_replay(config, unitaries, bath, final):
    """Replay as one full product per step, each row's recorded block read
    from it: the rule below ``FORCED_BLOCK_QUBITS``."""
    rows = np.arange(len(final))
    picked = engine_mod._walk(config, unitaries, lambda k, blocks: (
        blocks[rows if k else 0, bath[:, k]], bath[:, k]))
    return np.abs(picked[rows, final]) ** 2


class TestForcedBlockReplay:
    """From 4 system qubits up replay multiplies each shot only by the block
    of the step that maps its bath block to its recorded outcome."""

    @staticmethod
    def noisy_paths(cfg, steps, shots):
        batch = sample_trajectories(cfg, steps, shots, 0.7, np.random.default_rng(3))
        return batch.bath_outcomes, batch.final_outcomes

    @pytest.mark.parametrize("n_system, n_bath, reset, source, shots", [
        (4, 3, True, "haar", 1000),
        (5, 5, True, "haar", 1000),
        (4, 3, False, "haar", 1000),  # the block of (z_k, z_k-1)
        (5, 5, True, "hea", 64),  # HEA steps compiled to their 32 columns
    ])
    def test_matches_the_full_product(self, n_system, n_bath, reset, source, shots):
        cfg = HrcsConfig(n_system=n_system, n_bath=n_bath, steps=3, reset_bath=reset,
                         unitary_source=source, hea_layers=4 if source == "hea" else None,
                         master_seed=2)
        steps = instantiate_circuit(cfg, 0)
        bath, final = self.noisy_paths(cfg, steps, shots)
        forced = ideal_probabilities_batch(cfg, steps, bath, final)
        full = full_product_replay(cfg, steps, bath, final)
        assert np.all(full > 0)
        np.testing.assert_allclose(forced, full, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("reset", [True, False])
    def test_identity_steps_give_exact_zeros(self, reset):
        # 64 paths at 4+1: only the all-zero one is possible
        cfg = HrcsConfig(n_system=4, n_bath=1, steps=2, reset_bath=reset)
        ideal = ideal_probabilities_batch(cfg, identity_steps(cfg), *all_paths(cfg))
        assert ideal[0] == 1.0 and np.all(ideal[1:] == 0.0)

    @pytest.mark.parametrize("reset", [True, False])
    def test_interleaved_groups_keep_row_order(self, reset):
        # shots of one block far apart and mixed with the others: row i is
        # still path i, as each path replayed alone gives it
        cfg = HrcsConfig(n_system=4, n_bath=2, steps=3, reset_bath=reset, master_seed=4)
        steps = instantiate_circuit(cfg, 1)
        bath = np.array([[3, 0, 2], [0, 1, 2], [3, 3, 0], [1, 0, 2], [0, 1, 2], [3, 0, 1],
                         [2, 2, 2], [0, 0, 0], [3, 0, 2]])
        final = np.array([5, 0, 15, 7, 9, 5, 1, 2, 5])
        batch = ideal_probabilities_batch(cfg, steps, bath, final)
        alone = [ideal_probabilities_batch(cfg, steps, bath[i:i + 1], final[i:i + 1])[0]
                 for i in range(len(final))]
        np.testing.assert_allclose(batch, alone, rtol=1e-12, atol=0)
        np.testing.assert_allclose(batch, full_product_replay(cfg, steps, bath, final),
                                   rtol=1e-12, atol=0)
        assert batch[0] == batch[8]  # the same path twice

    @pytest.mark.parametrize("bath_dtype", [np.uint8, np.int64])
    def test_narrow_outcome_dtype(self, bath_dtype):
        # a uint8 outcome times d_B would wrap past 255 in the group key
        cfg = HrcsConfig(n_system=4, n_bath=5, steps=2, reset_bath=False, master_seed=4)
        steps = instantiate_circuit(cfg, 0)
        bath, final = self.noisy_paths(cfg, steps, 300)
        np.testing.assert_array_equal(
            ideal_probabilities_batch(cfg, steps, bath.astype(bath_dtype), final),
            ideal_probabilities_batch(cfg, steps, bath, final),
        )

    def test_zero_shots_give_an_empty_result(self):
        cfg = HrcsConfig(n_system=4, n_bath=3, steps=3)
        replay = ideal_probabilities_batch(cfg, instantiate_circuit(cfg, 0),
                                           np.zeros((0, 3), dtype=np.int64),
                                           np.zeros(0, dtype=np.int64))
        assert replay.shape == (0,)

    @pytest.mark.parametrize("n_system, n_bath", [(2, 2), (3, 3)])
    @pytest.mark.parametrize("reset", [True, False])
    def test_below_the_split_keeps_the_full_product_bits(self, n_system, n_bath, reset):
        cfg = HrcsConfig(n_system=n_system, n_bath=n_bath, steps=3, reset_bath=reset,
                         master_seed=6)
        steps = instantiate_circuit(cfg, 0)
        bath, final = self.noisy_paths(cfg, steps, 500)
        np.testing.assert_array_equal(ideal_probabilities_batch(cfg, steps, bath, final),
                                      full_product_replay(cfg, steps, bath, final))

    @pytest.mark.parametrize("n_system, source, reset, rows", [
        (3, "haar", True, [1, 40, 40]),  # below the split: full products
        (4, "haar", True, [1]),  # forced blocks after the one-row first step
        (4, "haar", False, [1]),
        (5, "hea", True, [1]),  # 32 compiled columns for 40 rows
        (5, "hea", False, [1, 40, 40]),  # a kept bath runs the gates
    ])
    def test_split_by_system_qubits(self, n_system, source, reset, rows, monkeypatch):
        seen = []

        def spy(picked, bath, step, d_bath, propagate=engine_mod._propagate):
            seen.append(len(picked))
            return propagate(picked, bath, step, d_bath)

        cfg = HrcsConfig(n_system=n_system, n_bath=1, steps=3, reset_bath=reset,
                         unitary_source=source, hea_layers=2 if source == "hea" else None)
        steps = instantiate_circuit(cfg, 0)
        bath, final = self.noisy_paths(cfg, steps, 40)
        monkeypatch.setattr(engine_mod, "_propagate", spy)
        ideal_probabilities_batch(cfg, steps, bath, final)
        assert seen == rows


class TestOneRowStart:
    """Every shot starts from the same |0> row, so the walk runs the first
    step on that one row and fans it out at the first bath measurement."""

    @pytest.mark.parametrize("source, reset, rows", [
        ("haar", True, 40),  # a 2^n x 2^n_A isometry
        ("haar", False, 40),  # a full unitary
        ("hea", True, 40),  # 8 columns compiled for 40 rows
        ("hea", True, 5),  # 8 columns outnumber 5 rows: gates
    ])
    def test_identical_rows_match_the_one_row_bitwise(self, source, reset, rows):
        cfg = HrcsConfig(
            n_system=3, n_bath=2, steps=1, reset_bath=reset, unitary_source=source,
            hea_layers=8 if source == "hea" else None, master_seed=5,
        )
        (step,) = instantiate_circuit(cfg, 0)
        zeros = np.zeros((rows, 1 << cfg.n_system), dtype=complex)
        zeros[:, 0] = 1.0
        one = engine_mod._propagate(zeros[:1], None, step, 1 << cfg.n_bath)
        assert one.shape == (1, 1 << cfg.n_qubits)
        np.testing.assert_array_equal(
            engine_mod._propagate(zeros, None, step, 1 << cfg.n_bath),
            np.broadcast_to(one, (rows, one.shape[1])),
        )

    @pytest.mark.parametrize("mode", ["sample", "noisy_sample", "replay", "enumerate"])
    @pytest.mark.parametrize("reset", [True, False])
    @pytest.mark.parametrize("source", ["haar", "hea"])
    def test_first_step_sees_one_row(self, mode, reset, source, monkeypatch):
        seen = []

        def spy(picked, bath, step, d_bath, propagate=engine_mod._propagate):
            seen.append(len(picked))
            return propagate(picked, bath, step, d_bath)

        cfg = HrcsConfig(
            n_system=2, n_bath=1, steps=3, reset_bath=reset, unitary_source=source,
            hea_layers=2 if source == "hea" else None, master_seed=5,
        )
        steps = instantiate_circuit(cfg, 0)
        shots = 6
        run = {
            "sample": lambda: sample_trajectories(
                cfg, steps, shots, 1.0, np.random.default_rng(0)
            ),
            "noisy_sample": lambda: sample_trajectories(
                cfg, steps, shots, 0.7, np.random.default_rng(0)
            ),
            "replay": lambda: ideal_probabilities_batch(
                cfg, steps, np.ones((shots, cfg.steps), dtype=np.int64),
                np.arange(shots) % (1 << cfg.n_system),
            ),
            "enumerate": lambda: enumerate_joint_distribution(cfg, steps),
        }[mode]
        monkeypatch.setattr(engine_mod, "_propagate", spy)
        run()
        # enumeration fans out to d_B = 2 branches per row, the others to the shots
        assert seen == ([1, 2, 4] if mode == "enumerate" else [1, shots, shots])


def _weights_in_defined_order(blocks):
    """(d_B, rows) weights of a (rows, d_B, d_A) register, one system index
    at a time: squared real parts summed in order, plus squared imaginary
    parts summed in order."""
    rows, d_bath, d_sys = blocks.shape
    real, imag = np.zeros((d_bath, rows)), np.zeros((d_bath, rows))
    for a in range(d_sys):
        real += blocks[:, :, a].real.T ** 2
        imag += blocks[:, :, a].imag.T ** 2
    return real + imag


class TestStepLayout:
    """A step's product is read where its kernel wrote it, and the sampler's
    bath weights are sums in one defined order all the same."""

    def _second_step(self, cfg, monkeypatch, shots=1000):
        """The second step's product and the bath weights drawn from it."""
        products, bath_probs = [], []

        def spy_propagate(picked, bath, step, d_bath, propagate=engine_mod._propagate):
            products.append(propagate(picked, bath, step, d_bath))
            return products[-1]

        def spy_draw(probs, rng, branch, draw=engine_mod._draw):
            if branch == "bath":
                bath_probs.append(probs.copy())
            return draw(probs, rng, branch)

        monkeypatch.setattr(engine_mod, "_propagate", spy_propagate)
        monkeypatch.setattr(engine_mod, "_draw", spy_draw)
        sample_trajectories(cfg, instantiate_circuit(cfg, 0), shots, 1.0,
                            np.random.default_rng(0))
        blocks = products[1].reshape(shots, 1 << cfg.n_bath, 1 << cfg.n_system)
        return products[1], blocks, bath_probs[1]

    @pytest.mark.parametrize("n_sys, n_bath", [(1, 2), (2, 2), (3, 2), (4, 2), (5, 5), (8, 2)])
    def test_dense_bath_weights_are_sums_in_the_defined_order(self, n_sys, n_bath, monkeypatch):
        # the dense product lies where BLAS wrote it, rows last; d_A = 2 to 256
        cfg = HrcsConfig(n_system=n_sys, n_bath=n_bath, steps=2, master_seed=1)
        product, blocks, probs = self._second_step(cfg, monkeypatch)
        assert not product.flags.c_contiguous
        np.testing.assert_array_equal(probs, _weights_in_defined_order(blocks))

    def test_gate_kernel_bath_weights_are_sums_in_the_defined_order(self, monkeypatch):
        # a kept bath runs the HEA layers on the register, in C order
        cfg = HrcsConfig(n_system=3, n_bath=2, steps=2, reset_bath=False,
                         unitary_source="hea", hea_layers=2, master_seed=1)
        product, blocks, probs = self._second_step(cfg, monkeypatch)
        assert product.flags.c_contiguous
        np.testing.assert_array_equal(probs, _weights_in_defined_order(blocks))

    @pytest.mark.parametrize("n_sys, n_bath", [(2, 2), (5, 5)])
    def test_a_row_alone_weighs_as_in_its_batch(self, n_sys, n_bath, monkeypatch):
        cfg = HrcsConfig(n_system=n_sys, n_bath=n_bath, steps=2, master_seed=1)
        _, blocks, probs = self._second_step(cfg, monkeypatch)
        for i in (0, 517, 999):
            for row in (blocks[i:i + 1], np.ascontiguousarray(blocks[i:i + 1])):
                np.testing.assert_array_equal(engine_mod._weights(row), probs[:, i:i + 1])

    @pytest.mark.parametrize("n", [*range(1, 301), 512, 1024, 4096])
    def test_weights_sum_in_the_defined_order(self, n):
        # every system dimension d_A = n, on a C-order register, on one stored
        # rows-last as BLAS writes a product, and on one row alone: a numpy
        # whose einsum sums in another order fails here rather than moving records
        rng = np.random.default_rng(n)
        blocks = rng.standard_normal((3, 5, n)) + 1j * rng.standard_normal((3, 5, n))
        rows_last = np.asfortranarray(blocks.reshape(3, 5 * n)).reshape(3, 5, n)
        assert not rows_last.flags.c_contiguous
        expected = _weights_in_defined_order(blocks)
        for register in (blocks, rows_last):
            np.testing.assert_array_equal(engine_mod._weights(register), expected)
        np.testing.assert_array_equal(engine_mod._weights(rows_last[1:2]), expected[:, 1:2])


class TestStepCount:
    MODES = {
        "sample": lambda cfg, steps: sample_trajectories(
            cfg, steps, 4, 1.0, np.random.default_rng(0)
        ),
        "replay": lambda cfg, steps: ideal_probabilities_batch(
            cfg,
            steps,
            np.zeros((1, cfg.steps), dtype=np.int64),
            np.zeros(1, dtype=np.int64),
        ),
        "enumerate": enumerate_joint_distribution,
        "noisy_oracle": lambda cfg, steps: enumerate_noisy_joint_distribution(
            cfg, steps, 0.9
        ),
    }

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("count", [2, 4])
    def test_wrong_length_step_list_refused(self, mode, count):
        cfg = small_config(steps=3)
        steps = instantiate_circuit(dataclasses.replace(cfg, steps=count), 0)
        with pytest.raises(ConfigurationError):
            self.MODES[mode](cfg, steps)


    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_short_step_refused_without_reset(self, mode, monkeypatch):
        # a reset circuit's isometries lack the columns a kept bath reaches
        def no_work(*args):
            raise AssertionError("a step ran")

        cfg = small_config(steps=3)
        steps = instantiate_circuit(cfg, 0)
        monkeypatch.setattr(engine_mod, "_propagate", no_work)
        monkeypatch.setattr(engine_mod, "step_matrix", no_work)
        with pytest.raises(ConfigurationError, match="no-reset"):
            self.MODES[mode](dataclasses.replace(cfg, reset_bath=False), steps)

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("step", [
        np.zeros((4, 8), dtype=complex),  # more columns than rows
        np.zeros((8, 2), dtype=complex),  # a step of a 3-qubit register
        np.zeros(4, dtype=complex),
        np.eye(4, 2).tolist(),  # not an array
    ], ids=["4x8", "8x2", "1d", "list"])
    def test_malformed_dense_step_refused(self, mode, step, monkeypatch):
        # a dense step is a plain 2^n x c array with 2^n_A <= c <= 2^n under
        # a reset; anything else is refused before any step runs
        def no_work(*args):
            raise AssertionError("a step ran")

        cfg = HrcsConfig(n_system=1, n_bath=1, steps=1)
        monkeypatch.setattr(engine_mod, "_propagate", no_work)
        monkeypatch.setattr(engine_mod, "step_matrix", no_work)
        with pytest.raises(ConfigurationError, match="is not the 4 x c array, 2 <= c <= 4"):
            self.MODES[mode](cfg, [step])

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("n_qubits", [2, 4])
    def test_hea_step_on_wrong_register_refused(self, mode, n_qubits, monkeypatch):
        # an HEA step drawn for another register size is refused before any
        # step runs, not applied to the low qubits or failed mid-walk
        def no_work(*args):
            raise AssertionError("a step ran")

        cfg = HrcsConfig(n_system=2, n_bath=1, steps=2, unitary_source="hea", hea_layers=2)
        steps = [sample_hea_params(n_qubits, 2, np.random.default_rng(k)) for k in range(2)]
        monkeypatch.setattr(engine_mod, "_propagate", no_work)
        monkeypatch.setattr(engine_mod, "step_matrix", no_work)
        with pytest.raises(ConfigurationError, match="HEA step on"):
            self.MODES[mode](cfg, steps)


class TestConfigValidation:
    def test_gamma_range(self, monkeypatch):
        # both noisy entry points refuse a strength outside [0, 1], nan
        # included, before any step runs
        def no_work(*args):
            raise AssertionError("a step ran")

        cfg = small_config(steps=3)
        steps = instantiate_circuit(cfg, 0)
        monkeypatch.setattr(engine_mod, "_propagate", no_work)
        monkeypatch.setattr(engine_mod, "step_matrix", no_work)
        for gamma in (1.5, -0.1, float("nan")):
            with pytest.raises(ConfigurationError, match="gamma must lie in"):
                sample_trajectories(cfg, steps, 4, gamma, np.random.default_rng(0))
            with pytest.raises(ConfigurationError, match="gamma must lie in"):
                enumerate_noisy_joint_distribution(cfg, steps, gamma)

    @pytest.mark.parametrize("gamma", ["0.5", None, True, np.bool_(True)])
    def test_non_number_gamma_refused(self, gamma, monkeypatch):
        # "0.5" and None raised a TypeError mid-step, and True ran as 1
        def no_work(*args):
            raise AssertionError("a step ran")

        cfg = small_config(steps=3)
        steps = instantiate_circuit(cfg, 0)
        monkeypatch.setattr(engine_mod, "_propagate", no_work)
        with pytest.raises(ConfigurationError, match="gamma must be a number"):
            sample_trajectories(cfg, steps, 4, gamma, np.random.default_rng(0))

    @pytest.mark.parametrize("gamma, real", [(np.float32(0.5), 0.5), (np.int64(1), 1.0)])
    def test_numpy_gamma_samples_as_its_float(self, gamma, real):
        cfg = small_config(steps=3)
        steps = instantiate_circuit(cfg, 0)
        got, want = (sample_trajectories(cfg, steps, 50, g, np.random.default_rng(4))
                     for g in (gamma, real))
        for name in ("bath_outcomes", "final_outcomes", "model_probabilities"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    @pytest.mark.parametrize("shots", [-1, 2.5, True])
    def test_bad_shot_count_refused(self, shots, monkeypatch):
        # -1 raised numpy's ValueError and 2.5 a TypeError; True ran one shot
        def no_work(*args):
            raise AssertionError("a step ran")

        cfg = small_config(steps=3)
        steps = instantiate_circuit(cfg, 0)
        monkeypatch.setattr(engine_mod, "_propagate", no_work)
        with pytest.raises(ConfigurationError, match="n_shots must be"):
            sample_trajectories(cfg, steps, shots, 1.0, np.random.default_rng(0))

    def test_replace_keeps_validation(self):
        cfg = small_config()
        with pytest.raises(ConfigurationError):
            dataclasses.replace(cfg, steps=0)

    INTEGER_FIELDS = ("n_system", "n_bath", "steps", "hea_layers", "master_seed")

    @pytest.mark.parametrize("field", INTEGER_FIELDS)
    def test_numpy_integers_draw_the_python_int_circuit(self, field):
        # instance_seed hashes repr, and repr(np.int64(3)) is not repr(3)
        cfg = HrcsConfig(2, 1, 3, unitary_source="hea", hea_layers=2, master_seed=5)
        numpy_cfg = dataclasses.replace(cfg, **{field: np.int64(getattr(cfg, field))})
        assert type(getattr(numpy_cfg, field)) is int
        assert numpy_cfg == cfg
        assert instance_seed(numpy_cfg, 0) == instance_seed(cfg, 0)
        assert instance_seed(cfg, np.uint8(4)) == instance_seed(cfg, 4)

    @pytest.mark.parametrize("field", INTEGER_FIELDS)
    @pytest.mark.parametrize("value", [2.0, True, np.float64(2.0), np.bool_(True), "2"])
    def test_non_integer_fields_refused(self, field, value):
        # 2.0 failed with a TypeError inside instantiate_circuit, and True
        # ran as a 1-qubit register
        cfg = HrcsConfig(2, 1, 3, unitary_source="hea", hea_layers=2, master_seed=5)
        with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
            dataclasses.replace(cfg, **{field: value})

    @pytest.mark.parametrize("index", [0.0, True, "0"])
    def test_non_integer_instance_index_refused(self, index):
        with pytest.raises(ConfigurationError, match="instance index must be an integer"):
            instance_seed(small_config(), index)

    @pytest.mark.parametrize("value", ["false", 0, 1, None, np.int64(0)])
    def test_non_bool_reset_bath_refused(self, value):
        # "false" is truthy and drew (8, 4) reset isometries; 0 drew full unitaries
        with pytest.raises(ConfigurationError, match="reset_bath must be a bool"):
            HrcsConfig(2, 1, 2, reset_bath=value)

    @pytest.mark.parametrize("value", [True, False])
    def test_numpy_bool_reset_bath_draws_the_bool_circuit(self, value):
        cfg = HrcsConfig(2, 1, 2, reset_bath=value, master_seed=5)
        numpy_cfg = HrcsConfig(2, 1, 2, reset_bath=np.bool_(value), master_seed=5)
        assert type(numpy_cfg.reset_bath) is bool and numpy_cfg == cfg
        for step, numpy_step in zip(instantiate_circuit(cfg, 0), instantiate_circuit(numpy_cfg, 0)):
            assert step.shape == numpy_step.shape == (8, 4 if value else 8)
            np.testing.assert_array_equal(numpy_step, step)
