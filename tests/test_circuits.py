"""Ansatz construction tests: parameter sampling, brickwork layout, the
gate-by-gate batch kernel against an independent dense oracle, and
convergence of the layered circuit toward Haar statistics."""

import math

import numpy as np
import pytest

from hrcslab import ConfigurationError, GateSequence, build_hea, hea_gate_count, sample_hea_params
from hrcslab.circuits import Gate, TWO_TURNS, apply_gate_sequence_batch, brickwork_pairs
from hrcslab.theory import haar_power_sum

from conftest import dense_gate_oracle, random_state, zero_batch


def compiled(seq: GateSequence, n: int) -> np.ndarray:
    """Dense matrix of ``seq`` through the batch kernel: row b of the output
    batch is the image of |b>, so the matrix is its transpose."""
    return apply_gate_sequence_batch(np.eye(1 << n, dtype=complex), seq, n).T


def random_sequence(n: int, count: int, rng) -> GateSequence:
    """Rotations on random qubits and CNOTs on random ordered pairs, adjacent
    or not, in both directions."""
    gates = []
    for _ in range(count):
        kind = rng.choice(["rx", "rz", "cnot"])
        if kind == "cnot":
            pair = rng.choice(n, size=2, replace=False)
            gates.append(Gate("cnot", (int(pair[0]), int(pair[1]))))
        else:
            gates.append(Gate(kind, (int(rng.integers(n)),), float(rng.uniform(0, TWO_TURNS))))
    return GateSequence(tuple(gates), n)


class TestParamSampling:
    def test_parameter_count_joint_register_8_layers(self, rng):
        # the 10-qubit joint circuit (5 system + 5 bath) at 8 layers carries
        # 80 + 80 = 160 free angles; a lone 5-qubit register carries 80
        params = sample_hea_params(10, 8, rng)
        assert params.thetas.size == 80 and params.phis.size == 80
        assert params.count == 160
        assert sample_hea_params(5, 8, rng).count == 80

    def test_angles_in_range(self, rng):
        params = sample_hea_params(4, 6, rng)
        for arr in (params.thetas, params.phis):
            assert np.all(arr >= 0) and np.all(arr < TWO_TURNS)

    def test_fixed_seed_reproduces(self):
        a = sample_hea_params(3, 2, np.random.default_rng(5))
        b = sample_hea_params(3, 2, np.random.default_rng(5))
        np.testing.assert_array_equal(a.thetas, b.thetas)
        np.testing.assert_array_equal(a.phis, b.phis)

    def test_rejects_tiny_register(self, rng):
        with pytest.raises(ConfigurationError):
            sample_hea_params(1, 2, rng)


class TestBrickwork:
    def test_two_qubits_single_pair(self):
        assert brickwork_pairs(2) == [(0, 1)]

    def test_five_qubits(self):
        assert brickwork_pairs(5) == [(0, 1), (2, 3), (1, 2), (3, 4)]

    def test_pair_count_is_n_minus_one(self):
        for n in range(2, 12):
            assert len(brickwork_pairs(n)) == n - 1


class TestBuildHea:
    def test_minimal_circuit_structure(self, rng):
        seq = build_hea(2, sample_hea_params(2, 1, rng))
        kinds = [g.kind for g in seq.gates]
        assert kinds == ["rx", "rx", "rz", "rz", "cnot"]

    def test_gate_count_accounting(self, rng):
        # L * (2N + N-1); the 10-qubit 8-layer step circuit lands on 232,
        # matching 72 two-qubit gates per step seen in transpiled runs
        assert hea_gate_count(2, 1) == 5
        assert hea_gate_count(5, 8) == 112
        assert hea_gate_count(10, 8) == 232
        assert len(build_hea(5, sample_hea_params(5, 8, rng))) == 112

    def test_zero_angles_reduce_to_entangler_power(self):
        layers = 3
        params_zero = sample_hea_params(3, layers, np.random.default_rng(0))
        params_zero = type(params_zero)(layers, np.zeros((layers, 3)), np.zeros((layers, 3)))
        u = compiled(build_hea(3, params_zero), 3)
        w_gates = tuple(Gate("cnot", pair) for pair in brickwork_pairs(3))
        w = compiled(GateSequence(w_gates, 3), 3)
        np.testing.assert_allclose(u, np.linalg.matrix_power(w, layers), atol=1e-12)

    def test_shape_mismatch_raises(self, rng):
        params = sample_hea_params(3, 2, rng)
        with pytest.raises(ConfigurationError):
            build_hea(4, params)


class TestDenseCompilation:
    def test_empty_sequence_is_identity(self):
        np.testing.assert_array_equal(compiled(GateSequence((), 3), 3), np.eye(8))

    def test_cnot_permutation_matrix(self):
        u = compiled(GateSequence((Gate("cnot", (0, 1)),), 2), 2)
        # control is qubit 0 (the low bit): |q1 q0> flips q1 when q0 = 1
        expected = np.zeros((4, 4))
        for i in range(4):
            j = i ^ 0b10 if i & 1 else i
            expected[j, i] = 1
        np.testing.assert_array_equal(u, expected)

    def test_cnot_reversed_control(self):
        u = compiled(GateSequence((Gate("cnot", (1, 0)),), 2), 2)
        expected = np.zeros((4, 4))
        for i in range(4):
            j = i ^ 0b01 if i & 2 else i
            expected[j, i] = 1
        np.testing.assert_array_equal(u, expected)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_gate_by_gate_matches_dense(self, n, rng):
        seq = build_hea(n, sample_hea_params(n, 2, rng))
        u = dense_gate_oracle(seq, n)
        state = random_state(n, seed=41 + n)
        stepped = apply_gate_sequence_batch(state[None, :], seq, n)[0]
        np.testing.assert_allclose(stepped, u @ state, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_random_gates_match_oracle(self, n, rng):
        # every (control, target) ordered pair, so both CNOT directions and,
        # from n = 3 on, non-adjacent pairs
        cnots = [Gate("cnot", (c, t)) for c in range(n) for t in range(n) if c != t]
        seq = GateSequence(tuple(cnots) + random_sequence(n, 40, rng).gates, n)
        states = np.stack([random_state(n, seed=100 * n + r) for r in range(5)])
        out = apply_gate_sequence_batch(states, seq, n)
        np.testing.assert_allclose(out, states @ dense_gate_oracle(seq, n).T, rtol=0, atol=1e-12)

    def test_single_gates_match_oracle(self):
        n = 4
        states = np.stack([random_state(n, seed=7 + r) for r in range(3)])
        gates = [Gate(kind, (q,), 0.7 + q) for kind in ("rx", "rz") for q in range(n)]
        gates += [Gate("cnot", (c, t)) for c in range(n) for t in range(n) if c != t]
        for gate in gates:
            seq = GateSequence((gate,), n)
            np.testing.assert_allclose(
                apply_gate_sequence_batch(states, seq, n),
                states @ dense_gate_oracle(seq, n).T,
                rtol=0,
                atol=1e-12,
                err_msg=str(gate),
            )

    def test_applying_to_zero_state_matches_first_column(self, rng):
        seq = build_hea(3, sample_hea_params(3, 2, rng))
        out = apply_gate_sequence_batch(zero_batch(3), seq, 3)[0]
        np.testing.assert_allclose(out, dense_gate_oracle(seq, 3)[:, 0], rtol=0, atol=1e-12)

    def test_input_batch_left_unchanged(self, rng):
        seq = build_hea(3, sample_hea_params(3, 1, rng))
        states = np.stack([random_state(3, seed=r) for r in range(2)])
        before = states.copy()
        apply_gate_sequence_batch(states, seq, 3)
        np.testing.assert_array_equal(states, before)


class TestHaarConvergence:
    def test_collision_probability_decays_toward_haar(self):
        # n = 4: ensemble CP of the ansatz state decreases with depth and
        # sits within 10% of the Haar value 2/(2^4+1) by 8 layers
        n = 4
        target = haar_power_sum(n, 2)
        instances = 150
        means, ses = [], []
        for layers in (1, 2, 4, 8):
            vals = []
            for b in range(instances):
                gen = np.random.default_rng(1_000_000 + 977 * layers + b)
                seq = build_hea(n, sample_hea_params(n, layers, gen))
                amps = apply_gate_sequence_batch(zero_batch(n), seq, n)[0]
                vals.append(float(np.sum(np.abs(amps) ** 4)))
            arr = np.asarray(vals)
            means.append(arr.mean())
            ses.append(arr.std(ddof=1) / math.sqrt(instances))
        for i in range(len(means) - 1):
            assert means[i + 1] <= means[i] + 2 * (ses[i] + ses[i + 1])
        assert abs(means[-1] / target - 1) < 0.10
