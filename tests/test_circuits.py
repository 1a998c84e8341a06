"""Ansatz tests: parameter sampling, brickwork layout, the half-register
batch kernel against an independent dense oracle, and convergence of the layered circuit
toward Haar statistics."""

import math

import numpy as np
import pytest

from hrcslab import ConfigurationError, HeaParams, hea_gate_count, sample_hea_params
from hrcslab.circuits import TWO_TURNS, _brickwork_permutation, apply_hea_batch, brickwork_pairs
from hrcslab.theory import haar_power_sum

from conftest import (
    cnot_permutation,
    dense_hea_oracle,
    random_state,
    rx_matrix,
    rz_matrix,
    zero_batch,
)


def compiled(params: HeaParams) -> np.ndarray:
    """Dense matrix of ``params`` through the batch kernel: row b of the output
    batch is the image of |b>, so the matrix is its transpose."""
    return apply_hea_batch(np.eye(1 << params.n_qubits, dtype=complex), params).T


def angle_count(params: HeaParams) -> int:
    """Free angles of an ansatz: one theta and one phi per qubit and layer."""
    return 2 * params.layers * params.n_qubits


def zero_angles(n: int, layers: int) -> HeaParams:
    return HeaParams(np.zeros((layers, n)), np.zeros((layers, n)))


class TestParamSampling:
    def test_parameter_count_joint_register_8_layers(self, rng):
        # the 10-qubit joint circuit (5 system + 5 bath) at 8 layers carries
        # 80 + 80 = 160 free angles; a lone 5-qubit register carries 80
        params = sample_hea_params(10, 8, rng)
        assert params.thetas.size == 80 and params.phis.size == 80
        assert angle_count(params) == 160
        assert angle_count(sample_hea_params(5, 8, rng)) == 80

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
    """The ansatz as its angles lay it out."""

    def test_minimal_circuit_structure(self, rng):
        # one layer on two qubits: RX then RZ on each qubit, then CNOT(0 -> 1),
        # written out by hand (qubit 1 is the left Kronecker factor)
        params = sample_hea_params(2, 1, rng)
        (t0, t1), (p0, p1) = params.thetas[0], params.phis[0]
        rotations = np.kron(rz_matrix(p1) @ rx_matrix(t1), rz_matrix(p0) @ rx_matrix(t0))
        expected = cnot_permutation(0, 1, 2) @ rotations
        np.testing.assert_allclose(compiled(params), expected, rtol=0, atol=1e-12)

    def test_gate_count_accounting(self, rng):
        # L * (2N + N-1); the 10-qubit 8-layer step circuit lands on 232,
        # matching 72 two-qubit gates per step seen in transpiled runs
        assert hea_gate_count(2, 1) == 5
        assert hea_gate_count(5, 8) == 112
        assert hea_gate_count(10, 8) == 232
        params = sample_hea_params(5, 8, rng)
        assert angle_count(params) + params.layers * len(brickwork_pairs(5)) == 112

    def test_zero_angles_reduce_to_entangler_power(self):
        layers = 3
        w = np.eye(8)
        for control, target in brickwork_pairs(3):
            w = cnot_permutation(control, target, 3) @ w
        np.testing.assert_allclose(
            compiled(zero_angles(3, layers)), np.linalg.matrix_power(w, layers), atol=1e-12
        )

    @pytest.mark.parametrize("bad", [np.nan, -0.1, TWO_TURNS])
    @pytest.mark.parametrize("which", ["thetas", "phis"])
    def test_angle_outside_range_raises(self, which, bad):
        angles = {"thetas": np.zeros((1, 2)), "phis": np.zeros((1, 2))}
        angles[which][0, 1] = bad
        with pytest.raises(ConfigurationError, match="outside"):
            HeaParams(**angles)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            HeaParams(np.zeros((2, 3)), np.zeros((2, 4)))


class TestDenseCompilation:
    def test_empty_sequence_is_identity(self):
        # an ansatz of zero layers
        np.testing.assert_array_equal(compiled(zero_angles(3, 0)), np.eye(8))

    def test_cnot_permutation_matrix(self):
        # at zero angles one layer on two qubits is the lone CNOT; control is
        # qubit 0 (the low bit): |q1 q0> flips q1 when q0 = 1
        u = compiled(zero_angles(2, 1))
        expected = np.zeros((4, 4))
        for i in range(4):
            j = i ^ 0b10 if i & 1 else i
            expected[j, i] = 1
        np.testing.assert_array_equal(u, expected)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_gate_by_gate_matches_dense(self, n, rng):
        params = sample_hea_params(n, 2, rng)
        state = random_state(n, seed=41 + n)
        stepped = apply_hea_batch(state[None, :], params)[0]
        np.testing.assert_allclose(stepped, dense_hea_oracle(params) @ state, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_random_gates_match_oracle(self, n, rng):
        # random angles at 1 to 3 layers, a batch of random states
        states = np.stack([random_state(n, seed=100 * n + r) for r in range(5)])
        for layers in (1, 2, 3):
            params = sample_hea_params(n, layers, rng)
            out = apply_hea_batch(states, params)
            expected = states @ dense_hea_oracle(params).T
            np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12, err_msg=str(layers))

    def test_single_gates_match_oracle(self):
        # one nonzero angle per single-layer ansatz: each rotation lands on
        # its own qubit, the thetas as RX and the phis as RZ
        n = 4
        states = np.stack([random_state(n, seed=7 + r) for r in range(3)])
        for which in ("thetas", "phis"):
            for q in range(n):
                angles = {"thetas": np.zeros((1, n)), "phis": np.zeros((1, n))}
                angles[which][0, q] = 0.7 + q
                params = HeaParams(**angles)
                np.testing.assert_allclose(
                    apply_hea_batch(states, params),
                    states @ dense_hea_oracle(params).T,
                    rtol=0,
                    atol=1e-12,
                    err_msg=f"{which}[{q}]",
                )

    def test_applying_to_zero_state_matches_first_column(self, rng):
        params = sample_hea_params(3, 2, rng)
        out = apply_hea_batch(zero_batch(3), params)[0]
        np.testing.assert_allclose(out, dense_hea_oracle(params)[:, 0], rtol=0, atol=1e-12)

    def test_input_batch_left_unchanged(self, rng):
        params = sample_hea_params(3, 1, rng)
        states = np.stack([random_state(3, seed=r) for r in range(2)])
        before = states.copy()
        apply_hea_batch(states, params)
        np.testing.assert_array_equal(states, before)


def random_batch(n: int, rows: int, seed: int) -> np.ndarray:
    gen = np.random.default_rng(seed)
    states = gen.standard_normal((rows, 1 << n)) + 1j * gen.standard_normal((rows, 1 << n))
    return states / np.linalg.norm(states, axis=1, keepdims=True)


class TestHalfRegisterKernel:
    """A layer's rotations as a low-half product from the right and a
    high-half product from the left, at every split and batch size."""

    @pytest.mark.parametrize("n", [7, 8, 9, 10])
    def test_matches_oracle_beyond_six_qubits(self, n, rng):
        params = sample_hea_params(n, 2, rng)
        states = random_batch(n, 4, seed=n)
        expected = dense_hea_oracle(params, states.T).T
        np.testing.assert_allclose(apply_hea_batch(states, params), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 9])
    def test_unequal_halves_compile_to_oracle(self, n, rng):
        # n = 2 splits 1 + 1; odd n puts one qubit more in the high half
        params = sample_hea_params(n, 2, rng)
        np.testing.assert_allclose(compiled(params), dense_hea_oracle(params), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rows", [1, 16, 1000])
    def test_batch_sizes(self, rows, rng):
        # one row, the 2^n_A rows a reset step compiles at 4 + 3, and a
        # kept-bath batch of shots
        params = sample_hea_params(7, 3, rng)
        states = random_batch(7, rows, seed=rows)
        expected = states @ dense_hea_oracle(params).T
        np.testing.assert_allclose(apply_hea_batch(states, params), expected, rtol=0, atol=1e-12)

    def test_zero_angle_layer_is_the_bare_gather(self):
        states = random_batch(10, 3, seed=10)
        out = apply_hea_batch(states, zero_angles(10, 1))
        np.testing.assert_array_equal(out, states[:, _brickwork_permutation(10)])

    def test_kept_bath_batch_left_unchanged(self, rng):
        # more rows than the 32 columns of a reset 5 + 5 step, as the
        # register _keep_branch rebuilds for a kept bath
        states = random_batch(10, 100, seed=3)
        before = states.copy()
        out = apply_hea_batch(states, sample_hea_params(10, 2, rng))
        np.testing.assert_array_equal(states, before)
        assert not np.shares_memory(out, states)


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
                amps = apply_hea_batch(zero_batch(n), sample_hea_params(n, layers, gen))[0]
                vals.append(float(np.sum(np.abs(amps) ** 4)))
            arr = np.asarray(vals)
            means.append(arr.mean())
            ses.append(arr.std(ddof=1) / math.sqrt(instances))
        for i in range(len(means) - 1):
            assert means[i + 1] <= means[i] + 2 * (ses[i] + ses[i + 1])
        assert abs(means[-1] / target - 1) < 0.10
