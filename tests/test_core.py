"""Amplitude-batch tests: the step kernel on (rows, 2^n) batches, Born
probabilities, bath collapse and reset, Pauli strings, and the Haar
sampler's moment checks, and the BLAS thread pin."""

import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hrcslab
from hrcslab import (
    ConfigurationError,
    DegenerateBranchError,
    HrcsConfig,
    enumerate_joint_distribution,
    marginalize,
    sample_haar_state,
    sample_haar_unitary,
    sample_trajectories,
)
from hrcslab import core
from hrcslab.circuits import HeaParams
from hrcslab.runner import ExperimentSpec, run_experiment
from hrcslab.engine import _keep_branch, _propagate, _random_paulis, ideal_probabilities_batch

from conftest import (
    CONFIGS,
    apply_strings,
    cnot_permutation,
    compare_records,
    haar_on,
    joint_indices,
    pauli_string_matrix,
    random_state,
    rx_matrix,
    rz_matrix,
    tensordot_step,
    unitarity_defect,
    y_factor,
    zero_batch,
)

BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def preparing(psi: np.ndarray) -> np.ndarray:
    """A unitary whose first column is ``psi``: one step of it from |0...0>
    hands ``psi`` to the engine's bath and system measurements."""
    basis = np.eye(psi.size, dtype=complex)
    basis[:, 0] = psi
    q, r = np.linalg.qr(basis)
    q[:, 0] *= r[0, 0]  # |r_00| = 1, and q[:, 0] * r_00 = psi
    return q


def one_step(psi: np.ndarray, n_system: int):
    """Config and step list of a single step preparing ``psi``; the bath is
    the register's high qubits."""
    n = psi.size.bit_length() - 1
    config = HrcsConfig(n_system=n_system, n_bath=n - n_system, steps=1)
    return config, [preparing(psi)]


def basis_state(n: int, index: int) -> np.ndarray:
    psi = np.zeros(1 << n, dtype=complex)
    psi[index] = 1.0
    return psi


class FixedCodes:
    """Stands in for the generator of ``_random_paulis`` at gamma = 0:
    every row is hit and draws the given Pauli code."""

    def __init__(self, codes):
        self.codes = np.asarray(codes)

    def random(self, size):
        return np.zeros(size)

    def integers(self, high, size):
        assert size == self.codes.size and np.all(self.codes < high)
        return self.codes


def apply_codes(amps, codes, targets):
    """Each row of ``amps`` after the string of its code on the qubit run
    ``targets``."""
    strings = _random_paulis(len(codes), len(targets), 0.0, FixedCodes(codes))
    return apply_strings(amps, strings, targets[0])


def hea(thetas, phis=None) -> HeaParams:
    """An HEA step with the given (L, N) angles; phis default to zero."""
    thetas = np.asarray(thetas, dtype=float)
    return HeaParams(thetas, np.zeros_like(thetas) if phis is None else phis)


def propagate(states: np.ndarray, step) -> np.ndarray:
    """The step kernel on full-register rows: a system that spans the
    register beside a one-block bath at 0."""
    return _propagate(states, None, step, 1)


class TestApplyUnitary:
    """The step kernel ``_propagate``: a dense step is one matrix product, an
    HEA step runs through ``apply_hea_batch``."""

    def test_identity_leaves_state_unchanged(self):
        states = np.stack([random_state(3, seed=5 + r) for r in range(4)])
        np.testing.assert_array_equal(propagate(states, np.eye(8, dtype=complex)), states)
        # two zero-angle layers on two qubits are CNOT(0 -> 1) squared
        states = np.stack([random_state(2, seed=5 + r) for r in range(4)])
        np.testing.assert_array_equal(propagate(states, hea(np.zeros((2, 2)))), states)

    def test_x_on_qubit0_maps_00_to_01(self):
        # RX(pi) is X up to the global phase -i; the first layer's CNOT then
        # flips qubit 1 and the second layer's flips it back
        out = propagate(zero_batch(2), hea([[np.pi, 0], [0, 0]]))
        np.testing.assert_allclose(out, [[0, -1j, 0, 0]], atol=1e-15)

    def test_x_on_qubit1_maps_00_to_10(self):
        # the CNOTs' control, qubit 0, stays at 0
        out = propagate(zero_batch(2), hea([[0, np.pi], [0, 0]]))
        np.testing.assert_allclose(out, [[0, 0, -1j, 0]], atol=1e-15)

    def test_full_register_unitary_extracts_first_column(self):
        u = haar_on(3, seed=11)
        out = propagate(zero_batch(3, rows=2), u)
        np.testing.assert_array_equal(out, [u[:, 0]] * 2)

    def test_partial_application_matches_kron_oracle(self):
        # one layer on 3 qubits with an RX on the middle qubit and an RZ on
        # the top one, then CNOT(0 -> 1) and CNOT(1 -> 2), against the dense
        # operators built by hand (qubit 2 is the left Kronecker factor)
        states = np.stack([random_state(3, seed=8 + r) for r in range(3)])
        step = hea([[0, 0.9, 0]], [[0, 0, 0.4]])
        rotations = np.kron(np.kron(rz_matrix(0.4), rx_matrix(0.9)), np.eye(2))
        layer = cnot_permutation(1, 2, 3) @ cnot_permutation(0, 1, 3) @ rotations
        out = propagate(states, step)
        np.testing.assert_allclose(out, states @ layer.T, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rows", [1, 7, 16, 257, 1000])
    @pytest.mark.parametrize("n", [2, 5, 8, 10])
    def test_dense_step_bitwise_equals_tensordot(self, n, rows):
        # the shipped configs' output bytes rest on this equality
        u = haar_on(n, seed=n)
        states = np.random.default_rng(rows).standard_normal((rows, 2 << n)).view(complex)
        np.testing.assert_array_equal(propagate(states, u), tensordot_step(states, u, n))

    @pytest.mark.parametrize("reset", [True, False])
    @pytest.mark.parametrize("rows", [1, 7, 257, 1000])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_block_product_bitwise_equals_full_register(self, n, rows, reset):
        # each row's system block, at bath 0 (after a reset, through the
        # isometry of the first d_sys columns) or at a random bath block
        # (through the full unitary), against the zero-padded full-register
        # product np.dot(U, amps.T).T; the shipped configs' bytes rest on it
        n_sys = n - n // 2
        d_sys, d_bath = 1 << n_sys, 1 << (n - n_sys)
        u = haar_on(n, seed=n)
        gen = np.random.default_rng(rows)
        picked = gen.standard_normal((rows, 2 * d_sys)).view(complex)
        bath = None if reset else gen.integers(d_bath, size=rows)
        padded = np.zeros((rows, d_bath, d_sys), dtype=complex)
        padded[np.arange(rows), 0 if reset else bath] = picked
        expected = np.ascontiguousarray(np.dot(u, padded.reshape(rows, -1).T).T)
        step = u[:, :d_sys] if reset else u
        got = _propagate(picked, bath, step, d_bath)
        if rows == 1 and d_sys == 2:
            # one row goes through BLAS's matrix-vector kernel, whose tail
            # rounds a length-2 and a length-4 dot product differently
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)
        else:
            np.testing.assert_array_equal(got, expected)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 2**31 - 1), st.integers(1, 3), st.integers(1, 4))
    def test_norm_preserved(self, n, seed, rows, layers):
        states = np.stack([random_state(n, seed + r) for r in range(rows)])
        angles = np.random.default_rng(seed).uniform(0, 12, size=(2, layers, n))
        for step in (hea(*angles), haar_on(n, seed ^ 0x5EED)):
            out = propagate(states, step)
            assert np.all(np.abs(np.linalg.norm(out, axis=1) - 1.0) < 1e-10)


class TestHaarSampler:
    def test_rejects_dim_below_two(self, rng):
        with pytest.raises(ConfigurationError):
            sample_haar_unitary(1, rng)

    def test_every_draw_unitary(self, rng):
        for dim in (2, 4, 8):
            for _ in range(25):
                assert unitarity_defect(sample_haar_unitary(dim, rng)) < 1e-9

    @pytest.mark.parametrize(
        "n_sys, n_bath", [(1, 1), (2, 1), (2, 2), (1, 3), (3, 4), (4, 4), (5, 5), (4, 6)]
    )
    def test_isometry_is_the_full_draws_first_columns(self, n_sys, n_bath):
        dim, cols = 1 << (n_sys + n_bath), 1 << n_sys
        full_rng = np.random.default_rng(10 * n_sys + n_bath)
        iso_rng = np.random.default_rng(10 * n_sys + n_bath)
        full = sample_haar_unitary(dim, full_rng)[:, :cols]
        iso = sample_haar_unitary(dim, iso_rng, cols)
        assert iso.shape == (dim, cols) and iso.dtype == complex
        if dim < core.HAAR_COLUMNS_DIM:
            # the whole Ginibre matrix is drawn either way
            assert iso_rng.bit_generator.state == full_rng.bit_generator.state
        else:
            # only the kept columns are drawn, 2 dim normals each
            twin = np.random.default_rng(10 * n_sys + n_bath)
            twin.standard_normal(2 * dim * cols)
            assert iso_rng.bit_generator.state == twin.bit_generator.state
        assert unitarity_defect(iso) < 1e-12
        if (n_sys, n_bath) in ((2, 1), (2, 2), (5, 5)):
            # the shapes of the shipped Haar configs
            np.testing.assert_array_equal(iso, full)
        else:
            np.testing.assert_allclose(iso, full, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("dim", [4, 8, 16, 32, 64, 128, 256, 512, 1024])
    @pytest.mark.parametrize("full", [True, False])
    def test_stack_is_the_per_step_draws(self, dim, full):
        # below dim 32 one draw and one stacked QR of all the whole
        # matrices, at counts past the 256 and 64 steps of the 256 KiB stacks
        # they replaced at dims 8 and 16, and from dim 32 the kept columns
        # alone, each as dim (real, imaginary) pairs, give the bits and leave
        # the generator where one 2-D draw and QR per step does
        cols = dim if full else 1 << (dim.bit_length() - 1) // 2
        count = {8: 257, 16: 65}.get(dim, 6 if dim <= 128 else 2)
        rng, twin = np.random.default_rng(dim), np.random.default_rng(dim)
        stack = sample_haar_unitary(dim, rng, cols, count)
        assert stack.shape == (count, dim, cols) and stack.dtype == complex
        for u in stack:
            if dim < core.HAAR_COLUMNS_DIM:
                real = twin.standard_normal((dim, dim))[:, :cols]
                ginibre = real + 1j * twin.standard_normal((dim, dim))[:, :cols]
            else:
                ginibre = twin.standard_normal((cols, 2 * dim)).view(complex).T
            q, r = np.linalg.qr(ginibre / np.sqrt(2))
            diag = np.diagonal(r)
            np.testing.assert_array_equal(u, q * (diag.conj() / np.abs(diag)))
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_draw_holds_no_ginibre_half(self):
        # a dim-1024 isometry holds its 32 drawn columns, the QR's copy of
        # them and its q, which becomes the output, and one 32 x 32 r; a
        # whole 1024^2 Ginibre half would hold 8 MB, and one more copy of
        # the columns 512 KiB
        rng = np.random.default_rng(3)
        sample_haar_unitary(1024, rng, 32)  # numpy's lazy setup, outside the trace
        tracemalloc.start()
        try:
            out = sample_haar_unitary(1024, rng, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 3 * out.nbytes < out.nbytes // 8

    @pytest.mark.parametrize("columns", [0, 9])
    def test_rejects_columns_out_of_range(self, rng, columns):
        with pytest.raises(ConfigurationError):
            sample_haar_unitary(8, rng, columns)

    def test_first_and_second_moments(self, rng):
        # |<x|U|0>|^2 -> 1/d and |<x|U|0>|^4 -> 2/(d(d+1)) for every fixed x,
        # 1e5 draws of the actual sampler at dim 4
        draws = 100_000
        dim = 4
        probs = np.empty((draws, dim))
        for i in range(draws):
            probs[i] = np.abs(sample_haar_unitary(dim, rng)[:, 0]) ** 2
        for x in range(dim):
            p2 = probs[:, x]
            p4 = p2 ** 2
            se2 = p2.std(ddof=1) / np.sqrt(draws)
            se4 = p4.std(ddof=1) / np.sqrt(draws)
            assert abs(p2.mean() - 1 / dim) < 3 * se2, x
            assert abs(p4.mean() - 2 / (dim * (dim + 1))) < 3 * se4, x

    def test_phase_correction_matters(self, rng):
        # entries of a Haar unitary have uniformly random phases; the raw QR
        # factor is biased, the corrected one is not
        draws = 4000
        phases = np.array([
            np.angle(sample_haar_unitary(2, rng)[0, 0]) for _ in range(draws)
        ])
        counts, _ = np.histogram(phases, bins=8, range=(-np.pi, np.pi))
        expected = draws / 8
        chi2 = np.sum((counts - expected) ** 2 / expected)
        assert chi2 < 40  # chi2_7 is ~24 at p=0.001; wildly larger means biased phases

    def test_haar_state_is_normalized(self, rng):
        v = sample_haar_state(32, rng)
        assert abs(np.linalg.norm(v) - 1) < 1e-12


class TestMeasureProbabilities:
    """Born probabilities as the engine reads them off one step: the bath is
    the high qubits, the system the low ones."""

    def test_basis_state_single_target(self):
        config, steps = one_step(basis_state(2, 0b01), n_system=1)
        dist = enumerate_joint_distribution(config, steps)
        np.testing.assert_allclose(marginalize(dist, config, "spatial"), [0, 1], atol=1e-12)
        np.testing.assert_allclose(marginalize(dist, config, "temporal"), [1, 0], atol=1e-12)

    def test_bell_state_is_balanced(self):
        config, steps = one_step(BELL, n_system=1)
        dist = enumerate_joint_distribution(config, steps)
        np.testing.assert_allclose(marginalize(dist, config, "temporal"), [0.5, 0.5], atol=1e-12)

    def test_all_qubits_equals_amplitude_squares(self):
        psi = random_state(4, seed=2)
        config, steps = one_step(psi, n_system=2)
        dist = enumerate_joint_distribution(config, steps)
        np.testing.assert_allclose(dist, np.abs(psi) ** 2, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 2**31 - 1), st.data())
    def test_born_rule_normalization(self, n, seed, data):
        n_system = data.draw(st.integers(1, n - 1))
        config, steps = one_step(random_state(n, seed), n_system)
        dist = enumerate_joint_distribution(config, steps)
        for kind in ("spatial", "temporal"):
            assert abs(marginalize(dist, config, kind).sum() - 1.0) < 1e-10


class TestCollapse:
    def test_bell_collapse(self):
        # the system reads what the bath read, each with probability 1/2
        config, steps = one_step(BELL, n_system=1)
        batch = sample_trajectories(config, steps, 200, 1.0, np.random.default_rng(4))
        np.testing.assert_array_equal(batch.final_outcomes, batch.bath_outcomes[:, 0])
        assert set(batch.final_outcomes.tolist()) == {0, 1}
        np.testing.assert_allclose(batch.model_probabilities, 0.5, atol=1e-12)

    def test_basis_state_idempotent(self):
        # |101> on 1 system + 2 bath qubits: bath 0b10, system 1, with certainty
        psi = basis_state(3, 0b101)
        config, steps = one_step(psi, n_system=1)
        batch = sample_trajectories(config, steps, 50, 1.0, np.random.default_rng(6))
        assert np.all(batch.bath_outcomes == 0b10) and np.all(batch.final_outcomes == 1)
        np.testing.assert_allclose(batch.model_probabilities, 1.0, atol=1e-12)
        kept = _keep_branch(np.array([[0, 1]], dtype=complex), np.array([0b10]), 4)
        np.testing.assert_array_equal(kept, psi[None, :])

    def test_probability_matches_measure_entry(self):
        psi = random_state(3, seed=4)
        config, steps = one_step(psi, n_system=1)
        batch = sample_trajectories(config, steps, 2000, 1.0, np.random.default_rng(5))
        expected = np.abs(psi[joint_indices(batch, config)]) ** 2
        np.testing.assert_allclose(batch.model_probabilities, expected, rtol=1e-10)

    def test_zero_probability_branch_raises(self):
        config = HrcsConfig(n_system=1, n_bath=1, steps=1)
        with pytest.raises(DegenerateBranchError):
            sample_trajectories(
                config, [np.zeros((4, 4), dtype=complex)], 3, 1.0, np.random.default_rng(0)
            )

    def test_collapse_probabilities_sum_to_one(self):
        # forced replay of every (z, x) path: per bath outcome the paths sum
        # to that outcome's Born weight, and all of them to one
        psi = random_state(4, seed=17)
        config, steps = one_step(psi, n_system=2)
        z, x = (a.reshape(-1) for a in np.meshgrid(np.arange(4), np.arange(4), indexing="ij"))
        probs = ideal_probabilities_batch(config, steps, z[:, None], x).reshape(4, 4)
        bath_weights = (np.abs(psi.reshape(4, 4)) ** 2).sum(axis=1)
        np.testing.assert_allclose(probs.sum(axis=1), bath_weights, atol=1e-12)
        assert abs(probs.sum() - 1.0) < 1e-10


class TestReset:
    """``_keep_branch`` puts each row's kept system block at bath 0 after a
    reset (z None) and at bath z without one; every other entry is zero."""

    def test_full_flip(self):
        # |11> on 1 system + 1 bath qubit, bath read 1: the reset bath reads 0
        picked = np.array([[0, 1]], dtype=complex)
        np.testing.assert_array_equal(_keep_branch(picked, None, 2), [[0, 1, 0, 0]])
        np.testing.assert_array_equal(_keep_branch(picked, np.array([1]), 2), [[0, 0, 0, 1]])

    def test_zero_outcome_is_identity(self):
        picked = np.stack([random_state(2, seed=9 + r) for r in range(3)])
        zeros = np.zeros(3, dtype=np.int64)
        with_reset = _keep_branch(picked, None, 4)
        np.testing.assert_array_equal(with_reset, _keep_branch(picked, zeros, 4))
        np.testing.assert_array_equal(with_reset[:, :4], picked)
        assert not np.any(with_reset[:, 4:])

    def test_reset_then_measure_gives_zero(self):
        d_sys, d_bath = 2, 4
        picked = np.stack([random_state(1, seed=12 + r) for r in range(8)])
        z = np.arange(8) % d_bath
        for reset in (True, False):
            kept = _keep_branch(picked, None if reset else z, d_bath)
            blocks = kept.reshape(-1, d_bath, d_sys)
            for row, block in enumerate(blocks):
                at = 0 if reset else z[row]
                np.testing.assert_array_equal(block[at], picked[row])
                assert not np.any(np.delete(block, at, axis=0))


class TestPauliStrings:
    def test_identity_string(self):
        states = np.stack([random_state(3, seed=3 + r) for r in range(4)])
        out = apply_codes(states, [0, 0, 0, 0], (0, 1, 2))
        np.testing.assert_array_equal(out, states)

    def test_x_on_qubit0(self):
        out = apply_codes(zero_batch(2), [1], (0,))
        np.testing.assert_allclose(out, [[0, 1, 0, 0]], atol=1e-12)

    def test_matches_dense_pauli_matrices(self):
        # all 16 two-qubit strings, one per row, against their Kronecker
        # products without the global phase i^(n_Y); every factor is exact
        state = random_state(2, seed=6)
        out = apply_codes(np.tile(state, (16, 1)), np.arange(16), (0, 1))
        for code in range(16):
            np.testing.assert_array_equal(
                out[code], y_factor(code) * (pauli_string_matrix(code, (0, 1), 2) @ state),
                err_msg=str(code),
            )

    def test_random_string_marginal_is_uniform(self, rng):
        # MC average of |amps|^2 on the twirled subset vs the exact channel
        # output (full depolarization replaces the marginal by uniform)
        draws = 100_000
        amps = np.tile(random_state(3, seed=23), (draws, 1))
        twirled = apply_strings(amps, _random_paulis(draws, 2, 0.0, rng), 0)
        # qubits 0, 1 are the low two bits: axis 2 of (draws, 2, 4)
        marginal = (np.abs(twirled) ** 2).reshape(draws, 2, 4).sum(axis=1).mean(axis=0)
        se = np.sqrt(0.25 * 0.75 / draws)  # binomial bound per outcome
        oracle = np.full(4, 0.25)  # exact channel at full strength: uniform
        assert np.all(np.abs(marginal - oracle) < 3 * se + 1e-3)


class TestPauliUnraveling:
    def test_trajectory_average_matches_channel(self, rng):
        # 1e6 draws on a 2-qubit entangled state, depolarizing one qubit:
        # trajectory-averaged rho vs gamma rho + (1-gamma) I/2 (x) tr_sub rho
        gamma = 0.6
        state = random_state(2, seed=77)
        rho = np.outer(state, state.conj())

        draws, chunk = 1_000_000, 100_000
        avg = np.zeros((4, 4), dtype=complex)
        for _ in range(draws // chunk):
            out = apply_strings(np.tile(state, (chunk, 1)), _random_paulis(chunk, 1, gamma, rng), 0)
            avg += out.T @ out.conj() / draws

        shaped = rho.reshape(2, 2, 2, 2)  # (q1_row, q0_row, q1_col, q0_col)
        traced = np.einsum("iaja->ij", shaped)  # trace out qubit 0
        replaced = np.einsum("ij,ab->iajb", traced, np.eye(2) / 2).reshape(4, 4)
        expected = gamma * rho + (1 - gamma) * replaced

        diff = avg - expected
        trace_distance = 0.5 * np.sum(np.linalg.svd(diff, compute_uv=False))
        assert trace_distance < 5e-3


BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
BUNDLED_OPENBLAS = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"] == (
    "scipy-openblas"
)
# numpy is imported first, as pytest's conftest and many scripts do
THREADS_AFTER_IMPORT = """
import ctypes
import numpy as np
get = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_get_num_threads64_
import hrcslab
print(get())
"""


def run_python(args, threads: str | None) -> subprocess.CompletedProcess:
    """A fresh interpreter on this package, with every BLAS thread variable
    unset or OPENBLAS_NUM_THREADS at ``threads``.  A RuntimeWarning or a
    DeprecationWarning fails it, as it fails a test here."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(pathlib.Path(hrcslab.__file__).resolve().parents[1])
    env["PYTHONWARNINGS"] = "error::RuntimeWarning,error::DeprecationWarning"
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, check=True
    )


class TestBlasPin:
    """Every process runs BLAS on one thread (``core.pin_blas_threads``), so
    records do not follow the machine's core count."""

    def test_pin_reports_the_bundled_openblas(self):
        assert core.pin_blas_threads() is BUNDLED_OPENBLAS

    @pytest.mark.skipif(not BUNDLED_OPENBLAS, reason="numpy links another BLAS")
    def test_one_thread_after_import_whatever_the_variable(self):
        assert run_python(["-c", THREADS_AFTER_IMPORT], "2").stdout.split() == ["1"]

    def test_5_5_records_do_not_follow_the_thread_variable(self, tmp_path):
        # at 5+5 the Haar draws and the step products are large enough for
        # OpenBLAS to split them by its thread count.  The variable unset and
        # at 1 run 1 worker, at 2 run 2 workers
        ci = CONFIGS / "ci"
        for name in ("noisy_xeb_5_5", "hea_noisy_xeb_5_5"):
            config, runs = ci / f"{name}.json", []
            for threads, workers in ((None, "1"), ("1", "1"), ("2", "2")):
                out = tmp_path / f"{name}_threads_{threads}.jsonl"
                run_python(["-m", "hrcslab", "noisy-xeb", "--config", str(config),
                            "--workers", workers, "--out", str(out)], threads)
                runs.append(out)
            assert runs[0].read_bytes() == runs[1].read_bytes() == runs[2].read_bytes(), name
            golden = compare_records.read_records(ci / "expected" / f"{name}.jsonl")
            assert compare_records.mismatch(compare_records.read_records(runs[0]), golden) is None

    @pytest.mark.parametrize("lookup", ["unopenable", "another_blas"])
    def test_run_completes_where_nothing_is_found(self, lookup, monkeypatch):
        if lookup == "unopenable":
            def unopenable(*args, **kwargs):
                raise OSError("cannot open")

            monkeypatch.setattr(core.ctypes, "CDLL", unopenable)
        else:
            monkeypatch.setattr(core, "_numpy_blas", lambda: object())  # no such symbol
        assert core.pin_blas_threads() is False
        spec = ExperimentSpec(
            kind="noisy_xeb", n_system=2, n_bath=2, steps=(1, 2), gammas=(0.7,),
            instances=2, shots=20, master_seed=3,
        )
        assert len(run_experiment(spec)) == 2
