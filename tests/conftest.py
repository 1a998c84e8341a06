"""Shared fixtures and helpers for the test suite."""

import numpy as np
import pytest

from hrcslab import HrcsConfig, sample_haar_unitary
from hrcslab.core import PAULI_MATRICES


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_state(n_qubits: int, seed: int) -> np.ndarray:
    """Amplitudes of a Haar-random pure state on n qubits."""
    gen = np.random.default_rng(seed)
    v = gen.standard_normal(1 << n_qubits) + 1j * gen.standard_normal(1 << n_qubits)
    return v / np.linalg.norm(v)


def zero_batch(n_qubits: int, rows: int = 1) -> np.ndarray:
    """A (rows, 2^n) amplitude batch with every row in |0...0>."""
    amps = np.zeros((rows, 1 << n_qubits), dtype=complex)
    amps[:, 0] = 1.0
    return amps


def small_config(**overrides) -> HrcsConfig:
    base = dict(n_system=2, n_bath=1, steps=2, master_seed=7)
    base.update(overrides)
    return HrcsConfig(**base)


def haar_on(n_qubits: int, seed: int):
    return sample_haar_unitary(1 << n_qubits, np.random.default_rng(seed))


def pauli_string_matrix(code: int, targets, n: int) -> np.ndarray:
    """Dense 2^n x 2^n Pauli string: code digit i (0 I, 1 X, 2 Y, 3 Z) acts
    on targets[i], the identity on every other qubit."""
    labels = {q: "IXYZ"[(code >> (2 * i)) & 3] for i, q in enumerate(targets)}
    out = np.ones((1, 1), dtype=complex)
    for q in reversed(range(n)):  # qubit 0 is the least significant factor
        out = np.kron(out, PAULI_MATRICES[labels.get(q, "I")])
    return out
