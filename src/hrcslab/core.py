"""Dense unitaries and Haar sampling.

Every pure state in this package is a row of a (rows, 2^n) complex batch;
``engine._propagate`` advances such a batch by a ``UnitaryMatrix`` step and
``circuits.apply_gate_sequence_batch`` by a gate sequence.
``PAULI_MATRICES`` is the dense oracle the tests check the batched Pauli
unraveling against.

Bit convention used everywhere in this package: qubit 0 is the least
significant bit of the amplitude index, so the basis state
|q_{n-1} ... q_1 q_0> lives at index sum_i q_i 2^i.  The view
``amps.reshape(rows, 2^(n-q-1), 2, 2^q)`` of a batch therefore has qubit ``q``
on axis 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

PROB_FLOOR = 1e-300

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class UnitaryMatrix:
    """Dense d x d unitary."""

    entries: np.ndarray
    dim: int = 0

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigurationError(f"unitary must be square, got shape {m.shape}")
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "dim", m.shape[0])

    def unitarity_defect(self) -> float:
        """Max-abs deviation of U^dag U from the identity."""
        d = self.dim
        return float(np.max(np.abs(self.entries.conj().T @ self.entries - np.eye(d))))


def sample_haar_unitary(dim: int, rng: np.random.Generator) -> UnitaryMatrix:
    """Draw a Haar-distributed unitary.

    Ginibre matrix -> QR, then column j is rescaled by conj(r_jj)/|r_jj| so
    the triangular factor has a positive real diagonal; without that fix the
    QR output is not uniform.
    """
    if dim < 2:
        raise ConfigurationError(f"haar sampling needs dim >= 2, got {dim}")
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    q = q * (diag.conj() / np.abs(diag))
    return UnitaryMatrix(q)


def sample_haar_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Amplitudes of a Haar-random pure state (normalized complex Gaussian vector)."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)
