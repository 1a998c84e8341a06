"""Dense unitaries and isometries, and Haar sampling.

A dense step is a ``UnitaryMatrix``: a 2^n x 2^n unitary, or, for a circuit
whose bath is reset before every step, the 2^n x 2^n_A isometry of its first
2^n_A columns, the only ones a state with the bath at 0 can reach.
``engine._propagate`` advances a batch of kept system blocks by a dense step,
and by an HEA step compiled to one, and ``circuits.apply_hea_batch`` runs an
HEA step gate by gate on a (rows, 2^n) batch.
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
    """Dense d x c step with c <= d: a unitary (c = d) or an isometry V with
    V^dag V = I, the first c columns of a unitary."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or not 1 <= m.shape[1] <= m.shape[0]:
            raise ConfigurationError(f"step must be d x c with 1 <= c <= d, got shape {m.shape}")
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def columns(self) -> int:
        return self.entries.shape[1]

    def unitarity_defect(self) -> float:
        """Max-abs deviation of V^dag V from the c x c identity."""
        v = self.entries
        return float(np.max(np.abs(v.conj().T @ v - np.eye(self.columns))))


def sample_haar_unitary(
    dim: int, rng: np.random.Generator, columns: int | None = None
) -> UnitaryMatrix:
    """Draw a Haar-distributed unitary, or its first ``columns`` columns.

    Ginibre matrix -> QR, then column j is rescaled by conj(r_jj)/|r_jj| so
    the triangular factor has a positive real diagonal; without that fix the
    QR output is not uniform.  The whole dim x dim Ginibre matrix is drawn
    whatever ``columns`` is, so the stream and the generator's end state do
    not depend on it; only the kept columns of its real and imaginary parts
    are combined and factored, and the QR of column j sees columns <= j only.
    """
    if dim < 2:
        raise ConfigurationError(f"haar sampling needs dim >= 2, got {dim}")
    cols = dim if columns is None else columns
    if not 1 <= cols <= dim:
        raise ConfigurationError(f"haar sampling needs 1 <= columns <= {dim}, got {cols}")
    # copy the kept columns out, so the full real draw is freed before the next
    real = np.ascontiguousarray(rng.standard_normal((dim, dim))[:, :cols])
    z = (real + 1j * rng.standard_normal((dim, dim))[:, :cols]) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    q = q * (diag.conj() / np.abs(diag))
    return UnitaryMatrix(q)


def sample_haar_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Amplitudes of a Haar-random pure state (normalized complex Gaussian vector)."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)
