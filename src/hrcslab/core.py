"""Dense unitaries and isometries, and Haar sampling.

A dense step is a complex 2^n x c array: a 2^n x 2^n unitary, or, for a
circuit whose bath is reset before every step, the 2^n x 2^n_A isometry of
its first 2^n_A columns, the only ones a state with the bath at 0 can reach.
``engine._propagate`` advances a batch of kept system blocks by a dense step,
and by an HEA step compiled to one, and ``circuits.apply_hea_batch`` runs an
HEA step layer by layer on a (rows, 2^n) batch.

Bit convention used everywhere in this package: qubit 0 is the least
significant bit of the amplitude index, so the basis state
|q_{n-1} ... q_1 q_0> lives at index sum_i q_i 2^i.  The view
``amps.reshape(rows, 2^(n-k), 2^k)`` of a batch therefore has qubits 0..k-1
on its last axis.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

PROB_FLOOR = 1e-300


def sample_haar_unitary(
    dim: int, rng: np.random.Generator, columns: int | None = None
) -> np.ndarray:
    """Draw a Haar-distributed unitary, or the isometry of its first
    ``columns`` columns, as a complex dim x columns array.

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
    return q * (diag.conj() / np.abs(diag))


def sample_haar_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Amplitudes of a Haar-random pure state (normalized complex Gaussian vector)."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)
