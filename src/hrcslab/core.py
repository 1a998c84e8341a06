"""Dense unitaries and isometries, and Haar sampling.

A dense step is a complex 2^n x c array: a 2^n x 2^n unitary, or, for a
circuit whose bath is reset before every step, the 2^n x 2^n_A isometry of
its first 2^n_A columns, the only ones a state with the bath at 0 can reach.
``engine._propagate`` advances a batch of kept system blocks by a dense step,
and by an HEA step compiled to one, and ``circuits.apply_hea_batch`` runs an
HEA step layer by layer on a (rows, 2^n) batch.

``sample_haar_unitary`` has two draw rules, split at 5 qubits
(``HAAR_COLUMNS_DIM``):

- from 5 qubits up, a step draws only the c columns it keeps (2^n_A under
  a reset, 2^n without one), column after column, each as dim (real,
  imaginary) pairs of normals written straight into the complex array that
  is factored: 2 dim c normals, 3 % of a whole Ginibre matrix at 5+5 under
  a reset.  ``engine.instantiate_circuit`` gives each step a generator of
  its own, seeded by ``derive_seed(instance_seed, "step", k)``;
- below 5 qubits, each step draws its whole dim x dim Ginibre matrix, its
  real then its imaginary half, whatever c is, from the instance's
  generator, so the stream and the generator's end state do not depend on
  c; only the kept columns are factored.  All t steps of a circuit are
  drawn in one call, the normals of each in turn, and factored by one
  stacked QR, which runs the same LAPACK calls on each step and so gives
  the bits of t separate draws.  At dim 16 and t = 1020, the most the
  runner admits, the normals take 4.2 MB.  This stream stays only because
  perfbench/reference.json pins the power sums it gives at 2+1 and 2+2
  qubits; once that file can be regenerated the small steps can move to
  the first rule.

Bit convention used everywhere in this package: qubit 0 is the least
significant bit of the amplitude index, so the basis state
|q_{n-1} ... q_1 q_0> lives at index sum_i q_i 2^i.  The view
``amps.reshape(rows, 2^(n-k), 2^k)`` of a batch therefore has qubits 0..k-1
on its last axis.

BLAS runs on one thread in every process that imports this module, so that
a run's only parallelism is the runner's process pool: at import,
``pin_blas_threads`` sets the thread count of the OpenBLAS that numpy's
wheels bundle to 1, whatever ``OPENBLAS_NUM_THREADS`` says and whether or
not numpy was imported first.  OpenBLAS splits a large product or QR by its
thread count, and the split changes its rounding, so without the pin the
records at 5+5 qubits and up would follow the machine's core count.  Pool
workers inherit the pin under fork and set it again when they import this
module under spawn.  A numpy built on another BLAS (Accelerate, MKL) has no
such symbol; then nothing is set, and records at 5+5 and up follow that
BLAS's thread count.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .errors import ConfigurationError

PROB_FLOOR = 1e-300


def _numpy_blas() -> ctypes.CDLL | None:
    """numpy's compiled core, whose symbol lookup also searches the BLAS it
    links; None if it cannot be opened."""
    try:
        return ctypes.CDLL(np._core._multiarray_umath.__file__)
    except OSError:
        return None


def pin_blas_threads() -> bool:
    """Run numpy's bundled OpenBLAS on one thread in this process.  Returns
    False, having set nothing, when numpy links another BLAS."""
    setter = getattr(_numpy_blas(), "scipy_openblas_set_num_threads64_", None)
    if setter is None:
        return False
    setter(1)
    return True


pin_blas_threads()


# Dimension (5 qubits) from which a step draws only its kept columns, and
# below which it draws its whole Ginibre matrix (see the module docstring)
HAAR_COLUMNS_DIM = 1 << 5


def sample_haar_unitary(
    dim: int, rng: np.random.Generator, columns: int | None = None, count: int | None = None
) -> np.ndarray:
    """Draw a Haar-distributed unitary, or the isometry of its first
    ``columns`` columns, as a complex dim x columns array; with ``count``,
    draw ``count`` of them in turn as a (count, dim, columns) stack.

    Ginibre matrix -> QR, then column j is rescaled by conj(r_jj)/|r_jj| so
    the triangular factor has a positive real diagonal; without that fix the
    QR output is not uniform (Mezzadri, Notices AMS 54, 592 (2007)).  The
    QR of column j sees columns <= j only, so the first c columns of Q
    depend only on the first c Ginibre columns, and under either rule a
    unitary's first c columns are the c-column isometry drawn from the same
    generator.  The two draw rules are those of the module docstring.
    """
    if dim < 2:
        raise ConfigurationError(f"haar sampling needs dim >= 2, got {dim}")
    cols = dim if columns is None else columns
    if not 1 <= cols <= dim:
        raise ConfigurationError(f"haar sampling needs 1 <= columns <= {dim}, got {cols}")
    steps = 1 if count is None else count
    if dim >= HAAR_COLUMNS_DIM:
        # (steps, cols, dim) complex normals, each column contiguous, seen as
        # the (steps, dim, cols) stack they are columns of
        ginibre = rng.standard_normal((steps, cols, 2 * dim)).view(complex).swapaxes(1, 2)
        out = _phase_fixed_qr(ginibre)
    else:
        # each step's real then imaginary draw, in one call: the same stream
        draws = rng.standard_normal((steps, 2, dim, dim))[..., :cols]
        ginibre = draws[:, 0] + 1j * draws[:, 1]
        del draws  # before the QR's copies
        out = _phase_fixed_qr(ginibre)
    return out[0] if count is None else out


def _phase_fixed_qr(ginibre: np.ndarray) -> np.ndarray:
    """The Haar factor of a (steps, dim, cols) stack of standard complex
    normals, which is scaled in place: Q of its QR with column j rescaled by
    conj(r_jj)/|r_jj|, in place in Q."""
    q, r = np.linalg.qr(np.divide(ginibre, np.sqrt(2), out=ginibre))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return np.multiply(q, (diag.conj() / np.abs(diag))[:, None, :], out=q)


def sample_haar_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Amplitudes of a Haar-random pure state (normalized complex Gaussian vector)."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)
