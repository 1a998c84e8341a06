"""Dense unitaries and isometries, and Haar sampling.

A dense step is a complex 2^n x c array: a 2^n x 2^n unitary, or, for a
circuit whose bath is reset before every step, the 2^n x 2^n_A isometry of
its first 2^n_A columns, the only ones a state with the bath at 0 can reach.
``engine._propagate`` advances a batch of kept system blocks by a dense step,
and by an HEA step compiled to one, and ``circuits.apply_hea_batch`` runs an
HEA step layer by layer on a (rows, 2^n) batch.

``sample_haar_unitary`` draws a circuit's t steps as one (t, 2^n, c) stack:
each step's Ginibre normals in turn, as t separate draws would, then one
stacked QR and one phase fix per ``HAAR_STACK_BYTES`` of normals.  The
stacked QR runs the same LAPACK calls on each step, so the steps have the
bits of separate draws.  The cap keeps a stack's transients below about 1 MB
(``runner._check_capacity`` counts them); from 8 qubits up, a 5+5 step for
one, each step is drawn and factored alone.

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


# Bytes of Ginibre normals, 2 dim^2 doubles a step, that one stack of steps
# draws in one call and factors with one QR.  np.linalg.qr costs about 16 us
# a call beside its arithmetic, and each numpy call of a draw 1-2 us: most of
# a step's cost at 2+1 and 2+2 qubits.  At dim 128 (256 KiB of normals) one
# step's draw alone takes about 0.5 ms, so a larger stack would save under
# 5 % and only add its copies to the peak.  From dim 256 up each step is
# drawn and factored alone.
HAAR_STACK_BYTES = 1 << 18


def sample_haar_unitary(
    dim: int, rng: np.random.Generator, columns: int | None = None, count: int | None = None
) -> np.ndarray:
    """Draw a Haar-distributed unitary, or the isometry of its first
    ``columns`` columns, as a complex dim x columns array; with ``count``,
    draw ``count`` of them in turn as a (count, dim, columns) stack.

    Ginibre matrix -> QR, then column j is rescaled by conj(r_jj)/|r_jj| so
    the triangular factor has a positive real diagonal; without that fix the
    QR output is not uniform.  The whole dim x dim Ginibre matrix is drawn
    whatever ``columns`` is, so the stream and the generator's end state do
    not depend on it; only the kept columns of its real and imaginary parts
    are combined and factored, and the QR of column j sees columns <= j only.
    A stack draws each matrix's normals in turn, exactly as ``count`` calls
    would, and factors each ``HAAR_STACK_BYTES`` of normals with one stacked
    QR, which runs the same LAPACK calls on each and so gives the same bits.
    """
    if dim < 2:
        raise ConfigurationError(f"haar sampling needs dim >= 2, got {dim}")
    cols = dim if columns is None else columns
    if not 1 <= cols <= dim:
        raise ConfigurationError(f"haar sampling needs 1 <= columns <= {dim}, got {cols}")
    out = np.empty((1 if count is None else count, dim, cols), dtype=complex)
    normals = 16 * dim * dim  # bytes of one step's real and imaginary draws
    group = max(1, HAAR_STACK_BYTES // normals)
    for start in range(0, len(out), group):
        stack = out[start:start + group]
        # stack = real + 1j * imag, in place
        if normals <= HAAR_STACK_BYTES:
            # each step's real then imaginary draw, in one call: the same stream
            draws = rng.standard_normal((len(stack), 2, dim, dim))[..., :cols]
            np.multiply(1j, draws[:, 1], out=stack)
            np.add(draws[:, 0], stack, out=stack)
            del draws
        else:
            # one step; copy the kept columns out, so the full real draw is
            # freed before the imaginary one
            real = np.ascontiguousarray(rng.standard_normal((dim, dim))[:, :cols])
            np.multiply(1j, rng.standard_normal((dim, dim))[:, :cols], out=stack[0])
            np.add(real, stack[0], out=stack[0])
            del real
        q, r = np.linalg.qr(np.divide(stack, np.sqrt(2), out=stack))
        diag = np.diagonal(r, axis1=-2, axis2=-1)
        np.multiply(q, (diag.conj() / np.abs(diag))[:, None, :], out=stack)
        del q, r, diag  # before the next stack's draws
    return out[0] if count is None else out


def sample_haar_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Amplitudes of a Haar-random pure state (normalized complex Gaussian vector)."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)
