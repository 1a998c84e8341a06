"""Step-unitary generation: Haar matrices live in core; this module draws the
one-dimensional hardware-efficient ansatz (HEA) used as a cheap stand-in, and
applies it to an amplitude batch.  An HEA step is its drawn ``HeaParams``.

One HEA layer rotates every qubit (RX then RZ) and then entangles with a fixed
brickwork of CNOTs: pairs (2i, 2i+1) first, pairs (2i+1, 2i+2) second, pairs
falling off the register dropped.  Angles are drawn uniformly from [0, 4*pi).
The kernel fuses each qubit's RX and RZ into one 2x2 and applies each layer's
CNOTs as one precomputed permutation of the amplitude index.  The engine
runs it on a batch of states, or on the basis rows of the columns a step can
reach, to compile the step into a dense matrix (``engine.step_matrices``).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

TWO_TURNS = 4.0 * math.pi


@dataclass(frozen=True)
class HeaParams:
    """Rotation angles of an L-layer ansatz on N qubits; arrays are (L, N)."""

    thetas: np.ndarray
    phis: np.ndarray

    def __post_init__(self):
        th = np.asarray(self.thetas, dtype=float)
        ph = np.asarray(self.phis, dtype=float)
        if th.shape != ph.shape or th.ndim != 2:
            raise ConfigurationError(f"angle arrays must both be (L, N), got {th.shape} and {ph.shape}")
        for name, arr in (("thetas", th), ("phis", ph)):
            if np.any(arr < 0) or np.any(arr >= TWO_TURNS):
                raise ConfigurationError(f"{name} outside [0, 4*pi)")
        object.__setattr__(self, "thetas", th)
        object.__setattr__(self, "phis", ph)

    @property
    def layers(self) -> int:
        return self.thetas.shape[0]

    @property
    def n_qubits(self) -> int:
        return self.thetas.shape[1]

    @property
    def count(self) -> int:
        return 2 * self.layers * self.n_qubits


def sample_hea_params(n_qubits: int, layers: int, rng: np.random.Generator) -> HeaParams:
    """Draw 2*L*N independent angles uniform on [0, 4*pi)."""
    if n_qubits < 2:
        raise ConfigurationError(f"ansatz needs at least 2 qubits, got {n_qubits}")
    if layers < 1:
        raise ConfigurationError(f"ansatz needs at least 1 layer, got {layers}")
    thetas = rng.uniform(0.0, TWO_TURNS, size=(layers, n_qubits))
    phis = rng.uniform(0.0, TWO_TURNS, size=(layers, n_qubits))
    return HeaParams(thetas, phis)


def brickwork_pairs(n_qubits: int) -> list[tuple[int, int]]:
    """CNOT pairs of one entangling layer: (2i, 2i+1) sweep then (2i+1, 2i+2) sweep."""
    pairs = [(2 * i, 2 * i + 1) for i in range(n_qubits // 2)]
    pairs += [(2 * i + 1, 2 * i + 2) for i in range(n_qubits // 2) if 2 * i + 2 < n_qubits]
    return pairs


def hea_gate_count(n_qubits: int, layers: int) -> int:
    """Gates per step circuit: L * (N rx + N rz + (N-1) brickwork cnots).

    The brickwork sweeps contribute floor(N/2) + floor((N-1)/2) = N-1 CNOTs
    per layer for every N >= 2, consistent with the per-step two-qubit gate
    counts of transpiled runs (e.g. 8 layers on 10 qubits give 72 CNOTs and
    232 gates per step).
    """
    return layers * (2 * n_qubits + len(brickwork_pairs(n_qubits)))


def _rotation(theta: float, phi: float) -> np.ndarray:
    """RZ(phi) RX(theta), one qubit's rotations of a layer fused into one 2x2."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    down, up = cmath.exp(-0.5j * phi), cmath.exp(0.5j * phi)
    return np.array([[down * c, -1j * down * s], [-1j * up * s, up * c]])


@functools.lru_cache(maxsize=None)
def _brickwork_permutation(n_qubits: int) -> np.ndarray:
    """One entangling layer as a single gather: entry j of a row takes the
    amplitude at perm[j].  Each CNOT (c, t) alone is the gather
    j -> j ^ ((bit c of j) << t); gathers compose as perm = perm[gather]."""
    idx = np.arange(1 << n_qubits)
    perm = idx
    for c, t in brickwork_pairs(n_qubits):
        perm = perm[idx ^ (((idx >> c) & 1) << t)]
    perm.flags.writeable = False
    return perm


def _apply_2x2(amps: np.ndarray, matrix: np.ndarray, q: int) -> np.ndarray:
    """Apply a 2x2 matrix on qubit q of every row, through the strided view
    (rows, 2^(n-q-1), 2, 2^q) whose axis 2 is qubit q."""
    view = amps.reshape(amps.shape[0], -1, 2, 1 << q)
    lo, hi = view[:, :, 0], view[:, :, 1]
    out = np.empty_like(view)
    np.multiply(matrix[0, 0], lo, out=out[:, :, 0])
    out[:, :, 0] += matrix[0, 1] * hi
    np.multiply(matrix[1, 1], hi, out=out[:, :, 1])
    out[:, :, 1] += matrix[1, 0] * lo
    return out.reshape(amps.shape)


def apply_hea_batch(amps: np.ndarray, params: HeaParams) -> np.ndarray:
    """Apply the ansatz to every row of a (batch, 2^N) amplitude array.

    Each layer is one fused 2x2 product per qubit on a strided view, then
    one gather by the brickwork's composed permutation.  The input is never
    written to.
    """
    perm = _brickwork_permutation(params.n_qubits)
    for thetas, phis in zip(params.thetas, params.phis):
        for q, (theta, phi) in enumerate(zip(thetas, phis)):
            amps = _apply_2x2(amps, _rotation(theta, phi), q)
        amps = amps[:, perm]
    return amps
