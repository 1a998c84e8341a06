"""Step-unitary generation: Haar matrices live in core; this module draws the
one-dimensional hardware-efficient ansatz (HEA) used as a cheap stand-in, and
applies it to an amplitude batch.  An HEA step is its drawn ``HeaParams``.

One HEA layer rotates every qubit (RX then RZ) and then entangles with a fixed
brickwork of CNOTs: pairs (2i, 2i+1) first, pairs (2i+1, 2i+2) second, pairs
falling off the register dropped.  Angles are drawn uniformly from [0, 4*pi).
The kernel fuses each qubit's RX and RZ into one 2x2, and applies a layer's
rotations as two dense products on each row viewed as a 2^(N - N//2) x
2^(N//2) matrix: the Kronecker product of the low N//2 qubits' 2x2s from the
right, that of the high qubits from the left.  Each layer's CNOTs follow as
one precomputed permutation of the amplitude index.  The engine runs this
one kernel on a batch of states, and on the basis rows of the columns an HEA
step can reach to compile that step into a dense matrix of them
(``engine.step_matrix``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, _as_int

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
            if not np.all((0 <= arr) & (arr < TWO_TURNS)):  # false for nan too
                raise ConfigurationError(f"{name} outside [0, 4*pi)")
        object.__setattr__(self, "thetas", th)
        object.__setattr__(self, "phis", ph)

    @property
    def layers(self) -> int:
        return self.thetas.shape[0]

    @property
    def n_qubits(self) -> int:
        return self.thetas.shape[1]


def sample_hea_params(n_qubits: int, layers: int, rng: np.random.Generator) -> HeaParams:
    """Draw 2*L*N independent angles uniform on [0, 4*pi)."""
    n_qubits, layers = _as_int("n_qubits", n_qubits, 2), _as_int("layers", layers, 1)
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
    n_qubits, layers = _as_int("n_qubits", n_qubits, 2), _as_int("layers", layers, 1)
    return layers * (2 * n_qubits + len(brickwork_pairs(n_qubits)))


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


def _half_register_products(params: HeaParams, n_low: int) -> list[np.ndarray]:
    """Each layer's rotations as two (L, d, d) Kronecker products, built for
    all L layers at once: the transposed one of qubits 0..n_low-1, then the
    one of the rest, a higher qubit being a more left factor.  A qubit's
    fused RZ(phi) RX(theta), with c, s = cos, sin(theta/2), is
    [[e^(-i phi/2) c, -i e^(-i phi/2) s], [-i e^(i phi/2) s, e^(i phi/2) c]]."""
    c, s = np.cos(params.thetas / 2.0), np.sin(params.thetas / 2.0)
    down, up = np.exp(-0.5j * params.phis), np.exp(0.5j * params.phis)
    rotations = np.stack([down * c, -1j * down * s, -1j * up * s, up * c], axis=-1)
    rotations = rotations.reshape(*c.shape, 2, 2)
    products = []
    for qubits in (rotations[:, :n_low].swapaxes(2, 3), rotations[:, n_low:]):
        product = np.ones((params.layers, 1, 1), dtype=complex)
        for q in reversed(range(qubits.shape[1])):
            d = 2 * product.shape[1]
            product = product[:, :, None, :, None] * qubits[:, q, None, :, None, :]
            product = product.reshape(-1, d, d)
        products.append(product)
    return products


def apply_hea_batch(amps: np.ndarray, params: HeaParams) -> np.ndarray:
    """Apply the ansatz to every row of a (batch, 2^N) amplitude array.

    Per layer, the two half-register products and the gather write into two
    buffers in turn.  The input is never written to, and it is dropped after
    the first product, so a temporary input is freed before the second
    buffer exists.
    """
    n, n_low, rows = params.n_qubits, params.n_qubits // 2, len(amps)
    lows, highs = _half_register_products(params, n_low)
    perm = _brickwork_permutation(n)
    shape = (rows, 1 << (n - n_low), 1 << n_low)
    state, spare = amps.reshape(shape), None
    del amps
    for low, high in zip(lows, highs):
        rotated = np.matmul(state, low, out=spare)
        if spare is None:
            del state  # the input batch
            state = np.empty(shape, dtype=complex)
        np.matmul(high, rotated, out=state)
        np.take(state.reshape(rows, 1 << n), perm, axis=1, out=rotated.reshape(rows, 1 << n),
                mode="clip")  # "raise" would copy through a buffer
        state, spare = rotated, state
    return state.reshape(rows, 1 << n)
