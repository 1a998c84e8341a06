"""Step-unitary generation: Haar matrices live in core; this module builds the
one-dimensional hardware-efficient ansatz (HEA) used as a cheap stand-in, and
applies it gate by gate to an amplitude batch.

One HEA layer rotates every qubit (RX then RZ) and then entangles with a fixed
brickwork of CNOTs: pairs (2i, 2i+1) first, pairs (2i+1, 2i+2) second, pairs
falling off the register dropped.  Angles are drawn uniformly from [0, 4*pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

TWO_TURNS = 4.0 * math.pi

GATE_KINDS = ("rx", "rz", "cnot")


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ConfigurationError(f"unknown gate kind {self.kind!r}")
        if self.kind == "cnot":
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise ConfigurationError(f"cnot needs two distinct qubits, got {self.qubits}")
            if self.angle is not None:
                raise ConfigurationError("cnot takes no angle")
        else:
            if len(self.qubits) != 1:
                raise ConfigurationError(f"{self.kind} acts on one qubit, got {self.qubits}")
            if self.angle is None:
                raise ConfigurationError(f"{self.kind} needs an angle")


@dataclass(frozen=True)
class GateSequence:
    """Ordered gate list; leftmost gate is applied first."""

    gates: tuple[Gate, ...]
    n_qubits: int

    def __post_init__(self):
        for g in self.gates:
            if max(g.qubits) >= self.n_qubits:
                raise ConfigurationError(
                    f"gate on qubits {g.qubits} exceeds register of {self.n_qubits}"
                )

    def __len__(self) -> int:
        return len(self.gates)


@dataclass(frozen=True)
class HeaParams:
    """Rotation angles of an L-layer ansatz on N qubits; arrays are (L, N)."""

    layers: int
    thetas: np.ndarray
    phis: np.ndarray

    def __post_init__(self):
        th = np.asarray(self.thetas, dtype=float)
        ph = np.asarray(self.phis, dtype=float)
        if th.shape != ph.shape or th.ndim != 2 or th.shape[0] != self.layers:
            raise ConfigurationError(
                f"angle arrays must both be ({self.layers}, N), got {th.shape} and {ph.shape}"
            )
        for name, arr in (("thetas", th), ("phis", ph)):
            if np.any(arr < 0) or np.any(arr >= TWO_TURNS):
                raise ConfigurationError(f"{name} outside [0, 4*pi)")
        object.__setattr__(self, "thetas", th)
        object.__setattr__(self, "phis", ph)

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
    return HeaParams(layers, thetas, phis)


def brickwork_pairs(n_qubits: int) -> list[tuple[int, int]]:
    """CNOT pairs of one entangling layer: (2i, 2i+1) sweep then (2i+1, 2i+2) sweep."""
    pairs = [(2 * i, 2 * i + 1) for i in range(n_qubits // 2)]
    pairs += [(2 * i + 1, 2 * i + 2) for i in range(n_qubits // 2) if 2 * i + 2 < n_qubits]
    return pairs


def build_hea(n_qubits: int, params: HeaParams) -> GateSequence:
    """Lay out the full ansatz as a gate list, layers applied left to right."""
    if params.n_qubits != n_qubits:
        raise ConfigurationError(
            f"params are for {params.n_qubits} qubits, circuit wants {n_qubits}"
        )
    gates: list[Gate] = []
    for layer in range(params.layers):
        for q in range(n_qubits):
            gates.append(Gate("rx", (q,), float(params.thetas[layer, q])))
        for q in range(n_qubits):
            gates.append(Gate("rz", (q,), float(params.phis[layer, q])))
        for c, t in brickwork_pairs(n_qubits):
            gates.append(Gate("cnot", (c, t)))
    return GateSequence(tuple(gates), n_qubits)


def hea_gate_count(n_qubits: int, layers: int) -> int:
    """Gates per step circuit: L * (N rx + N rz + (N-1) brickwork cnots).

    The brickwork sweeps contribute floor(N/2) + floor((N-1)/2) = N-1 CNOTs
    per layer for every N >= 2, consistent with the per-step two-qubit gate
    counts of transpiled runs (e.g. 8 layers on 10 qubits give 72 CNOTs and
    232 gates per step).
    """
    return layers * (2 * n_qubits + len(brickwork_pairs(n_qubits)))


def _rx_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _rz_matrix(phi: float) -> np.ndarray:
    return np.array(
        [[np.exp(-1j * phi / 2.0), 0.0], [0.0, np.exp(1j * phi / 2.0)]], dtype=complex
    )


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


def apply_gate_sequence_batch(amps: np.ndarray, seq: GateSequence, n_qubits: int) -> np.ndarray:
    """Apply the sequence to every row of a (batch, 2^n) amplitude array.

    A rotation is one 2x2 product on a strided view; a CNOT is one index
    gather, entry j of every row taking the amplitude at j ^ ((bit c of j) << t).
    The input is never written to.
    """
    idx = np.arange(1 << n_qubits)
    for gate in seq.gates:
        if gate.kind == "cnot":
            c, t = gate.qubits
            amps = amps[:, idx ^ (((idx >> c) & 1) << t)]
        else:
            rotation = _rx_matrix if gate.kind == "rx" else _rz_matrix
            amps = _apply_2x2(amps, rotation(gate.angle), gate.qubits[0])
    return amps
