"""Step-unitary generation: Haar matrices live in core; this module builds the
one-dimensional hardware-efficient ansatz (HEA) used as a cheap stand-in.

One HEA layer rotates every qubit (RX then RZ) and then entangles with a fixed
brickwork of CNOTs: pairs (2i, 2i+1) first, pairs (2i+1, 2i+2) second, pairs
falling off the register dropped.  Angles are drawn uniformly from [0, 4*pi).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import UnitaryMatrix, _apply_unitary_batch
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

    def to_json(self) -> str:
        return json.dumps(
            [{"kind": g.kind, "qubits": list(g.qubits), "angle": g.angle} for g in self.gates]
        )

    @classmethod
    def from_json(cls, text: str, n_qubits: int) -> "GateSequence":
        records = json.loads(text)
        gates = tuple(
            Gate(r["kind"], tuple(r["qubits"]), r.get("angle")) for r in records
        )
        return cls(gates, n_qubits)


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


def _cnot_matrix(control_pos: int, target_pos: int) -> np.ndarray:
    # positions are within the sorted 2-qubit subspace, position 0 = LSB
    m = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        cb = (i >> control_pos) & 1
        m[i ^ (cb << target_pos), i] = 1.0
    return m


def gate_operands(gate: Gate) -> tuple[np.ndarray, tuple[int, ...]]:
    """Dense matrix and ascending qubit tuple realizing ``gate``."""
    if gate.kind == "rx":
        return _rx_matrix(gate.angle), gate.qubits
    if gate.kind == "rz":
        return _rz_matrix(gate.angle), gate.qubits
    control, target = gate.qubits
    lo, hi = sorted(gate.qubits)
    return _cnot_matrix(int(control != lo), int(target != lo)), (lo, hi)


def apply_gate_sequence_batch(amps: np.ndarray, seq: GateSequence, n_qubits: int) -> np.ndarray:
    """Apply the sequence to every row of a (batch, 2^n) amplitude array."""
    for gate in seq.gates:
        matrix, qubits = gate_operands(gate)
        amps = _apply_unitary_batch(amps, matrix, qubits, n_qubits)
    return amps


def gate_sequence_to_unitary(seq: GateSequence, n_qubits: int) -> UnitaryMatrix:
    """Dense matrix of the whole sequence; small-register oracle, n <= 12."""
    if n_qubits > 12:
        raise ConfigurationError(f"dense circuit matrix limited to 12 qubits, got {n_qubits}")
    if seq.n_qubits != n_qubits:
        raise ConfigurationError("sequence register size does not match n_qubits")
    d = 1 << n_qubits
    cols = np.eye(d, dtype=complex)  # row b = basis state |b> evolving under the sequence
    cols = apply_gate_sequence_batch(cols, seq, n_qubits)
    return UnitaryMatrix(cols.T)
