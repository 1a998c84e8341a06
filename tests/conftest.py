"""Shared fixtures and helpers for the test suite."""

import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hrcslab import CapacityError, ConfigurationError, HrcsConfig, engine, sample_haar_unitary
from hrcslab.circuits import HeaParams, brickwork_pairs
from hrcslab.engine import StepUnitary
from hrcslab.errors import _check_gamma

CONFIGS = Path(__file__).parent.parent / "scripts" / "configs"
# scripts/ is not a package: its record comparison loads from its file
_compare = importlib.util.spec_from_file_location(
    "compare_records", CONFIGS.parent / "compare_records.py")
compare_records = importlib.util.module_from_spec(_compare)
_compare.loader.exec_module(compare_records)

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


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


def joint_indices(batch, config: HrcsConfig) -> np.ndarray:
    """Each sampled path of a ``TrajectoryBatch`` as its joint outcome index:
    z_1 in the most significant bit block, the final x in the least."""
    if config.n_eff > 63:
        raise ConfigurationError(
            f"joint indices of {config.n_eff} effective bits do not fit in int64"
        )
    idx = np.zeros(len(batch), dtype=np.int64)
    for k in range(config.steps):
        idx = (idx << config.n_bath) | batch.bath_outcomes[:, k]
    return (idx << config.n_system) | batch.final_outcomes


def small_config(**overrides) -> HrcsConfig:
    base = dict(n_system=2, n_bath=1, steps=2, master_seed=7)
    base.update(overrides)
    return HrcsConfig(**base)


def haar_on(n_qubits: int, seed: int) -> np.ndarray:
    return sample_haar_unitary(1 << n_qubits, np.random.default_rng(seed))


def unitarity_defect(v: np.ndarray) -> float:
    """Max-abs deviation of V^dag V from the c x c identity, for a d x c step."""
    return float(np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1]))))


def pauli_string_matrix(code: int, targets, n: int) -> np.ndarray:
    """Dense 2^n x 2^n Pauli string: code digit i (0 I, 1 X, 2 Y, 3 Z) acts
    on targets[i], the identity on every other qubit."""
    labels = {q: "IXYZ"[(code >> (2 * i)) & 3] for i, q in enumerate(targets)}
    out = np.ones((1, 1), dtype=complex)
    for q in reversed(range(n)):  # qubit 0 is the least significant factor
        out = np.kron(out, PAULI_MATRICES[labels.get(q, "I")])
    return out


def y_factor(code: int) -> complex:
    """(-i)^(n_Y) for a Pauli code with n_Y digits 2 (Y): the factor that
    takes the dense string i^(n_Y) X^flip Z^zmask to its phase-free part."""
    n_y = sum((code >> s) & 3 == 2 for s in range(0, code.bit_length(), 2))
    return (-1j) ** n_y


def apply_strings(amps: np.ndarray, strings, low: int) -> np.ndarray:
    """A (rows, 2^n) batch after each row's string, drawn by
    ``engine._random_paulis`` on the field of qubits low, low + 1, ..., acts
    on it as X^flip Z^zmask: new[j] = (-1)^popcount(src & zmask) old[src]
    with src = j ^ flip on the field.  The string's global phase i^(n_Y) is
    left out, as the sampler leaves it out."""
    flip, zmask = strings
    src = np.arange(amps.shape[1]) ^ (flip[:, None] << low)
    odd = np.bitwise_count((src >> low) & zmask[:, None]) % 2 == 1
    return np.where(odd, -1, 1) * amps[np.arange(len(amps))[:, None], src]


def rx_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def rz_matrix(phi: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)])


def single_qubit_matrix(matrix: np.ndarray, q: int, n: int) -> np.ndarray:
    """Dense 2^n x 2^n operator: ``matrix`` on qubit q, the identity elsewhere."""
    out = np.ones((1, 1), dtype=complex)
    for k in reversed(range(n)):  # qubit 0 is the least significant factor
        out = np.kron(out, matrix if k == q else np.eye(2))
    return out


def cnot_permutation(control: int, target: int, n: int) -> np.ndarray:
    """Dense CNOT built bit by bit: |j> -> |j'> with bit ``target`` of j
    flipped when bit ``control`` of j is set."""
    d = 1 << n
    out = np.zeros((d, d))
    for j in range(d):
        bits = [(j >> k) & 1 for k in range(n)]
        if bits[control]:
            bits[target] ^= 1
        out[sum(b << k for k, b in enumerate(bits)), j] = 1.0
    return out


def dense_hea_oracle(params, columns=None) -> np.ndarray:
    """Dense matrix of an HEA step, gate by gate from explicit Kronecker RX and
    RZ operators and bit-loop CNOTs over the brickwork, independent of the
    batch kernel: per layer every RX, then every RZ, then the CNOTs in order.
    Given 2^n x c ``columns``, the step's product with them instead, which
    spares the 2^n x 2^n products at large n."""
    n = params.n_qubits
    out = np.eye(1 << n, dtype=complex) if columns is None else columns
    for thetas, phis in zip(params.thetas, params.phis):
        for q in range(n):
            out = single_qubit_matrix(rx_matrix(thetas[q]), q, n) @ out
        for q in range(n):
            out = single_qubit_matrix(rz_matrix(phis[q]), q, n) @ out
        for control, target in brickwork_pairs(n):
            out = cnot_permutation(control, target, n) @ out
    return out


def step_columns(step: StepUnitary, columns: int) -> np.ndarray:
    """The first ``columns`` columns of a step as a dense 2^n x columns
    array: a dense step's drawn ones, an HEA step's compiled by the engine."""
    return engine.step_matrix(step, columns) if isinstance(step, HeaParams) else step[:, :columns]


def tensordot_step(amps: np.ndarray, entries: np.ndarray, n: int) -> np.ndarray:
    """A full-register dense step through ``np.tensordot`` on the (rows, 2, ..., 2)
    tensor view, as the package computed it before the step kernel became one
    matrix product; the shipped configs' output bytes depend on the two
    agreeing bit for bit."""
    rows = amps.shape[0]
    tensor = amps.reshape((rows,) + (2,) * n)
    gate = entries.reshape((2,) * (2 * n))
    out = np.tensordot(gate, tensor, axes=(list(range(n, 2 * n)), list(range(1, n + 1))))
    return np.ascontiguousarray(np.moveaxis(out, range(n), range(1, n + 1))).reshape(rows, -1)


def per_shot_sampler(
    config: HrcsConfig, unitaries: list[StepUnitary], n_shots: int, gamma: float,
    rng: np.random.Generator,
) -> engine.TrajectoryBatch:
    """The trajectory sampler with one register row per shot from the first
    bath measurement on: the one |0> row fans out to every shot, not to the
    distinct paths.  It draws the same random numbers in the same order, so
    its outcomes are the sampler's bit for bit."""
    d_sys, d_bath = 1 << config.n_system, 1 << config.n_bath
    rows = np.arange(n_shots)
    bath_outcomes = np.zeros((n_shots, config.steps), dtype=np.int64)
    model_prob = np.ones(n_shots)

    def draw(k, blocks):
        flip_sys, zmask_sys = engine._random_paulis(n_shots, config.n_system, gamma, rng)
        flip_bath, _ = engine._random_paulis(n_shots, config.n_bath, gamma, rng)
        row = rows if k else np.zeros_like(rows)  # at k = 0 the one row
        probs = engine._weights(blocks)[np.arange(d_bath)[:, None] ^ flip_bath, row]
        z, p_z = engine._draw(probs, rng, "bath")
        model_prob[:] *= p_z
        bath_outcomes[:, k] = z
        src_sys = np.arange(d_sys) ^ flip_sys[:, None]
        kept = blocks[row[:, None], (z ^ flip_bath)[:, None], src_sys]
        odd = np.bitwise_count(src_sys & zmask_sys[:, None]) % 2 == 1
        return np.where(odd, -kept, kept) / np.sqrt(p_z)[:, None], z

    picked = engine._walk(config, unitaries, draw)
    x, p_x = engine._draw(engine._weights(picked[:, :, None]), rng, "final")
    return engine.TrajectoryBatch(bath_outcomes, x, model_prob * p_x)


def step_collision_probability(n_system: int, n_bath: int, steps: int) -> float:
    """Exact ensemble CP of the joint spatiotemporal distribution,
    2 (d_A+1)^(t-1) / (1 + d_A d_B)^t, as an exact rational rounded once."""
    d_a, d_b = 2 ** n_system, 2 ** n_bath
    return float(Fraction(2 * (d_a + 1) ** (steps - 1), (1 + d_a * d_b) ** steps))


def porter_thomas_density(d: float, p):
    """Porter-Thomas probability-of-probability density (d-1)(1-p)^(d-2)."""
    return (d - 1.0) * (1.0 - np.asarray(p, dtype=float)) ** (d - 2.0)


def noisy_xeb_oracle(n_system: int, n_bath: int, steps: int, gamma: float) -> float:
    """Ensemble noisy XEB 2^N_eff E[sum_s q(s) p(s)] - 1 over Haar reset steps,
    exact and with no instances drawn.

    A two-copy operator on (register) (x) (register) carries the noisy run q
    in copy 1 and the ideal run p in copy 2, summed over the bath outcomes so
    far.  Each step embeds the bath |0> in both copies, applies the two-copy
    Haar twirl E[U (x) U Y U^dag (x) U^dag] = alpha I + beta S, depolarizes
    copy 1's system and then its bath, and projects both copies on the same
    bath outcome.  The final system outcomes are the diagonal of what is left.
    Register index is bath * d_sys + system; the operator is held as the
    tensor [b1, s1, b2, s2, c1, r1, c2, r2] of rows (b, s) and columns (c, r).
    """
    d_sys, d_bath = 1 << n_system, 1 << n_bath
    d = d_sys * d_bath
    eye = np.eye(d * d)
    swap = eye.reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d)
    shape = (d_bath, d_sys, d_bath, d_sys) * 2
    system = np.zeros((d_sys,) * 4)  # [s1, s2, r1, r2], both copies in |0>
    system[0, 0, 0, 0] = 1.0
    for _ in range(steps):
        full = np.zeros(shape)
        full[0, :, 0, :, 0, :, 0, :] = system
        full = full.reshape(d * d, d * d)
        tr_y, tr_sy = np.trace(full), np.trace(swap @ full)
        alpha = (tr_y - tr_sy / d) / (d * d - 1)
        beta = (tr_sy - tr_y / d) / (d * d - 1)
        full = (alpha * eye + beta * swap).reshape(shape)
        traced = np.einsum("iajbkalc->ijbklc", full)
        full = gamma * full + (1 - gamma) * np.einsum(
            "ijbklc,ae->iajbkelc", traced, np.eye(d_sys) / d_sys
        )
        traced = np.einsum("iajbicke->ajbcke", full)
        full = gamma * full + (1 - gamma) * np.einsum(
            "ajbcke,il->iajblcke", traced, np.eye(d_bath) / d_bath
        )
        system = np.einsum("zazbzczd->abcd", full)
    return 2.0 ** (n_system + steps * n_bath) * np.einsum("xxxx->", system) - 1.0


# the density-matrix oracle's limits: a 2^n x 2^n density matrix per tree
# node, and a tree of 2^n_eff leaves
NOISY_ORACLE_MAX_QUBITS = 8
NOISY_ORACLE_MAX_BITS = 20


def depolarize_system(rho: np.ndarray, d_sys: int, d_bath: int, gamma: float) -> np.ndarray:
    """Exact depolarizing channel on the system, the low-bit factor of a
    (bath (x) system) density matrix: rho -> gamma rho + (1-gamma) tr_sys(rho) (x) I/d_sys."""
    if gamma == 1.0:
        return rho
    traced = np.einsum("iaja->ij", rho.reshape(d_bath, d_sys, d_bath, d_sys))
    replacement = np.einsum("ij,ab->iajb", traced, np.eye(d_sys) / d_sys)
    return gamma * rho + (1.0 - gamma) * replacement.reshape(rho.shape)


def depolarize_bath(rho: np.ndarray, d_sys: int, d_bath: int, gamma: float) -> np.ndarray:
    """Exact depolarizing channel on the bath, the high-bit factor of a
    (bath (x) system) density matrix: rho -> gamma rho + (1-gamma) I/d_bath (x) tr_bath(rho)."""
    if gamma == 1.0:
        return rho
    traced = np.einsum("iaib->ab", rho.reshape(d_bath, d_sys, d_bath, d_sys))
    replacement = np.einsum("ij,ab->iajb", np.eye(d_bath) / d_bath, traced)
    return gamma * rho + (1.0 - gamma) * replacement.reshape(rho.shape)


def enumerate_noisy_joint_distribution(
    config: HrcsConfig, unitaries: list[StepUnitary], gamma: float
) -> np.ndarray:
    """Density-matrix oracle for the joint distribution under depolarizing
    noise of strength ``gamma`` on system and bath after each step.

    Evolution is kept unnormalized: the diagonal entries surviving at the end
    of each forced branch are exactly the joint outcome probabilities.
    """
    gamma = _check_gamma("gamma", gamma)
    if config.n_qubits > NOISY_ORACLE_MAX_QUBITS:
        raise CapacityError(
            f"density-matrix oracle limited to {NOISY_ORACLE_MAX_QUBITS} qubits, "
            f"got {config.n_qubits}"
        )
    if config.n_eff > NOISY_ORACLE_MAX_BITS:
        raise CapacityError(
            f"noisy enumeration over {config.n_eff} effective bits exceeds {NOISY_ORACLE_MAX_BITS}"
        )
    engine._check_steps(config, unitaries)
    n_sys, n_bath = config.n_system, config.n_bath
    d_sys, d_bath = 1 << n_sys, 1 << n_bath
    t = config.steps
    columns = d_sys if config.reset_bath else d_sys * d_bath
    mats = [step_columns(step, columns) for step in unitaries]
    out = np.zeros(1 << config.n_eff)

    def walk(rho_sys: np.ndarray, bath_state: int, k: int, prefix: int) -> None:
        # only the step's columns of the occupied bath block act
        u = mats[k][:, bath_state * d_sys : (bath_state + 1) * d_sys]
        rho = u @ rho_sys @ u.conj().T
        rho = depolarize_bath(depolarize_system(rho, d_sys, d_bath, gamma), d_sys, d_bath, gamma)
        for z in range(d_bath):
            block = rho[z * d_sys : (z + 1) * d_sys, z * d_sys : (z + 1) * d_sys]
            weight = float(np.trace(block).real)
            child_prefix = (prefix << n_bath) | z
            if weight == 0.0:
                continue
            if k + 1 == t:
                base = child_prefix << n_sys
                out[base : base + d_sys] = np.diagonal(block).real
            else:
                walk(block, 0 if config.reset_bath else z, k + 1, child_prefix)

    rho0 = np.zeros((d_sys, d_sys), dtype=complex)
    rho0[0, 0] = 1.0
    walk(rho0, 0, 0, 0)
    return np.maximum(out, 0.0)
