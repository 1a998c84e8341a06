"""Protocol execution: per-step unitary, bath measurement, optional reset,
final system measurement.

Four modes share one circuit description: batched trajectory sampling,
forced-outcome replay, exact enumeration of the joint outcome distribution,
and a density-matrix oracle for the noisy variant, kept a separate recursion
so that it checks the others.  The first three run one step loop, ``_walk``:
the sampler draws one bath block per row, replay keeps the recorded one, and
enumeration keeps all of them as the next tree level.  Between steps the walk
holds each row's kept system block, a (rows, 2^n_A) batch, and the bath
block it sits in (0 after a reset).  Its kernel ``_propagate`` turns that
into the (rows, 2^n) state after the next step: a dense step, or an HEA step
compiled to the columns it reaches, is one matrix product; an HEA step with
a kept bath, or with more columns than rows, runs gate by gate.  This is
decided at every step, so enumeration compiles once its tree level has as
many rows as the step has columns.

The sampler unravels depolarizing noise into Pauli strings without touching
the register: a string's bath part relabels the bath outcome, and its system
part acts on the kept block.  A noisy batch's model probabilities are those
of its noisy paths, each under its drawn strings.

A sampled path is a row of ``TrajectoryBatch``.  Outcome indexing: a joint
outcome (z_1, ..., z_t, x) maps to the integer with z_1 in the most
significant bit block and x in the least significant one (the order of
``TrajectoryBatch.joint_indices`` and of enumerated leaves).  Within each
block the register's own low qubit is the low bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .circuits import HeaParams, apply_hea_batch, sample_hea_params
from .core import PROB_FLOOR, UnitaryMatrix, sample_haar_unitary
from .errors import CapacityError, ConfigurationError, DegenerateBranchError

TRAJECTORY_MAX_QUBITS = 24
ENUMERATION_MAX_BITS = 22
NOISY_ORACLE_MAX_QUBITS = 8
NOISY_ORACLE_MAX_BITS = 20

UNITARY_SOURCES = ("haar", "hea")

StepUnitary = UnitaryMatrix | HeaParams


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from a tuple of primitives (blake2b of their repr)."""
    text = "\x1f".join(repr(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class HrcsConfig:
    """Full protocol description for one circuit family."""

    n_system: int
    n_bath: int
    steps: int
    reset_bath: bool = True
    unitary_source: str = "haar"
    hea_layers: int | None = None
    master_seed: int = 0

    def __post_init__(self):
        if self.n_system < 1 or self.n_bath < 1:
            raise ConfigurationError("system and bath need at least one qubit each")
        if self.steps < 1:
            raise ConfigurationError(f"steps must be >= 1, got {self.steps}")
        if self.unitary_source not in UNITARY_SOURCES:
            raise ConfigurationError(
                f"unitary_source must be one of {UNITARY_SOURCES}, got {self.unitary_source!r}"
            )
        if self.unitary_source == "hea" and (self.hea_layers is None or self.hea_layers < 1):
            raise ConfigurationError("hea source needs hea_layers >= 1")
        if self.unitary_source == "haar" and self.hea_layers is not None:
            # instance_seed hashes hea_layers: a stray value would redraw every circuit
            raise ConfigurationError("hea_layers applies only to the hea source")

    @property
    def n_qubits(self) -> int:
        return self.n_system + self.n_bath

    @property
    def n_eff(self) -> int:
        return self.n_system + self.steps * self.n_bath


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing strengths applied to system and bath after each step unitary.

    gamma = 1 means no noise; gamma = 0 replaces the subsystem by the fully
    mixed state every step.
    """

    gamma_system: float
    gamma_bath: float

    def __post_init__(self):
        for name, g in (("gamma_system", self.gamma_system), ("gamma_bath", self.gamma_bath)):
            if not 0.0 <= g <= 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1], got {g}")


@dataclass(frozen=True)
class JointDistribution:
    """Exact probability vector over all 2^n_eff spatiotemporal outcomes."""

    probabilities: np.ndarray
    n_eff: int

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if p.size != 1 << self.n_eff:
            raise ConfigurationError(
                f"{p.size} probabilities do not cover {self.n_eff} effective bits"
            )
        if np.any(p < 0):
            raise ConfigurationError("negative probability entry")
        object.__setattr__(self, "probabilities", p)


def instance_seed(config: HrcsConfig, instance_index: int) -> int:
    """Stream seed of one ensemble member; depends only on the master seed,
    the circuit-defining parameters, and the index, so growing a sweep never
    shifts existing instances."""
    return derive_seed(
        config.master_seed,
        "instance",
        instance_index,
        config.n_system,
        config.n_bath,
        config.steps,
        config.unitary_source,
        config.hea_layers,
    )


def instantiate_circuit(config: HrcsConfig, instance_index: int) -> list[StepUnitary]:
    """Deterministically draw the t step unitaries of one circuit instance.

    A reset bath reads 0 before every step, so a Haar step of a reset circuit
    is drawn as the 2^n x 2^n_A isometry of its first 2^n_A columns.  The
    draws, and so every kept column, do not depend on ``reset_bath``.
    """
    rng = np.random.default_rng(instance_seed(config, instance_index))
    n = config.n_qubits
    if config.unitary_source == "haar":
        columns = 1 << (config.n_system if config.reset_bath else n)
        return [sample_haar_unitary(1 << n, rng, columns) for _ in range(config.steps)]
    return [sample_hea_params(n, config.hea_layers, rng) for _ in range(config.steps)]


def step_matrices(unitaries: Sequence[StepUnitary], columns: int) -> list[np.ndarray]:
    """The first ``columns`` columns of each step as a dense 2^n x columns
    matrix.  A dense step gives its drawn columns; an HEA step is compiled
    by running the first ``columns`` basis rows through the gate kernel,
    whose row b is then column b of the matrix."""
    return [
        step.entries[:, :columns] if isinstance(step, UnitaryMatrix)
        else apply_hea_batch(np.eye(columns, 1 << step.n_qubits, dtype=complex), step).T
        for step in unitaries
    ]


def _propagate(
    picked: np.ndarray, bath: np.ndarray | None, step: StepUnitary, d_bath: int
) -> np.ndarray:
    """The step kernel: apply one step to every row's state |bath_r>|picked_r>
    of a (rows, 2^n_A) batch of system blocks, and return the (rows, 2^n)
    batch after it.  ``bath`` is None when every bath reads 0 (the first
    step, or after a reset).

    With every bath at 0 a step reaches only its first 2^n_A columns.  An
    HEA step applied there with no more columns than rows is compiled to
    them (``step_matrices``) and applied as a dense step, so the compiled
    matrix is at most one batch copy.  Otherwise, and always with a kept
    bath, its gates run on the full register that ``_keep_branch`` rebuilds:
    a kept bath reaches all 2^n columns, whose dense product costs 2^n
    multiply-adds per amplitude against the step's few gate passes.

    With every bath at 0 a dense step is one product of the blocks with the
    step's first 2^n_A columns, bitwise that of the zero-padded full-register
    product np.dot(U, amps.T).T.  The one exception is a single row at
    2^n_A = 2: it goes through BLAS's matrix-vector kernel, whose tail rounds
    a length-2 and a length-2^n dot product differently.  A kept bath takes
    one product with the full register that ``_keep_branch`` rebuilds.
    """
    rows, d_sys = picked.shape
    if isinstance(step, HeaParams):
        if bath is not None or d_sys > rows:
            return apply_hea_batch(_keep_branch(picked, bath, d_bath), step)
        step = UnitaryMatrix(step_matrices([step], d_sys)[0])
    if bath is None:
        return np.ascontiguousarray(np.dot(step.entries[:, :d_sys], picked.T).T)
    amps = _keep_branch(picked, bath, d_bath)
    product = np.dot(step.entries, amps.T)
    del amps  # free the rebuilt register before the contiguous copy
    return np.ascontiguousarray(product.T)


def _keep_branch(picked: np.ndarray, z: np.ndarray | None, d_bath: int) -> np.ndarray:
    """Rebuild a (rows, 2^n) batch from each row's kept (rows, d_sys) system
    block after bath outcome z: the bath reads z, or 0 after a reset (z None)."""
    rows, d_sys = picked.shape
    amps = np.zeros((rows, d_bath, d_sys), dtype=picked.dtype)
    if z is None:
        amps[:, 0, :] = picked
    else:
        amps[np.arange(rows), z, :] = picked
    return amps.reshape(rows, -1)


@dataclass
class TrajectoryBatch:
    """Column-wise bundle of many sampled trajectories of one circuit."""

    bath_outcomes: np.ndarray  # (shots, steps) ints
    final_outcomes: np.ndarray  # (shots,) ints
    model_probabilities: np.ndarray  # (shots,)

    def __len__(self) -> int:
        return self.final_outcomes.size

    def joint_indices(self, config: HrcsConfig) -> np.ndarray:
        if config.n_eff > 63:
            raise ConfigurationError(
                f"joint indices of {config.n_eff} effective bits do not fit in int64"
            )
        idx = np.zeros(len(self), dtype=np.int64)
        for k in range(config.steps):
            idx = (idx << config.n_bath) | self.bath_outcomes[:, k]
        return (idx << config.n_system) | self.final_outcomes


def _random_paulis(rows: int, m: int, gamma: float, rng: np.random.Generator):
    """Trajectory unraveling of the depolarizing channel on an m-qubit field:
    with probability 1-gamma a row gets a Pauli string drawn uniformly from
    all 4^m (identity included), code digit i (0 I, 1 X, 2 Y, 3 Z) on bit i,
    moving old[src] to new[src ^ flip] times phase(src) = i^(n_Y + 2 popcount(src
    & zy)).  Returns flips and ``phase``; gamma = 1 draws none: 0 flips, no phase."""
    if gamma >= 1.0:
        return np.zeros(rows, dtype=np.int64), None
    codes = np.where(rng.random(rows) < 1.0 - gamma, rng.integers(4 ** m, size=rows), 0)
    digits = (codes[:, None] >> (2 * np.arange(m))) & 3
    bits = 1 << np.arange(m)
    flip = ((digits == 1) | (digits == 2)) @ bits
    zy = ((digits >= 2) @ bits)[:, None]
    n_y = (digits == 2).sum(axis=1, keepdims=True)
    return flip, lambda src: np.array([1, 1j, -1, -1j])[(n_y + 2 * np.bitwise_count(src & zy)) % 4]


def _draw(
    probs: np.ndarray, rng: np.random.Generator, branch: str
) -> tuple[np.ndarray, np.ndarray]:
    """One inverse-CDF outcome per row of (rows, outcomes) weights that need
    not sum to 1: the outcome indices and their weights."""
    cum = np.cumsum(probs, axis=1)
    u = rng.random(len(probs)) * cum[:, -1]
    idx = np.minimum((u[:, None] >= cum).sum(axis=1), probs.shape[1] - 1)
    p = probs[np.arange(len(probs)), idx]
    if np.any(p < PROB_FLOOR):
        raise DegenerateBranchError(f"sampled {branch} branch below underflow floor")
    return idx, p


def _walk(config: HrcsConfig, unitaries: list[StepUnitary], rows: int, keep) -> np.ndarray:
    """The step loop of every pure-state mode.  From rows of |0>, each step
    gives a (rows, d_B, d_A) register and ``keep(k, blocks, picked)`` returns
    the system blocks left by the bath measurement, perhaps over the consumed
    ``picked``, and their outcomes; the bath is carried or reset to 0."""
    if config.n_qubits > TRAJECTORY_MAX_QUBITS:
        raise CapacityError(
            f"trajectory register of {config.n_qubits} qubits exceeds {TRAJECTORY_MAX_QUBITS}"
        )
    _check_steps(config, unitaries)
    d_sys, d_bath = 1 << config.n_system, 1 << config.n_bath
    picked = np.zeros((rows, d_sys), dtype=complex)
    picked[:, 0] = 1.0
    z = None
    for k, step in enumerate(unitaries):
        blocks = _propagate(picked, z, step, d_bath).reshape(len(picked), d_bath, d_sys)
        picked, z = keep(k, blocks, picked)
        z = None if config.reset_bath else z
        del blocks  # free this step's register before the next is built
    return picked


def sample_trajectories(
    config: HrcsConfig,
    unitaries: list[StepUnitary],
    n_shots: int,
    noise: NoiseModel | None,
    rng: np.random.Generator,
) -> TrajectoryBatch:
    """Sample n_shots protocol runs of the same circuit, all advanced as one batch.

    Per step, noise draws a Pauli string per row on the system, then one on
    the bath, then the bath outcome.  The bath part relabels the outcome: a
    row draws z with the probability of its block z ^ flip, keeps that block
    and carries z.  The system part acts on the kept block.  Model
    probabilities are those of the sampled paths under their drawn strings.
    """
    noise = noise or NoiseModel(1.0, 1.0)
    d_sys, d_bath = 1 << config.n_system, 1 << config.n_bath
    rows = np.arange(n_shots)
    bath_outcomes = np.zeros((n_shots, config.steps), dtype=np.int64)
    model_prob = np.ones(n_shots)

    def draw(k: int, blocks: np.ndarray, kept: np.ndarray):
        flip_sys, phase_sys = _random_paulis(n_shots, config.n_system, noise.gamma_system, rng)
        flip_bath, phase_bath = _random_paulis(n_shots, config.n_bath, noise.gamma_bath, rng)
        probs = (np.abs(blocks) ** 2).sum(axis=2)
        if phase_bath is not None:  # outcome z reads block z ^ flip
            probs = probs[rows[:, None], np.arange(d_bath) ^ flip_bath[:, None]]
        z, p_z = _draw(probs, rng, "bath")
        model_prob[:] *= p_z
        bath_outcomes[:, k] = z
        src_bath = z ^ flip_bath
        src_sys = np.arange(d_sys) if phase_sys is None else np.arange(d_sys) ^ flip_sys[:, None]
        np.take(blocks, (rows * d_bath + src_bath)[:, None] * d_sys + src_sys, out=kept,
                mode="clip")  # "raise" would copy through a buffer
        for phase, src in ((phase_sys, src_sys), (phase_bath, src_bath[:, None])):
            if phase is not None:
                kept *= phase(src)
        kept /= np.sqrt(p_z)[:, None]
        return kept, z

    picked = _walk(config, unitaries, n_shots, draw)
    x, p_x = _draw(np.abs(picked) ** 2, rng, "final")
    model_prob *= p_x
    return TrajectoryBatch(bath_outcomes, x, model_prob)


def ideal_probabilities_batch(
    config: HrcsConfig,
    unitaries: list[StepUnitary],
    bath_outcomes: np.ndarray,
    final_outcomes: np.ndarray,
) -> np.ndarray:
    """Joint probabilities of forced outcome paths under the noiseless circuit;
    row i is the path (bath_outcomes[i], final_outcomes[i]).

    Projections are applied without renormalizing, so each squared final
    amplitude is the full product of branch probabilities; an impossible
    branch yields an exact 0.
    """
    shots = final_outcomes.shape[0]
    if bath_outcomes.shape != (shots, config.steps) or not (
        np.all((0 <= bath_outcomes) & (bath_outcomes < 1 << config.n_bath))
        and np.all((0 <= final_outcomes) & (final_outcomes < 1 << config.n_system))
    ):
        raise ConfigurationError(f"outcomes out of shape or range for {config.steps} steps")
    rows = np.arange(shots)
    picked = _walk(config, unitaries, shots, lambda k, blocks, _: (
        blocks[rows, bath_outcomes[:, k], :], bath_outcomes[:, k]))
    return np.abs(picked[rows, final_outcomes]) ** 2


def enumerate_joint_distribution(
    config: HrcsConfig, unitaries: list[StepUnitary]
) -> JointDistribution:
    """Breadth-first exact evaluation of the full joint outcome distribution.

    Step k advances the system blocks of all d_B^k live branches as one batch
    through the step kernel; each row then splits into d_B children, appended
    as row * d_B + z, so the leaves come out in joint-outcome order.  States are
    propagated unnormalized: every leaf value is already the product of its
    branch probabilities, and a zero-weight branch yields exact zeros.
    """
    if config.n_eff > ENUMERATION_MAX_BITS:
        raise CapacityError(
            f"enumeration over {config.n_eff} effective bits exceeds {ENUMERATION_MAX_BITS}"
        )
    picked = _walk(config, unitaries, 1, lambda k, blocks, _: (
        blocks.reshape(-1, blocks.shape[2]), np.tile(np.arange(blocks.shape[1]), len(blocks))))
    return JointDistribution((np.abs(picked) ** 2).reshape(-1), config.n_eff)


def marginalize(
    dist: JointDistribution, config: HrcsConfig, kind: str, step: int | None = None
) -> np.ndarray:
    """Exact marginal of the joint distribution.

    ``spatial`` keeps the final system outcome, ``temporal`` keeps all bath
    outcomes, ``per_step`` keeps a single 1-based bath step.
    """
    if dist.n_eff != config.n_eff:
        raise ConfigurationError("distribution does not match config dimensions")
    t = config.steps
    shaped = dist.probabilities.reshape((1 << config.n_bath,) * t + (1 << config.n_system,))
    if kind == "spatial":
        return shaped.sum(axis=tuple(range(t)))
    if kind == "temporal":
        return shaped.sum(axis=t).reshape(-1)
    if kind == "per_step":
        if step is None or not 1 <= step <= t:
            raise ConfigurationError(f"per_step needs a step index in [1, {t}], got {step}")
        axes = tuple(a for a in range(t + 1) if a != step - 1)
        return shaped.sum(axis=axes)
    raise ConfigurationError(f"unknown marginal kind {kind!r}")


def depolarize_density(rho: np.ndarray, d_low: int, d_high: int, which: str, gamma: float) -> np.ndarray:
    """Exact depolarizing channel on one factor of a (high (x) low) bipartite
    density matrix: rho -> gamma rho + (1-gamma) (I/d_sub) (x) tr_sub(rho).

    ``which`` names the depolarized factor; "low" is the low-bit register
    (the system in this package's layout), "high" the high-bit one (the bath).
    """
    if gamma == 1.0:
        return rho
    shaped = rho.reshape(d_high, d_low, d_high, d_low)
    if which == "low":
        traced = np.einsum("iaja->ij", shaped)
        replacement = np.einsum("ij,ab->iajb", traced, np.eye(d_low) / d_low)
    elif which == "high":
        traced = np.einsum("iaib->ab", shaped)
        replacement = np.einsum("ij,ab->iajb", np.eye(d_high) / d_high, traced)
    else:
        raise ConfigurationError(f"which must be 'low' or 'high', got {which!r}")
    return gamma * rho + (1.0 - gamma) * replacement.reshape(rho.shape)


def enumerate_noisy_joint_distribution(
    config: HrcsConfig, unitaries: list[StepUnitary], noise: NoiseModel
) -> JointDistribution:
    """Density-matrix oracle for the joint distribution under depolarizing noise.

    Evolution is kept unnormalized: the diagonal entries surviving at the end
    of each forced branch are exactly the joint outcome probabilities.
    """
    if config.n_qubits > NOISY_ORACLE_MAX_QUBITS:
        raise CapacityError(
            f"density-matrix oracle limited to {NOISY_ORACLE_MAX_QUBITS} qubits, "
            f"got {config.n_qubits}"
        )
    if config.n_eff > NOISY_ORACLE_MAX_BITS:
        raise CapacityError(
            f"noisy enumeration over {config.n_eff} effective bits exceeds {NOISY_ORACLE_MAX_BITS}"
        )
    _check_steps(config, unitaries)
    n_sys, n_bath = config.n_system, config.n_bath
    d_sys, d_bath = 1 << n_sys, 1 << n_bath
    t = config.steps
    mats = step_matrices(unitaries, d_sys if config.reset_bath else d_sys * d_bath)
    out = np.zeros(1 << config.n_eff)

    def walk(rho_sys: np.ndarray, bath_state: int, k: int, prefix: int) -> None:
        # only the step's columns of the occupied bath block act
        u = mats[k][:, bath_state * d_sys : (bath_state + 1) * d_sys]
        rho = u @ rho_sys @ u.conj().T
        rho = depolarize_density(rho, d_sys, d_bath, "low", noise.gamma_system)
        rho = depolarize_density(rho, d_sys, d_bath, "high", noise.gamma_bath)
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
    return JointDistribution(np.maximum(out, 0.0), config.n_eff)


def replay_no_reset_equivalence(
    config: HrcsConfig, unitaries: list[StepUnitary]
) -> tuple[JointDistribution, JointDistribution]:
    """Exact joint distributions of the same circuit with reset on and off.

    The run without a reset needs full steps: draw them with
    ``instantiate_circuit`` on a config with ``reset_bath=False``.

    Equality of CP and power sums holds only after ensemble averaging, not
    per instance; callers compare aggregates.
    """
    with_reset = enumerate_joint_distribution(
        dataclasses.replace(config, reset_bath=True), unitaries
    )
    without_reset = enumerate_joint_distribution(
        dataclasses.replace(config, reset_bath=False), unitaries
    )
    return with_reset, without_reset


def _check_steps(config: HrcsConfig, unitaries: list[StepUnitary]) -> None:
    if len(unitaries) != config.steps:
        raise ConfigurationError(f"{len(unitaries)} step unitaries for {config.steps} steps")
    # a kept bath can sit in any block, so without a reset every column acts
    d = 1 << config.n_qubits
    need = 1 << config.n_system if config.reset_bath else d
    for step in unitaries:
        if isinstance(step, HeaParams):
            if step.n_qubits != config.n_qubits:
                raise ConfigurationError(
                    f"an HEA step on {step.n_qubits} qubits does not fit a circuit on "
                    f"{config.n_qubits} qubits"
                )
        elif step.dim != d or step.columns < need:
            raise ConfigurationError(
                f"a {step.dim} x {step.columns} step does not hold the {d} x {need} columns "
                f"a {'reset' if config.reset_bath else 'no-reset'} circuit on "
                f"{config.n_qubits} qubits needs"
            )
