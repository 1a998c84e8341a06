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
into the (rows, 2^n) state after the next step: with every bath at 0 a dense
step multiplies the blocks by the step's first 2^n_A columns, so a reset
circuit needs only the 2^n x 2^n_A isometry that ``instantiate_circuit``
draws for it; a kept bath, and an HEA step (its drawn ``HeaParams``, applied
layer by layer in ``circuits``), act on the full register that
``_keep_branch`` rebuilds.

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

    def total(self) -> float:
        return float(self.probabilities.sum())


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


def step_matrices(config: HrcsConfig, unitaries: list[StepUnitary]) -> list[np.ndarray]:
    """Dense matrices of the step unitaries (the drawn columns of an isometry
    step).  An HEA step is applied to the identity batch, whose row b is
    then column b of the matrix."""
    identity = np.eye(1 << config.n_qubits, dtype=complex)
    return [
        step.entries if isinstance(step, UnitaryMatrix)
        else apply_hea_batch(identity, step).T
        for step in unitaries
    ]


def _propagate(
    picked: np.ndarray, bath: np.ndarray | None, step: StepUnitary, d_bath: int
) -> np.ndarray:
    """The step kernel: apply one step to every row's state |bath_r>|picked_r>
    of a (rows, 2^n_A) batch of system blocks, and return the (rows, 2^n)
    batch after it.  ``bath`` is None when every bath reads 0 (the first
    step, or after a reset).

    With every bath at 0 a dense step is one product of the blocks with the
    step's first 2^n_A columns, bitwise that of the zero-padded full-register
    product np.dot(U, amps.T).T.  The one exception is a single row at
    2^n_A = 2: it goes through BLAS's matrix-vector kernel, whose tail rounds
    a length-2 and a length-2^n dot product differently.  A kept bath, and an
    HEA step, act on the full register that ``_keep_branch`` rebuilds.
    """
    d_sys = picked.shape[1]
    if isinstance(step, UnitaryMatrix) and bath is None:
        return np.ascontiguousarray(np.dot(step.entries[:, :d_sys], picked.T).T)
    amps = _keep_branch(picked, bath, d_bath)
    if isinstance(step, HeaParams):
        return apply_hea_batch(amps, step)
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


def _batch_random_paulis(
    amps: np.ndarray, targets: Sequence[int], n: int, gamma: float, rng: np.random.Generator
) -> np.ndarray:
    """Trajectory unraveling of the depolarizing channel on a (shots, 2^n)
    batch, in place: with probability 1-gamma a row gets a Pauli string drawn
    uniformly from all 4^m (identity included).  Code digit i (0 I, 1 X, 2 Y,
    3 Z) acts on targets[i]; the string sets new[j] = i^(n_Y + 2 popcount(src
    & zy_mask)) old[src] with src = j ^ flip_mask (X, Y flip; Y, Z carry a sign)."""
    if gamma >= 1.0:
        return amps
    shots = amps.shape[0]
    m = len(targets)
    hit = rng.random(shots) < 1.0 - gamma
    codes = np.where(hit, rng.integers(4 ** m, size=shots), 0)
    rows = np.flatnonzero(codes)  # code 0 is the all-identity string
    digits = (codes[rows, None] >> (2 * np.arange(m))) & 3
    bits = 1 << np.asarray(targets)
    flip_mask = np.where((digits == 1) | (digits == 2), bits, 0).sum(axis=1)
    zy_mask = np.where(digits >= 2, bits, 0).sum(axis=1)
    n_y = (digits == 2).sum(axis=1, dtype=np.uint8)
    src = np.arange(1 << n) ^ flip_mask[:, None]
    picked = amps[rows[:, None], src]
    quarter_turns = n_y[:, None] + 2 * np.bitwise_count(src & zy_mask[:, None])
    picked *= np.array([1, 1j, -1, -1j])[quarter_turns % 4]
    amps[rows] = picked
    return amps


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
    gives a (rows, d_B, d_A) register, bath outcome on axis 1, and
    ``keep(k, blocks)`` returns the system blocks that survive the bath
    measurement and the outcome each sits in; the bath is carried to the
    next step or reset to 0.  Returns the system blocks after the last step."""
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
        picked, z = keep(k, blocks)
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

    A noiseless run's model probabilities are its ideal probabilities; a
    noisy run's paths are replayed by ``ideal_probabilities_batch``.
    """
    n, n_sys = config.n_qubits, config.n_system
    rows = np.arange(n_shots)
    bath_outcomes = np.zeros((n_shots, config.steps), dtype=np.int64)
    model_prob = np.ones(n_shots)

    def draw(k: int, blocks: np.ndarray):
        if noise is not None:
            amps = blocks.reshape(n_shots, -1)  # a view: the Pauli strings act in place
            _batch_random_paulis(amps, range(n_sys), n, noise.gamma_system, rng)
            _batch_random_paulis(amps, range(n_sys, n), n, noise.gamma_bath, rng)
        z, p_z = _draw((np.abs(blocks) ** 2).sum(axis=2), rng, "bath")
        model_prob[:] *= p_z
        bath_outcomes[:, k] = z
        return blocks[rows, z, :] / np.sqrt(p_z)[:, None], z

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
    picked = _walk(config, unitaries, shots, lambda k, blocks: (
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
    picked = _walk(config, unitaries, 1, lambda k, blocks: (
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
    mats = step_matrices(config, unitaries)
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
