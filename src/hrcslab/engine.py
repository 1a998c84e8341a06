"""Protocol execution: per-step unitary, bath measurement, optional reset,
final system measurement.

Four modes share one circuit description: batched trajectory sampling,
forced-outcome replay, exact enumeration of the joint outcome distribution,
and a density-matrix oracle for the noisy variant, kept a separate recursion
so that it checks the others.  The first three run one step loop, ``_walk``,
from the one |0> row that every shot and branch shares: the sampler draws one
bath block per row, replay keeps the recorded one, and enumeration keeps all
of them as the next tree level, so at the first bath measurement the one row
fans out to the shots, or to d_B branches.  Between steps the walk holds each
row's kept system block, a (rows, 2^n_A) batch, and the bath block it sits
in (0 after a reset).  Its kernel ``_propagate`` turns that into the
(rows, 2^n) state after the next step: a dense step, or an HEA step compiled
to the columns it reaches, is one matrix product; an HEA step with a kept
bath, or with more columns than rows, runs layer by layer.  This is decided
at every step, so an HEA first step runs its gates on the one row, and a
later step compiles once the shots, or the tree level, number at least its
columns.  A step is either a complex 2^n x c array, the first c columns of a
unitary, or the ``HeaParams`` of an HEA step; ``_check_steps`` refuses an
array of any other shape, and an HEA step on another register, before a step
runs.

Noise is one depolarizing strength ``gamma`` in [0, 1], applied to system
and bath after every step; 1 is noiseless.  The sampler unravels it into
Pauli strings, each an X and a Z mask, without touching the register: the
bath X mask relabels the bath outcome, and the system masks permute and
negate the kept block.  The i of each Y and the bath Z sign, phases of a
whole row, are not applied.  Model probabilities are those of noisy paths.

A sampled path is a row of ``TrajectoryBatch``; an exact distribution is a
float64 vector of 2^n_eff probabilities.  Outcome indexing: a joint outcome
(z_1, ..., z_t, x) maps to the integer with z_1 in the most significant bit
block and x in the least significant one (the order of enumerated leaves).
Within each block the register's own low qubit is the low bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .circuits import HeaParams, apply_hea_batch, sample_hea_params
from .core import PROB_FLOOR, sample_haar_unitary
from .errors import CapacityError, ConfigurationError, DegenerateBranchError

TRAJECTORY_MAX_QUBITS = 24
ENUMERATION_MAX_BITS = 22
NOISY_ORACLE_MAX_QUBITS = 8
NOISY_ORACLE_MAX_BITS = 20

UNITARY_SOURCES = ("haar", "hea")

StepUnitary = np.ndarray | HeaParams


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
        apply_hea_batch(np.eye(columns, 1 << step.n_qubits, dtype=complex), step).T
        if isinstance(step, HeaParams) else step[:, :columns]
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
    bath, its layers run on the full register that ``_keep_branch`` rebuilds:
    a kept bath reaches all 2^n columns, whose dense product costs 2^n
    multiply-adds per amplitude, and compiling them runs 2^n basis rows
    through the kernel; the kernel costs 2^(n - n//2) + 2^(n//2) per
    amplitude and layer (64 at n = 10).  The walk's first step has one row,
    so an HEA first step runs its gates on that row.

    A dense step is one product: of its first 2^n_A columns with the blocks
    when every bath is at 0, else of all its columns with the register that
    ``_keep_branch`` rebuilds.  The first is bitwise the zero-padded product,
    except for a single row at 2^n_A = 2: BLAS's matrix-vector kernel rounds
    a length-2 and a length-2^n dot product differently in its tail.

    The product is returned where BLAS wrote it: the (rows, 2^n) transpose
    of a C-ordered (2^n, rows) array, so a row's amplitudes lie ``rows``
    apart, and copying it row-major would cost one batch copy per step.  An
    HEA step run gate by gate returns C order.  A reduction over a row of
    this view runs in another order than over a C-ordered row, and so rounds
    differently: the sampler sums its bath probabilities over a C-ordered
    copy of the squared moduli (``sample_trajectories``).
    """
    rows, d_sys = picked.shape
    if isinstance(step, HeaParams):
        if bath is not None or d_sys > rows:
            return apply_hea_batch(_keep_branch(picked, bath, d_bath), step)
        step = step_matrices([step], d_sys)[0]
    amps = picked if bath is None else _keep_branch(picked, bath, d_bath)
    return np.dot(step[:, :amps.shape[1]], amps.T).T


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


def _random_paulis(rows: int, m: int, gamma: float, rng: np.random.Generator):
    """Trajectory unraveling of the depolarizing channel on an m-qubit field:
    with probability 1-gamma a row gets a Pauli string drawn uniformly from
    all 4^m (identity included), code digit i (0 I, 1 X, 2 Y, 3 Z) on bit i.
    The string is i^(n_Y) X^flip Z^zmask; returns ``flip, zmask``, not the
    global phase i^(n_Y).  gamma = 1 draws none: both masks are 0."""
    if gamma >= 1.0:
        return np.zeros((2, rows), dtype=np.int64)
    codes = np.where(rng.random(rows) < 1.0 - gamma, rng.integers(4 ** m, size=rows), 0)
    digits = (codes[:, None] >> (2 * np.arange(m))) & 3
    bits = 1 << np.arange(m)
    return ((digits == 1) | (digits == 2)) @ bits, (digits >= 2) @ bits


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


def _walk(config: HrcsConfig, unitaries: list[StepUnitary], keep) -> np.ndarray:
    """The step loop of every pure-state mode.  From one row of |0>, each step
    gives a (rows, d_B, d_A) register, in the step kernel's layout, and
    ``keep(k, blocks)`` returns the system blocks left by the bath
    measurement and their outcomes; the bath is carried or reset to 0.  At
    k = 0 ``keep`` fans the one row out to as many rows as it keeps."""
    if config.n_qubits > TRAJECTORY_MAX_QUBITS:
        raise CapacityError(
            f"trajectory register of {config.n_qubits} qubits exceeds {TRAJECTORY_MAX_QUBITS}"
        )
    _check_steps(config, unitaries)
    d_sys, d_bath = 1 << config.n_system, 1 << config.n_bath
    picked = np.zeros((1, d_sys), dtype=complex)
    picked[0, 0] = 1.0
    z = None
    for k, step in enumerate(unitaries):
        blocks = _propagate(picked, z, step, d_bath).reshape(-1, d_bath, d_sys)
        del picked  # free the consumed blocks before keep gathers the next
        picked, z = keep(k, blocks)
        z = None if config.reset_bath else z
        del blocks  # free this step's register before the next is built
    return picked


def sample_trajectories(
    config: HrcsConfig,
    unitaries: list[StepUnitary],
    n_shots: int,
    gamma: float,
    rng: np.random.Generator,
) -> TrajectoryBatch:
    """Sample n_shots protocol runs of the same circuit, all advanced as one batch.
    They share the first step, which runs once on the one |0> row.

    Depolarizing noise of strength ``gamma`` (1 is noiseless) draws, per
    step, a Pauli string per row on the system, then one on the bath, then
    the bath outcome.  The bath X mask f relabels the outcome: a row draws z
    with the probability of its block z ^ f, keeps that block and carries z.
    The system string acts on the kept block as X^flip Z^zmask, without its
    global phase.  Model probabilities are those of the noisy paths.
    """
    _check_gamma(gamma)
    d_sys, d_bath = 1 << config.n_system, 1 << config.n_bath
    rows = np.arange(n_shots)
    bath_outcomes = np.zeros((n_shots, config.steps), dtype=np.int64)
    model_prob = np.ones(n_shots)

    def draw(k: int, blocks: np.ndarray):
        flip_sys, zmask_sys = _random_paulis(n_shots, config.n_system, gamma, rng)
        flip_bath, _ = _random_paulis(n_shots, config.n_bath, gamma, rng)
        # at k = 0 blocks holds the one row every shot starts from
        row = rows if k else np.zeros_like(rows)
        # a C-ordered copy, so each block sums in numpy's pairwise order
        # whatever the step kernel's layout (see _propagate)
        probs = (np.abs(blocks, order="C") ** 2).sum(axis=2)
        # outcome z reads block z ^ flip of the shot's row
        probs = probs[row[:, None], np.arange(d_bath) ^ flip_bath[:, None]]
        z, p_z = _draw(probs, rng, "bath")
        model_prob[:] *= p_z
        bath_outcomes[:, k] = z
        src_bath = z ^ flip_bath
        src_sys = np.arange(d_sys) if gamma == 1.0 else np.arange(d_sys) ^ flip_sys[:, None]
        kept = blocks[row[:, None], src_bath[:, None], src_sys]
        if gamma < 1.0:  # Z^zmask: the gather has spent src_sys, which takes the overlap
            odd = np.bitwise_count(np.bitwise_and(src_sys, zmask_sys[:, None], out=src_sys)) % 2
            np.negative(kept, out=kept, where=odd == 1)
        kept /= np.sqrt(p_z)[:, None]
        return kept, z

    picked = _walk(config, unitaries, draw)
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
    picked = _walk(config, unitaries, lambda k, blocks: (  # step 0 fans out the one row
        blocks[rows if k else 0, bath_outcomes[:, k], :], bath_outcomes[:, k]))
    return np.abs(picked[rows, final_outcomes]) ** 2


def enumerate_joint_distribution(
    config: HrcsConfig, unitaries: list[StepUnitary]
) -> np.ndarray:
    """Breadth-first exact evaluation of the full joint outcome distribution,
    a vector of 2^n_eff probabilities.

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
    picked = _walk(config, unitaries, lambda k, blocks: (
        blocks.reshape(-1, blocks.shape[2]), np.tile(np.arange(blocks.shape[1]), len(blocks))))
    return (np.abs(picked) ** 2).reshape(-1)


def marginalize(
    dist: np.ndarray, config: HrcsConfig, kind: str, step: int | None = None
) -> np.ndarray:
    """Exact marginal of a joint distribution vector.

    ``spatial`` keeps the final system outcome, ``temporal`` keeps all bath
    outcomes, ``per_step`` keeps a single 1-based bath step.
    """
    if dist.size != 1 << config.n_eff:
        raise ConfigurationError(
            f"{dist.size} probabilities do not cover {config.n_eff} effective bits"
        )
    t = config.steps
    shaped = dist.reshape((1 << config.n_bath,) * t + (1 << config.n_system,))
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
    _check_gamma(gamma)
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


def replay_no_reset_equivalence(
    config: HrcsConfig, unitaries: list[StepUnitary]
) -> tuple[np.ndarray, np.ndarray]:
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


def _check_gamma(gamma: float) -> None:
    if not 0.0 <= gamma <= 1.0:  # false for nan too
        raise ConfigurationError(f"gamma must lie in [0, 1], got {gamma}")


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
        elif not (isinstance(step, np.ndarray) and step.ndim == 2 and step.shape[0] == d
                  and need <= step.shape[1] <= d):
            raise ConfigurationError(
                f"a step of shape {np.shape(step)} is not the {d} x c array, {need} <= c <= {d}, "
                f"that a {'reset' if config.reset_bath else 'no-reset'} circuit on "
                f"{config.n_qubits} qubits needs"
            )
