"""Protocol execution: per-step unitary, bath measurement, optional reset,
final system measurement.

Three modes share one circuit description: batched trajectory sampling,
forced-outcome replay and exact enumeration of the joint outcome
distribution.  The density-matrix oracle for the noisy variant lives in the
tests, a separate recursion so that it checks them.  All three run one step
loop, ``_walk``, from the one |0> row that every shot and branch shares: the
sampler draws one bath block per shot, replay keeps the recorded one, and
enumeration keeps all of them as the next tree level.  So at the first bath
measurement the one row fans out to the sampler's distinct paths (shots that
keep the same block under the same Pauli strings share a row), to replay's
shots, or to d_B branches; from the second bath measurement on, each shot
has its own row.  Between steps the walk holds each row's kept system
block, a (rows, 2^n_A) batch, and the bath block it sits in (0 after a
reset).  At the top of each step ``_walk`` compiles an HEA step to the
2^n_A columns it reaches (``step_matrix``) when every bath reads 0 and its
rows (distinct paths, shots or tree level) number at least those columns;
so an HEA first step runs its gates on the one row, and a later step
compiles once its rows are enough.  Its kernel ``_propagate`` turns the
blocks into the (rows, 2^n) state after the step: a dense or compiled step
is one matrix product, and an HEA step still handed over runs layer by
layer.  Replay knows each row's block before the step runs, so from 4
system qubits up a step that is one product multiplies each row only by
the d_A x d_A block that maps its bath block to the recorded one
(``_replay_step``).  A step is either a complex 2^n x c array, the
first c columns of a unitary, or the ``HeaParams`` of an HEA step;
``_check_steps`` refuses an array of any other shape, and an HEA step on
another register, before a step runs.

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
from dataclasses import dataclass

import numpy as np

from .circuits import HeaParams, apply_hea_batch, sample_hea_params
from .core import HAAR_COLUMNS_DIM, PROB_FLOOR, sample_haar_unitary
from .errors import (
    CapacityError,
    ConfigurationError,
    DegenerateBranchError,
    _as_bool,
    _as_int,
    _check_gamma,
)

TRAJECTORY_MAX_QUBITS = 24
ENUMERATION_MAX_BITS = 22
# replay computes only each shot's recorded bath block from this many system
# qubits up (``_replay_step``)
FORCED_BLOCK_QUBITS = 4

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
        # derive_seed hashes repr, so np.int64(3) would seed another circuit than 3
        for name, least in (("n_system", 1), ("n_bath", 1), ("steps", 1), ("master_seed", None)):
            object.__setattr__(self, name, _as_int(name, getattr(self, name), least))
        object.__setattr__(self, "reset_bath", _as_bool("reset_bath", self.reset_bath))
        if self.unitary_source not in UNITARY_SOURCES:
            raise ConfigurationError(
                f"unitary_source must be one of {UNITARY_SOURCES}, got {self.unitary_source!r}"
            )
        if self.unitary_source == "hea":
            object.__setattr__(self, "hea_layers", _as_int("hea_layers", self.hea_layers, 1))
        elif self.hea_layers is not None:
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
        _as_int("instance index", instance_index),
        config.n_system,
        config.n_bath,
        config.steps,
        config.unitary_source,
        config.hea_layers,
    )


def instantiate_circuit(config: HrcsConfig, instance_index: int) -> list[StepUnitary]:
    """Deterministically draw the t step unitaries of one circuit instance.

    A reset bath reads 0 before every step, so a Haar step of a reset circuit
    is drawn as the 2^n x 2^n_A isometry of its first 2^n_A columns, and
    every kept column is the same with or without a reset.  Haar steps
    follow the two stream rules of the ``core`` module docstring, split at
    ``core.HAAR_COLUMNS_DIM``.

    HEA steps draw their angles in turn from the instance's generator.
    """
    seed = instance_seed(config, instance_index)
    n = config.n_qubits
    if config.unitary_source == "hea":
        rng = np.random.default_rng(seed)
        return [sample_hea_params(n, config.hea_layers, rng) for _ in range(config.steps)]
    dim, columns = 1 << n, 1 << (config.n_system if config.reset_bath else n)
    if dim < HAAR_COLUMNS_DIM:
        return list(sample_haar_unitary(dim, np.random.default_rng(seed), columns, config.steps))
    return [
        sample_haar_unitary(dim, np.random.default_rng(derive_seed(seed, "step", k)), columns)
        for k in range(config.steps)
    ]


# copies of what one draw call factors (core's module docstring: all t whole
# steps below HAAR_COLUMNS_DIM, one step's kept columns from it up) that
# drawing them holds beside the output: the drawn normals, the QR's copy of
# them, its r (a full step's is one more step), and LAPACK's buffers, which
# tracemalloc does not see.  Peak RSS of one draw grows beyond its output by
# 4.0-4.1 full steps and by 3.9-4.0 isometries of 16 to 512 columns at 10
# to 12 qubits (tracemalloc: 3.06-3.07 full steps, 2.02-2.14 isometries)
HAAR_QR_TRANSIENT_COPIES = 5
# (L, N) float arrays that drawing one HEA step holds beside the 2t angle
# arrays of an instance's t steps: tracemalloc measures 0.125 of one (its
# boolean range mask) at 1+1 to 5+5 with 10^5 to 10^6 layers
HEA_ANGLE_TRANSIENT_COPIES = 1

# (shots, 2^n) complex arrays an xeb or noisy_xeb instance holds at its peak,
# replay included: from 4 system qubits up replay holds (shots, 2^n_A)
# blocks, 0.10-0.20 copies at 4+4 and 5+5 (1.03-2.07 for the full product it
# still runs below that and for HEA steps whose gates run on the register),
# so the sampler sets the peak.  tracemalloc at t = 3 with 2000 shots (1000
# at 5+5), xeb and noisy_xeb at gamma = 0.7, steps included.  With a reset
# the peak is the step's product beside its (d_B, shots) bath weights, summed
# with no copy of the register: 1.2-1.3 with Haar and 4-layer HEA steps at
# 3+5 to 5+5, 1.3-1.5 at 6+2, and at 7+1, whose kept block is half a copy,
# 1.6-1.7 and 1.8-2.0 noisy (the Pauli gather index and signs).  Without a reset it is the rebuilt
# register, the product and the steps: 2.4-2.9 with Haar steps at 3+5 to 7+1,
# and 2.1-2.6 where the HEA steps after the first run their layers on the
# rebuilt register, at 2000 and at 200 shots; so too a reset HEA step compiled
# to 2^n_A columns with 2^n_A shots, where those columns are one batch copy:
# 2.1-2.2 at 7+3 and 8+4 and 2.5 at 9+1.  At t = 1 the walk is the one |0> row
# fanned out to the distinct paths, and the final draw gathers their weights
# to the shots; replay still fans the row out to every shot: 0.04-0.36 at
# 3+5 to 6+2 and 0.54-0.71 at 7+1 and 9+1 (steps drawn before the trace; one
# row per shot read 0.08-0.53 and 1.04-1.05).  From t = 2 on the later steps
# hold one row per shot, so the budget stays at 4
SAMPLER_LIVE_COPIES = 4


def instance_bytes(config: HrcsConfig, shots: int = 0) -> int:
    """Bytes one instance takes at its peak: its steps while
    ``instantiate_circuit`` draws them, and ``SAMPLER_LIVE_COPIES`` batch
    copies for each of ``shots`` sampled trajectories."""
    n, t = config.n_qubits, config.steps
    batches = shots * (16 << n) * SAMPLER_LIVE_COPIES
    if config.unitary_source == "hea":
        # the (L, N) thetas and phis of all t steps
        return batches + (2 * t + HEA_ANGLE_TRANSIENT_COPIES) * 8 * config.hea_layers * n
    # all t dense steps, 2^n x 2^n_A isometries under a reset and full
    # unitaries without one, and the transients of one draw
    dim, columns = 1 << n, 1 << (config.n_system if config.reset_bath else n)
    drawn = t * 16 * dim * dim if dim < HAAR_COLUMNS_DIM else 16 * dim * columns
    return batches + t * 16 * dim * columns + HAAR_QR_TRANSIENT_COPIES * drawn


def step_matrix(step: HeaParams, columns: int) -> np.ndarray:
    """The first ``columns`` columns of an HEA step as a dense 2^n x columns
    matrix, compiled by running the first ``columns`` basis rows through the
    gate kernel, whose row b is then column b of the matrix."""
    return apply_hea_batch(np.eye(columns, 1 << step.n_qubits, dtype=complex), step).T


def _propagate(
    picked: np.ndarray, bath: np.ndarray | None, step: StepUnitary, d_bath: int
) -> np.ndarray:
    """The step kernel: apply one step to every row's state |bath_r>|picked_r>
    of a (rows, 2^n_A) batch of system blocks, and return the (rows, 2^n)
    batch after it.  ``bath`` is None when every bath reads 0 (the first
    step, or after a reset).

    ``_walk`` has already compiled an HEA step that it applies with every
    bath at 0 and no more columns than rows, so the compiled matrix is at
    most one batch copy.  An HEA step handed over as ``HeaParams`` runs its
    layers on the full register that ``_keep_branch`` rebuilds: a kept bath
    reaches all 2^n columns, whose dense product costs 2^n multiply-adds per
    amplitude, and compiling them runs 2^n basis rows through the kernel;
    the kernel costs 2^(n - n//2) + 2^(n//2) per amplitude and layer (64 at
    n = 10).  The walk's first step has one row, so an HEA first step runs
    its gates on that row.

    A dense step is one product: of its first 2^n_A columns with the blocks
    when every bath is at 0, else of all its columns with the register that
    ``_keep_branch`` rebuilds.  The first is bitwise the zero-padded product,
    except for a single row at 2^n_A = 2: BLAS's matrix-vector kernel rounds
    a length-2 and a length-2^n dot product differently in its tail.

    The product is returned where BLAS wrote it: the (rows, 2^n) transpose
    of a C-ordered (2^n, rows) array, since copying it row-major would cost
    one batch copy per step.  An HEA step run gate by gate returns C order.
    ``_weights`` reads either layout as it lies.
    """
    if isinstance(step, HeaParams):
        return apply_hea_batch(_keep_branch(picked, bath, d_bath), step)
    amps = picked if bath is None else _keep_branch(picked, bath, d_bath)
    return np.dot(step[:, :amps.shape[1]], amps.T).T


def _replay_step(
    picked: np.ndarray, bath: np.ndarray | None, step: StepUnitary, z: np.ndarray, d_bath: int
) -> np.ndarray:
    """Replay's step: each row's system block after the step, at the bath
    outcome z it recorded, unnormalized.  ``bath`` is the bath block the
    row sits in before it, None when every bath reads 0.

    From ``FORCED_BLOCK_QUBITS`` system qubits up, a step with more than one
    row that is one product (a dense step, or an HEA step that ``_walk``
    compiled to its columns) multiplies each row only by the d_A x d_A block
    of the step that maps its bath block to z: its rows of block z and its
    columns of the block it sits in.  Rows are grouped by that block, so
    each group is one product, and written back in row order.  The full
    product costs d_B times the multiply-adds with a reset, and d_B^2 times
    with a kept bath.  Below the split, and where an HEA step runs gate by
    gate, each row's block z is read from the full product (``_propagate``).
    """
    rows, d_sys = picked.shape
    if rows < 2 or d_sys < 1 << FORCED_BLOCK_QUBITS or isinstance(step, HeaParams):
        blocks = _propagate(picked, bath, step, d_bath).reshape(rows, d_bath, d_sys)
        return blocks[0 if rows == 1 else np.arange(rows), z]  # one row fans out
    group = z.astype(np.int64) * d_bath + (0 if bath is None else bath)
    order = np.argsort(group, kind="stable")
    group, ordered = group[order], picked[order]
    starts = [*np.flatnonzero(np.diff(group, prepend=-1)), rows]
    out = np.empty_like(picked)
    for lo, hi in zip(starts, starts[1:]):
        to, of = divmod(int(group[lo]), d_bath)
        block = step[to * d_sys:(to + 1) * d_sys, of * d_sys:(of + 1) * d_sys]
        out[order[lo:hi]] = np.dot(block, ordered[lo:hi].T).T
    return out


def _keep_branch(picked: np.ndarray, z: np.ndarray | None, d_bath: int) -> np.ndarray:
    """Rebuild a (rows, 2^n) batch from each row's kept (rows, d_sys) system
    block after bath outcome z: the bath reads z, or 0 after a reset (z None)."""
    rows, d_sys = picked.shape
    amps = np.zeros((rows, d_bath, d_sys), dtype=picked.dtype)
    if z is None:
        amps[:, 0, :] = picked
    else:
        amps[np.arange(rows), z, :] = picked
    return amps.reshape(rows, d_bath * d_sys)


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
    all 4^m (identity included), code digit i (0 I, 1 X, 2 Y, 3 Z) in bits
    2i and 2i + 1.  The string is i^(n_Y) X^flip Z^zmask; returns ``flip,
    zmask``, not the global phase i^(n_Y).  gamma = 1 draws none: both masks
    are 0."""
    if gamma >= 1.0:
        return np.zeros((2, rows), dtype=np.int64)
    codes = np.where(rng.random(rows) < 1.0 - gamma, rng.integers(4 ** m, size=rows), 0)
    # X where a digit's two bits differ (1, 2), Z where its high bit is set (2, 3)
    return _even_bits(codes ^ (codes >> 1), m), _even_bits(codes >> 1, m)


# (shift, mask) of each step that halves the gaps between the kept bits
_COMPACT = ((1, 0x3333333333333333), (2, 0x0F0F0F0F0F0F0F0F), (4, 0x00FF00FF00FF00FF),
            (8, 0x0000FFFF0000FFFF), (16, 0x00000000FFFFFFFF))


def _even_bits(x: np.ndarray, m: int) -> np.ndarray:
    """Bit i of each result is bit 2i of x, for i < m <= 31; x is overwritten."""
    x &= 0x5555555555555555
    for shift, mask in _COMPACT:
        if shift >= m:
            break
        x |= x >> shift
        x &= mask
    return x


def _weights(blocks: np.ndarray) -> np.ndarray:
    """The (d_B, rows) weights of each row's bath blocks in a (rows, d_B, d_A)
    register, in one defined order: for each row and outcome, the squared
    real parts of the block's d_A amplitudes summed in order of the system
    index, plus their squared imaginary parts summed the same way.  So a
    weight has the same bits in any layout and beside any other rows.  Einsum
    reads the real and imaginary views as they lie, with no BLAS call and no
    copy of the register."""
    re, im = blocks.real, blocks.imag
    return np.einsum("rba,rba->br", re, re) + np.einsum("rba,rba->br", im, im)


def _draw(
    probs: np.ndarray, rng: np.random.Generator, branch: str
) -> tuple[np.ndarray, np.ndarray]:
    """One inverse-CDF outcome per column of (outcomes, rows) weights that
    need not sum to 1: the outcome indices and their weights.  The CDF is
    cumulated one outcome at a time, along the rows, for speed: it has the
    bits of ``np.cumsum(axis=0)``, 2-9x faster at 1000 rows and d_B <= 32.
    A weight that is not finite, or a drawn one below the floor, refuses
    the draw."""
    cum = np.empty_like(probs)
    cum[0] = probs[0]
    for j in range(1, len(probs)):
        np.add(cum[j - 1], probs[j], out=cum[j])
    u = rng.random(probs.shape[1]) * cum[-1]
    idx = np.minimum(np.count_nonzero(u >= cum, axis=0), len(probs) - 1)
    p = probs[idx, np.arange(probs.shape[1])]
    if not (np.all(p >= PROB_FLOOR) and np.all(np.isfinite(cum[-1]))):
        raise DegenerateBranchError(f"sampled {branch} branch below underflow floor or nan")
    return idx, p


def _walk(
    config: HrcsConfig, unitaries: list[StepUnitary], keep=None, forced: np.ndarray | None = None
) -> np.ndarray:
    """The step loop of every pure-state mode.  From one row of |0>, each step
    gives a (rows, d_B, d_A) register, in the step kernel's layout, and
    ``keep(k, blocks)`` returns the system blocks left by the bath
    measurement and their outcomes; the bath is carried or reset to 0.  At
    k = 0 ``keep`` fans the one row out to as many rows as it keeps: the
    sampler's distinct paths, or enumeration's d_B branches.
    Replay passes its (rows, t) recorded bath outcomes as ``forced`` instead
    of ``keep``: row i keeps block forced[i, k] (``_replay_step``).

    Each step's kernel is chosen here, once, for every mode: an HEA step
    applied with every bath at 0 and at least as many rows as its 2^n_A
    columns is compiled to them (``step_matrix``), and the kernels run every
    other HEA step gate by gate."""
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
        if isinstance(step, HeaParams) and z is None and len(picked) >= d_sys:
            step = step_matrix(step, d_sys)
        if forced is not None:
            picked, z = _replay_step(picked, z, step, forced[:, k], d_bath), forced[:, k]
        else:
            blocks = _propagate(picked, z, step, d_bath).reshape(-1, d_bath, d_sys)
            del picked, step  # free the consumed blocks and a compiled step before keep
            picked, z = keep(k, blocks)
            del blocks  # free this step's register before the next is built
        z = None if config.reset_bath else z
    return picked


def sample_trajectories(
    config: HrcsConfig,
    unitaries: list[StepUnitary],
    n_shots: int,
    gamma: float,
    rng: np.random.Generator,
) -> TrajectoryBatch:
    """Sample n_shots protocol runs of the same circuit, all advanced as one batch.
    They share the first step, which runs once on the one |0> row.  What a
    shot keeps from it is fixed by the bath block it reads, its system Pauli
    string and, with a kept bath, its outcome, so the register holds one row
    per distinct such path, not one per shot: at 5+5 with gamma = 0.7 and
    1000 shots about 330 rows run the second step.  From the second bath
    measurement on each shot has its own row.

    Depolarizing noise of strength ``gamma`` (1 is noiseless) draws, per
    step, a Pauli string per shot on the system, then one on the bath, then
    the bath outcome.  The bath X mask f relabels the outcome: a shot draws z
    with the probability of its row's block z ^ f, keeps that block and
    carries z.  The system string acts on the kept block as X^flip Z^zmask,
    without its global phase.  Model probabilities are those of the noisy
    paths.  Zero shots give an empty batch.
    """
    gamma = _check_gamma("gamma", gamma)
    n_shots = _as_int("n_shots", n_shots, 0)
    d_sys, d_bath = 1 << config.n_system, 1 << config.n_bath
    rows = np.arange(n_shots)
    row = np.zeros(n_shots, dtype=np.int64)  # each shot's row of the register
    bath_outcomes = np.zeros((n_shots, config.steps), dtype=np.int64)
    model_prob = np.ones(n_shots)

    def draw(k: int, blocks: np.ndarray):
        nonlocal row
        flip_sys, zmask_sys = _random_paulis(n_shots, config.n_system, gamma, rng)
        flip_bath, _ = _random_paulis(n_shots, config.n_bath, gamma, rng)
        # outcome z reads block z ^ flip of the shot's row
        probs = _weights(blocks)[np.arange(d_bath)[:, None] ^ flip_bath, row]
        z, p_z = _draw(probs, rng, "bath")
        model_prob[:] *= p_z
        bath_outcomes[:, k] = z
        src_bath = z ^ flip_bath
        if k:  # every shot keeps its own row
            shot, next_row = slice(None), rows
        else:  # from the one row, a shot's block, strings and kept z fix what it keeps;
            # the key has at most 2 * TRAJECTORY_MAX_QUBITS = 48 bits
            key = src_bath if config.reset_bath else src_bath << config.n_bath | z
            key = (key << config.n_system | flip_sys) << config.n_system | zmask_sys
            _, shot, next_row = np.unique(key, return_index=True, return_inverse=True)
        src_sys = np.arange(d_sys) if gamma == 1.0 else np.arange(d_sys) ^ flip_sys[shot, None]
        kept = blocks[row[shot, None], src_bath[shot, None], src_sys]
        if gamma < 1.0:  # Z^zmask: the gather has spent src_sys, which takes the overlap
            odd = np.bitwise_count(
                np.bitwise_and(src_sys, zmask_sys[shot, None], out=src_sys)) % 2
            np.negative(kept, out=kept, where=odd == 1)
        kept /= np.sqrt(p_z[shot])[:, None]
        row = next_row
        return kept, z[shot]

    picked = _walk(config, unitaries, draw)
    x, p_x = _draw(_weights(picked[:, :, None])[:, row], rng, "final")
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
    branch yields an exact 0.  No random number is drawn.

    The outcomes go through the walk as ``forced``: from
    ``FORCED_BLOCK_QUBITS`` = 4 system qubits up, each step after the first
    multiplies each path only by the d_A x d_A block of the step between
    the bath block it sits in and the one it recorded (``_replay_step``).
    Against the full product and select, replay alone at t = 4 with Haar
    steps and gamma = 0.7 (medians of 41 interleaved calls, in each of three
    processes) runs 2.0x faster at 4+3, 1.9-2.0x at 5+2, 3.1-3.2x at 4+4,
    4.7-4.9x at 4+3 with a kept bath and 7.2-7.6x at 5+5 with 1000 shots.
    Where it starts to win depends on the shot count as well as the
    register: with 200 shots it loses at 4+1, 4+2, 4+3 and 5+1 (0.63-0.65x,
    0.80-0.82x, 0.86-0.98x, 0.93-0.95x) and wins from 5+2 and 4+4 on
    (1.3x, 1.2x); with 1000 shots it loses only at 4+1 (0.75-0.77x, whose
    full product is only twice the work) and wins at 4+2 and 5+1 (1.2x,
    1.1x).  Below 4 system qubits it loses 0.42-0.56x at 200 shots and
    0.49-0.73x at 1000, so there, and for an HEA step run gate by gate,
    each step is the full product.  The two agree within 1.3e-14 relative.
    """
    bath, final = np.asarray(bath_outcomes), np.asarray(final_outcomes)
    # a (shots, 1) column of finals would index a (shots, shots) square
    if not (bath.dtype.kind in "iu" and final.dtype.kind in "iu" and final.ndim == 1
            and bath.shape == (final.size, config.steps)
            and np.all((0 <= bath) & (bath < 1 << config.n_bath))
            and np.all((0 <= final) & (final < 1 << config.n_system))):
        raise ConfigurationError(f"outcomes must be integer (shots, {config.steps}) bath and "
                                 f"(shots,) final arrays in range, got {bath.shape} {bath.dtype} "
                                 f"and {final.shape} {final.dtype}")
    picked = _walk(config, unitaries, forced=bath)
    return np.abs(picked[np.arange(final.size), final]) ** 2


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
    def keep(k, blocks):  # every (row, z) child in row-major order; z only for a kept bath
        rows, d_bath, d_sys = blocks.shape
        z = None if config.reset_bath else np.arange(rows * d_bath) & (d_bath - 1)
        return blocks.reshape(-1, d_sys), z

    picked = _walk(config, unitaries, keep)
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
        # a float step would match no axis and sum them all
        step = _as_int("per_step step index", step, 1, t)
        axes = tuple(a for a in range(t + 1) if a != step - 1)
        return shaped.sum(axis=axes)
    raise ConfigurationError(f"unknown marginal kind {kind!r}")


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
