"""Reproducible experiment driver.

A JSON experiment spec fans out into seeded per-instance jobs, aggregates the
per-instance statistics, attaches the matching closed-form value, and writes
JSONL or CSV.  Results are byte-identical across reruns and worker counts:
every instance derives its randomness from (master_seed, parameter point,
instance index) alone, and records are emitted in parameter order.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import hashlib
import itertools
import json
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import estimators, theory
from .engine import (
    ENUMERATION_MAX_BITS,
    TRAJECTORY_MAX_QUBITS,
    HrcsConfig,
    derive_seed,
    enumerate_joint_distribution,
    ideal_probabilities_batch,
    instance_seed,
    instantiate_circuit,
    marginalize,
    replay_no_reset_equivalence,
    sample_trajectories,
    steps_bytes,
)
from .core import sample_haar_state
from .errors import CapacityError, ConfigurationError, _as_bool, _as_int, _as_real, _check_gamma
from .estimators import EnsembleStats

SCHEMA_VERSION = 1

# theory family -> closed form at one parameter point, as a function of
# (N_A, N_B, t, K, gamma, epsilon)
THEORY = {
    "haar_power_sum": lambda a, b, t, k, g, eps: theory.haar_power_sum(a + t * b, k),
    "hrcs_power_sum": lambda a, b, t, k, g, eps: theory.hrcs_power_sum(a, b, t, k),
    "marginal_cp_spatial": lambda a, b, t, k, g, eps: theory.marginal_cp_spatial(a, b, t),
    "marginal_cp_temporal": lambda a, b, t, k, g, eps: theory.marginal_cp_temporal(a, b, t),
    "marginal_cp_per_step": lambda a, b, t, k, g, eps: theory.marginal_cp_per_step(a, b, t),
    "ideal_xeb": lambda a, b, t, k, g, eps: theory.ideal_xeb(a, b, t),
    "noisy_xeb_exact": lambda a, b, t, k, g, eps: theory.noisy_xeb(a, b, t, g),
    "noisy_xeb_asymptotic": lambda a, b, t, k, g, eps: theory.noisy_xeb_asymptotic(a, b, t, g),
    "tvd_bound_exact": lambda a, b, t, k, g, eps: theory.tvd_upper_bound(a, b, t),
    "tvd_bound_asymptotic": lambda a, b, t, k, g, eps: theory.tvd_upper_bound_asymptotic(a, b, t),
    "critical_steps": lambda a, b, t, k, g, eps: theory.critical_steps(a, b, eps, k),
}
THEORY_FAMILIES = tuple(THEORY)
# theory family -> the spec fields it reads besides theory_family (others: none)
FAMILY_READS = {"haar_power_sum": ("k_orders",), "hrcs_power_sum": ("k_orders",),
                "noisy_xeb_exact": ("gammas",), "noisy_xeb_asymptotic": ("gammas",),
                "critical_steps": ("k_orders", "epsilon")}
MARGINAL_KINDS = ("spatial", "temporal", "per_step")  # marginal_sweep's, in record order


# per-instance measures: (spec, config, step unitaries, gamma, index) -> one
# value per statistic of the kind (pop_hist: the whole joint distribution)


def _power_sums(spec, config, unitaries, gamma, index) -> list[float]:
    dist = enumerate_joint_distribution(config, unitaries)
    return [estimators.power_sum_exact(dist, k) for k in spec.k_orders]


def _marginal_cps(spec, config, unitaries, gamma, index) -> list[float]:
    dist = enumerate_joint_distribution(config, unitaries)
    return [
        estimators.power_sum_exact(marginalize(dist, config, m, step=config.steps), 2)
        for m in MARGINAL_KINDS
    ]


def _probabilities(spec, config, unitaries, gamma, index) -> np.ndarray:
    return enumerate_joint_distribution(config, unitaries)


def _tvd(spec, config, unitaries, gamma, index) -> list[float]:
    dist = enumerate_joint_distribution(config, unitaries)
    rng = np.random.default_rng(derive_seed(spec.master_seed, "haar-partner", config.steps, index))
    haar = np.abs(sample_haar_state(1 << config.n_eff, rng)) ** 2
    return [estimators.tvd_exact(dist, haar)]


def _xeb(spec, config, unitaries, gamma, index) -> list[float]:
    """Sampled XEB; with a gamma the shots are noisy and replayed noiselessly."""
    t = config.steps
    if gamma is None:
        rng = np.random.default_rng(derive_seed(spec.master_seed, "shots", t, index))
        ideal = sample_trajectories(config, unitaries, spec.shots, 1.0, rng).model_probabilities
    else:
        rng = np.random.default_rng(derive_seed(spec.master_seed, "noisy-shots", t, gamma, index))
        batch = sample_trajectories(config, unitaries, spec.shots, gamma, rng)
        ideal = ideal_probabilities_batch(
            config, unitaries, batch.bath_outcomes, batch.final_outcomes
        )
    return [estimators.xeb_estimate(ideal, config.n_eff).mean]


def _reset_pair(spec, config, unitaries, gamma, index) -> list[float]:
    with_reset, without_reset = replay_no_reset_equivalence(config, unitaries)
    return [estimators.power_sum_exact(d, k) for k in (2, 3) for d in (with_reset, without_reset)]


def _ensemble(spec, t, rows) -> list[EnsembleStats]:
    """One ensemble aggregate per statistic (column) over the instances (rows)."""
    return [estimators.ensemble_aggregate([row[j] for row in rows]) for j in range(len(rows[0]))]


def _porter_thomas(spec, t, rows) -> list[EnsembleStats]:
    """KS distance of all instances' probabilities pooled, and their density
    integral: the fraction of them in [1e-2/D, 50/D]."""
    pooled = np.concatenate(rows)
    n_eff = spec.config_for(t).n_eff
    ks = estimators.ks_distance_to_porter_thomas(pooled, n_eff)
    d = 2.0 ** n_eff
    low, high = estimators.POP_RANGE_LOW / d, estimators.POP_RANGE_HIGH / d
    inside = np.count_nonzero((pooled >= low) & (pooled <= high)) / pooled.size
    return [EnsembleStats(spec.instances, v, 0.0) for v in (ks, inside)]


def _pop_range_mass(a, b, t, k, g, eps) -> float:
    """Porter-Thomas mass on the histogram's range [1e-2/D, 50/D], clipped at
    p = 1: (1 - 1e-2/D)^(D-1) - (1 - min(50/D, 1))^(D-1), the value the
    density integral of Porter-Thomas probabilities converges to."""
    d = 2.0 ** (a + t * b)
    low, high = theory.porter_thomas_cdf(
        d, [estimators.POP_RANGE_LOW / d, estimators.POP_RANGE_HIGH / d]
    )
    return float(high - low)


_HRCS = THEORY["hrcs_power_sum"]
CIRCUIT_READS = ("instances", "master_seed", "reset_bath", "unitary_source", "hea_layers")


@dataclass(frozen=True)
class Kind:
    """How one experiment kind runs.

    ``engine`` names the engine limit that applies ("enumerate", "sample", or
    None for a pure formula sweep).  ``statistics(spec)`` lists the
    (statistic, K, theory formula, theory source) rows reported at each
    (t, gamma) point of ``steps`` x ``gammas`` (gamma None when it has
    none); ``aggregate(spec, t, rows)`` turns the per-instance rows into
    one EnsembleStats per statistic.  ``reads`` names the optional spec
    fields its records depend on; a circuit kind reads CIRCUIT_READS.
    """

    engine: str | None
    measure: Callable | None
    statistics: Callable
    aggregate: Callable = _ensemble
    reads: tuple[str, ...] = CIRCUIT_READS


KIND_TABLE = {
    "cp_sweep": Kind("enumerate", _power_sums, lambda s: (
        ("collision_probability", 2, _HRCS, "hrcs_power_sum_exact"),)),
    "ps_sweep": Kind("enumerate", _power_sums, lambda s: tuple(
        ("power_sum", q, _HRCS, "hrcs_power_sum_exact") for q in s.k_orders),
        reads=CIRCUIT_READS + ("k_orders",)),
    "marginal_sweep": Kind("enumerate", _marginal_cps, lambda s: tuple(
        (f"marginal_cp_{m}", 2, THEORY[f"marginal_cp_{m}"], f"marginal_cp_{m}")
        for m in MARGINAL_KINDS)),
    "pop_hist": Kind("enumerate", _probabilities, lambda s: (
        ("pop_ks_to_porter_thomas", None, lambda *point: 0.0, "porter_thomas_density"),
        ("pop_density_integral", None, _pop_range_mass, "porter_thomas_density"),
    ), aggregate=_porter_thomas),
    "tvd": Kind("enumerate", _tvd, lambda s: (
        ("tvd_to_haar", None, THEORY["tvd_bound_exact"], "tvd_bound_exact"),)),
    "xeb": Kind("sample", _xeb, lambda s: (
        ("xeb_fidelity", None, THEORY["ideal_xeb"], "ideal_xeb"),),
        reads=CIRCUIT_READS + ("shots",)),
    "noisy_xeb": Kind("sample", _xeb, lambda s: (
        ("noisy_xeb_fidelity", None, THEORY["noisy_xeb_exact"], "noisy_xeb_exact"),),
        reads=CIRCUIT_READS + ("shots", "gammas")),
    # the formula is its own measurement, one record per (t, gamma) and K; K
    # is None for a family that reads no order
    "theory_table": Kind(None, None, lambda s: tuple(
        (s.theory_family, k, THEORY[s.theory_family], s.theory_family)
        for k in (s.k_orders if "k_orders" in s.reads else (None,))),
        reads=("theory_family",)),
    "reset_check": Kind("enumerate", _reset_pair, lambda s: tuple(
        (name, q, _HRCS, "hrcs_power_sum_exact") for name, q in (
            ("collision_probability_reset", 2),
            ("collision_probability_no_reset", 2),
            ("power_sum_reset", 3),
            ("power_sum_no_reset", 3),
        )),
        reads=("instances", "master_seed", "unitary_source", "hea_layers")),
}
EXPERIMENT_KINDS = tuple(KIND_TABLE)

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
# (instances, 2^n_eff) float arrays a pop_hist point holds at its peak (the
# kept distributions, their pooled copy, and the KS distance's sorted copy,
# CDF and ECDF; the range masks that follow hold 3/8 of one): tracemalloc
# measures 5.0 at 2+1/t=12 and 3+2/t=6
POP_HIST_LIVE_COPIES = 6

CSV_COLUMNS = ("n_A", "n_B", "t", "K", "gamma", "statistic", "mean", "std_error", "theory_value")
# the keys of every row run_experiment returns, and that write_records writes
RECORD_KEYS = frozenset(CSV_COLUMNS + ("spec_hash", "count", "theory_source"))

# the spec fields every config sets, and every spec_hash covers
REQUIRED = ("kind", "n_system", "n_bath", "steps")
# accepted on every kind, read or not: out and format say where records go;
# perfbench's tiny mode writes shots everywhere, and hrcs --seed sets master_seed
NEVER_REFUSED = REQUIRED + ("out", "format", "instances", "shots", "master_seed")


@dataclass(frozen=True)
class ExperimentSpec:
    """Validated experiment description."""

    kind: str
    n_system: int
    n_bath: int
    steps: tuple[int, ...]
    k_orders: tuple[int, ...] = (2,)
    gammas: tuple[float, ...] = ()
    instances: int = 100
    shots: int = 1000
    reset_bath: bool = True
    unitary_source: str = "haar"
    hea_layers: int | None = None
    master_seed: int = 0
    out: str | None = None
    format: str = "jsonl"
    theory_family: str | None = None
    epsilon: float = 1.0

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigurationError(f"kind must be one of {EXPERIMENT_KINDS}, got {self.kind!r}")
        # the number and bool rules of errors: numpy values are stored as the
        # int, float or bool they equal, so they hash and seed as those do
        for name in ("instances", "shots"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name), 1))
        object.__setattr__(self, "reset_bath", _as_bool("reset_bath", self.reset_bath))
        for name, entry in (("steps", _as_int), ("k_orders", _as_int), ("gammas", _check_gamma)):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)):
                raise ConfigurationError(f"{name} must be a list, got {values!r}")
            values = tuple(entry(f"each entry of {name}", v) for v in values)
            if len(set(values)) < len(values):  # its records would be written twice
                raise ConfigurationError(f"{name} repeats an entry: {values!r}")
            object.__setattr__(self, name, values)
        if not self.steps:
            raise ConfigurationError("steps list is empty")
        # register sizes, steps >= 1, unitary source and hea_layers, which
        # are kept as the config converts them
        config = self.config_for(min(self.steps))
        for name in ("n_system", "n_bath", "master_seed", "hea_layers"):
            object.__setattr__(self, name, getattr(config, name))
        object.__setattr__(self, "epsilon", _as_real("epsilon", self.epsilon))
        if not 0 < self.epsilon <= sys.float_info.max:
            raise ConfigurationError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        if not (self.out is None or (isinstance(self.out, str) and self.out)):
            raise ConfigurationError(f"out must be a non-empty path string, got {self.out!r}")
        if self.format not in ("jsonl", "csv"):
            raise ConfigurationError(f"format must be jsonl or csv, got {self.format!r}")
        if self.kind == "theory_table" and self.theory_family not in THEORY_FAMILIES:
            raise ConfigurationError(
                f"theory_table needs theory_family from {THEORY_FAMILIES}, "
                f"got {self.theory_family!r}"
            )
        reads = self.reads
        for f in dataclasses.fields(self):
            name, value = f.name, getattr(self, f.name)
            if name in reads and value == ():
                raise ConfigurationError(f"{self.kind} needs at least one {name} entry")
            if name not in reads + NEVER_REFUSED and value != f.default:
                kinds = ", ".join(k for k, entry in KIND_TABLE.items() if name in entry.reads)
                families = " or ".join(x for x, names in FAMILY_READS.items() if name in names)
                families = families and f"theory_table with the {families} family"
                raise ConfigurationError(f"{self.kind} does not read {name} (read by "
                                         f"{', and '.join(filter(None, (kinds, families)))}), "
                                         f"got {value!r}")
        if self.kind == "marginal_sweep" and not self.reset_bath:
            raise ConfigurationError("marginal_sweep needs a reset bath: its closed forms "
                                     "marginal_cp_spatial and marginal_cp_per_step assume one")
        if self.kind == "ps_sweep" and any(k < 2 for k in self.k_orders):
            raise ConfigurationError("power-sum orders must be >= 2")

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExperimentSpec":
        if not isinstance(doc, dict):
            raise ConfigurationError(f"config must be a JSON object, got {type(doc).__name__}")
        unknown = set(doc) - {f.name for f in dataclasses.fields(cls)} - {"schema_version"}
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        version = doc.get("schema_version")  # the integer 1: not True, not 1.0
        if version is None or _as_int("schema_version", version) != SCHEMA_VERSION:
            raise ConfigurationError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
        missing = set(REQUIRED) - set(doc)
        if missing:
            raise ConfigurationError(f"missing config keys: {sorted(missing)}")
        return cls(**{k: v for k, v in doc.items() if k != "schema_version"})

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))

    @property
    def reads(self) -> tuple[str, ...]:
        """The optional fields its records depend on: its kind's and family's."""
        family = FAMILY_READS.get(self.theory_family, ()) if self.kind == "theory_table" else ()
        return KIND_TABLE[self.kind].reads + family

    def hash(self) -> str:
        """Identity of the experiment itself: its kind, register sizes and
        steps, and each field it reads that is set away from its default.  So
        a field that is unread, or that a later version adds at its default,
        moves no hash."""
        reads = self.reads
        doc = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)
               if f.name in REQUIRED or f.name in reads and getattr(self, f.name) != f.default}
        payload = json.dumps(doc, sort_keys=True)
        return hashlib.blake2b(payload.encode("utf-8"), digest_size=8).hexdigest()

    def config_for(self, t: int) -> HrcsConfig:
        return HrcsConfig(
            n_system=self.n_system,
            n_bath=self.n_bath,
            steps=t,
            # a kind that does not read reset_bath draws full steps, not reset
            # isometries: reset_check runs each circuit both ways
            reset_bath=self.reset_bath and "reset_bath" in KIND_TABLE[self.kind].reads,
            unitary_source=self.unitary_source,
            hea_layers=self.hea_layers,
            master_seed=self.master_seed,
        )


def _format_float(x: float) -> str:
    return format(float(x), ".17g")


def _json_line(doc: dict) -> str:
    parts = (
        f"{json.dumps(k)}: {_format_float(v) if isinstance(v, float) else json.dumps(v)}"
        for k, v in sorted(doc.items())
    )
    return "{" + ", ".join(parts) + "}"


def write_records(records, path: str, format: str = "jsonl") -> None:
    """Persist records; JSONL has sorted keys and 17-significant-digit floats,
    CSV uses the fixed column order documented in CSV_COLUMNS.  A row whose
    keys are not RECORD_KEYS is refused before the file is opened."""
    if format not in ("jsonl", "csv"):
        raise ConfigurationError(f"format must be jsonl or csv, got {format!r}")
    records = list(records)
    for doc in records:
        keys = set(doc) if isinstance(doc, dict) else set()
        if keys != RECORD_KEYS:
            raise ConfigurationError(
                f"a record is a dict of exactly the keys {sorted(RECORD_KEYS)}: got "
                f"{type(doc).__name__} missing {sorted(RECORD_KEYS - keys)}, extra "
                f"{sorted(keys - RECORD_KEYS, key=repr)}"
            )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if format == "csv":
            fh.write(",".join(CSV_COLUMNS) + "\n")
        for doc in records:
            fh.write((_json_line(doc) if format == "jsonl" else ",".join(
                "" if v is None else _format_float(v) if isinstance(v, float) else str(v)
                for v in map(doc.get, CSV_COLUMNS)
            )) + "\n")


def _pool_size(spec: ExperimentSpec, workers: int) -> int:
    """Instances that run at once: a pool of more workers than instances or
    CPUs would only start idle processes."""
    return min(workers, spec.instances, os.cpu_count() or 1)


def _check_capacity(spec: ExperimentSpec, workers: int = 1) -> None:
    """Refuse specs that would exceed an engine mode before any work starts.
    Up to ``_pool_size`` instances run at once, each with its own shot batch
    and steps."""
    engine = KIND_TABLE[spec.kind].engine
    config = spec.config_for(max(spec.steps))
    n_eff_max, n_phys = config.n_eff, config.n_qubits
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if engine == "enumerate" and n_eff_max > ENUMERATION_MAX_BITS:
        raise CapacityError(
            f"{spec.kind} enumerates {n_eff_max} effective bits, limit {ENUMERATION_MAX_BITS}"
        )
    if spec.kind == "pop_hist":
        need = spec.instances * (8 << n_eff_max) * POP_HIST_LIVE_COPIES
        if need > memory:
            raise CapacityError(
                f"pooling {spec.instances} instances of {n_eff_max} effective bits needs "
                f"about {need / 1e9:.3g} GB, more than the {memory / 1e9:.3g} GB of "
                f"physical memory"
            )
    if engine == "sample" and n_phys > TRAJECTORY_MAX_QUBITS:
        raise CapacityError(f"{n_phys} physical qubits exceed {TRAJECTORY_MAX_QUBITS}")
    if engine == "sample" and n_eff_max > estimators.XEB_MAX_BITS:
        raise CapacityError(
            f"{spec.kind} scores {n_eff_max} effective bits by 2^n_eff, "
            f"limit {estimators.XEB_MAX_BITS}"
        )
    need = spec.shots * (16 << n_phys) * SAMPLER_LIVE_COPIES if engine == "sample" else 0
    if engine is not None:
        need += steps_bytes(config)
    pool = _pool_size(spec, workers)
    need *= pool
    if need > memory:
        raise CapacityError(
            f"{spec.kind} on {n_phys} qubits at t = {config.steps} with {pool} worker(s) "
            f"needs about {need / 1e9:.3g} GB of amplitudes and step unitaries, more than the "
            f"{memory / 1e9:.3g} GB of physical memory"
        )


def _instance(spec: ExperimentSpec, t: int, gamma: float | None, index: int):
    """Measure ensemble member ``index`` at ``t`` steps as its kind says (top
    level so process pools can pickle it)."""
    config = spec.config_for(t)
    unitaries = instantiate_circuit(config, index)
    return KIND_TABLE[spec.kind].measure(spec, config, unitaries, gamma, index)


class InstanceFailure(RuntimeError):
    """One ensemble member failed; carries enough context to reproduce it."""


def _run_instances(spec: ExperimentSpec, t: int, gamma: float | None, workers: int) -> list:
    """Measure every instance at one point, in index order; a failing instance
    aborts the whole run with its stream seed reported.  Serial when the
    pool would have one worker."""
    indices = range(spec.instances)
    size = _pool_size(spec, workers)
    pool = concurrent.futures.ProcessPoolExecutor(max_workers=size) if size > 1 else None
    with pool or contextlib.nullcontext():
        results = (pool.map if pool else map)(
            _instance, itertools.repeat(spec), itertools.repeat(t), itertools.repeat(gamma), indices
        )
        rows = []
        for index in indices:
            try:
                rows.append(next(results))
            except (ConfigurationError, CapacityError):
                raise
            except Exception as exc:  # noqa: BLE001
                seed = instance_seed(spec.config_for(t), index)
                raise InstanceFailure(
                    f"instance {index} at t={t} (stream seed {seed:#x}) failed: {exc}"
                ) from exc
        return rows


def _theory_value(spec: ExperimentSpec, t, k, gamma, formula, source: str) -> float:
    """One closed-form value; a point where the formula leaves its domain,
    or a double, refuses the spec, naming the family and the point."""
    try:
        return formula(spec.n_system, spec.n_bath, t, k, gamma, spec.epsilon)
    except (ArithmeticError, ValueError) as exc:
        point = f"(t, K, gamma) = ({t}, {k}, {gamma})"
        raise ConfigurationError(f"{source} at {point}: {exc}") from None


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> list[dict]:
    """Execute one experiment spec and return its records, in parameter
    order, as the rows that ``write_records`` writes."""
    workers = _as_int("workers", workers, 1)
    _check_capacity(spec, workers)
    # freeing one 16 MB block raises glibc's mmap threshold: later arrays up to
    # that size are reused from its heap, not mapped and page-faulted afresh
    np.empty(16 << 20, np.uint8)
    kind = KIND_TABLE[spec.kind]
    spec_hash = spec.hash()
    statistics = kind.statistics(spec)
    records = []
    for t, gamma in itertools.product(spec.steps, spec.gammas or (None,)):
        values = [
            _theory_value(spec, t, order, gamma, formula, source)
            for _, order, formula, source in statistics
        ]
        if kind.measure is None:
            measured = [EnsembleStats(1, value, 0.0) for value in values]
        else:
            measured = kind.aggregate(spec, t, _run_instances(spec, t, gamma, workers))
        for (statistic, order, _, source), stats, value in zip(statistics, measured, values):
            records.append({
                "spec_hash": spec_hash, "n_A": spec.n_system, "n_B": spec.n_bath, "t": t,
                "K": order, "gamma": gamma, "statistic": statistic, **dataclasses.asdict(stats),
                "theory_value": value, "theory_source": source,
            })
    return records
