"""Experiment driver tests: spec validation, determinism, parallel/serial
equivalence, record layout, and file formats."""

import ast
import csv
import dataclasses
import hashlib
import importlib
import itertools
import json
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hrcslab
import hrcslab.runner as runner_mod
from hrcslab import CapacityError, ConfigurationError
from hrcslab.engine import SAMPLER_LIVE_COPIES, instance_bytes, instance_seed, instantiate_circuit
from hrcslab.runner import (
    CSV_COLUMNS,
    EXPERIMENT_KINDS,
    FAMILY_READS,
    KIND_TABLE,
    THEORY_FAMILIES,
    ExperimentSpec,
    run_experiment,
    write_records,
)

from hrcslab import theory

from conftest import CONFIGS, compare_records


# each THEORY family called directly at N_A = 2, N_B = 1, t = 3, K = 3,
# gamma = 0.7 and, for critical_steps, epsilon = 0.5
DIRECT_THEORY = {
    "haar_power_sum": lambda: theory.haar_power_sum(5, 3),
    "hrcs_power_sum": lambda: theory.hrcs_power_sum(2, 1, 3, 3),
    "marginal_cp_spatial": lambda: theory.marginal_cp_spatial(2, 1, 3),
    "marginal_cp_temporal": lambda: theory.marginal_cp_temporal(2, 1, 3),
    "marginal_cp_per_step": lambda: theory.marginal_cp_per_step(2, 1, 3),
    "ideal_xeb": lambda: theory.ideal_xeb(2, 1, 3),
    "noisy_xeb_exact": lambda: theory.noisy_xeb(2, 1, 3, 0.7),
    "noisy_xeb_asymptotic": lambda: theory.noisy_xeb_asymptotic(2, 1, 3, 0.7),
    "tvd_bound_exact": lambda: theory.tvd_upper_bound(2, 1, 3),
    "tvd_bound_asymptotic": lambda: theory.tvd_upper_bound_asymptotic(2, 1, 3),
    "critical_steps": lambda: theory.critical_steps(2, 1, 0.5, 3),
}


def cp_spec(**overrides):
    base = dict(
        kind="cp_sweep",
        n_system=2,
        n_bath=1,
        steps=(1, 2),
        instances=25,
        master_seed=99,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def spec_doc(**overrides):
    doc = {
        "schema_version": 1,
        "kind": "cp_sweep",
        "n_system": 2,
        "n_bath": 1,
        "steps": [1, 2],
        "instances": 10,
        "master_seed": 5,
    }
    doc.update(overrides)
    return doc


class TestSpecParsing:
    def test_round_trip(self):
        spec = ExperimentSpec.from_json_dict(spec_doc())
        assert spec.kind == "cp_sweep" and spec.steps == (1, 2)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config keys"):
            ExperimentSpec.from_json_dict(spec_doc(surprise=1))

    def test_wrong_schema_version_rejected(self):
        with pytest.raises(ConfigurationError, match="schema_version"):
            ExperimentSpec.from_json_dict(spec_doc(schema_version=2))

    @pytest.mark.parametrize("version", [True, 1.0, "1", None])
    def test_schema_version_other_than_the_integer_1_rejected(self, version):
        # True and 1.0 equal 1, and were read as it
        with pytest.raises(ConfigurationError, match="schema_version"):
            ExperimentSpec.from_json_dict(spec_doc(schema_version=version))

    def test_missing_required_keys_rejected(self):
        doc = spec_doc()
        del doc["steps"]
        with pytest.raises(ConfigurationError, match="missing config keys"):
            ExperimentSpec.from_json_dict(doc)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec.from_json_dict(spec_doc(kind="mystery"))

    @pytest.mark.parametrize("name, spec_hash", [
        ("marginal_sweep", "be5e9fffa2abcc0d"),
        ("neff200_xeb", "154ba784c0e386bb"),
        ("theory_noisy_xeb", "25bdc41ba922bec5"),
    ])
    def test_shipped_config_hash_pinned(self, name, spec_hash):
        # every JSONL record carries this hash: a new or dropped field must
        # not re-identify an existing experiment.  The golden JSONL records
        # pin the other configs' hashes; marginal_sweep and theory_noisy_xeb
        # write CSV, which has no spec_hash column, and neff200_xeb runs too
        # long for this suite
        path = CONFIGS / f"{name}.json"
        assert ExperimentSpec.from_json_file(str(path)).hash() == spec_hash

    def test_pop_bins_refused(self):
        with pytest.raises(ConfigurationError, match="unknown config keys"):
            ExperimentSpec.from_json_dict(spec_doc(kind="pop_hist", pop_bins=50))

    def test_theory_table_needs_family(self):
        with pytest.raises(ConfigurationError, match="theory_family"):
            ExperimentSpec.from_json_dict(spec_doc(kind="theory_table"))
        # a misspelt family is named as such, not as one that reads no K
        with pytest.raises(ConfigurationError, match="needs theory_family"):
            cp_spec(kind="theory_table", theory_family="hrcs_powersum", k_orders=(2, 3))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"shots": True},
            {"instances": 2.0},
            {"n_system": True},
            {"master_seed": "7"},
            {"hea_layers": False},
            {"hea_layers": 3},
            {"reset_bath": 1},
            {"steps": (1.5,)},
            {"steps": (True,)},
            {"steps": (0,)},
            {"steps": 3},
            {"k_orders": (2.0,)},
            {"gammas": (1.5,)},
            {"gammas": (-0.1,)},
            {"gammas": (True,)},
            {"gammas": (np.bool_(True),)},
            {"gammas": ("0.5",)},
            {"epsilon": 0},
            {"epsilon": "1"},
            {"epsilon": float("inf")},
            {"out": True},
            {"out": 3},
            {"out": ""},
            {"kind": "theory_table", "theory_family": "noisy_xeb_exact"},
            {"kind": "ps_sweep", "k_orders": ()},
            {"kind": "theory_table", "theory_family": "hrcs_power_sum", "k_orders": ()},
            # fields the kind does not read
            {"kind": "xeb", "gammas": (0.5,)},
            {"k_orders": (3,)},
            {"theory_family": "ideal_xeb"},
            {"epsilon": 0.5},
            {"kind": "theory_table", "theory_family": "hrcs_power_sum", "epsilon": 0.5},
            {"kind": "reset_check", "reset_bath": False},
            # a formula reads no circuit, and a gamma only in a noisy_xeb family
            {"kind": "theory_table", "theory_family": "hrcs_power_sum", "gammas": (0.5, 0.9)},
            {"kind": "theory_table", "theory_family": "ideal_xeb", "gammas": (0.5,)},
            {"kind": "theory_table", "theory_family": "hrcs_power_sum", "reset_bath": False},
            {"kind": "theory_table", "theory_family": "hrcs_power_sum",
             "unitary_source": "hea", "hea_layers": 3},
            {"kind": "theory_table", "theory_family": "hrcs_power_sum", "hea_layers": 3},
            # a K only in a theory_table family that takes one
            {"kind": "theory_table", "theory_family": "ideal_xeb", "k_orders": (2, 3)},
            {"kind": "theory_table", "theory_family": "noisy_xeb_exact", "gammas": (0.5,),
             "k_orders": (3,)},
            # a repeated entry would write the same records twice
            {"steps": (2, 2)},
            {"kind": "ps_sweep", "k_orders": (3, 3)},
            {"kind": "noisy_xeb", "gammas": (0.7, 0.7)},
            {"kind": "theory_table", "theory_family": "hrcs_power_sum", "k_orders": (2, 2)},
        ],
        ids=str,
    )
    def test_bad_field_rejected_up_front(self, overrides):
        with pytest.raises(ConfigurationError):
            cp_spec(**overrides)

    def test_marginal_sweep_without_reset_refused(self):
        # without a reset the sampled spatial and per-step marginals miss
        # their closed forms by tens of standard errors
        with pytest.raises(ConfigurationError, match="marginal_cp_spatial and marginal_cp_per"):
            cp_spec(kind="marginal_sweep", reset_bath=False)

    def test_theory_table_accepts_seed_and_counts(self):
        # hrcs --seed sets master_seed on every kind, and perfbench's tiny
        # mode writes instances and shots
        spec = cp_spec(kind="theory_table", theory_family="hrcs_power_sum", shots=100)
        assert (spec.master_seed, spec.instances, spec.shots) == (99, 25, 100)

    @pytest.mark.parametrize("kind", ["cp_sweep", "marginal_sweep", "reset_check"])
    def test_shots_accepted_on_enumeration_kinds(self, kind):
        # perfbench's tiny mode writes shots into every shrunk config that
        # has instances, whatever its kind
        assert cp_spec(kind=kind, shots=100).shots == 100


# a base spec per kind, and per theory family, whose read fields are valid
BASES = [dict(kind=kind, n_system=2, n_bath=1, steps=(1, 2),
              gammas=(0.7,) if kind == "noisy_xeb" else ())
         for kind in KIND_TABLE if kind != "theory_table"] + [
    dict(kind="theory_table", n_system=2, n_bath=1, steps=(1, 2), theory_family=family,
         gammas=(0.7,) if "gammas" in FAMILY_READS.get(family, ()) else ())
    for family in THEORY_FAMILIES]
# overrides that set one optional field away from its default, valid on a
# base spec that reads it (an HEA source needs its layer count)
AWAY = {
    "k_orders": {"k_orders": (2, 3)},
    "gammas": {"gammas": (0.5,)},
    "instances": {"instances": 7},
    "shots": {"shots": 50},
    "reset_bath": {"reset_bath": False},
    "unitary_source": {"unitary_source": "hea", "hea_layers": 2},
    "hea_layers": {"unitary_source": "hea", "hea_layers": 3},
    "master_seed": {"master_seed": 8},
    "epsilon": {"epsilon": 0.5},
}


def base_id(base):
    return "-".join(filter(None, (base["kind"], base.get("theory_family"))))


class TestSpecIdentity:
    @pytest.mark.parametrize("base", BASES, ids=base_id)
    def test_each_read_field_moves_the_hash(self, base):
        spec = ExperimentSpec(**base)
        for name in spec.reads:
            if name == "theory_family":  # to a family that reads the same fields
                family = spec.theory_family
                partners = [f for f in THEORY_FAMILIES if f != family
                            and FAMILY_READS.get(f, ()) == FAMILY_READS.get(family, ())]
                changes = [{"theory_family": f} for f in partners]
            elif name == "reset_bath" and spec.kind == "marginal_sweep":
                continue  # refused without a reset: its closed forms need one
            else:
                changes = [AWAY[name]]
            # hea_layers alone changes between two HEA sources
            before = {**base, **AWAY["unitary_source"]} if name == "hea_layers" else base
            for change in changes:
                assert ExperimentSpec(**{**base, **change}).hash() != \
                    ExperimentSpec(**before).hash(), name

    @pytest.mark.parametrize("base", BASES, ids=base_id)
    def test_unread_field_away_from_default_refused(self, base):
        reads = ExperimentSpec(**base).reads
        unread = [name for name in AWAY if name not in reads + runner_mod.NEVER_REFUSED]
        if base["kind"] != "theory_table":
            unread.append("theory_family")
        for name in unread:
            change = AWAY.get(name, {"theory_family": "ideal_xeb"})
            with pytest.raises(ConfigurationError):
                ExperimentSpec(**{**base, **change})

    @pytest.mark.parametrize("base", BASES, ids=base_id)
    def test_hash_covers_only_fields_set_away_from_default(self, base):
        # a read field written out at its default, like one a later version
        # adds at its default, leaves the hash where it is
        doc = {"schema_version": 1, **base, "steps": list(base["steps"]),
               "gammas": list(base["gammas"])}
        spec = ExperimentSpec.from_json_dict(doc)
        defaults = {f.name: f.default for f in dataclasses.fields(ExperimentSpec)
                    if f.name in spec.reads and f.name not in doc}
        assert ExperimentSpec.from_json_dict({**doc, **defaults}).hash() == spec.hash()
        identity = {name: doc[name] for name in ("kind", "n_system", "n_bath", "steps")}
        identity |= {name: doc[name] for name in spec.reads if name in doc and doc[name]}
        payload = json.dumps(identity, sort_keys=True).encode("utf-8")
        assert spec.hash() == hashlib.blake2b(payload, digest_size=8).hexdigest()

    @pytest.mark.parametrize(
        "whole, real",
        [(1, 1.0), (0, 0.0), (np.int64(1), 1.0), (np.float32(0.5), 0.5), (-0.0, 0.0)],
    )
    def test_integer_gamma_is_its_float(self, whole, real, tmp_path):
        # a gamma seeds the noisy shots through its repr, so 1 must read as
        # 1.0, and -0.0, the same channel, as 0.0; numpy numbers were refused
        # here and accepted by the sampler
        runs = []
        for gamma in (whole, real):
            spec = ExperimentSpec.from_json_dict({
                "schema_version": 1, "kind": "noisy_xeb", "n_system": 2, "n_bath": 1,
                "steps": [2], "gammas": [gamma], "instances": 3, "shots": 50, "master_seed": 1})
            path = tmp_path / f"{gamma!r}.jsonl"
            write_records(run_experiment(spec), str(path), "jsonl")
            runs.append((spec.gammas, spec.hash(), path.read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][0] == (real,) and type(runs[0][0][0]) is float

    @pytest.mark.parametrize("value", [True, False])
    def test_numpy_bool_reset_bath_is_its_bool(self, value):
        # HrcsConfig took np.bool_ and the spec refused it
        doc = dict(kind="cp_sweep", n_system=2, n_bath=1, steps=(1, 2), instances=3,
                   master_seed=7)
        spec, numpy_spec = (ExperimentSpec(**doc, reset_bath=v) for v in (value, np.bool_(value)))
        assert type(numpy_spec.reset_bath) is bool
        assert numpy_spec == spec and numpy_spec.hash() == spec.hash()
        assert run_experiment(numpy_spec) == run_experiment(spec)
        for bad in (np.int64(0), 1, "false"):
            with pytest.raises(ConfigurationError, match="reset_bath must be a bool"):
                ExperimentSpec(**doc, reset_bath=bad)

    @pytest.mark.parametrize("whole", [2, np.int64(2), np.float32(2.0)])
    def test_integer_epsilon_is_its_float(self, whole):
        table = dict(kind="theory_table", theory_family="critical_steps")
        spec = cp_spec(**table, epsilon=whole)
        assert type(spec.epsilon) is float
        assert spec.hash() == cp_spec(**table, epsilon=2.0).hash()
        assert run_experiment(spec) == run_experiment(cp_spec(**table, epsilon=2.0))
        with pytest.raises(ConfigurationError, match="epsilon"):  # no double holds it
            cp_spec(**table, epsilon=2 ** 1024)

    @pytest.mark.parametrize("doc", [
        dict(kind="xeb", n_system=2, n_bath=1, steps=[1, 3], instances=3, shots=40,
             unitary_source="hea", hea_layers=2, master_seed=7),
        dict(kind="ps_sweep", n_system=2, n_bath=1, steps=[1, 2], k_orders=[2, 3],
             instances=3, master_seed=7),
    ], ids=["xeb", "ps_sweep"])
    def test_numpy_integers_are_their_ints(self, doc):
        # the spec keeps HrcsConfig's integer rule: np.int64(2) was refused
        # here and accepted there
        as_numpy = {name: [np.int64(v) for v in value] if isinstance(value, list)
                    else np.int64(value) if isinstance(value, int) else value
                    for name, value in doc.items()}
        spec, numpy_spec = ExperimentSpec(**doc), ExperimentSpec(**as_numpy)
        assert type(numpy_spec.n_system) is int and type(numpy_spec.steps[0]) is int
        assert numpy_spec == spec and hash(numpy_spec) == hash(spec)
        assert numpy_spec.hash() == spec.hash()
        assert run_experiment(numpy_spec) == run_experiment(spec)
        for name in ("n_system", "steps"):
            with pytest.raises(ConfigurationError, match="must be an integer"):
                ExperimentSpec(**{**doc, name: [True] if name == "steps" else True})

    def test_unread_accepted_fields_leave_the_hash(self):
        assert cp_spec(shots=50).hash() == cp_spec().hash()
        table = dict(kind="theory_table", theory_family="ideal_xeb")
        assert cp_spec(**table, master_seed=8).hash() == cp_spec(**table).hash()
        assert cp_spec(out="a.csv", format="csv").hash() == cp_spec().hash()


class TestCapacity:
    def test_enumeration_capacity_refused_before_work(self):
        spec = cp_spec(steps=(25,))  # n_eff = 27 > 22
        with pytest.raises(CapacityError):
            run_experiment(spec)

    def test_trajectory_capacity_refused(self):
        spec = ExperimentSpec(
            kind="xeb", n_system=13, n_bath=12, steps=(1,), instances=2, shots=10
        )
        with pytest.raises(CapacityError):
            run_experiment(spec)

    @pytest.mark.parametrize("kind", ["xeb", "noisy_xeb"])
    def test_shot_batch_beyond_memory_refused_before_work(self, kind, monkeypatch):
        # 1000 shots of 2^24 amplitudes are 268 GB per copy of the batch
        def no_work(*args):
            raise AssertionError("an instance ran")

        monkeypatch.setattr(runner_mod, "_instance", no_work)
        spec = ExperimentSpec(
            kind=kind, n_system=12, n_bath=12, steps=(1,),
            gammas=(0.7,) if kind == "noisy_xeb" else (), instances=1, shots=1000,
        )
        with pytest.raises(CapacityError, match="GB"):
            run_experiment(spec)

    @pytest.fixture
    def seven_gib(self, monkeypatch):
        """Report 7 GiB of physical memory, so the outcome does not depend on
        the machine running the test."""
        real_sysconf = os.sysconf
        pages = 7 * 2**30 // real_sysconf("SC_PAGE_SIZE")
        monkeypatch.setattr(
            os, "sysconf", lambda name: pages if name == "SC_PHYS_PAGES" else real_sysconf(name)
        )

    @pytest.fixture
    def no_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("an instance ran")

        monkeypatch.setattr(runner_mod, "_instance", no_work)

    @pytest.mark.parametrize(
        "kind, n, t, shots",
        [
            ("xeb", 9, 2, 10),  # two 2^18 x 2^9 isometries are 4.3 GB, their QR's transients 11
            ("cp_sweep", 11, 1, 1000),  # n_eff = 22 is enumerable; its one draw is 141 TB
        ],
    )
    def test_dense_haar_steps_beyond_memory_refused_before_work(
        self, kind, n, t, shots, seven_gib, no_work
    ):
        spec = ExperimentSpec(
            kind=kind, n_system=n, n_bath=n, steps=(t,), instances=1, shots=shots
        )
        with pytest.raises(CapacityError, match="step unitaries"):
            run_experiment(spec)

    @pytest.mark.parametrize("kind", ["xeb", "noisy_xeb"])
    def test_xeb_scale_beyond_a_double_refused_before_work(self, kind, no_work):
        # 2^1101 overflows a double; 1+1 at t = 1022 scores 2^1023 and passes
        spec = ExperimentSpec(
            kind=kind, n_system=1, n_bath=1, steps=(1100,),
            gammas=(0.7,) if kind == "noisy_xeb" else (), instances=1, shots=2,
        )
        with pytest.raises(CapacityError, match="1101 effective bits.*limit 1023"):
            run_experiment(spec)
        runner_mod._check_capacity(dataclasses.replace(spec, steps=(1022,)))

    def test_reset_isometries_within_memory_pass(self, seven_gib):
        # 33 isometries of 4096 x 64 are 138 MB, the QR's transients 21 MB and
        # four batch copies 52 MB; each step draws its 64 kept columns alone,
        # where a whole real 4096^2 Ginibre half would hold 134 MB
        spec = ExperimentSpec(
            kind="xeb", n_system=6, n_bath=6, steps=(33,), instances=1, shots=200
        )
        runner_mod._check_capacity(spec)

    @pytest.mark.parametrize(
        "n_sys, n_bath, t", [(2, 2, 20), (3, 1, 1020), (3, 3, 8), (4, 4, 3), (5, 5, 2)]
    )
    @pytest.mark.parametrize("reset", [False, True])
    def test_haar_instance_within_its_counted_steps(self, n_sys, n_bath, t, reset):
        # below 5 qubits one call draws all t whole matrices, 4.2 MB at 3+1
        # and t = 1020, the most xeb admits there; from 5 qubits each step
        # draws its kept columns alone.  Without a reset tracemalloc peaks
        # at 3.07-3.17 of the t whole matrices, or 3.07-4.16 steps, beside
        # the steps, against the 5 the capacity check counts
        spec = ExperimentSpec(kind="xeb", n_system=n_sys, n_bath=n_bath, steps=(t,),
                              reset_bath=reset, instances=1, shots=1)
        config = spec.config_for(t)
        instantiate_circuit(config, 0)  # numpy's lazy setup, outside the trace
        tracemalloc.start()
        try:
            steps = instantiate_circuit(config, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(step.nbytes for step in steps) < peak <= instance_bytes(config)

    @pytest.fixture
    def cpus(self, monkeypatch):
        """Report the given CPU count to the runner's pool sizing."""
        return lambda count: monkeypatch.setattr(os, "cpu_count", lambda: count)

    def test_concurrent_workers_counted(self, seven_gib, no_work, cpus):
        # one instance's 16000 shots of 2^12 amplitudes budget 4.2 GB: that
        # fits 7 GiB alone, but two workers hold two such batches at once
        cpus(2)
        spec = ExperimentSpec(
            kind="xeb", n_system=6, n_bath=6, steps=(1,), instances=2, shots=16_000
        )
        runner_mod._check_capacity(spec)
        runner_mod._check_capacity(dataclasses.replace(spec, instances=1), workers=2)
        with pytest.raises(CapacityError, match="2 worker"):
            run_experiment(spec, workers=2)

    def test_pool_bounded_by_instances_and_cpus(self, seven_gib, cpus, monkeypatch):
        # the pool is sized once, for the capacity check and the executor
        # alike: 500 workers on 3 instances start 3 processes, or one per CPU
        sizes = []

        class RecordingPool:
            """Records its size and runs the instances in this process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(runner_mod.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        serial = run_experiment(cp_spec(steps=(1,), instances=3))
        for count, pool in ((64, [3]), (2, [2]), (1, [])):
            cpus(count)
            sizes.clear()
            assert run_experiment(cp_spec(steps=(1,), instances=3), workers=500) == serial
            assert sizes == pool
        # one xeb instance's 4.2 GB fits 7 GiB and two do not: with one CPU,
        # 500 workers still run one instance at a time
        spec = ExperimentSpec(
            kind="xeb", n_system=6, n_bath=6, steps=(1,), instances=2, shots=16_000
        )
        runner_mod._check_capacity(spec, workers=500)
        cpus(2)
        with pytest.raises(CapacityError, match="2 worker"):
            runner_mod._check_capacity(spec, workers=500)

    def test_full_haar_steps_without_reset_refused_before_work(self, seven_gib, no_work):
        # the same spec without a reset holds 33 dense 4096^2 steps, 8.9 GB
        spec = ExperimentSpec(
            kind="xeb", n_system=6, n_bath=6, steps=(33,), instances=1, shots=200,
            reset_bath=False,
        )
        with pytest.raises(CapacityError, match="step unitaries"):
            run_experiment(spec)

    def test_reset_check_counts_full_steps(self, seven_gib, no_work):
        # reset_check runs its circuit without a reset too, so it draws full
        # 2^14 x 2^14 steps (4.3 GB each) where cp_sweep draws isometries
        spec = ExperimentSpec(kind="cp_sweep", n_system=7, n_bath=7, steps=(1,), instances=1)
        runner_mod._check_capacity(spec)
        with pytest.raises(CapacityError, match="step unitaries"):
            run_experiment(dataclasses.replace(spec, kind="reset_check"))

    def test_hea_steps_not_counted_as_dense(self):
        # HEA steps hold no 4^n matrix: the 6+6, t = 33 no-reset spec
        # that a Haar source cannot afford passes with an HEA source
        spec = ExperimentSpec(
            kind="xeb", n_system=6, n_bath=6, steps=(33,), instances=1, shots=200,
            reset_bath=False, unitary_source="hea", hea_layers=1,
        )
        runner_mod._check_capacity(spec)

    @pytest.mark.parametrize("kind", ["xeb", "noisy_xeb"])
    @pytest.mark.parametrize("source", ["haar", "hea"])
    def test_sampler_peak_within_live_copies(self, kind, source):
        # what _check_capacity budgets per shot batch bounds what one instance
        # of a sampled kind holds, replay included, with and without a reset.
        # Without a reset the HEA steps after the first run their gates; at
        # 8+2 with 256 shots a reset HEA step compiles to 256 columns, the
        # one-batch-copy boundary.  At t = 1 the whole walk is the fan-out
        # of the one |0> row to the distinct paths, and replay's to the shots
        gamma = 0.7 if kind == "noisy_xeb" else None
        runs = [(4, 4, True, 2000), (4, 4, False, 2000)]
        if source == "hea":
            runs += [(4, 4, False, 200), (8, 2, True, 256)]
        for (n_system, n_bath, reset, shots), t in itertools.product(runs, (1, 3)):
            spec = ExperimentSpec(
                kind=kind, n_system=n_system, n_bath=n_bath, steps=(t,),
                gammas=(gamma,) if gamma else (),
                instances=1, shots=shots, reset_bath=reset, unitary_source=source,
                hea_layers=4 if source == "hea" else None, master_seed=3,
            )
            tracemalloc.start()
            try:
                runner_mod._instance(spec, t, gamma, 0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            batch_bytes = spec.shots * (16 << (spec.n_system + spec.n_bath))
            assert peak < SAMPLER_LIVE_COPIES * batch_bytes, (reset, shots, t)

    @pytest.mark.parametrize("n_sys, n_bath, shots", [(4, 4, 2000), (5, 5, 1000)])
    def test_reset_haar_sampler_holds_one_batch_copy(self, n_sys, n_bath, shots):
        # beside the step's product the sampler holds its bath weights, which
        # it sums with no copy of the register, and a step draws only its
        # kept columns: tracemalloc reads 1.14-1.19 copies; squaring the whole
        # register at once and drawing whole Ginibre halves would read 1.60
        spec = ExperimentSpec(kind="noisy_xeb", n_system=n_sys, n_bath=n_bath, steps=(2,),
                              gammas=(0.7,), instances=1, shots=shots, master_seed=3)
        runner_mod._instance(spec, 2, 0.7, 0)  # numpy's lazy setup, outside the trace
        tracemalloc.start()
        try:
            runner_mod._instance(spec, 2, 0.7, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * shots * (16 << (n_sys + n_bath))

    def test_noisy_sampler_peak_near_noiseless(self):
        # a Pauli string is two masks on the kept block, so noise costs less
        # than half a batch copy beyond the noiseless peak where that block
        # is half the register (7+1): tracemalloc reads 2.03 copies noisy
        # against 1.74-1.83; gathering a complex phase array per step reads 2.72
        peaks = {}
        for kind, gamma in (("xeb", None), ("noisy_xeb", 0.7)):
            spec = ExperimentSpec(
                kind=kind, n_system=7, n_bath=1, steps=(3,), gammas=(gamma,) if gamma else (),
                instances=1, shots=2000, master_seed=3,
            )
            tracemalloc.start()
            try:
                runner_mod._instance(spec, 3, gamma, 0)
                _, peaks[kind] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        batch_bytes = 2000 * (16 << 8)
        assert peaks["noisy_xeb"] < peaks["xeb"] + 0.5 * batch_bytes, peaks

    def test_hea_angles_beyond_memory_refused_before_work(self, seven_gib, no_work):
        # 10^9 layers on 2 qubits: three steps hold 96 GB of angles
        spec = ExperimentSpec(
            kind="cp_sweep", n_system=1, n_bath=1, steps=(3,), instances=1,
            unitary_source="hea", hea_layers=10**9,
        )
        with pytest.raises(CapacityError, match="step unitaries"):
            run_experiment(spec)
        runner_mod._check_capacity(dataclasses.replace(spec, hea_layers=10**7))

    def test_hea_angles_peak_within_budget(self):
        # what _check_capacity budgets for an HEA instance's angles bounds
        # what drawing its steps holds at the peak
        n_system, n_bath, t, layers = 1, 2, 3, 100_000
        config = hrcslab.HrcsConfig(
            n_system=n_system, n_bath=n_bath, steps=t, unitary_source="hea", hea_layers=layers
        )
        tracemalloc.start()
        try:
            hrcslab.instantiate_circuit(config, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        angle_array = 8 * layers * (n_system + n_bath)
        assert 2 * t * angle_array < peak < instance_bytes(config)

    def test_pooled_distributions_beyond_memory_refused_before_work(self, monkeypatch):
        # 10^4 instances of 2^22 probabilities are 336 GB per pooled copy
        def no_work(*args):
            raise AssertionError("an instance ran")

        monkeypatch.setattr(runner_mod, "_instance", no_work)
        spec = ExperimentSpec(kind="pop_hist", n_system=2, n_bath=2, steps=(10,), instances=10_000)
        with pytest.raises(CapacityError, match="GB"):
            run_experiment(spec)

    def test_pop_hist_peak_within_live_copies(self):
        # what _check_capacity budgets per pooled copy bounds a pop_hist point
        spec = ExperimentSpec(
            kind="pop_hist", n_system=2, n_bath=1, steps=(12,), instances=30, master_seed=1
        )
        tracemalloc.start()
        try:
            run_experiment(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        pooled_bytes = spec.instances * (8 << (spec.n_system + 12 * spec.n_bath))
        assert peak < runner_mod.POP_HIST_LIVE_COPIES * pooled_bytes

    @pytest.mark.parametrize(
        "path",
        sorted(CONFIGS.glob("*.json")),
        ids=lambda path: path.stem,
    )
    def test_shipped_configs_within_capacity(self, path):
        runner_mod._check_capacity(ExperimentSpec.from_json_file(str(path)))


class TestRunExperiment:
    def test_cp_sweep_record_layout(self):
        records = run_experiment(cp_spec())
        assert len(records) == 2
        assert [r["t"] for r in records] == [1, 2]
        for rec in records:
            assert rec["statistic"] == "collision_probability"
            assert rec["theory_source"] == "hrcs_power_sum_exact"
            assert rec["count"] == 25
            target = theory.hrcs_power_sum(2, 1, rec["t"], 2)
            assert rec["theory_value"] == pytest.approx(target, rel=1e-12)
            assert abs(rec["mean"] - target) < 4 * rec["std_error"]

    def test_ps_sweep_shares_instances_across_orders(self):
        spec = cp_spec(kind="ps_sweep", k_orders=(2, 3), steps=(2,))
        records = run_experiment(spec)
        assert [r["K"] for r in records] == [2, 3]
        cp_records = run_experiment(cp_spec(steps=(2,)))
        assert records[0]["mean"] == pytest.approx(
            cp_records[0]["mean"], rel=1e-12
        )

    def test_marginal_sweep_statistics(self):
        spec = cp_spec(kind="marginal_sweep", steps=(1,), instances=40)
        records = run_experiment(spec)
        assert [r["statistic"] for r in records] == [
            "marginal_cp_spatial",
            "marginal_cp_temporal",
            "marginal_cp_per_step",
        ]
        for rec in records:
            assert abs(rec["mean"] - rec["theory_value"]) < 4 * rec["std_error"]

    def test_reset_check_records(self):
        spec = cp_spec(kind="reset_check", steps=(2,), instances=30)
        records = run_experiment(spec)
        stats = [r["statistic"] for r in records]
        assert stats == [
            "collision_probability_reset",
            "collision_probability_no_reset",
            "power_sum_reset",
            "power_sum_no_reset",
        ]

    def test_theory_table_pure_sweep(self):
        spec = ExperimentSpec(
            kind="theory_table",
            n_system=2,
            n_bath=1,
            steps=(1, 2, 3),
            k_orders=(2,),
            theory_family="hrcs_power_sum",
        )
        records = run_experiment(spec)
        assert [r["mean"] for r in records] == [
            theory.hrcs_power_sum(2, 1, t, 2) for t in (1, 2, 3)
        ]
        assert all(r["std_error"] == 0.0 for r in records)

    @pytest.mark.parametrize("family", THEORY_FAMILIES)
    def test_theory_table_family_matches_direct_call(self, family):
        spec = ExperimentSpec(
            kind="theory_table", n_system=2, n_bath=1, steps=(3,),
            k_orders=(3,) if "k_orders" in FAMILY_READS.get(family, ()) else (2,),
            gammas=(0.7,) if "gammas" in FAMILY_READS.get(family, ()) else (),
            epsilon=0.5 if family == "critical_steps" else 1.0, theory_family=family,
        )
        (rec,) = run_experiment(spec)
        assert rec["theory_source"] == family
        assert rec["mean"] == rec["theory_value"] == DIRECT_THEORY[family]()

    def test_theory_table_record_order(self):
        # points run t-major over gammas, and each point lists one row per
        # k_orders entry; no family reads both, so either order is the list's.
        # A family that reads no order writes K as None
        spec = ExperimentSpec(
            kind="theory_table", n_system=2, n_bath=1, steps=(3, 1), k_orders=(2, 3, 5),
            epsilon=0.5, theory_family="critical_steps",
        )
        got = [(r["t"], r["K"], r["gamma"], r["mean"], r["theory_value"])
               for r in run_experiment(spec)]
        assert got == [(t, k, None, v, v) for t in (3, 1) for k in (2, 3, 5)
                       for v in [theory.critical_steps(2, 1, 0.5, k)]]
        spec = ExperimentSpec(
            kind="theory_table", n_system=2, n_bath=1, steps=(3, 1), gammas=(0.7, 0.2),
            theory_family="noisy_xeb_exact",
        )
        got = [(r["t"], r["K"], r["gamma"], r["mean"], r["theory_value"])
               for r in run_experiment(spec)]
        assert got == [(t, None, g, v, v) for t in (3, 1) for g in (0.7, 0.2)
                       for v in [theory.noisy_xeb(2, 1, t, g)]]

    @pytest.mark.parametrize(
        "family, gamma, reason",
        [
            ("tvd_bound_asymptotic", None, "math range error"),
            ("ideal_xeb", None, "math range error"),
            ("noisy_xeb_exact", 1.0, "non-finite value inf"),
        ],
    )
    def test_formula_out_of_range_names_family_and_point(self, family, gamma, reason):
        # at 1+1, t = 20000: exp((t-1)/4) overflows, so does 2^N_eff Z (about
        # e^3646), and the noiseless transfer matrix outgrows a double
        spec = ExperimentSpec(
            kind="theory_table", n_system=1, n_bath=1, steps=(20000,),
            gammas=(gamma,) if gamma else (), theory_family=family,
        )
        point = rf"\(t, K, gamma\) = \(20000, None, {gamma}\)"
        with pytest.raises(ConfigurationError, match=rf"{family} at {point}.*{reason}"):
            run_experiment(spec)

    @pytest.mark.parametrize("family", ["ideal_xeb", "tvd_bound_exact"])
    def test_register_beyond_a_double_refused(self, family):
        # at 600+600, 2^(N_A+N_B) is inf: ideal_xeb wrote -1.0 and
        # tvd_bound_exact 0.0, where both are near 1 and 0.707
        spec = ExperimentSpec(kind="theory_table", n_system=600, n_bath=600, steps=(3,),
                              theory_family=family)
        with pytest.raises(ConfigurationError, match=rf"{family} at .*n_system \+ n_bath"):
            run_experiment(spec)

    def test_tvd_bounded_by_theory(self):
        spec = cp_spec(kind="tvd", steps=(1, 2), instances=20)
        records = run_experiment(spec)
        for rec in records:
            assert rec["mean"] <= rec["theory_value"]

    def test_xeb_small_run(self):
        spec = cp_spec(kind="xeb", steps=(1,), instances=30, shots=400)
        rec = run_experiment(spec)[0]
        assert abs(rec["mean"] - rec["theory_value"]) < 4 * rec["std_error"]

    def test_noisy_xeb_small_run(self):
        spec = cp_spec(
            kind="noisy_xeb", steps=(1, 2), gammas=(0.7,), instances=40, shots=300
        )
        records = run_experiment(spec)
        for rec in records:
            assert rec["gamma"] == 0.7
            assert rec["theory_source"] == "noisy_xeb_exact"
            assert abs(rec["mean"] - rec["theory_value"]) < 4 * rec["std_error"]

    def test_pop_hist_reports_ks_and_integral(self):
        spec = ExperimentSpec(
            kind="pop_hist", n_system=2, n_bath=1, steps=(2,), instances=40, master_seed=1
        )
        ks_rec, int_rec = run_experiment(spec)
        assert ks_rec["statistic"] == "pop_ks_to_porter_thomas"
        assert 0.0 <= ks_rec["mean"] < 0.2
        assert int_rec["statistic"] == "pop_density_integral"
        assert int_rec["mean"] == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("n_system, n_bath, t", [(1, 1, 2), (2, 1, 2), (4, 5, 2)])
    def test_pop_density_integral_theory_is_porter_thomas_range_mass(self, n_system, n_bath, t):
        # the histogram spans [1e-2/D, 50/D], clipped at p = 1 below D = 50
        spec = ExperimentSpec(
            kind="pop_hist", n_system=n_system, n_bath=n_bath, steps=(t,), instances=2,
            master_seed=1,
        )
        _, int_rec = run_experiment(spec)
        d = 2.0 ** (n_system + t * n_bath)
        mass = (1 - 1e-2 / d) ** (d - 1) - (1 - min(50 / d, 1)) ** (d - 1)
        assert int_rec["theory_source"] == "porter_thomas_density"
        assert int_rec["theory_value"] == pytest.approx(mass, rel=1e-12)

    @pytest.mark.parametrize(
        "kind", [kind for kind, entry in KIND_TABLE.items() if entry.measure is not None]
    )
    def test_instance_failure_reports_seed(self, kind, monkeypatch):
        real = runner_mod.instantiate_circuit

        def faulty(config, index):
            if index == 3:
                raise RuntimeError("synthetic fault")
            return real(config, index)

        monkeypatch.setattr(runner_mod, "instantiate_circuit", faulty)
        spec = cp_spec(kind=kind, steps=(1,), instances=5, shots=20,
                       gammas=(0.7,) if kind == "noisy_xeb" else ())
        seed = instance_seed(spec.config_for(1), 3)
        with pytest.raises(runner_mod.InstanceFailure, match=rf"instance 3 .*stream seed {seed:#x}"):
            run_experiment(spec)


# each config's records sit in expected/ beside it, and each CI spec's in
# ci/expected/; a config shipped without them fails.  neff200_xeb is the one
# exception: its records sit in expected_slow/, and a CI step checks them
# (about 8 s a run).  The reset HEA xeb specs compile every step (4 columns, 200
# shots); without a reset the steps after the first keep their bath, so their
# gates run on the register, split 3 + 3 and, on 5 qubits, 2 + 3.  The noisy
# specs sample Pauli strings with a reset HEA step and with a kept Haar bath.
# The two 5+5 noisy specs fan the one |0> row out to 20 shots at t = 1 and 2,
# with a Haar isometry and with an HEA-8 step whose 32 columns outnumber the
# shots, so its second step runs gates.  Those two and noisy_xeb_kept_bath
# cover d_A = 32 and 8 (the shipped sampling configs all have d_A = 4);
# noisy_xeb_kept_bath is the one spec between 5 and 7 qubits, on the per-step
# Haar stream.  tvd pins each instance's Haar partner state beside its
# enumerated distribution.  pop_hist pools enumerated distributions; its
# density integral at t = 4 is 1263 of 1280.  ps_cap enumerates 2^22 outcomes at 2+1 and t = 20, the most
# enumeration gives, so each power sum takes exact_sum's binned path at its
# largest input.
SHIPPED = [path for path in sorted(CONFIGS.glob("*.json")) + sorted((CONFIGS / "ci").glob("*.json"))
           if path.stem != "neff200_xeb"]


@pytest.mark.parametrize(
    "config", SHIPPED, ids=lambda path: str(path.relative_to(CONFIGS).with_suffix(""))
)
def test_shipped_config_reproduces_golden_records(config, tmp_path):
    # the bytes hold at any worker count on one BLAS kernel; across kernels
    # compare_records allows means, standard errors and theory values 1e-12
    # relative
    spec = ExperimentSpec.from_json_file(str(config))
    expected = config.parent / "expected" / f"{config.stem}.{spec.format}"
    assert expected.is_file(), f"{config.name} ships without its golden records"
    runs = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}{expected.suffix}"
        write_records(run_experiment(spec, workers=workers), str(out), spec.format)
        runs.append(out)
    assert runs[0].read_bytes() == runs[1].read_bytes()
    got, want = compare_records.read_records(runs[0]), compare_records.read_records(expected)
    assert compare_records.mismatch(got, want) is None


@pytest.mark.parametrize("field, change, accepted", [
    ("mean", lambda v: v * (1 + 1e-15), True),
    ("std_error", lambda v: v * (1 - 1e-15), True),
    ("theory_value", lambda v: v * (1 + 1e-15), True),
    ("mean", lambda v: v * (1 + 1e-11), False),
    ("theory_value", lambda v: v * (1 - 1e-11), False),
    ("gamma", lambda v: v * (1 + 1e-15), False),
    ("count", lambda v: v + 1, False),
    ("spec_hash", lambda v: v + "0", False),
])
def test_compare_records_rule(field, change, accepted, tmp_path):
    # the golden rule, as the CI step applies it to neff200_xeb's records
    want = CONFIGS / "expected_slow" / "neff200_xeb.jsonl"
    records = compare_records.read_records(want)
    records[-1][field] = change(records[-1][field])
    got = tmp_path / want.name
    got.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert (compare_records.mismatch(compare_records.read_records(got),
                                     compare_records.read_records(want)) is None) == accepted
    script = subprocess.run([sys.executable, str(CONFIGS.parent / "compare_records.py"),
                             str(got), str(want)], capture_output=True, text=True)
    assert script.returncode == (0 if accepted else 1), script.stderr


class TestDeterminism:
    def test_rerun_identical(self):
        a = run_experiment(cp_spec())
        b = run_experiment(cp_spec())
        assert a == b

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_refused(self, workers, monkeypatch):
        def no_work(*args):
            raise AssertionError("an instance ran")

        monkeypatch.setattr(runner_mod, "_instance", no_work)
        with pytest.raises(ConfigurationError, match="workers"):
            run_experiment(cp_spec(), workers=workers)

    @pytest.mark.parametrize("workers", [1.5, 2.0, "2", True])
    def test_worker_count_not_an_integer_refused(self, workers):
        with pytest.raises(ConfigurationError, match="workers must be an integer"):
            run_experiment(cp_spec(instances=4), workers=workers)

    def test_worker_count_invariance(self):
        serial = run_experiment(cp_spec(), workers=1)
        parallel = run_experiment(cp_spec(), workers=3)
        assert serial == parallel

    def test_seed_changes_measurements(self):
        a = run_experiment(cp_spec())
        b = run_experiment(cp_spec(master_seed=100))
        assert a[0]["mean"] != b[0]["mean"]

    def test_adding_parameter_points_keeps_existing_instances(self):
        short = run_experiment(cp_spec(steps=(1,)))
        longer = run_experiment(cp_spec(steps=(1, 2)))
        assert short[0]["mean"] == pytest.approx(longer[0]["mean"], rel=1e-15)


# the fields each kind needs beside cp_spec's, at one step and three instances
TINY = {
    "ps_sweep": dict(k_orders=(2, 3)),
    "xeb": dict(shots=20),
    "noisy_xeb": dict(shots=20, gammas=(0.7,)),
    "theory_table": dict(theory_family="noisy_xeb_exact", gammas=(0.7, 0.2)),
}


class TestWriteRecords:
    def test_empty_csv_has_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_records([], str(path), "csv")
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_empty_jsonl_is_empty(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_records([], str(path), "jsonl")
        assert path.read_text() == ""

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_jsonl_round_trip(self, kind, tmp_path):
        # the rows run_experiment returns are the JSONL lines, and their
        # CSV_COLUMNS projection is the CSV
        records = run_experiment(cp_spec(kind=kind, steps=(1,), instances=3, **TINY.get(kind, {})))
        assert records
        path = tmp_path / "out.jsonl"
        write_records(records, str(path), "jsonl")
        lines = path.read_text().splitlines()
        assert [json.loads(line) for line in lines] == records
        # Python values only: a numpy float would pass every check above
        assert {type(v) for rec in records for v in rec.values()} <= {str, int, float, type(None)}
        assert all(list(json.loads(line)) == sorted(json.loads(line)) for line in lines)
        path = tmp_path / "out.csv"
        write_records(records, str(path), "csv")
        with open(path, newline="") as fh:
            table = list(csv.reader(fh))
        assert table[0] == list(CSV_COLUMNS)
        assert [[None if cell == "" else type(rec[c])(cell) for c, cell in zip(CSV_COLUMNS, row)]
                for rec, row in zip(records, table[1:], strict=True)] == \
            [[rec[c] for c in CSV_COLUMNS] for rec in records]

    def test_jsonl_floats_have_17_significant_digits(self, tmp_path):
        records = run_experiment(cp_spec(instances=5))
        path = tmp_path / "out.jsonl"
        write_records(records, str(path), "jsonl")
        parsed = json.loads(path.read_text().splitlines()[0])
        assert parsed["mean"] == records[0]["mean"]  # lossless round trip

    def test_csv_column_order(self, tmp_path):
        records = run_experiment(cp_spec(instances=5))
        path = tmp_path / "out.csv"
        write_records(records, str(path), "csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "n_A,n_B,t,K,gamma,statistic,mean,std_error,theory_value"
        first = lines[1].split(",")
        assert first[0] == "2" and first[1] == "1" and first[2] == "1"
        assert first[5] == "collision_probability"

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("change, named", [
        (lambda rec: {"n_A": 1}, "missing ['K', 'count'"),
        (lambda rec: {k: v for k, v in rec.items() if k != "theory_source"},
         "missing ['theory_source'], extra []"),
        (lambda rec: {**rec, "wall_time_s": 0.5}, "missing [], extra ['wall_time_s']"),
        (lambda rec: {**rec, 7: 0.5}, "missing [], extra [7]"),
        (lambda rec: list(rec.items()), "got list"),
    ], ids=["one-key", "missing", "extra", "int-key", "not-a-dict"])
    def test_row_of_other_keys_refused(self, fmt, change, named, tmp_path):
        # {"n_A": 1} was written as the CSV row 1,,,,,,,,; nothing is written
        good = run_experiment(cp_spec(instances=3))
        path = tmp_path / f"out.{fmt}"
        with pytest.raises(ConfigurationError, match=re.escape(named)):
            write_records([*good, change(good[0])], str(path), fmt)
        assert not path.exists()

    def test_byte_identical_files_across_runs_and_workers(self, tmp_path):
        paths = []
        for i, workers in enumerate((1, 1, 2)):
            path = tmp_path / f"run{i}.jsonl"
            write_records(run_experiment(cp_spec(), workers=workers), str(path), "jsonl")
            paths.append(path.read_bytes())
        assert paths[0] == paths[1] == paths[2]


FAULT_PROBE = """
import resource
from hrcslab.runner import ExperimentSpec, run_experiment

spec = ExperimentSpec(kind="noisy_xeb", n_system=5, n_bath=5, steps=(1, 2), gammas=(0.7,),
                      instances=3, shots=1000, master_seed=21)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_experiment(spec)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's heap policy")
def test_same_size_arrays_reuse_the_heap():
    # a (shots, 2^n) complex array at 5+5 and 1000 shots is 16.4 MB, above
    # glibc's default mmap threshold: in a fresh interpreter glibc maps such
    # arrays anew and faults their pages in until its threshold has risen
    # (3550-4060 faults on x86-64 glibc 2.36), unless the 16 MiB block that
    # run_experiment frees first has raised it (1230-1760).  A 2+2 probe
    # read 193-196 faults without the block and 214-215 with it
    src = str(Path(hrcslab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", FAULT_PROBE],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    assert int(proc.stdout.splitlines()[-1]) < 2700


def test_every_exported_name_resolves():
    missing = [name for name in hrcslab.__all__ if not hasattr(hrcslab, name)]
    assert missing == []


# two circuits functions that the gate kernel replaced; perfbench still names them
STALE_SPAN_TARGETS = {"circuits.apply_gate_sequence_batch", "circuits.build_hea"}


def test_every_benchmark_span_target_resolves():
    # the benchmark's tracer reports a target it cannot find and runs on, so a
    # rename in the package fails here rather than only in the benchmark
    tree = ast.parse((Path(__file__).parent.parent / "perfbench" / "spans.py").read_text())
    (targets,) = [ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]]
    unresolved = {
        f"{layer}.{name}" for layer, names in targets.items() for name in names or ()
        if not callable(getattr(importlib.import_module(f"hrcslab.{layer}"), name, None))
    }
    assert unresolved <= STALE_SPAN_TARGETS


# OpenBLAS kernel -> the CPU flag it needs (Linux names SSE3 "pni")
BLAS_KERNELS = {"SkylakeX": "avx512f", "Haswell": "avx2", "Sandybridge": "avx", "Prescott": "pni"}
KERNEL_PROBE = """
import json, sys
from hrcslab.runner import ExperimentSpec, run_experiment
for doc in json.loads(sys.argv[1]):
    for rec in run_experiment(ExperimentSpec(**doc)):
        print(json.dumps(rec))
"""


def _openblas_configuration() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["openblas configuration"]
    except (TypeError, KeyError):  # numpy before 1.26, or another BLAS
        return ""


def _cpu_flags() -> set[str]:
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        line = next((line for line in fh if line.startswith("flags")), "flags :")
    return set(line.split(":", 1)[1].split())


@pytest.mark.skipif(
    platform.system() != "Linux" or "DYNAMIC_ARCH" not in _openblas_configuration(),
    reason="OPENBLAS_CORETYPE picks the kernel of a DYNAMIC_ARCH OpenBLAS on Linux",
)
def test_records_agree_across_blas_kernels():
    # each kernel rounds the QR, the step products and the replay its own way,
    # so the four kernels write four digests: means and standard errors move by
    # about 1e-15 relative, while counts and theory values stay exactly as they are
    flags = _cpu_flags()
    kernels = [name for name, flag in BLAS_KERNELS.items() if flag in flags]
    if len(kernels) < 2:
        pytest.skip(f"the CPU runs {kernels or 'none'} of {list(BLAS_KERNELS)}")
    docs = [
        dict(kind="noisy_xeb", n_system=4, n_bath=3, steps=[1, 3], gammas=[0.7],
             instances=4, shots=200, master_seed=11),
        dict(kind="xeb", n_system=4, n_bath=3, steps=[1, 3], reset_bath=False,
             unitary_source="hea", hea_layers=2, instances=4, shots=200, master_seed=11),
    ]
    src = str(Path(hrcslab.__file__).resolve().parents[1])
    runs = {}
    for kernel in kernels:
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_CORETYPE": kernel}
        proc = subprocess.run([sys.executable, "-c", KERNEL_PROBE, json.dumps(docs)],
                              capture_output=True, text=True, env=env, check=True)
        runs[kernel] = [json.loads(line) for line in proc.stdout.splitlines()]
    reference = runs[kernels[0]]
    assert len(reference) == 4
    for kernel, records in runs.items():
        assert len(records) == len(reference), kernel
        for new, old in zip(records, reference):
            assert new.keys() == old.keys()
            for key in old:
                if key in ("mean", "std_error"):
                    assert new[key] == pytest.approx(old[key], rel=1e-12, abs=0), (kernel, key)
                elif key == "theory_value":
                    assert new[key].hex() == old[key].hex(), kernel
                else:
                    assert new[key] == old[key], (kernel, key)
