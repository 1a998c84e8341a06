"""hrcslab benchmark: time to solution, CPU and memory per workload, checked
against theory, with a traced mode that gives per-layer numbers.

Usage (from the repository root):
    python3 perfbench/run.py --workload enum_deep --seed 1 --seconds 24 --trace 0

Workloads: enum_deep, xeb_haar_noisy, xeb_hea, cli_configs (see README.md).
Each pass runs the workload's specs once in a fresh interpreter
(perfbench/child.py); passes repeat while the next one is expected to end
within half a pass of --seconds.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  BLAS thread variables are
passed through exactly as the caller has them.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from spans import LAYERS, self_times  # noqa: E402

WORKLOADS = ("enum_deep", "xeb_haar_noisy", "xeb_hea", "cli_configs")
CONFIGS = ("cp_sweep", "marginal_sweep", "noisy_xeb", "reset_check", "theory_noisy_xeb")
REFERENCE_FILE = os.path.join(HERE, "reference.json")
REFERENCE_SEEDS = (1, 2)  # the default seed and the second seed
# the stored xeb_hea ensemble: many instances at a seed of its own
ENSEMBLE_SEED = 1_000_000
ENSEMBLE_INSTANCES = {"full": 100, "tiny": 200}
SETUP_SAMPLES = 6  # half of them probed before the passes, the rest after
Z_LIMIT = 4.0
REFERENCE_RTOL = 1e-9
THEORY_TABLE_TOL = 1e-12
TIME_LIMIT_S = 170.0
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# span name -> whether `.calls` is reported next to `.self_s`
SPAN_METRICS = {
    "core.sample_haar_unitary": True,
    "circuits.apply_gate_sequence_batch": True,
    "circuits.build_hea": False,
    "engine.instantiate_circuit": True,
    "engine.enumerate_joint_distribution": True,
    "engine.replay_no_reset_equivalence": True,
    "engine.sample_trajectories": True,
    "engine.ideal_probabilities_batch": True,
    "engine.marginalize": False,
    "estimators.power_sum_exact": True,
    "estimators.xeb_estimate": False,
    "estimators.ensemble_aggregate": False,
    "runner.run_experiment": False,
    "runner.write_records": False,
    "cli.main": False,
}
# span -> metric of its work count (see spans.WORK) per self-second
RATES = {
    "circuits.apply_gate_sequence_batch": "circuits.gates_per_s",
    "engine.enumerate_joint_distribution": "engine.enumerate_joint_distribution.nodes_per_s",
    "engine.sample_trajectories": "engine.sample_trajectories.shots_per_s",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name, calls in SPAN_METRICS.items():
        if calls:
            units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name in RATES:
            units[RATES[name]] = "1/s"
    units["theory.calls"] = "count"
    units["theory.self_s"] = "s"
    units["runner.write_records.bytes"] = "B"
    for config in CONFIGS:
        units[f"runner.pool_speedup.{config}"] = "ratio"
    for config in CONFIGS:
        units[f"runner.pool_cpu_ratio.{config}"] = "ratio"
    for layer in LAYERS:
        units[f"{layer}.errors"] = "count"
    units["trace.coverage"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


_COMMON = ("engine.instantiate_circuit", "estimators.ensemble_aggregate", "theory",
           "runner.run_experiment", "runner.write_records")
# spans that should fire on each workload; an absent one is listed in traced output
EXPECTED_SPANS = {
    "enum_deep": _COMMON + ("core.sample_haar_unitary", "engine.enumerate_joint_distribution",
                            "estimators.power_sum_exact"),
    "xeb_haar_noisy": _COMMON + ("core.sample_haar_unitary", "engine.sample_trajectories",
                                 "engine.ideal_probabilities_batch", "estimators.xeb_estimate"),
    "xeb_hea": _COMMON + ("circuits.build_hea", "circuits.apply_gate_sequence_batch",
                          "engine.sample_trajectories", "estimators.xeb_estimate"),
    "cli_configs": _COMMON + ("cli.main", "core.sample_haar_unitary",
                              "engine.enumerate_joint_distribution",
                              "engine.replay_no_reset_equivalence", "engine.marginalize",
                              "engine.sample_trajectories", "engine.ideal_probabilities_batch",
                              "estimators.power_sum_exact", "estimators.xeb_estimate"),
}


# ---------------------------------------------------------------------------
# workloads: the specs each pass runs, generated from the seed


def _spec(kind: str, **fields) -> dict:
    return {"schema_version": 1, "kind": kind, "format": "jsonl", **fields}


def library_specs(workload: str, seed: int, tiny: bool) -> list[tuple[str, dict]]:
    """(label, spec document) pairs for the workloads that call the runner."""
    if workload == "enum_deep":
        steps, orders, cp_steps = ((4, 5), (2, 3), 3) if tiny else ((12, 14, 16), (2, 3, 4), 8)
        return [
            ("ps_sweep", _spec("ps_sweep", n_system=2, n_bath=1, steps=list(steps),
                               k_orders=list(orders), instances=1, master_seed=seed)),
            ("cp_sweep", _spec("cp_sweep", n_system=2, n_bath=2, steps=[cp_steps],
                               instances=1, master_seed=seed)),
        ]
    n = 2 if tiny else 5
    if workload == "xeb_haar_noisy":
        return [("noisy_xeb", _spec("noisy_xeb", n_system=n, n_bath=n, steps=[2], gammas=[0.7],
                                    instances=10 if tiny else 20, shots=200 if tiny else 1000,
                                    master_seed=seed))]
    if workload == "xeb_hea":
        return [("xeb_hea", _spec("xeb", n_system=n, n_bath=n, steps=[2], unitary_source="hea",
                                  hea_layers=8, instances=10 if tiny else 14,
                                  shots=100 if tiny else 250, master_seed=seed))]
    raise ValueError(f"no library specs for {workload!r}")


def cli_command(kind: str) -> str:
    return "theory" if kind == "theory_table" else kind.replace("_", "-")


class Bench:
    """One benchmark invocation: a work directory, its child processes, and
    the outputs collected from them."""

    def __init__(self, workload: str, tiny: bool, work: str):
        self.workload, self.tiny, self.work = workload, tiny, work
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.jobs = 0
        self.attempted = 0
        self.problems: list[str] = []  # one entry per failed operation
        self.first_outputs: dict[str, bytes] = {}
        self.config_docs = self._load_configs() if workload == "cli_configs" else {}

    def _load_configs(self) -> dict[str, tuple[str, dict]]:
        """Config name -> (path, document); tiny runs use shrunk copies."""
        docs = {}
        for name in CONFIGS:
            path = os.path.join("scripts", "configs", f"{name}.json")
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            if self.tiny and "instances" in doc:
                doc["instances"] = min(doc["instances"], 50)
                doc["shots"] = min(doc.get("shots", 100), 100)
                path = os.path.join(self.work, f"tiny_{name}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
            docs[name] = (path, doc)
        return docs

    # -- jobs ---------------------------------------------------------------

    def job(self, seed: int, workers: int | None = 1, trace: bool = False,
            setup_only: bool = False, env: bool = False) -> dict:
        self.jobs += 1
        tag = f"j{self.jobs}"
        ops = []
        if self.workload == "cli_configs":
            for name, (path, doc) in self.config_docs.items():
                out = os.path.join(self.work, f"{tag}_{name}.{doc.get('format', 'jsonl')}")
                argv = [cli_command(doc["kind"]), "--config", path, "--out", out]
                if workers is not None:
                    argv += ["--workers", str(workers)]
                ops.append({"label": name, "kind": doc["kind"], "config": path, "argv": argv,
                            "out": out})
            mode = "cli"
        else:
            for label, doc in library_specs(self.workload, seed, self.tiny):
                ops.append({"label": label, "kind": doc["kind"], "spec": doc,
                            "out": os.path.join(self.work, f"{tag}_{label}.jsonl")})
            mode = "library"
        return {"mode": mode, "ops": ops, "workers": workers, "trace": trace,
                "setup_only": setup_only, "env": env,
                "result": os.path.join(self.work, f"{tag}_result.json")}

    def spawn(self, job: dict) -> dict:
        """Run one fresh interpreter; return its result with `setup_s`,
        `peak_rss_mb` and `duration_s` added, or raise RuntimeError."""
        job_path = job["result"].replace("_result.json", "_job.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), job_path],
                                stdout=subprocess.DEVNULL)
        timer = threading.Timer(max(self.deadline - start, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        duration = time.monotonic() - start
        if proc.returncode != 0 or not os.path.exists(job["result"]):
            raise RuntimeError(f"child exited with code {proc.returncode}")
        with open(job["result"], encoding="utf-8") as fh:
            result = json.load(fh)
        result["setup_s"] = result["ready"] - start
        result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # max over the process tree
        result["duration_s"] = duration
        return result

    def run_pass(self, seed: int, workers: int | None = 1, trace: bool = False,
                 env: bool = False) -> dict | None:
        """One pass over the workload's specs with every output checked.
        Returns None when the interpreter itself failed."""
        job = self.job(seed, workers=workers, trace=trace, env=env)
        self.attempted += len(job["ops"])
        try:
            result = self.spawn(job)
        except RuntimeError as exc:
            self.problems += [f"{op['label']}: {exc}" for op in job["ops"]]
            return None
        reference = load_reference(self.workload, self.tiny, seed)
        for op, done in zip(job["ops"], result["ops"]):
            problems = [done["error"]] if done["error"] else []
            if not problems:
                problems = self.check_output(op, reference.get(op["label"]))
            if problems:
                self.problems.append(f"{op['label']}: {'; '.join(problems)}")
        return result

    def check_output(self, op: dict, reference: list | None) -> list[str]:
        try:
            with open(op["out"], "rb") as fh:
                data = fh.read()
        except OSError as exc:
            return [f"no output: {exc}"]
        first = self.first_outputs.setdefault(op["label"], data)
        problems = [] if first == data else ["output differs from the first pass"]
        try:
            return problems + check_records(op["kind"], parse_records(data, op["out"]), reference)
        except (ValueError, KeyError, TypeError) as exc:
            return problems + [f"unreadable output: {type(exc).__name__}: {exc}"]

    def output_sha256(self) -> str:
        """sha256 of the outputs, concatenated in operation order."""
        digest = hashlib.sha256()
        for data in self.first_outputs.values():
            digest.update(data)
        return digest.hexdigest()


# ---------------------------------------------------------------------------
# output checks


def parse_records(data: bytes, path: str) -> list[dict]:
    text = data.decode("utf-8")
    if path.endswith(".csv"):
        rows = list(csv.DictReader(text.splitlines()))
        for row in rows:
            for key in ("mean", "std_error", "theory_value"):
                row[key] = float(row[key])
        return rows
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def check_records(kind: str, records: list[dict], reference: list | None = None) -> list[str]:
    """Problems found in one operation's records (empty when all pass).

    - theory_table: the value equals the stored theory value to 1e-12;
    - std_error > 0: |mean - theory_value| / std_error <= 4, or, where a
      stored ensemble [mean, std_error] is given, |mean - stored mean| over
      the two standard errors combined <= 4.  xeb_hea has one because an
      8-layer HEA is not a 2-design: its XEB sits above the Haar theory value;
    - single-instance exact records: the stored reference value to 1e-9
      relative when one exists, and always a power sum of order K over
      D outcomes inside [D^(1-K), 1].
    """
    if not records:
        return ["no records"]
    if kind == "theory_table" and reference is None:
        return ["no stored theory values"]
    if reference is not None and len(reference) != len(records):
        return [f"{len(records)} records, reference has {len(reference)}"]
    problems = []
    for i, rec in enumerate(records):
        mean, se, theory = rec["mean"], rec["std_error"], rec["theory_value"]
        where = f"record {i} ({rec['statistic']}, t={rec.get('t')})"
        if not all(math.isfinite(x) for x in (mean, se, theory)):
            problems.append(f"{where}: non-finite value")
        elif kind == "theory_table":
            if abs(mean - reference[i]) > THEORY_TABLE_TOL * max(1.0, abs(reference[i])):
                problems.append(f"{where}: {mean!r} != stored theory {reference[i]!r}")
        elif se > 0:
            centre, scale = (theory, se) if reference is None else (
                reference[i][0], math.hypot(se, reference[i][1]))
            z = (mean - centre) / scale
            if abs(z) > Z_LIMIT:
                problems.append(f"{where}: |z| = {abs(z):.2f} > {Z_LIMIT}")
        elif rec.get("count") == 1 and rec.get("K"):
            if reference is not None and abs(mean - reference[i]) > REFERENCE_RTOL * abs(reference[i]):
                problems.append(f"{where}: {mean!r} != reference {reference[i]!r}")
            n_eff = rec["n_A"] + rec["t"] * rec["n_B"]
            floor = 2.0 ** (n_eff * (1 - rec["K"]))
            if not floor * (1 - REFERENCE_RTOL) <= mean <= 1.0:
                problems.append(f"{where}: power sum {mean!r} outside [{floor!r}, 1]")
    return problems


def load_reference(workload: str, tiny: bool, seed: int) -> dict[str, list]:
    """Stored values by operation label: enum_deep records at the reference
    seeds, the theory_table values on cli_configs, and the xeb_hea ensemble."""
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        doc = json.load(fh)
    scale = "tiny" if tiny else "full"
    if workload == "enum_deep":
        return doc["enum_deep"][scale].get(str(seed), {})
    if workload == "cli_configs":
        return doc["theory_table"]
    if workload == "xeb_hea":
        return doc["xeb_hea"][scale]
    return {}


# ---------------------------------------------------------------------------
# metrics


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, float]:
    return {
        "wall_s": statistics.median(sum(op["wall_s"] for op in p["ops"]) for p in passes),
        "cpu_s": statistics.median(sum(op["cpu_s"] for op in p["ops"]) for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setups),
    }


def per_layer(traced: dict, untraced_wall: float, pool: dict[str, tuple[dict, dict]]) -> dict[str, float]:
    """Per-layer metrics from one traced pass.  `pool` maps a config to its
    (default-workers, workers=1) operation results; empty off cli_configs."""
    spans = traced.get("spans", [])
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    work: dict[str, float] = {}
    errors = dict.fromkeys(LAYERS, 0)
    top_level = 0.0
    for span, own_s in zip(spans, own):
        name, start, end, parent, raised, count = span
        layer = name.split(".")[0]
        key = "theory" if layer == "theory" else name
        if layer != "theory" or parent is None or not spans[parent][0].startswith("theory."):
            calls[key] = calls.get(key, 0) + 1
        self_s[key] = self_s.get(key, 0.0) + own_s
        work[key] = work.get(key, 0.0) + (count or 0)
        errors[layer] += bool(raised)
        if parent is None:
            top_level += end - start
    traced_wall = sum(op["wall_s"] for op in traced["ops"])

    metrics = {}
    for name, with_calls in SPAN_METRICS.items():
        if with_calls:
            metrics[f"{name}.calls"] = calls.get(name, 0)
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name, rate in RATES.items():
        metrics[rate] = work.get(name, 0.0) / self_s[name] if self_s.get(name) else 0.0
    metrics["theory.calls"] = calls.get("theory", 0)
    metrics["theory.self_s"] = self_s.get("theory", 0.0)
    metrics["runner.write_records.bytes"] = work.get("runner.write_records", 0)
    for config in CONFIGS:
        default, serial = pool.get(config, (None, None))
        metrics[f"runner.pool_speedup.{config}"] = (
            serial["wall_s"] / default["wall_s"] if default and default["wall_s"] > 0 else 0.0)
    for config in CONFIGS:
        default, serial = pool.get(config, (None, None))
        metrics[f"runner.pool_cpu_ratio.{config}"] = (
            default["cpu_s"] / serial["cpu_s"] if serial and serial["cpu_s"] > 0 else 0.0)
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = errors[layer]
    metrics["trace.coverage"] = top_level / traced_wall if traced_wall > 0 else 0.0
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    return metrics


def absent_spans(workload: str, traced: dict) -> list[str]:
    fired = {span[0] for span in traced.get("spans", [])}
    fired |= {"theory"} if any(n.startswith("theory.") for n in fired) else set()
    return [name for name in EXPECTED_SPANS[workload] if name not in fired]


def machine(child_env: dict) -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "os.cpu_count": os.cpu_count()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        info["cpu_model"] = None
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            caches[f"L{level}"] = size
    info["caches"] = caches
    info.update(child_env)
    info["blas_thread_vars"] = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    return info


# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool, work: str) -> dict:
    bench = Bench(workload, tiny, work)
    default_workers = None if workload == "cli_configs" else 1

    if not trace:
        # set-up samples come from every interpreter; probes before and after
        # the passes spread them over the run
        def probe() -> float:
            return bench.spawn(bench.job(seed, setup_only=True))["setup_s"]

        begin = time.monotonic()
        setups = [probe() for _ in range(SETUP_SAMPLES // 2)]
        passes = []
        while True:
            result = bench.run_pass(seed, workers=default_workers, env=not passes)
            if result is None:
                break
            passes.append(result)
            setups.append(result["setup_s"])
            # another pass only if it is expected to end at most half a pass late
            if time.monotonic() + result["duration_s"] / 2 > begin + seconds:
                break
        while passes and len(setups) < SETUP_SAMPLES:
            setups.append(probe())
        if not passes:
            raise RuntimeError("; ".join(bench.problems))
        metrics = end_to_end(passes, setups)
        walls = [round(sum(op["wall_s"] for op in p["ops"]), 4) for p in passes]
        print(f"passes {len(passes)} wall_s samples {walls} setup_s samples "
              f"{[round(s, 4) for s in setups]}")
        first = passes[0]
    else:
        serial = bench.run_pass(seed, workers=1, env=True)
        default = bench.run_pass(seed, workers=None) if workload == "cli_configs" else None
        traced = bench.run_pass(seed, workers=1, trace=True)
        if serial is None or traced is None:
            raise RuntimeError("; ".join(bench.problems))
        pool = {}
        if default is not None:
            pool = {op["label"]: (op, s) for op, s in zip(default["ops"], serial["ops"])}
        untraced = sum(op["wall_s"] for op in serial["ops"])
        metrics = per_layer(traced, untraced, pool)
        print("absent_spans " + json.dumps(absent_spans(workload, traced)))
        print("missing_wrap_targets " + json.dumps(traced.get("missing", [])))
        first = serial
    print("machine " + json.dumps(machine(first["env"]), sort_keys=True))

    units = END_TO_END if not trace else per_layer_units()
    failed = len(bench.problems)
    for problem in bench.problems:
        print(f"FAILED {problem}")
    print(f"output_sha256 {bench.output_sha256()}")
    print(f"{'error_rate':<50} {failed / bench.attempted:>14.6g} ratio "
          f"({failed} failed / {bench.attempted} attempted)")
    for name, unit in units.items():
        print(f"{name:<50} {metrics[name]:>14.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def recorded(workload: str, seed: int, tiny: bool, kinds: set[str] | None = None,
             instances: int | None = None) -> dict[str, list[dict]]:
    """Records by operation label from one pass, optionally only of the given
    spec kinds or with another instance count."""
    work = tempfile.mkdtemp(dir=HERE, prefix=".work-")
    try:
        bench = Bench(workload, tiny, work)
        bench.deadline = time.monotonic() + 3600.0  # a large ensemble outlasts a run
        job = bench.job(seed)
        job["ops"] = [op for op in job["ops"] if kinds is None or op["kind"] in kinds]
        if instances is not None:
            for op in job["ops"]:
                op["spec"]["instances"] = instances
        bench.spawn(job)
        out = {}
        for op in job["ops"]:
            with open(op["out"], "rb") as fh:
                out[op["label"]] = parse_records(fh.read(), op["out"])
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)


def record_reference() -> None:
    """Store enum_deep records at the reference seeds, the theory_table values
    and the xeb_hea ensemble (run once per commit that changes the random
    stream, the theory or the HEA on purpose, and say so in CHANGES.md)."""
    def means(records: dict[str, list[dict]]) -> dict[str, list[float]]:
        return {label: [rec["mean"] for rec in recs] for label, recs in records.items()}

    doc = {"theory_table": means(recorded("cli_configs", REFERENCE_SEEDS[0], False,
                                          {"theory_table"})),
           "enum_deep": {}, "xeb_hea": {}}
    for scale in ("full", "tiny"):
        tiny = scale == "tiny"
        doc["enum_deep"][scale] = {
            str(seed): means(recorded("enum_deep", seed, tiny)) for seed in REFERENCE_SEEDS}
        ensemble = recorded("xeb_hea", ENSEMBLE_SEED, tiny, instances=ENSEMBLE_INSTANCES[scale])
        doc["xeb_hea"][scale] = {label: [[rec["mean"], rec["std_error"]] for rec in recs]
                                 for label, recs in ensemble.items()}
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the benchmark's own test")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from the current program")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "hrcslab", "__init__.py")):
        print("error: run from the repository root; src/hrcslab not found", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    work = tempfile.mkdtemp(dir=HERE, prefix=".work-")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny, work)
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
