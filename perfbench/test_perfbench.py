"""The benchmark's own test: every workload at a tiny size, the printed metric
names and units against BENCHMARK.json, and the output checks.

Run from the repository root:
    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import spans  # noqa: E402


def declared(section: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def run_benchmark(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=175, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tiny_run_prints_declared_metrics(workload, trace):
    proc = run_benchmark(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                         "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared("per_layer" if trace else "end_to_end")
    if trace:
        assert "absent_spans []" in lines
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_machine_is_recorded():
    proc = run_benchmark(ROOT, "--workload", "xeb_hea", "--seconds", "1", "--tiny")
    machine = json.loads(next(line[8:] for line in proc.stdout.splitlines()
                              if line.startswith("machine ")))
    for key in ("nproc", "os.cpu_count", "cpu_model", "caches", "python", "numpy", "scipy",
                "blas", "blas_thread_vars"):
        assert key in machine
    assert set(machine["blas_thread_vars"]) == set(bench.BLAS_THREAD_VARS)


def test_check_flags_a_record_shifted_by_ten_standard_errors():
    record = {"statistic": "noisy_xeb_fidelity", "t": 2, "count": 16, "mean": 0.31,
              "std_error": 0.02, "theory_value": 0.30}
    assert bench.check_records("noisy_xeb", [record]) == []
    shifted = dict(record, mean=record["theory_value"] + 10 * record["std_error"])
    assert bench.check_records("noisy_xeb", [shifted])


def test_check_flags_reference_and_theory_table_mismatches():
    exact = {"statistic": "power_sum", "t": 12, "K": 2, "n_A": 2, "n_B": 1, "count": 1,
             "mean": 2.6e-4, "std_error": 0.0, "theory_value": 3.5e-4}
    assert bench.check_records("ps_sweep", [exact], [2.6e-4]) == []
    assert bench.check_records("ps_sweep", [exact], [2.6e-4 * (1 + 1e-8)])
    assert bench.check_records("ps_sweep", [dict(exact, mean=1.5)])
    table = {"statistic": "noisy_xeb_exact", "t": 3, "mean": 0.25, "std_error": 0.0,
             "theory_value": 0.25}
    assert bench.check_records("theory_table", [table], [0.25]) == []
    # the record agrees with itself but not with the stored theory value
    shifted = dict(table, mean=0.25 + 1e-9, theory_value=0.25 + 1e-9)
    assert bench.check_records("theory_table", [shifted], [0.25])
    assert bench.check_records("theory_table", [table])
    # a stored ensemble replaces the theory value as the centre of the z check
    hea = {"statistic": "xeb_fidelity", "t": 2, "count": 14, "mean": 1.12, "std_error": 0.03,
           "theory_value": 1.0}
    assert bench.check_records("xeb", [hea], [[1.12, 0.01]]) == []
    assert bench.check_records("xeb", [dict(hea, mean=1.12 + 10 * 0.03)], [[1.12, 0.01]])


def test_missing_wrap_target_is_reported_not_raised(monkeypatch):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import hrcslab  # noqa: F401

    monkeypatch.setattr(spans, "TARGETS", {"engine": ("no_such_function",), "no_such_layer": ()})
    tracer = spans.Tracer()
    tracer.install()
    assert tracer.missing == ["engine.no_such_function", "no_such_layer"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = run_benchmark(str(tmp_path), "--workload", "enum_deep", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
