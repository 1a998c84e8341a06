"""``BENCH_trajectory.json`` holds only numbers that its own runs give: every
summary is recomputed from the stored runs, every listed commit has runs on
every workload, each block ran each of its commits once per round, and every
run completed with correct results."""

import json
import statistics
from pathlib import Path

import pytest

TRAJECTORY = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCH_trajectory.json").read_text(encoding="utf-8")
)
WORKLOADS = ("enum_deep", "xeb_haar_noisy", "xeb_hea", "cli_configs")
METRICS = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")
LABELS = [commit["label"] for commit in TRAJECTORY["commits"]]


def summary(values: list[float]) -> dict:
    """The file's summary of one metric: median, inclusive quartiles, their
    distance, min and max."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1,
            "min": min(values), "max": max(values)}


def test_every_listed_commit_ran_every_workload():
    assert len(set(LABELS)) == len(LABELS)
    for commit in TRAJECTORY["commits"]:
        assert commit["label"] == "change" or commit["commit"].startswith(commit["label"])
    assert sorted(TRAJECTORY["results"]) == sorted(WORKLOADS)
    for results in TRAJECTORY["results"].values():
        assert sorted(results) == sorted(LABELS)
        assert all(entry["runs"] for entry in results.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_summaries_come_from_the_stored_runs(workload):
    for label, entry in TRAJECTORY["results"][workload].items():
        recomputed = {m: summary([run[m] for run in entry["runs"]]) for m in METRICS}
        assert entry["summary"] == recomputed, label


def test_every_run_is_correct():
    for workload, results in TRAJECTORY["results"].items():
        for label, entry in results.items():
            for run in entry["runs"]:
                assert run["correct"] is True and run["failed"] == 0, (workload, label, run)
                assert run["attempted"] >= 1, (workload, label, run)


def test_each_block_ran_its_commits_once_per_round():
    blocks = TRAJECTORY["blocks"]
    assert [block["block"] for block in blocks] == list(range(len(blocks)))
    assert {label for block in blocks for label in block["commits"]} == set(LABELS)
    for workload, results in TRAJECTORY["results"].items():
        for block in blocks:
            for label in block["commits"]:
                rounds = sorted(run["round"] for run in results[label]["runs"]
                                if run["block"] == block["block"])
                assert rounds == list(range(block["rounds"])), (workload, label, block["block"])
        # no run outside a block that lists its commit
        for label, entry in results.items():
            assert all(label in blocks[run["block"]]["commits"] for run in entry["runs"])
