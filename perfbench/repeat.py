"""Run the benchmark on several seeds and report each end-to-end metric's
median and quartile spread (Q3 - Q1 as a share of the median) against the
bounds in BENCHMARK.json.

Usage (from the repository root):
    python3 perfbench/repeat.py --workloads enum_deep,xeb_hea --seeds 1-10 [--out summary.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", help="write every run and the summary as JSON")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs, summary, machine = [], {}, None
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            started = time.monotonic()
            proc = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=False)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            machine = machine or next(
                (json.loads(line[8:]) for line in lines if line.startswith("machine ")), None)
            runs.append({"workload": workload, "seed": seed, "exit_code": proc.returncode,
                         "duration_s": time.monotonic() - started, "result": result})
            status = "ok" if result and result["correct"] else f"FAILED {proc.stderr[-300:]}"
            print(f"{workload} seed {seed}: {runs[-1]['duration_s']:.1f} s {status}", flush=True)
        values: dict[str, list[float]] = {}
        for run in runs:
            if run["workload"] == workload and run["result"]:
                for name, metric in run["result"]["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median, 0, median)
            spread = (q3 - q1) / median if median else float("nan")
            summary[f"{workload}/{name}"] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                             "bound": bounds.get(name), "n": len(vals)}
            bound = bounds.get(name)
            mark = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
            print(f"  {name:<48} median {median:12.6g}  spread {spread:7.4f}  bound {bound}  {mark}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"machine": machine, "summary": summary, "runs": runs}, fh, indent=1)
    failed = [r for r in runs if not (r["result"] and r["result"]["correct"])]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
