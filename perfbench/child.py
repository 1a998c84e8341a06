"""One fresh interpreter of the benchmark: import hrcslab, load the specs,
then run them once (or stop there for a set-up probe).

Usage: python3 perfbench/child.py <job.json>

Run from the repository root.  The job file names the operations, the worker
count, whether to trace, and where to write the result JSON.  `ready` in the
result is `time.monotonic()` once the specs are loaded; the parent subtracts
its own spawn time from it to get set-up time.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    """User+sys CPU of this process, its threads and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _environment() -> dict:
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
    }


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, os.path.abspath("src"))
    from hrcslab import cli, runner

    library = job["mode"] == "library"
    if library:
        specs = [runner.ExperimentSpec.from_json_dict(op["spec"]) for op in job["ops"]]
    else:
        specs = [runner.ExperimentSpec.from_json_file(op["config"]) for op in job["ops"]]
    result = {"ready": time.monotonic(), "ops": []}

    if job.get("env"):
        result["env"] = _environment()
    if not job.get("setup_only"):
        tracer = None
        if job.get("trace"):
            import spans

            tracer = spans.Tracer()
            tracer.install()
        for op, spec in zip(job["ops"], specs):
            error = None
            cpu0 = _cpu_s()
            t0 = time.perf_counter()
            try:
                if library:
                    records = runner.run_experiment(spec, workers=job["workers"])
                    runner.write_records(records, op["out"], spec.format)
                else:
                    code = cli.main(op["argv"])
                    if code != 0:
                        error = f"cli exit code {code}"
            except Exception as exc:  # noqa: BLE001 - a failed operation is a result
                error = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            result["ops"].append(
                {"label": op["label"], "wall_s": wall, "cpu_s": _cpu_s() - cpu0, "error": error}
            )
        if tracer is not None:
            result["spans"] = tracer.spans
            result["missing"] = tracer.missing

    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
