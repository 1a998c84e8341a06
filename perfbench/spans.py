"""In-memory span tracer for the benchmark's traced runs.

`Tracer.install()` wraps the public functions of each hrcslab layer at every
module-level name that refers to them (so `runner.enumerate_joint_distribution`
and `engine.enumerate_joint_distribution` both record).  Each call records a
span: name, start, end, parent span, whether it raised, and a work count for
the layers that have one.  A target that no longer exists is reported back as
missing instead of raising, so the tracer survives refactors of the program.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

# layer module -> wrapped public functions; theory wraps every public function
TARGETS = {
    "core": ("sample_haar_unitary",),
    "circuits": ("apply_gate_sequence_batch", "build_hea"),
    "engine": (
        "instantiate_circuit",
        "enumerate_joint_distribution",
        "replay_no_reset_equivalence",
        "sample_trajectories",
        "ideal_probabilities_batch",
        "marginalize",
    ),
    "estimators": ("power_sum_exact", "xeb_estimate", "ensemble_aggregate"),
    "runner": ("run_experiment", "write_records"),
    "cli": ("main",),
    "theory": None,
}
LAYERS = tuple(TARGETS)


def _enumeration_nodes(bound):
    config = bound["config"]
    return sum(1 << (k * config.n_bath) for k in range(config.steps))


# span name -> (work extractor over the bound call arguments, run after the call)
WORK = {
    "engine.enumerate_joint_distribution": _enumeration_nodes,
    "engine.sample_trajectories": lambda bound: int(bound["n_shots"]),
    "circuits.apply_gate_sequence_batch": lambda bound: len(bound["seq"].gates),
    "runner.write_records": lambda bound: os.path.getsize(bound["path"]),
}


class Tracer:
    """Collects spans as lists [name, start, end, parent, raised, work]."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "hrcslab" or n.startswith("hrcslab.")]
        for layer, names in TARGETS.items():
            module = sys.modules.get(f"hrcslab.{layer}")
            if module is None:
                self.missing.append(layer)
                continue
            if names is None:
                names = tuple(
                    n for n, v in vars(module).items()
                    if inspect.isfunction(v) and v.__module__ == module.__name__ and not n.startswith("_")
                )
            for name in names:
                original = getattr(module, name, None)
                if not callable(original):
                    self.missing.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(f"{layer}.{name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def _wrap(self, span_name: str, original):
        extract = WORK.get(span_name)
        signature = inspect.signature(original) if extract else None
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [span_name, time.perf_counter(), None, stack[-1] if stack else None, False, None]
            spans.append(span)
            stack.append(index)
            try:
                return original(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if extract is not None and not span[4]:
                    try:
                        span[5] = extract(signature.bind(*args, **kwargs).arguments)
                    except (TypeError, KeyError, AttributeError, OSError):
                        span[5] = None  # the call's shape changed: no work count

        return wrapper


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time covered by its direct children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own
