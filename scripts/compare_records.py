#!/usr/bin/env python3
"""Hold a run's records to golden records of the same spec.

Every field must match exactly, except ``mean``, ``std_error`` and
``theory_value``, which may differ by 1e-12 relative: on another BLAS kernel
OpenBLAS's rounding moves sampled means and standard errors by up to 1.0e-15
relative (measured under forced Haswell, Sandybridge, Nehalem and Prescott
kernels).  Exits 1 and names the first record and field that differ.

    python scripts/compare_records.py GOT EXPECTED
"""

import argparse
import csv
import json
import sys
from pathlib import Path

TOLERANT = ("mean", "std_error", "theory_value")
RELATIVE_TOLERANCE = 1e-12


def read_records(path: Path) -> list[dict]:
    """A JSONL or CSV records file, each field as its format reads back."""
    text = Path(path).read_text(encoding="utf-8")
    if Path(path).suffix == ".csv":
        return list(csv.DictReader(text.splitlines()))
    return [json.loads(line) for line in text.splitlines()]


def mismatch(got: list[dict], want: list[dict]) -> str | None:
    """The first difference between two record lists, or None."""
    if len(got) != len(want):
        return f"{len(got)} records, expected {len(want)}"
    for i, (new, old) in enumerate(zip(got, want)):
        if new.keys() != old.keys():
            return f"record {i}: fields {sorted(new)}, expected {sorted(old)}"
        for key in old:
            if key in TOLERANT:
                a, b = float(new[key]), float(old[key])
                if not abs(a - b) <= RELATIVE_TOLERANCE * abs(b):
                    return f"record {i}: {key} {a!r}, expected {b!r} within {RELATIVE_TOLERANCE}"
            elif new[key] != old[key]:
                return f"record {i}: {key} {new[key]!r}, expected {old[key]!r}"
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("got", type=Path)
    ap.add_argument("expected", type=Path)
    args = ap.parse_args()
    difference = mismatch(read_records(args.got), read_records(args.expected))
    if difference:
        print(f"{args.got} differs from {args.expected}: {difference}", file=sys.stderr)
        return 1
    print(f"{args.got} matches {args.expected}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
