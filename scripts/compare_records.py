#!/usr/bin/env python3
"""Hold a run's records to golden records of the same spec.

Every field must match exactly, except ``mean``, ``std_error`` and
``theory_value``, which may differ by 1e-12 relative: on another BLAS kernel
OpenBLAS's rounding moves sampled means and standard errors by up to 1.0e-15
relative (measured under forced Haswell, Sandybridge, Nehalem and Prescott
kernels).  Exits 1 and names the first record and field that differ, or,
in one line, the file that cannot be read as records.

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
    """A JSONL or CSV records file, each field as its format reads back.
    A file that is not UTF-8, a JSONL line that is not a JSON object, or a
    CSV row with more cells than its header raises a ValueError that names
    the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    if Path(path).suffix == ".csv":
        records = list(csv.DictReader(text.splitlines()))
        for number, record in enumerate(records, 2):  # line 1 is the header
            if None in record:  # DictReader's key for the cells past the header
                raise ValueError(f"{path}: line {number} has more cells than the header")
        return records
    records = []
    for number, line in enumerate(text.splitlines(), 1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line {number} is not JSON ({exc.msg})") from None
        if not isinstance(record, dict):
            raise ValueError(f"{path}: line {number} is not a JSON object")
        records.append(record)
    return records


def mismatch(got: list[dict], want: list[dict]) -> str | None:
    """The first difference between two record lists, or None."""
    if len(got) != len(want):
        return f"{len(got)} records, expected {len(want)}"
    for i, (new, old) in enumerate(zip(got, want)):
        if new.keys() != old.keys():
            return f"record {i}: fields {sorted(new)}, expected {sorted(old)}"
        for key in old:
            if key in TOLERANT:
                try:
                    a, b = float(new[key]), float(old[key])
                except (TypeError, ValueError):
                    return f"record {i}: {key} {new[key]!r}, expected {old[key]!r}, not a number"
                if not abs(a - b) <= RELATIVE_TOLERANCE * abs(b):
                    return f"record {i}: {key} {a!r}, expected {b!r} within {RELATIVE_TOLERANCE}"
            elif new[key] != old[key]:
                return f"record {i}: {key} {new[key]!r}, expected {old[key]!r}"
    return None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("got", type=Path)
    ap.add_argument("expected", type=Path)
    args = ap.parse_args(argv)
    try:
        difference = mismatch(read_records(args.got), read_records(args.expected))
    except OSError as exc:  # missing, a directory, unreadable
        print(f"{exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1
    if difference:
        print(f"{args.got} differs from {args.expected}: {difference}", file=sys.stderr)
        return 1
    print(f"{args.got} matches {args.expected}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
