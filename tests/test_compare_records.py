"""The golden-record comparison script: it exits 1 with one line naming the
file that cannot be read as records, never with a traceback."""

import subprocess
import sys

import pytest

from conftest import CONFIGS, compare_records

GOLDEN = CONFIGS / "ci" / "expected" / "tvd.jsonl"


def run(capsys, got, expected=GOLDEN):
    status = compare_records.main([str(got), str(expected)])
    out, err = capsys.readouterr()
    return status, out, err


def test_golden_file_matches_itself(capsys):
    status, out, err = run(capsys, GOLDEN)
    assert status == 0 and out == f"{GOLDEN} matches {GOLDEN}\n" and err == ""


@pytest.mark.parametrize("side", ["got", "expected"])
def test_missing_file_named_in_one_line(tmp_path, capsys, side):
    missing = tmp_path / "absent.jsonl"
    files = (missing, GOLDEN) if side == "got" else (GOLDEN, missing)
    status, out, err = run(capsys, *files)
    assert (status, out, err) == (1, "", f"{missing}: No such file or directory\n")


def test_directory_named_in_one_line(tmp_path, capsys):
    status, _, err = run(capsys, tmp_path)
    assert status == 1 and err == f"{tmp_path}: Is a directory\n"


@pytest.mark.parametrize("line, reason", [
    ("{not json", "is not JSON (Expecting property name enclosed in double quotes)"),
    ("", "is not JSON (Expecting value)"),
    ("[1, 2]", "is not a JSON object"),
    ("3", "is not a JSON object"),
])
def test_line_that_is_no_record_named_with_its_file(tmp_path, capsys, line, reason):
    bad = tmp_path / "bad.jsonl"
    first = GOLDEN.read_text(encoding="utf-8").splitlines()[0]
    bad.write_text(f"{first}\n{line}\n", encoding="utf-8")
    status, out, err = run(capsys, bad)
    assert (status, out, err) == (1, "", f"{bad}: line 2 {reason}\n")


def test_csv_row_longer_than_its_header_named(tmp_path, capsys):
    # its extra cells sat under the key None, which sorting the field names
    # for the message compared with a str: a TypeError
    golden = CONFIGS / "expected" / "marginal_sweep.csv"
    header, first = golden.read_text(encoding="utf-8").splitlines()[:2]
    bad = tmp_path / "bad.csv"
    bad.write_text(f"{header}\n{first}\n{first},extra\n", encoding="utf-8")
    status, out, err = run(capsys, bad, golden)
    assert (status, out, err) == (1, "", f"{bad}: line 3 has more cells than the header\n")


def test_file_that_is_not_utf8_named(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b'{"mean": 1.0}\n\xff\n')
    status, _, err = run(capsys, bad)
    assert status == 1 and err == f"{bad}: not UTF-8 text (invalid start byte at byte 14)\n"


def test_tolerant_field_that_is_no_number_is_a_mismatch():
    record = compare_records.read_records(GOLDEN)[0]
    assert compare_records.mismatch([{**record, "mean": None}], [record]) == (
        f"record 0: mean None, expected {record['mean']!r}, not a number")


def test_script_exits_1_without_a_traceback(tmp_path):
    missing = tmp_path / "absent.jsonl"
    done = subprocess.run(
        [sys.executable, str(CONFIGS.parent / "compare_records.py"), str(missing), str(GOLDEN)],
        capture_output=True, text=True, check=False,
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"{missing}: No such file or directory\n"
