"""CLI surface tests: subcommands, overrides, exit codes, diagnostics."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import hrcslab
from hrcslab.cli import main


def write_config(tmp_path, name="spec.json", **overrides):
    doc = {
        "schema_version": 1,
        "kind": "cp_sweep",
        "n_system": 2,
        "n_bath": 1,
        "steps": [1, 2],
        "instances": 8,
        "master_seed": 3,
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_cp_sweep_writes_jsonl(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "records.jsonl"
    assert main(["cp-sweep", "--config", str(config), "--out", str(out), "--workers", "1"]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert "wrote 2 records" in capsys.readouterr().out


def test_csv_format_flag(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "records.csv"
    code = main([
        "cp-sweep", "--config", str(config), "--out", str(out),
        "--format", "csv", "--workers", "1",
    ])
    assert code == 0
    assert out.read_text().startswith("n_A,n_B,t,K,gamma,")


def test_theory_subcommand(tmp_path):
    config = write_config(
        tmp_path, kind="theory_table", theory_family="hrcs_power_sum", steps=[1, 2, 3]
    )
    out = tmp_path / "table.csv"
    code = main(["theory", "--config", str(config), "--out", str(out), "--format", "csv"])
    assert code == 0
    assert len(out.read_text().splitlines()) == 4  # header + 3 rows


def test_kind_mismatch_fails(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "x.jsonl"
    assert main(["tvd", "--config", str(config), "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_config_key_fails(tmp_path, capsys):
    config = write_config(tmp_path, typo_key=1)
    assert main(["cp-sweep", "--config", str(config), "--out", "x.jsonl"]) == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_missing_out_fails(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["cp-sweep", "--config", str(config)]) == 1
    assert "output path" in capsys.readouterr().err


def test_missing_config_file_fails(tmp_path, capsys):
    assert main(["cp-sweep", "--config", str(tmp_path / "absent.json"), "--out", "x"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("body", ["[]", "3"])
def test_non_object_config_fails(tmp_path, capsys, body):
    config = tmp_path / "spec.json"
    config.write_text(body)
    assert main(["cp-sweep", "--config", str(config), "--out", "x.jsonl"]) == 1
    assert "error:" in capsys.readouterr().err


def test_seed_override_changes_results(tmp_path):
    config = write_config(tmp_path)
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    out_c = tmp_path / "c.jsonl"
    main(["cp-sweep", "--config", str(config), "--out", str(out_a), "--workers", "1"])
    main(["cp-sweep", "--config", str(config), "--out", str(out_b), "--workers", "1",
          "--seed", "12345"])
    main(["cp-sweep", "--config", str(config), "--out", str(out_c), "--workers", "2"])
    assert out_a.read_bytes() != out_b.read_bytes()
    assert out_a.read_bytes() == out_c.read_bytes()


def test_capacity_error_reported(tmp_path, capsys):
    config = write_config(tmp_path, steps=[30])
    assert main(["cp-sweep", "--config", str(config), "--out", "x.jsonl"]) == 1
    assert "effective bits" in capsys.readouterr().err


def test_xeb_beyond_a_double_refused(tmp_path, capsys):
    config = write_config(tmp_path, kind="xeb", n_system=1, n_bath=1, steps=[1100],
                          instances=1, shots=2)
    assert main(["xeb", "--config", str(config), "--out", str(tmp_path / "x.jsonl")]) == 1
    assert "1101 effective bits by 2^n_eff, limit 1023" in capsys.readouterr().err


@pytest.mark.parametrize("family", ["tvd_bound_asymptotic", "ideal_xeb", "noisy_xeb_exact"])
def test_overflowing_formula_reported(tmp_path, capsys, family):
    # a formula that overflows or leaves its domain exits 1 with one line
    # naming the family and the point, not a traceback
    gammas = [1.0] if family == "noisy_xeb_exact" else []
    config = write_config(tmp_path, kind="theory_table", theory_family=family, n_system=1,
                          n_bath=1, steps=[20000], gammas=gammas)
    assert main(["theory", "--config", str(config), "--out", str(tmp_path / "x.jsonl")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: {family} at (t, K, gamma) = (20000, None, ")


NO_SCIPY_RUN = """
import json, sys
from hrcslab.cli import main

specs = {
    "theory": {"kind": "theory_table", "theory_family": "hrcs_power_sum", "steps": [1, 2]},
    "cp-sweep": {"kind": "cp_sweep", "steps": [1, 2], "instances": 2},
}
for command, spec in specs.items():
    doc = {"schema_version": 1, "n_system": 1, "n_bath": 1, "master_seed": 3, **spec}
    config = f"{sys.argv[1]}/{command}.json"
    with open(config, "w") as fh:
        json.dump(doc, fh)
    assert main([command, "--config", config, "--out", f"{sys.argv[1]}/{command}.jsonl"]) == 0
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_runs_without_loading_scipy(tmp_path):
    # the package needs numpy alone: a fresh interpreter that imports it and
    # runs two CLI commands never loads a scipy module
    src = str(pathlib.Path(hrcslab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN, str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    assert json.loads(proc.stdout.splitlines()[-1]) == []
