"""Smoke runs of the scripts under scripts/ at tiny sizes."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_order_fit_runs():
    proc = run_script("order_fit.py", "--instances", "5")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "two-sided step",
        "newton, nonnormal",
        "newton, hermitian",
    ]
    for line in lines:
        float(line.split(":")[1])


def test_reproduce_tables_runs(tmp_path):
    proc = run_script(
        "reproduce_tables.py",
        "--trials", "5",
        "--hamiltonian-trials", "5",
        "--out-dir", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    assert "error profile (5 trials" in proc.stdout
    for start in ("0.1", "0.001"):
        assert f"hamiltonian start={start}: success rate" in proc.stdout
    names = ["table1.json", "hamiltonian_0.1.json", "hamiltonian_0.001.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    assert json.loads((tmp_path / "table1.json").read_text())["trials"] == 5
