"""Smoke runs of the scripts under scripts/ at tiny sizes."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

from output_digest import platform

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


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
    steps = [
        "e-hermitian",
        "e-skew-hermitian",
        "hamiltonian",
        "skew-hamiltonian",
        "generalized-hermitian",
        "pencil-two-sided",
        "fixed-shift",
    ]
    assert [line.split(":")[0] for line in lines] == [
        "two-sided step",
        "newton, nonnormal",
        "newton, hermitian",
        *steps,
    ]
    for line in lines:
        float(line.split(":")[1])


@pytest.fixture(scope="module")
def digest(tmp_path_factory):
    """The digest battery's output directory and process, run once."""
    out = tmp_path_factory.mktemp("digest") / "out"
    return out, run_script("output_digest.py", str(out))


def test_output_digest_covers_the_battery(digest):
    out, proc = digest
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)
    names = {line.split()[0] for line in lines}
    for kind in ("diagonalizable", "hamiltonian", "e-hermitian"):
        assert f"gen/{kind}_s3_t7/matrix.mtx" in names
    assert "gen/e-skew-hermitian_s11_t42/e.mtx" in names
    # The p = 1 stream, whose steps take 1x1 quotients.
    assert "gen/diagonalizable_s0_t0_p1/matrix.mtx" in names
    for run in ("tsgrqi", "newton", "pencil", "generalized", "e-hermitian"):
        assert f"refine/e-hermitian_s0_t0_p1_{run}.csv:shift_cond" in names
    for stem in ("table1_s11_n300", "hamiltonian_s11_n300",
                 "hamiltonian_s5023667284082138044_n66",
                 "hamiltonian_s11_n300_d0.001"):
        assert f"study/{stem}.json" in names
        for column in ("right_err", "residual_angle", "failure_reason"):
            assert f"study/{stem}.csv:{column}" in names
    for run in ("tsgrqi", "newton", "grqi", "pencil", "generalized",
                "e-hermitian"):
        assert f"refine/e-hermitian_s0_t0_{run}.csv:residual_angle" in names
    # The singular-B pencil, which takes the rotated normalization.
    assert "refine/singular_b_pencil.csv:residual_angle" in names
    assert "runs.txt" in names
    # Every matrix.mtx is non-Hermitian; grqi steps on the Hermitian E.
    runs = (out / "runs.txt").read_text()
    assert re.search(r"^refine \S+ grqi-e: exit 0$", runs, re.MULTILINE)
    assert "refine singular_b pencil: exit 0\n  status: converged" in runs


def test_output_digest_matches_the_golden(digest):
    _, proc = digest
    assert proc.returncode == 0, proc.stderr
    recorded = (GOLDEN / "platform.txt").read_text().strip()
    if platform() != recorded:
        pytest.skip(
            f"the golden digest was recorded on [{recorded}], this is "
            f"[{platform()}]; regenerate it with: PYTHONPATH=src python "
            "scripts/output_digest.py --golden tests/golden OUT_DIR"
        )
    golden = dict(
        line.split() for line in
        (GOLDEN / "output_digest.txt").read_text().splitlines()
    )
    now = dict(line.split() for line in proc.stdout.splitlines())
    moved = [name for name in sorted(golden.keys() | now.keys())
             if golden.get(name) != now.get(name)]
    assert not moved, f"{len(moved)} digest lines moved: {moved}"
