import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

from grqi import (
    ExperimentConfig,
    StepConfig,
    Subspace,
    SubspacePair,
    iterate,
    nearby_subspace,
    orthonormalize,
    random_diagonalizable,
    read_matrix,
    read_traces,
    residual_angle,
    run_hamiltonian,
    run_table1,
    trial_rng,
    tsgrqi_step,
    write_matrix,
)
from grqi.cli import cli

runner = CliRunner()


def invoke(args):
    return runner.invoke(cli, args, catch_exceptions=False)


def write_problem(tmp_path, n=6, p=2, seed=7):
    rng = trial_rng(seed)
    prob = random_diagonalizable(n, p, rng)
    paths = {
        "matrix": tmp_path / "matrix.mtx",
        "right": tmp_path / "right.mtx",
        "left": tmp_path / "left.mtx",
        "oracle_right": tmp_path / "oracle_right.mtx",
        "oracle_left": tmp_path / "oracle_left.mtx",
    }
    write_matrix(paths["matrix"], prob.matrix)
    start_left = nearby_subspace(prob.oracle_left, 0.05, rng)
    start_right = nearby_subspace(prob.oracle_right, 0.05, rng)
    write_matrix(paths["right"], start_right.basis)
    write_matrix(paths["left"], start_left.basis)
    write_matrix(paths["oracle_right"], prob.oracle_right.basis)
    write_matrix(paths["oracle_left"], prob.oracle_left.basis)
    return paths


# ------------------------------------------------------------------ refine


def test_refine_exact_eigenspace_exits_zero(tmp_path):
    write_matrix(tmp_path / "c.mtx", np.diag([1.0, 2.0, 3.0, 4.0]))
    write_matrix(tmp_path / "y.mtx", np.eye(4)[:, :2])
    out = tmp_path / "trace.csv"
    result = invoke(
        [
            "refine",
            "--matrix", str(tmp_path / "c.mtx"),
            "--right", str(tmp_path / "y.mtx"),
            "--out", str(out),
        ]
    )
    assert result.exit_code == 0, result.output
    assert "converged" in result.output
    trace = read_traces(out)[0]
    assert trace.status == "converged"
    assert len(trace.records) <= 2


def test_refine_max_iters_exit_code(tmp_path):
    paths = write_problem(tmp_path)
    result = invoke(
        [
            "refine",
            "--matrix", str(paths["matrix"]),
            "--right", str(paths["right"]),
            "--left", str(paths["left"]),
            "--max-iters", "1",
            "--tol", "1e-15",
            "--out", str(tmp_path / "t.csv"),
        ]
    )
    assert result.exit_code == 2


def test_refine_strict_structure_refusal(tmp_path):
    rng = trial_rng(3)
    c = rng.standard_normal((4, 4))  # not Hamiltonian
    write_matrix(tmp_path / "c.mtx", c)
    write_matrix(tmp_path / "y.mtx", np.eye(4)[:, :2])
    result = runner.invoke(
        cli,
        [
            "refine",
            "--matrix", str(tmp_path / "c.mtx"),
            "--right", str(tmp_path / "y.mtx"),
            "--structure", "hamiltonian",
            "--strict",
            "--out", str(tmp_path / "t.csv"),
        ],
    )
    assert result.exit_code == 3
    assert "structure check failed" in result.output
    assert "defect norm" in result.output


def test_refine_nonstrict_structure_warns_and_runs(tmp_path):
    write_matrix(tmp_path / "c.mtx", np.diag([1.0, 2.0, 3.0, 4.0]))
    write_matrix(tmp_path / "y.mtx", np.eye(4)[:, :2])
    result = runner.invoke(
        cli,
        [
            "refine",
            "--matrix", str(tmp_path / "c.mtx"),
            "--right", str(tmp_path / "y.mtx"),
            "--structure", "hamiltonian",
            "--out", str(tmp_path / "t.csv"),
        ],
    )
    assert result.exit_code == 0
    assert "warning" in result.output


def test_refine_malformed_matrix_exits_one(tmp_path):
    bad = tmp_path / "bad.mtx"
    bad.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\n")
    write_matrix(tmp_path / "y.mtx", np.eye(2)[:, :1])
    result = runner.invoke(
        cli,
        [
            "refine",
            "--matrix", str(bad),
            "--right", str(tmp_path / "y.mtx"),
            "--out", str(tmp_path / "t.csv"),
        ],
    )
    assert result.exit_code == 1
    assert "bad.mtx" in result.output


def test_refine_one_sided_requires_structure(tmp_path):
    write_matrix(tmp_path / "c.mtx", np.eye(2))
    write_matrix(tmp_path / "y.mtx", np.eye(2)[:, :1])
    result = runner.invoke(
        cli,
        [
            "refine",
            "--matrix", str(tmp_path / "c.mtx"),
            "--right", str(tmp_path / "y.mtx"),
            "--method", "one-sided",
            "--out", str(tmp_path / "t.csv"),
        ],
    )
    assert result.exit_code == 1


def test_refine_pencil_requires_b_matrix(tmp_path):
    write_matrix(tmp_path / "c.mtx", np.eye(2))
    write_matrix(tmp_path / "y.mtx", np.eye(2)[:, :1])
    result = runner.invoke(
        cli,
        [
            "refine",
            "--matrix", str(tmp_path / "c.mtx"),
            "--right", str(tmp_path / "y.mtx"),
            "--method", "pencil",
            "--out", str(tmp_path / "t.csv"),
        ],
    )
    assert result.exit_code == 1


def test_refine_oracle_files_must_come_in_pairs(tmp_path):
    paths = write_problem(tmp_path)
    result = runner.invoke(
        cli,
        [
            "refine",
            "--matrix", str(paths["matrix"]),
            "--right", str(paths["right"]),
            "--oracle-right", str(paths["oracle_right"]),
            "--out", str(tmp_path / "t.csv"),
        ],
    )
    assert result.exit_code == 1


def test_refine_matches_in_memory_iteration(tmp_path):
    paths = write_problem(tmp_path)
    out = tmp_path / "trace.csv"
    result = invoke(
        [
            "refine",
            "--matrix", str(paths["matrix"]),
            "--right", str(paths["right"]),
            "--left", str(paths["left"]),
            "--oracle-right", str(paths["oracle_right"]),
            "--oracle-left", str(paths["oracle_left"]),
            "--out", str(out),
        ]
    )
    assert result.exit_code == 0
    cli_trace = read_traces(out)[0]

    c = read_matrix(paths["matrix"])
    pair = SubspacePair(
        left=orthonormalize(read_matrix(paths["left"])),
        right=orthonormalize(read_matrix(paths["right"])),
    )
    oracle = SubspacePair(
        left=orthonormalize(read_matrix(paths["oracle_left"])),
        right=orthonormalize(read_matrix(paths["oracle_right"])),
    )
    cfg = StepConfig(max_iters=50, angle_tol=1e-12)
    ref = iterate(
        lambda s: tsgrqi_step(c, s, cfg),
        pair,
        cfg,
        residual=lambda s: residual_angle(c, s.right),
        oracle=oracle,
    )
    assert cli_trace.status == ref.status
    assert len(cli_trace.records) == len(ref.records)
    for a, b in zip(cli_trace.records, ref.records):
        assert a.err_sum == b.err_sum  # bitwise through the CSV round trip
        assert a.right_err == b.right_err
        assert a.left_err == b.left_err


def test_refine_residual_covers_both_sides(tmp_path):
    paths = write_problem(tmp_path)
    out = tmp_path / "trace.csv"
    result = invoke(
        [
            "refine",
            "--matrix", str(paths["matrix"]),
            "--right", str(paths["right"]),
            "--left", str(paths["left"]),
            "--out", str(out),
        ]
    )
    assert result.exit_code == 0
    residuals = [r.residual for r in read_traces(out)[0].records]

    c = read_matrix(paths["matrix"])
    pair = SubspacePair(
        left=orthonormalize(read_matrix(paths["left"])),
        right=orthonormalize(read_matrix(paths["right"])),
    )
    expected, left_larger = [], False
    for _ in residuals:
        right_res = residual_angle(c, pair.right)
        left_res = residual_angle(c.conj().T, pair.left)
        expected.append(max(right_res, left_res))
        left_larger |= left_res > right_res
        pair, _ = tsgrqi_step(c, pair, StepConfig())
    assert residuals == expected  # bitwise through the CSV round trip
    assert left_larger


def test_refine_rerun_reproduces_csv_bytes(tmp_path):
    paths = write_problem(tmp_path)
    out1 = tmp_path / "t1.csv"
    out2 = tmp_path / "t2.csv"
    base = [
        "refine",
        "--matrix", str(paths["matrix"]),
        "--right", str(paths["right"]),
        "--oracle-right", str(paths["oracle_right"]),
        "--oracle-left", str(paths["oracle_left"]),
        "--left", str(paths["left"]),
    ]
    assert invoke(base + ["--out", str(out1)]).exit_code == 0
    assert invoke(base + ["--out", str(out2)]).exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


# --------------------------------------------------------------------- gen


@pytest.mark.parametrize(
    "kind,n,extra",
    [
        ("diagonalizable", "8", []),
        ("hamiltonian", "6", []),
        ("e-hermitian", "6", []),
        ("e-skew-hermitian", "6", []),
    ],
)
def test_gen_writes_expected_files(tmp_path, kind, n, extra):
    result = invoke(
        ["gen", "--kind", kind, "--n", n, "--p", "2", "--seed", "4", "--out", str(tmp_path)]
        + extra
    )
    assert result.exit_code == 0, result.output
    expected = {
        "matrix.mtx",
        "oracle_left.mtx",
        "oracle_right.mtx",
        "start_left.mtx",
        "start_right.mtx",
    }
    if kind in ("e-hermitian", "e-skew-hermitian"):
        expected.add("e.mtx")
    assert expected <= {f.name for f in tmp_path.iterdir()}
    assert "target subspace dimension" in result.output


def test_gen_then_refine_converges(tmp_path):
    assert (
        invoke(
            ["gen", "--n", "10", "--p", "3", "--seed", "21", "--out", str(tmp_path)]
        ).exit_code
        == 0
    )
    result = invoke(
        [
            "refine",
            "--matrix", str(tmp_path / "matrix.mtx"),
            "--right", str(tmp_path / "start_right.mtx"),
            "--left", str(tmp_path / "start_left.mtx"),
            "--oracle-right", str(tmp_path / "oracle_right.mtx"),
            "--oracle-left", str(tmp_path / "oracle_left.mtx"),
            "--out", str(tmp_path / "trace.csv"),
        ]
    )
    assert result.exit_code == 0, result.output
    trace = read_traces(tmp_path / "trace.csv")[0]
    assert trace.records[-1].err_sum <= 1e-12


def test_gen_hamiltonian_then_one_sided_refine(tmp_path):
    assert (
        invoke(
            ["gen", "--kind", "hamiltonian", "--n", "8", "--seed", "2", "--out", str(tmp_path)]
        ).exit_code
        == 0
    )
    result = invoke(
        [
            "refine",
            "--matrix", str(tmp_path / "matrix.mtx"),
            "--right", str(tmp_path / "start_right.mtx"),
            "--method", "one-sided",
            "--structure", "hamiltonian",
            "--oracle-right", str(tmp_path / "oracle_right.mtx"),
            "--out", str(tmp_path / "trace.csv"),
        ]
    )
    assert result.exit_code == 0, result.output


def test_gen_e_hermitian_targets_p_eigenvalues(tmp_path):
    result = invoke(
        ["gen", "--kind", "e-hermitian", "--n", "6", "--p", "3", "--out", str(tmp_path)]
    )
    assert result.exit_code == 0, result.output
    assert read_matrix(tmp_path / "oracle_right.mtx").shape == (6, 3)
    assert "target subspace dimension: 3" in result.output


@pytest.mark.parametrize(
    "study,gen_args,refine_args",
    [
        (
            "table1",
            ["--kind", "diagonalizable", "--p", "3"],
            ["--left", "start_left.mtx", "--oracle-left", "oracle_left.mtx"],
        ),
        (
            "hamiltonian",
            ["--kind", "hamiltonian"],
            ["--method", "one-sided", "--structure", "hamiltonian"],
        ),
    ],
)
def test_gen_then_refine_replays_study_trial(
    tmp_path, study, gen_args, refine_args
):
    # gen --seed s --trial t writes the inputs of study trial t, so a
    # refine from those files retraces the study's first step.
    seed, trial = 9, 4
    cfg = ExperimentConfig(
        experiment=study, n=10, p=3, trials=trial + 1, seed=seed
    )
    runner_fn = run_table1 if study == "table1" else run_hamiltonian
    expected = runner_fn(cfg)[1][trial]
    assert expected.status != "failure"
    result = invoke(
        ["gen", "--n", "10", "--seed", str(seed), "--trial", str(trial),
         "--out", str(tmp_path)] + gen_args
    )
    assert result.exit_code == 0, result.output
    files = [
        str(tmp_path / arg) if arg.endswith(".mtx") else arg
        for arg in refine_args
    ]
    result = invoke(
        [
            "refine",
            "--matrix", str(tmp_path / "matrix.mtx"),
            "--right", str(tmp_path / "start_right.mtx"),
            "--oracle-right", str(tmp_path / "oracle_right.mtx"),
            "--max-iters", "1",
            "--out", str(tmp_path / "trace.csv"),
        ]
        + files
    )
    assert result.exit_code in (0, 2), result.output
    got = read_traces(tmp_path / "trace.csv")[0]
    assert got.iterates == 2
    fields = ["right_err", "left_err"] if study == "table1" else ["right_err"]
    for k in range(2):
        for name in fields:
            assert getattr(got.records[k], name) == pytest.approx(
                getattr(expected.records[k], name), rel=1e-9
            ), (k, name)


# -------------------------------------------------------------- experiment


def test_experiment_table1_outputs(tmp_path):
    out = tmp_path / "summary.json"
    trace = tmp_path / "traces.csv"
    result = invoke(
        [
            "experiment", "table1",
            "--n", "10",
            "--p", "3",
            "--trials", "8",
            "--seed", "13",
            "--out", str(out),
            "--trace", str(trace),
        ]
    )
    assert result.exit_code == 0, result.output
    assert "iterate" in result.output
    doc = json.loads(out.read_text())
    assert doc["experiment"] == "table1"
    assert doc["trials"] == 8
    assert len(read_traces(trace)) == 8


def test_experiment_table1_deterministic_bytes(tmp_path):
    args = [
        "experiment", "table1",
        "--n", "8", "--p", "2", "--trials", "6", "--seed", "1",
    ]
    r1 = invoke(args + ["--out", str(tmp_path / "a.json"), "--trace", str(tmp_path / "a.csv")])
    r2 = invoke(args + ["--out", str(tmp_path / "b.json"), "--trace", str(tmp_path / "b.csv")])
    assert r1.exit_code == r2.exit_code == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_experiment_hamiltonian_runs_small(tmp_path):
    out = tmp_path / "summary.json"
    result = invoke(
        [
            "experiment", "hamiltonian",
            "--n", "8",
            "--trials", "12",
            "--seed", "9",
            "--out", str(out),
        ]
    )
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert doc["experiment"] == "hamiltonian"
    assert doc["p"] is None
    assert "success rate" in result.output
    assert "block sizes" in result.output
