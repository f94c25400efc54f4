import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from grqi import (
    ExperimentConfig,
    PencilPair,
    StepConfig,
    SubspacePair,
    choose_pencil_normalization,
    generalized_hermitian_step,
    grqi_step,
    hamiltonian_step,
    iterate,
    nearby_subspace,
    newton_chatelin_step,
    one_sided_step,
    orthonormalize,
    pencil_tsgrqi_step,
    random_diagonalizable,
    read_matrix,
    read_traces,
    residual_angle,
    run_hamiltonian,
    run_table1,
    subspace_at_angle,
    trial_rng,
    tsgrqi_step,
    write_matrix,
)
from grqi.cli import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
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


def test_refine_generalized_on_a_non_hermitian_pencil_fails_its_first_step(
    tmp_path,
):
    # Without --strict the failed claim only warns; the step then refuses.
    write_matrix(tmp_path / "c.mtx", trial_rng(3).standard_normal((4, 4)))
    write_matrix(tmp_path / "b.mtx", np.eye(4))
    write_matrix(tmp_path / "y.mtx", np.eye(4)[:, :2])
    result = invoke([
        "refine", "--matrix", str(tmp_path / "c.mtx"),
        "--b-matrix", str(tmp_path / "b.mtx"),
        "--right", str(tmp_path / "y.mtx"),
        "--method", "one-sided", "--structure", "generalized",
        "--out", str(tmp_path / "t.csv"),
    ])
    assert result.exit_code == 3
    assert "warning: structure check failed for generalized" in result.output
    assert "status: failure after 0 step(s)" in result.output
    assert "NotHermitianError: matrix is not Hermitian" in result.output
    assert read_traces(tmp_path / "t.csv")[0].iterates == 1


@pytest.mark.parametrize(
    "run,flag",
    [
        (["--method", "one-sided", "--structure", "hamiltonian"], "e"),
        (["--method", "tsgrqi", "--structure", "none"], "b"),
        (["--method", "tsgrqi", "--structure", "none"], "e"),
    ],
    ids=["one-sided-hamiltonian-e", "tsgrqi-b", "tsgrqi-e"],
)
def test_refine_warns_of_an_unread_operand(tmp_path, run, flag):
    # The operand is never opened, so a malformed one does no harm: the
    # run says so on stderr and keeps its exit code and trace bytes.
    ham, eh = tmp_path / "ham", tmp_path / "eh"
    invoke(["gen", "--kind", "hamiltonian", "--n", "8", "--out", str(ham)])
    invoke(["gen", "--kind", "e-hermitian", "--n", "8", "--out", str(eh)])
    (tmp_path / "bad.mtx").write_text("not a matrix\n")
    args = ["refine", "--matrix", str(ham / "matrix.mtx"),
            "--right", str(ham / "start_right.mtx"), *run]
    plain = invoke(args + ["--out", str(tmp_path / "plain.csv")])
    assert "warning" not in plain.output
    for operand in (eh / "e.mtx", tmp_path / "bad.mtx"):
        stray = invoke(args + [f"--{flag}-matrix", str(operand),
                               "--out", str(tmp_path / "stray.csv")])
        assert stray.exit_code == plain.exit_code == 0, stray.output
        warning = f"warning: --{flag}-matrix is not read by {' '.join(run)}"
        assert warning in stray.stderr
        assert (tmp_path / "stray.csv").read_bytes() == (
            tmp_path / "plain.csv"
        ).read_bytes()


@pytest.mark.parametrize(
    "method,structure",
    [("one-sided", "e-hermitian"), ("newton", "none")],
    ids=["one-sided", "newton"],
)
def test_refine_warns_of_unread_left_files(tmp_path, method, structure):
    # A one-subspace run takes neither --left nor --oracle-left: it says
    # so on stderr, opens neither file (the oracle is absent here, the
    # left basis well formed or malformed), and keeps its exit code and
    # trace bytes.
    d = tmp_path / "eh"
    invoke(["gen", "--kind", "e-hermitian", "--n", "8", "--out", str(d)])
    (tmp_path / "bad.mtx").write_text("not a matrix\n")
    args = ["refine", "--matrix", str(d / "matrix.mtx"),
            "--right", str(d / "start_right.mtx"),
            "--oracle-right", str(d / "oracle_right.mtx"),
            "--method", method, "--structure", structure]
    if structure != "none":
        args += ["--e-matrix", str(d / "e.mtx")]
    plain = invoke(args + ["--out", str(tmp_path / "plain.csv")])
    for left in (d / "start_left.mtx", tmp_path / "bad.mtx"):
        stray = invoke(args + ["--left", str(left),
                               "--oracle-left", str(tmp_path / "absent.mtx"),
                               "--out", str(tmp_path / "stray.csv")])
        assert stray.exit_code == plain.exit_code == 0, stray.output
        for flag in ("left", "oracle-left"):
            warning = (f"warning: --{flag} is not read by --method {method} "
                       f"--structure {structure}")
            assert warning in stray.stderr
            assert warning not in plain.stderr
        assert (tmp_path / "stray.csv").read_bytes() == (
            tmp_path / "plain.csv"
        ).read_bytes()


def test_refine_malformed_matrix_exits_one(tmp_path):
    # A malformed matrix or basis, a missing one or one of an unsupported
    # format, is named once.
    bad = tmp_path / "bad.mtx"
    bad.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\n")
    coo = tmp_path / "coo.mtx"
    coo.write_text("%%MatrixMarket matrix coordinate real general\n2 1 1\n")
    c, y = tmp_path / "c.mtx", tmp_path / "y.mtx"
    write_matrix(c, np.eye(2))
    write_matrix(y, np.eye(2)[:, :1])
    missing = tmp_path / "missing.mtx"
    for matrix, right, culprit in (
        (bad, y, bad), (c, bad, bad), (c, missing, missing), (c, coo, coo),
    ):
        result = runner.invoke(
            cli,
            [
                "refine",
                "--matrix", str(matrix),
                "--right", str(right),
                "--out", str(tmp_path / "t.csv"),
            ],
        )
        assert result.exit_code == 1
        assert result.output.count(culprit.name) == 1, result.output
    assert "coo.mtx:1: unsupported format 'coordinate'" in result.output


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


def _path_inputs(tmp_path, method, structure):
    """Write the inputs of one refine path; returns the refine arguments
    naming them."""
    rng = trial_rng(31)
    if structure in ("e-hermitian", "e-skew-hermitian", "hamiltonian"):
        result = invoke(
            ["gen", "--kind", structure, "--n", "8", "--p", "2", "--seed", "5",
             "--out", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        files = {
            "matrix": "matrix.mtx",
            "right": "start_right.mtx",
            "oracle-right": "oracle_right.mtx",
        }
        if structure != "hamiltonian":
            files["e-matrix"] = "e.mtx"
        return [
            arg
            for flag, name in files.items()
            for arg in (f"--{flag}", str(tmp_path / name))
        ]
    arrays = {}
    if method in ("tsgrqi", "newton", "pencil"):
        prob = random_diagonalizable(8, 2, rng)
        c, right, left = prob.matrix, prob.oracle_right, prob.oracle_left
        if method == "pencil":
            b = rng.standard_normal((8, 8)) + 8.0 * np.eye(8)
            c = b @ c  # deflating pair of (B C, B): span(S), B^-H span(L)
            arrays["b-matrix"] = b
            left = orthonormalize(np.linalg.solve(b.T, left.basis))
    elif structure == "skew-hamiltonian":
        prob = random_diagonalizable(4, 1, rng)
        zero = np.zeros((4, 4))
        c = np.block([[prob.matrix, zero], [zero, prob.matrix.T]])
        basis = np.zeros((8, 2))
        basis[:4, 0] = prob.oracle_right.basis[:, 0]
        basis[4:, 1] = prob.oracle_left.basis[:, 0]
        right = orthonormalize(basis)
    else:
        a = rng.standard_normal((8, 8))
        c = (a + a.T) / 2.0
        if structure == "generalized":
            g = rng.standard_normal((8, 8))
            b = g @ g.T + 8.0 * np.eye(8)
            arrays["b-matrix"] = b
            vecs = np.linalg.eig(np.linalg.solve(b, c))[1].real
        else:
            vecs = np.linalg.eigh(c)[1]
        right = orthonormalize(vecs[:, :2])
    arrays["matrix"] = c
    arrays["oracle-right"] = right.basis
    arrays["right"] = nearby_subspace(right, 0.05, rng).basis
    if method in ("tsgrqi", "pencil"):
        arrays["oracle-left"] = left.basis
        arrays["left"] = nearby_subspace(left, 0.05, rng).basis
    args = []
    for flag, value in arrays.items():
        write_matrix(tmp_path / f"{flag}.mtx", value)
        args += [f"--{flag}", str(tmp_path / f"{flag}.mtx")]
    return args


def _in_memory_run(method, structure, files):
    """The same run through ``iterate`` and the public step."""
    c = read_matrix(files["--matrix"])
    b = read_matrix(files["--b-matrix"]) if "--b-matrix" in files else None
    e = read_matrix(files["--e-matrix"]) if "--e-matrix" in files else None
    sub = {k: orthonormalize(read_matrix(v)) for k, v in files.items()
           if k in ("--right", "--left", "--oracle-right", "--oracle-left")}
    cfg = StepConfig(max_iters=50, angle_tol=1e-12)
    right_res = lambda y: residual_angle(c, y)
    if method == "tsgrqi":
        state = SubspacePair(left=sub["--left"], right=sub["--right"])
        oracle = SubspacePair(
            left=sub["--oracle-left"], right=sub["--oracle-right"]
        )
        step = lambda s: tsgrqi_step(c, s, cfg)
        residual = lambda s: max(
            residual_angle(c, s.right), residual_angle(c.conj().T, s.left)
        )
        return iterate(step, state, cfg, residual=residual, oracle=oracle)
    if method == "pencil":
        state = PencilPair(hatted_left=sub["--left"], right=sub["--right"])
        oracle = SubspacePair(
            left=sub["--oracle-left"], right=sub["--oracle-right"]
        )
        pencil = choose_pencil_normalization(c, b)
        step = lambda s: pencil_tsgrqi_step(*pencil, s, cfg)
        residual = lambda s: max(
            residual_angle(c, s.right, b),
            residual_angle(c.conj().T, s.left, b.conj().T),
        )
        return iterate(step, state, cfg, residual=residual, oracle=oracle)
    if method == "grqi":
        step = lambda y: grqi_step(c, y, cfg, full_output=True)
    elif method == "newton":
        step = lambda y: newton_chatelin_step(c, y, full_output=True)
    elif structure in ("hamiltonian", "skew-hamiltonian"):
        step = lambda y: hamiltonian_step(c, y, cfg, full_output=True)
    elif structure == "generalized":
        step = lambda y: generalized_hermitian_step(
            c, b, y, cfg, full_output=True
        )
        right_res = lambda y: residual_angle(c, y, b)
    else:
        step = lambda y: one_sided_step(c, e, y, cfg, full_output=True)
    return iterate(
        step, sub["--right"], cfg, residual=right_res,
        oracle=sub["--oracle-right"],
    )


REFINE_PATHS = [
    ("tsgrqi", "none"),
    ("grqi", "none"),
    ("newton", "none"),
    ("pencil", "none"),
    ("one-sided", "e-hermitian"),
    ("one-sided", "e-skew-hermitian"),
    ("one-sided", "hamiltonian"),
    ("one-sided", "skew-hamiltonian"),
    ("one-sided", "generalized"),
]


@pytest.mark.parametrize("method,structure", REFINE_PATHS)
def test_refine_path_matches_in_memory_iteration(tmp_path, method, structure):
    args = _path_inputs(tmp_path, method, structure)
    out = tmp_path / "trace.csv"
    result = invoke(
        ["refine", "--method", method, "--structure", structure,
         "--out", str(out)] + args
    )
    assert result.exit_code == 0, result.output
    assert "warning" not in result.output
    _assert_matches_in_memory_run(out, method, structure, args)


def _assert_matches_in_memory_run(out, method, structure, args):
    got = read_traces(out)[0]
    ref = _in_memory_run(method, structure, dict(zip(args[::2], args[1::2])))
    assert got.status == ref.status == "converged"
    assert got.failure_reason == ref.failure_reason
    assert len(got.records) == len(ref.records)
    for a, b in zip(got.records, ref.records):
        # bitwise through the CSV round trip, NaN where no oracle side
        np.testing.assert_array_equal(
            [a.right_err, a.left_err, a.err_sum, a.residual, a.shift_cond],
            [b.right_err, b.left_err, b.err_sum, b.residual, b.shift_cond],
        )
        assert a.perturbed == b.perturbed


@pytest.mark.parametrize(
    "files,extra,culprit",
    [
        ({"right": np.eye(12)[:, :2]}, [], "right"),
        (
            {"right": np.eye(10)[:, :2], "oracle": np.eye(10)[:, :3]},
            ["--method", "grqi", "--oracle-right"],
            "oracle",
        ),
        (
            {"right": np.eye(10)[:, :2], "oracle": np.eye(10)[:, 1:3],
             "oracle_left": np.eye(12)[:, :2]},
            ["--oracle-right"],
            "oracle_left",
        ),
        (
            {"right": np.eye(10)[:, :2], "b": 2.0 * np.eye(3)},
            ["--method", "pencil", "--b-matrix"],
            "b",
        ),
        (
            {"right": np.eye(10)[:, :2], "e": np.eye(9)},
            ["--method", "one-sided", "--structure", "e-hermitian",
             "--e-matrix"],
            "e",
        ),
    ],
    ids=["right-rows", "oracle-columns", "oracle-left-rows", "b-shape",
         "e-shape"],
)
def test_refine_shape_mismatch_exits_one(tmp_path, files, extra, culprit):
    write_matrix(tmp_path / "c.mtx", np.diag(np.arange(1.0, 11.0)))
    for name, value in files.items():
        write_matrix(tmp_path / f"{name}.mtx", value)
    args = [
        "refine",
        "--matrix", str(tmp_path / "c.mtx"),
        "--right", str(tmp_path / "right.mtx"),
        "--out", str(tmp_path / "t.csv"),
    ] + extra
    if "oracle" in files:
        args.append(str(tmp_path / "oracle.mtx"))
    if "oracle_left" in files:
        args += ["--oracle-left", str(tmp_path / "oracle_left.mtx")]
    for name in ("b", "e"):
        if name in files:
            args.append(str(tmp_path / f"{name}.mtx"))
    result = invoke(args)
    assert result.exit_code == 1
    assert f"{culprit}.mtx: " in result.output
    assert "expected (10, " in result.output
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize(
    "option, message",
    [
        (["--max-iters", "0"], "max_iters must be >= 1, got 0"),
        (["--tol", "0"], "angle_tol must be > 0, got 0.0"),
        (["--tol", "nan"], "angle_tol must be > 0, got nan"),
    ],
)
def test_refine_invalid_budget_exits_one_before_reading(tmp_path, option, message):
    # The options are checked first: the missing matrix file is never read.
    result = invoke(
        [
            "refine",
            "--matrix", str(tmp_path / "missing.mtx"),
            "--right", str(tmp_path / "missing.mtx"),
            "--out", str(tmp_path / "t.csv"),
        ] + option
    )
    assert result.exit_code == 1
    assert message in result.output
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize(
    "culprit, bad, extra",
    [
        ("c", np.nan, []),
        ("c", np.nan, ["--method", "one-sided", "--structure", "hamiltonian"]),
        ("b", np.nan, ["--method", "pencil"]),
        ("b", np.inf, ["--method", "one-sided", "--structure", "generalized"]),
        ("e", -np.inf, ["--method", "one-sided", "--structure", "e-hermitian"]),
    ],
)
def test_refine_nonfinite_operand_exits_one(tmp_path, culprit, bad, extra):
    operands = {"c": np.diag([1.0, 2.0, 3.0, 4.0]), "b": np.eye(4), "e": np.eye(4)}
    operands[culprit][0, 1] = bad
    for name, value in operands.items():
        write_matrix(tmp_path / f"{name}.mtx", value)
    write_matrix(tmp_path / "y.mtx", np.eye(4)[:, :2])
    result = invoke(
        [
            "refine",
            "--matrix", str(tmp_path / "c.mtx"),
            "--right", str(tmp_path / "y.mtx"),
            "--b-matrix", str(tmp_path / "b.mtx"),
            "--e-matrix", str(tmp_path / "e.mtx"),
            "--out", str(tmp_path / "t.csv"),
        ] + extra
    )
    assert result.exit_code == 1
    assert f"{culprit}.mtx: matrix has nonfinite entries" in result.output
    assert not (tmp_path / "t.csv").exists()


def test_refine_grqi_converges_onto_kernel_of_c(tmp_path):
    # grqi nears the kernel of C cubically; the residual, scaled by a
    # norm of C rather than of C Y, sees it within three steps.
    write_matrix(tmp_path / "c.mtx", np.diag([0.0, 1.0, 2.0, 3.0]))
    write_matrix(tmp_path / "y.mtx", np.array([[1.0], [1e-3], [2e-3], [-1e-3]]))
    out = tmp_path / "trace.csv"
    result = invoke(
        [
            "refine",
            "--matrix", str(tmp_path / "c.mtx"),
            "--right", str(tmp_path / "y.mtx"),
            "--method", "grqi",
            "--out", str(out),
        ]
    )
    assert result.exit_code == 0, result.output
    trace = read_traces(out)[0]
    assert trace.status == "converged"
    assert len(trace.records) - 1 <= 3


@pytest.mark.parametrize("command, flag", [
    (["refine", "--matrix", "absent.mtx", "--right", "absent.mtx"], "--out"),
    (["experiment", "table1"], "--out"),
    (["experiment", "table1"], "--trace"),
    (["experiment", "hamiltonian"], "--out"),
    (["experiment", "hamiltonian"], "--trace"),
], ids=["refine-out", "table1-out", "table1-trace", "hamiltonian-out",
        "hamiltonian-trace"])
@pytest.mark.parametrize("target", ["missing/t.out", ".", ""],
                         ids=["missing-dir", "is-dir", "empty"])
def test_unwritable_output_path_exits_before_any_work(
    tmp_path, monkeypatch, command, flag, target
):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the output path check")

    monkeypatch.setattr("grqi.cli.run_table1", refuse)
    monkeypatch.setattr("grqi.cli.run_hamiltonian", refuse)
    monkeypatch.chdir(tmp_path)
    result = invoke(command + [flag, target])
    assert result.exit_code == 1
    shown = target or repr(target)
    assert f"{shown}: not a file path in an existing directory" in (
        result.output
    )
    assert not (tmp_path / "missing").exists()


def test_refine_exact_eigenspace_meeting_kernel_converges(tmp_path):
    write_matrix(tmp_path / "c.mtx", np.diag([0.0, 1.0, 2.0, 3.0]))
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
    assert "status: converged after 1 step(s)" in result.output
    assert read_traces(out)[0].records[0].residual == 0.0


def _singular_b_pencil(tmp_path):
    """Write a 12x12 pencil (A, B) with B singular (one infinite
    eigenvalue), its deflating pair for the eigenvalues 1 and 2, and a
    start 1e-3 away; returns the refine arguments naming them."""
    rng = np.random.default_rng(12)
    x, z = (
        np.eye(12) + 0.1 * g / np.linalg.norm(g, 2)
        for g in rng.standard_normal((2, 12, 12))
    )
    z_inv = np.linalg.inv(z)
    a = x @ np.diag(np.arange(1.0, 13.0)) @ z_inv
    b = x @ np.diag([1.0] * 11 + [0.0]) @ z_inv
    right = orthonormalize(z[:, :2])
    left = orthonormalize(np.linalg.inv(x).conj().T[:, :2])
    arrays = {
        "matrix": a, "b-matrix": b,
        "oracle-right": right.basis, "oracle-left": left.basis,
        "right": subspace_at_angle(right, 1e-3, rng).basis,
        "left": subspace_at_angle(left, 1e-3, rng).basis,
    }
    args = ["--method", "pencil"]
    for flag, value in arrays.items():
        write_matrix(tmp_path / f"{flag}.mtx", value)
        args += [f"--{flag}", str(tmp_path / f"{flag}.mtx")]
    return args, a, b


def test_refine_pencil_with_singular_b_converges(tmp_path):
    args, _, b = _singular_b_pencil(tmp_path)
    assert np.linalg.matrix_rank(b) == 11
    out = tmp_path / "trace.csv"
    result = invoke(["refine", "--out", str(out)] + args)
    assert result.exit_code == 0, result.output
    trace = read_traces(out)[0]
    assert trace.status == "converged"
    assert trace.records[-1].err_sum <= 1e-12


def test_refine_pencil_with_singular_b_matches_in_memory_iteration(tmp_path):
    # The rotated normalization path.
    args, _, _ = _singular_b_pencil(tmp_path)
    out = tmp_path / "trace.csv"
    result = invoke(["refine", "--out", str(out)] + args)
    assert result.exit_code == 0, result.output
    _assert_matches_in_memory_run(out, "pencil", "none", args[2:])


def test_refine_pencil_without_normalization_exits_three(tmp_path):
    # A and B share a null vector, so every alpha B - beta A is singular.
    args, a, b = _singular_b_pencil(tmp_path)
    null = np.linalg.svd(b)[2][-1].conj()
    write_matrix(tmp_path / "matrix.mtx", a - np.outer(a @ null, null))
    out = tmp_path / "trace.csv"
    result = invoke(["refine", "--out", str(out)] + args)
    assert result.exit_code == 3
    assert "DegeneratePencilError: no normalization" in result.output


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


@pytest.mark.parametrize(
    "kind,p",
    [("diagonalizable", "6"), ("diagonalizable", "0"), ("e-hermitian", "9"),
     ("e-hermitian", "6")],
)
def test_gen_rejects_block_size_outside_n(tmp_path, kind, p):
    out = tmp_path / "d" / "x"
    result = invoke(
        ["gen", "--kind", kind, "--n", "6", "--p", p, "--out", str(out)]
    )
    assert result.exit_code == 1
    assert f"need n > p >= 1, got n=6, p={p}" in result.output
    # A refused gen creates no output directory.
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("kind", ["hamiltonian", "e-skew-hermitian"])
def test_gen_full_group_kinds_ignore_p(tmp_path, kind):
    result = invoke(
        ["gen", "--kind", kind, "--n", "6", "--p", "9", "--out", str(tmp_path)]
    )
    assert result.exit_code == 0, result.output


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
    # refine from those files retraces the study's first step.  The two
    # share right_err; the table1 study and tsgrqi refine also share
    # left_err and e, while the Hamiltonian study and one-sided refine
    # share the residual.
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
    fields = (
        ["right_err", "left_err", "err_sum"] if study == "table1"
        else ["right_err", "residual"]
    )
    c = read_matrix(tmp_path / "matrix.mtx")
    state = SubspacePair(*(
        orthonormalize(read_matrix(tmp_path / f"start_{side}.mtx"))
        for side in ("left", "right")
    ))
    for k in range(2):
        g, x = got.records[k], expected.records[k]
        for name in fields:
            assert getattr(g, name) == pytest.approx(
                getattr(x, name), rel=1e-9
            ), (k, name)
        assert x.err_sum == x.left_err + x.right_err
        if study == "table1":
            # The study's residual is the right one; refine's adds the
            # left residual under C^H.
            left = residual_angle(c.conj().T, state.left)
            assert g.residual == pytest.approx(max(x.residual, left), rel=1e-9)
            state, _ = tsgrqi_step(c, state)
        else:
            # The study's left side is span(J Y) against the J-lifted
            # oracle, as far apart as Y and the oracle, since J is
            # orthogonal; one-sided refine has no left error.
            assert x.left_err == pytest.approx(x.right_err, rel=1e-9)
            assert np.isnan(g.left_err) and g.err_sum == g.right_err


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
    for start in ("0.1", "0.001"):
        result = invoke(
            [
                "experiment", "hamiltonian",
                "--n", "8",
                "--trials", "12",
                "--seed", "9",
                "--start-distance", start,
                "--out", str(out),
            ]
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text())
        assert doc["experiment"] == "hamiltonian"
        assert doc["p"] is None
        assert "success rate" in result.output
        assert "block sizes: p=" in result.output


def test_experiment_hamiltonian_odd_n_exits_one(tmp_path):
    result = runner.invoke(
        cli, ["experiment", "hamiltonian", "--n", "7", "--trials", "2"]
    )
    assert result.exit_code == 1
    assert "Hamiltonian study needs even n > 0, got 7" in result.output


# ------------------------------------------------------------ thread count


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The Hamiltonian study and a complex-shift ``refine`` write the same
    bytes under one and under two BLAS threads.

    Both solve complex systems with one right-hand side: the study on its
    singular-system retries, the one-sided Hamiltonian refine at every
    shift.  OpenBLAS's ``zgetrs`` returned other bits for one such column
    at two threads than at one (n = 4 to 40), so solved one column at a
    time these outputs differ and this test fails on a 2-vCPU host.  A
    host with one CPU cannot show the defect: OpenBLAS then runs one
    thread whatever the variables ask.  The child processes' environment
    variables are the only setting changed."""
    commands = [
        ["experiment", "hamiltonian", "--trials", "300", "--seed", "4",
         "--out", "h.json", "--trace", "h.csv"],
        ["gen", "--kind", "hamiltonian", "--n", "20", "--seed", "0"],
        ["refine", "--matrix", "matrix.mtx", "--right", "start_right.mtx",
         "--method", "one-sided", "--structure", "hamiltonian",
         "--oracle-right", "oracle_right.mtx", "--out", "r.csv"],
    ]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        folder = tmp_path / threads
        folder.mkdir()
        for args in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "grqi.cli", *args], cwd=folder,
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
        outputs.append({f.name: f.read_bytes() for f in folder.iterdir()})
    one, two = outputs
    assert sorted(one) == sorted(two)
    assert [name for name in sorted(one) if one[name] != two[name]] == []


_SCIPY_PROBE = """
import sys
from grqi.cli import cli

for args in sys.argv[1:]:
    try:
        cli.main(args.split(), standalone_mode=False)
    except SystemExit as exc:
        assert not exc.code, (args, exc.code)
    print("scipy.linalg" in sys.modules)
"""


def test_only_solving_commands_import_scipy(tmp_path):
    """``gen`` and a study do no shifted or Sylvester solve that needs
    scipy, so neither imports ``scipy.linalg``; ``refine`` does."""
    commands = [
        "gen --n 20 --seed 3",
        "experiment table1 --trials 20 --seed 3",
        "refine --matrix matrix.mtx --right start_right.mtx "
        "--left start_left.mtx --out r.csv",
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, *commands], cwd=tmp_path,
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    flags = [line for line in proc.stdout.splitlines()
             if line in ("True", "False")]
    assert flags == ["False", "False", "True"]
