"""Command line front end: refinement runs, canned experiments, instance
generation.

Exit codes of ``refine``: 0 converged, 2 iteration budget exhausted,
3 failure (including strict structure-check refusals); 1 for unreadable or
malformed input files.
"""

from __future__ import annotations

import os
import sys

import click
import numpy as np

from .errors import GrqiError, ParseError, UnsupportedFormatError
from .experiments import (
    ExperimentConfig,
    _instance,
    format_table,
    run_hamiltonian,
    run_table1,
    write_summary,
    write_traces,
)
from .iterations import (
    CONVERGED,
    FAILURE,
    MAX_ITERS,
    StepConfig,
    SubspacePair,
    grqi_step,
    iterate,
    newton_chatelin_step,
    tsgrqi_step,
)
from .kernels import Subspace, orthonormalize, residual_angle
from .mmio import read_matrix, write_matrix
from .structured import (
    EHermitian,
    ESkewHermitian,
    GeneralizedHermitian,
    HamiltonianJ,
    PencilPair,
    SkewHamiltonianJ,
    check_structure,
    generalized_hermitian_step,
    hamiltonian_step,
    one_sided_step,
    pencil_tsgrqi_step,
)

_EXIT_CODE = {CONVERGED: 0, MAX_ITERS: 2, FAILURE: 3}

_METHODS = ("tsgrqi", "grqi", "newton", "one-sided", "pencil")
_STRUCTURES = (
    "none",
    "e-hermitian",
    "e-skew-hermitian",
    "hamiltonian",
    "skew-hamiltonian",
    "generalized",
)


def _fail_usage(message: str):
    click.echo(message, err=True)
    sys.exit(1)


def _pencil_residual(a: np.ndarray, b: np.ndarray, y: Subspace) -> float:
    """Angle by which span(A Y) leaves span(B Y); zero on a deflating
    subspace of the pencil (A, B)."""
    ay = a @ y.basis
    by = b @ y.basis
    q = np.linalg.qr(by)[0]
    ay_norm = np.linalg.norm(ay, 2)
    if ay_norm == 0.0:
        return 0.0
    leak = ay - q @ (q.conj().T @ ay)
    return float(np.arcsin(min(1.0, np.linalg.norm(leak, 2) / ay_norm)))


def _load_matrix(path: str) -> np.ndarray:
    try:
        return read_matrix(path)
    except (ParseError, UnsupportedFormatError, OSError) as exc:
        _fail_usage(str(exc))


def _load_subspace(path: str) -> Subspace:
    try:
        return orthonormalize(read_matrix(path))
    except (ParseError, UnsupportedFormatError, OSError, GrqiError) as exc:
        _fail_usage(f"{path}: {exc}")


@click.group()
def cli():
    """Refine invariant subspace pairs of square matrices."""


@cli.command()
@click.option("--matrix", required=True, type=click.Path(), help="square matrix, Matrix Market array file")
@click.option("--right", required=True, type=click.Path(), help="starting right subspace basis")
@click.option("--left", type=click.Path(), help="starting left subspace basis (defaults to the right one)")
@click.option("--method", type=click.Choice(_METHODS), default="tsgrqi", show_default=True)
@click.option("--structure", type=click.Choice(_STRUCTURES), default="none", show_default=True, help="claimed structure, verified before the run")
@click.option("--e-matrix", type=click.Path(), help="E operator file for the e-* structures")
@click.option("--b-matrix", type=click.Path(), help="B matrix file for generalized/pencil runs")
@click.option("--strict", is_flag=True, help="refuse to run when the structure check fails")
@click.option("--max-iters", default=50, show_default=True)
@click.option("--tol", default=1e-12, show_default=True, help="convergence angle tolerance")
@click.option("--oracle-right", type=click.Path(), help="reference right subspace for error columns")
@click.option("--oracle-left", type=click.Path(), help="reference left subspace for error columns")
@click.option("--out", default="trace.csv", show_default=True, type=click.Path(), help="CSV trace output")
def refine(
    matrix,
    right,
    left,
    method,
    structure,
    e_matrix,
    b_matrix,
    strict,
    max_iters,
    tol,
    oracle_right,
    oracle_left,
    out,
):
    """Run one refinement and write its per-iterate trace to CSV."""
    c = _load_matrix(matrix)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        _fail_usage(f"{matrix}: matrix must be square, got {c.shape}")
    b = _load_matrix(b_matrix) if b_matrix else None
    e = _load_matrix(e_matrix) if e_matrix else None

    if structure in ("e-hermitian", "e-skew-hermitian") and e is None:
        _fail_usage(f"--structure {structure} needs --e-matrix")
    if structure == "generalized" and b is None:
        _fail_usage("--structure generalized needs --b-matrix")
    if method == "pencil" and b is None:
        _fail_usage("--method pencil needs --b-matrix")

    if structure != "none":
        kind = {
            "e-hermitian": lambda: EHermitian(e),
            "e-skew-hermitian": lambda: ESkewHermitian(e),
            "hamiltonian": HamiltonianJ,
            "skew-hamiltonian": SkewHamiltonianJ,
            "generalized": lambda: GeneralizedHermitian(c, b),
        }[structure]()
        operand = (c, b) if structure == "generalized" else c
        try:
            chk = check_structure(operand, kind)
        except GrqiError as exc:
            _fail_usage(str(exc))
        if not chk.ok:
            message = (
                f"structure check failed for {structure}: "
                f"defect norm {chk.defect:.6e}"
            )
            if strict:
                click.echo(message, err=True)
                sys.exit(3)
            click.echo(f"warning: {message}", err=True)

    yr = _load_subspace(right)
    yl = _load_subspace(left) if left else yr
    scfg = StepConfig(max_iters=max_iters, angle_tol=tol)

    oracle = None
    if method in ("tsgrqi", "pencil"):
        if (oracle_right is None) != (oracle_left is None):
            _fail_usage(
                f"--method {method} needs both oracle files or neither"
            )
        if oracle_right:
            oracle = SubspacePair(
                left=_load_subspace(oracle_left),
                right=_load_subspace(oracle_right),
            )
    elif oracle_right:
        oracle = _load_subspace(oracle_right)

    residual = None
    try:
        if method == "tsgrqi":
            state = SubspacePair(left=yl, right=yr)
            step = lambda s: tsgrqi_step(c, s, scfg)
            residual = lambda s: max(
                residual_angle(c, s.right), residual_angle(c.conj().T, s.left)
            )
        elif method == "grqi":
            state = yr
            step = lambda y: grqi_step(c, y, scfg, full_output=True)
            residual = lambda y: residual_angle(c, y)
        elif method == "newton":
            state = yr
            step = lambda y: newton_chatelin_step(c, y, full_output=True)
            residual = lambda y: residual_angle(c, y)
        elif method == "one-sided":
            state = yr
            residual = lambda y: residual_angle(c, y)
            if structure in ("e-hermitian", "e-skew-hermitian"):
                step = lambda y: one_sided_step(
                    c, e, y, scfg, full_output=True
                )
            elif structure in ("hamiltonian", "skew-hamiltonian"):
                step = lambda y: hamiltonian_step(
                    c, y, scfg, full_output=True
                )
            elif structure == "generalized":
                step = lambda y: generalized_hermitian_step(
                    c, b, y, scfg, full_output=True
                )
                residual = lambda y: _pencil_residual(c, b, y)
            else:
                _fail_usage("--method one-sided needs a --structure")
        else:
            state = PencilPair(hatted_left=yl, right=yr)
            step = lambda s: pencil_tsgrqi_step(c, b, s, cfg=scfg)
            residual = lambda s: max(
                _pencil_residual(c, b, s.right),
                _pencil_residual(c.conj().T, b.conj().T, s.left),
            )
    except GrqiError as exc:
        _fail_usage(str(exc))

    trace = iterate(step, state, scfg, residual=residual, oracle=oracle)
    write_traces(out, [trace])
    last = trace.records[-1]
    click.echo(f"status: {trace.status} after {trace.iterates - 1} step(s)")
    if oracle is not None:
        click.echo(f"final error: {last.err_sum:.6e}")
    if residual is not None and trace.status != FAILURE:
        click.echo(f"final residual angle: {last.residual:.6e}")
    if trace.failure_reason:
        click.echo(trace.failure_reason, err=True)
    click.echo(f"wrote {out}")
    sys.exit(_EXIT_CODE[trace.status])


@cli.group()
def experiment():
    """Canned reproducible convergence studies."""


def _run_experiment(runner, cfg, out, trace_path, extra_lines=()):
    summary, traces = runner(cfg)
    click.echo(format_table(summary))
    click.echo(
        f"success rate: {summary.success_rate:.4f} "
        f"({summary.success_count}/{summary.trials})"
    )
    click.echo(f"failed trials: {summary.failures}")
    for line in extra_lines(summary) if callable(extra_lines) else extra_lines:
        click.echo(line)
    click.echo(f"wall time: {summary.wall_time:.2f} s")
    if out:
        write_summary(out, summary)
        click.echo(f"wrote {out}")
    if trace_path:
        write_traces(trace_path, traces)
        click.echo(f"wrote {trace_path}")


@experiment.command("table1")
@click.option("--n", default=20, show_default=True)
@click.option("--p", default=5, show_default=True)
@click.option("--trials", default=1000, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--start-distance", default=0.1, show_default=True)
@click.option("--max-iters", default=5, show_default=True)
@click.option("--workers", default=1, show_default=True)
@click.option("--full", is_flag=True, help="run the full-scale 10^6 trials")
@click.option("--out", type=click.Path(), help="JSON summary output path")
@click.option("--trace", "trace_path", type=click.Path(), help="CSV trace output path")
def experiment_table1(
    n, p, trials, seed, start_distance, max_iters, workers, full, out,
    trace_path,
):
    """Per-iterate error statistics of the two-sided step on random
    diagonalizable matrices."""
    try:
        cfg = ExperimentConfig(
            experiment="table1",
            n=n,
            p=p,
            trials=10**6 if full else trials,
            seed=seed,
            start_distance=start_distance,
            max_iters=max_iters,
            workers=workers,
        )
    except ValueError as exc:
        _fail_usage(str(exc))
    _run_experiment(run_table1, cfg, out, trace_path)


@experiment.command("hamiltonian")
@click.option("--n", default=20, show_default=True)
@click.option("--trials", default=10000, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--start-distance", default=0.1, show_default=True)
@click.option("--workers", default=1, show_default=True)
@click.option("--full", is_flag=True, help="run the full-scale 10^6 trials")
@click.option("--out", type=click.Path(), help="JSON summary output path")
@click.option("--trace", "trace_path", type=click.Path(), help="CSV trace output path")
def experiment_hamiltonian(
    n, trials, seed, start_distance, workers, full, out, trace_path
):
    """Success-rate study of the structure-exploiting step on random
    Hamiltonian matrices (ten steps, success below 1e-12)."""
    try:
        cfg = ExperimentConfig(
            experiment="hamiltonian",
            n=n,
            trials=10**6 if full else trials,
            seed=seed,
            start_distance=start_distance,
            max_iters=10,
            workers=workers,
        )
    except ValueError as exc:
        _fail_usage(str(exc))

    def block_sizes(summary):
        if not summary.p_counts:
            return []
        sizes = ", ".join(
            f"p={p}: {count}" for p, count in summary.p_counts.items()
        )
        return [f"block sizes: {sizes}"]

    try:
        _run_experiment(run_hamiltonian, cfg, out, trace_path, block_sizes)
    except ValueError as exc:
        _fail_usage(str(exc))


_GEN_KINDS = (
    "diagonalizable",
    "hamiltonian",
    "e-hermitian",
    "e-skew-hermitian",
)


@cli.command()
@click.option("--kind", type=click.Choice(_GEN_KINDS), default="diagonalizable", show_default=True)
@click.option("--n", default=20, show_default=True)
@click.option("--p", default=5, show_default=True, help="subspace dimension for diagonalizable, number of largest-modulus eigenvalues for e-hermitian (hamiltonian and e-skew-hermitian target a full eigenvalue group and ignore it)")
@click.option("--seed", default=0, show_default=True)
@click.option("--trial", default=0, show_default=True, help="trial stream index within the seed")
@click.option("--start-distance", default=0.1, show_default=True)
@click.option("--out", default=".", show_default=True, type=click.Path(file_okay=False), help="output directory")
def gen(kind, n, p, seed, trial, start_distance, out):
    """Generate a problem instance as Matrix Market files.

    Writes matrix.mtx, oracle_left.mtx, oracle_right.mtx, start_left.mtx,
    start_right.mtx (and e.mtx for the e-* kinds) so the run can be
    reproduced through ``refine``.  The instance is drawn by the code the
    studies use: ``--seed s --trial t`` gives trial t of the table1
    (diagonalizable) or Hamiltonian study with seed s.
    """
    os.makedirs(out, exist_ok=True)
    try:
        c, e, oracle, start = _instance(
            kind, n, p, seed, trial, start_distance
        )
    except (GrqiError, ValueError) as exc:
        _fail_usage(str(exc))

    files = {
        "matrix.mtx": c,
        "oracle_left.mtx": oracle.left.basis,
        "oracle_right.mtx": oracle.right.basis,
        "start_left.mtx": start.left.basis,
        "start_right.mtx": start.right.basis,
    }
    if e is not None:
        files["e.mtx"] = e
    for name, value in files.items():
        write_matrix(os.path.join(out, name), value)
        click.echo(f"wrote {os.path.join(out, name)}")
    click.echo(f"target subspace dimension: {oracle.right.p}")


def main():
    cli()


if __name__ == "__main__":
    main()
