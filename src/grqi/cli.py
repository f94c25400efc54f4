"""Command line front end: refinement runs, canned experiments, instance
generation.

Exit codes of ``refine``: 0 converged, 2 iteration budget exhausted,
3 failure (including strict structure-check refusals and pencils with no
usable normalization); 1 for unreadable or malformed input files.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
from functools import partial

import click
import numpy as np

from .errors import GrqiError, ParseError
from .experiments import (
    _INSTANCE_KINDS,
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
    _failure_text,
    grqi_step,
    iterate,
    newton_chatelin_step,
    tsgrqi_step,
)
from .kernels import Subspace, orthonormalize, residual_angle
from .mmio import read_matrix, write_matrix
from .structured import (
    STRUCTURES,
    apply_j,
    check_structure,
    choose_pencil_normalization,
    generalized_hermitian_step,
    one_sided_step,
    pencil_tsgrqi_step,
)

_EXIT_CODE = {CONVERGED: 0, MAX_ITERS: 2, FAILURE: 3}


def _fail_usage(message: str):
    click.echo(message, err=True)
    sys.exit(1)


def _check_out(*paths):
    """Exit before any work unless every path given (not None) names a
    file in an existing directory, which an empty path does not."""
    for path in (path for path in paths if path is not None):
        folder = os.path.dirname(path) or "."
        if not path or os.path.isdir(path) or not os.path.isdir(folder):
            _fail_usage(f"{path or repr(path)}: not a file path in an "
                        f"existing directory")


# (--method, --structure or None) -> (whether the state is a pair,
# builder of the step state -> (state, diagnostics) from (C, B, E),
# whether the step takes B and the residual is taken under the pencil
# (C, B) rather than C alone).  E is J (``apply_j``) for a claim that
# reads no operand; the pencil is normalized once, so a singular B runs.
# Builders look the steps up by name when ``refine`` calls them, so
# wrappers installed on this module's bindings see every call.
_ONE_SIDED = (
    False,
    lambda c, b, e: partial(one_sided_step, c, e, full_output=True),
    False,
)
_METHODS = {
    ("tsgrqi", None): (
        True, lambda c, b, e: partial(tsgrqi_step, c), False,
    ),
    ("grqi", None): (
        False,
        lambda c, b, e: partial(grqi_step, c, full_output=True),
        False,
    ),
    ("newton", None): (
        False,
        lambda c, b, e: partial(newton_chatelin_step, c, full_output=True),
        False,
    ),
    **{("one-sided", s): _ONE_SIDED for s in STRUCTURES if s != "generalized"},
    ("one-sided", "generalized"): (
        False,
        lambda c, b, e: partial(
            generalized_hermitian_step, c, b, full_output=True
        ),
        True,
    ),
    ("pencil", None): (
        True,
        lambda c, b, e: partial(
            pencil_tsgrqi_step, *choose_pencil_normalization(c, b)
        ),
        True,
    ),
}


def _load_matrix(path: str, like: np.ndarray | None = None) -> np.ndarray:
    """Read a finite matrix; with ``like``, exit unless it has that shape."""
    try:
        m = read_matrix(path)
    except (ParseError, OSError) as exc:  # these name the path
        _fail_usage(str(exc))
    if not np.isfinite(m).all():
        _fail_usage(f"{path}: matrix has nonfinite entries")
    if like is not None and m.shape != like.shape:
        _fail_usage(f"{path}: matrix is {m.shape}, expected {like.shape}")
    return m


def _load_subspace(path: str, n: int, p: int | None = None) -> Subspace:
    """Read a basis; exit unless it has ``n`` rows (and ``p`` columns)."""
    try:
        y = orthonormalize(_load_matrix(path))
    except GrqiError as exc:
        _fail_usage(f"{path}: {exc}")
    shape = (n, p or y.p)
    if y.basis.shape != shape:
        _fail_usage(f"{path}: basis is {y.basis.shape}, expected {shape}")
    return y


@click.group()
def cli():
    """Refine invariant subspace pairs of square matrices."""


@cli.command()
@click.option("--matrix", required=True, type=click.Path(), help="square matrix, Matrix Market array file")
@click.option("--right", required=True, type=click.Path(), help="starting right subspace basis")
@click.option("--left", type=click.Path(), help="starting left subspace basis (defaults to the right one)")
@click.option("--method", type=click.Choice(tuple(dict.fromkeys(m for m, _ in _METHODS))), default="tsgrqi", show_default=True)
@click.option("--structure", type=click.Choice(("none", *STRUCTURES)), default="none", show_default=True, help="claimed structure, verified before the run")
@click.option("--e-matrix", type=click.Path(), help="E operator file for the e-* structures")
@click.option("--b-matrix", type=click.Path(), help="B matrix file for generalized/pencil runs")
@click.option("--strict", is_flag=True, help="refuse to run when the structure check fails")
@click.option("--max-iters", default=50, show_default=True)
@click.option("--tol", default=1e-12, show_default=True, help="convergence angle tolerance")
@click.option("--oracle-right", type=click.Path(), help="reference right subspace for error columns")
@click.option("--oracle-left", type=click.Path(), help="reference left subspace for error columns")
@click.option("--out", default="trace.csv", show_default=True, type=click.Path(), help="CSV trace output")
def refine(
    matrix, right, left, method, structure, e_matrix, b_matrix, strict,
    max_iters, tol, oracle_right, oracle_left, out,
):
    """Run one refinement and write its per-iterate trace to CSV."""
    try:
        scfg = StepConfig(max_iters=max_iters, angle_tol=tol)
    except ValueError as exc:
        _fail_usage(str(exc))
    _check_out(out)
    c = _load_matrix(matrix)
    if c.shape[0] != c.shape[1]:
        _fail_usage(f"{matrix}: matrix must be square, got {c.shape}")

    needs = STRUCTURES.get(structure, (None,))[0]
    if needs and not {"b": b_matrix, "e": e_matrix}[needs]:
        _fail_usage(f"--structure {structure} needs --{needs}-matrix")
    entry = _METHODS.get((method, None)) or _METHODS.get((method, structure))
    if entry is None:
        _fail_usage(f"--method {method} needs a --structure")
    paired, build_step, pencil = entry
    if pencil and not b_matrix:
        _fail_usage(f"--method {method} needs --b-matrix")
    read_b, read_e = needs == "b" or pencil, needs == "e"
    for flag, path, read in (
        ("e-matrix", e_matrix, read_e),
        ("b-matrix", b_matrix, read_b),
        ("left", left, paired),
        ("oracle-left", oracle_left, paired),
    ):
        if path and not read:
            click.echo(f"warning: --{flag} is not read by --method {method} "
                       f"--structure {structure}", err=True)
    b = _load_matrix(b_matrix, c) if read_b else None
    e = _load_matrix(e_matrix, c) if read_e else None

    if structure != "none":
        try:
            chk = check_structure(c, structure, b=b, e=e)
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

    n = c.shape[0]
    yr = _load_subspace(right, n)
    yl = _load_subspace(left, n) if left and paired else yr
    if paired and (oracle_right is None) != (oracle_left is None):
        _fail_usage(f"--method {method} needs both oracle files or neither")
    oracle = None
    if oracle_right:
        o_left = _load_subspace(oracle_left, n, yr.p) if paired else None
        o_right = _load_subspace(oracle_right, n, yr.p)
        oracle = SubspacePair(o_left, o_right) if paired else o_right
    try:
        state = SubspacePair(yl, yr) if paired else yr
    except GrqiError as exc:
        _fail_usage(str(exc))

    if structure in STRUCTURES and needs is None:
        e = apply_j
    try:
        step = build_step(c, b, e)
    except GrqiError as exc:
        click.echo(_failure_text(exc), err=True)
        sys.exit(3)
    pencil_b = b if pencil else None
    if paired:
        c_h, b_h = c.conj().T, None if pencil_b is None else pencil_b.conj().T
        residual = lambda s: max(
            residual_angle(c, s.right, pencil_b),
            residual_angle(c_h, s.left, b_h),
        )
    else:
        residual = lambda y: residual_angle(c, y, pencil_b)
    trace = iterate(step, state, scfg, residual=residual, oracle=oracle)
    write_traces(out, [trace])
    last = trace.records[-1]
    click.echo(f"status: {trace.status} after {trace.iterates - 1} step(s)")
    if oracle is not None:
        click.echo(f"final error: {last.err_sum:.6e}")
    if trace.status != FAILURE:
        click.echo(f"final residual angle: {last.residual:.6e}")
    if trace.failure_reason:
        click.echo(trace.failure_reason, err=True)
    click.echo(f"wrote {out}")
    sys.exit(_EXIT_CODE[trace.status])


@cli.group()
def experiment():
    """Canned reproducible convergence studies."""


def _study_command(name, runner, doc, fields, **defaults):
    """Register ``grqi experiment NAME``: one option per ExperimentConfig
    field in ``fields``, with the field's default unless ``defaults``
    overrides it, then ``--out`` and ``--trace``."""
    defaults = {
        f.name: f.default for f in dataclasses.fields(ExperimentConfig)
    } | defaults
    params = [
        click.Option([f"--{field.replace('_', '-')}"], default=defaults[field], show_default=True)
        for field in fields
    ] + [
        click.Option(["--out"], type=click.Path(), help="JSON summary output path"),
        click.Option(["--trace", "trace_path"], type=click.Path(), help="CSV trace output path"),
    ]

    @experiment.command(name, params=params, help=doc)
    def command(out, trace_path, **options):
        try:
            cfg = ExperimentConfig(experiment=name, **options)
        except ValueError as exc:
            _fail_usage(str(exc))
        _check_out(out, trace_path)
        t0 = time.perf_counter()
        summary, traces = runner(cfg)
        wall_time = time.perf_counter() - t0
        click.echo(format_table(summary))
        click.echo(
            f"success rate: {summary.success_rate:.4f} "
            f"({summary.success_count}/{summary.trials})"
        )
        click.echo(f"failed trials: {summary.failures}")
        if summary.p_counts:
            sizes = ", ".join(f"p={p}: {k}" for p, k in summary.p_counts.items())
            click.echo(f"block sizes: {sizes}")
        click.echo(f"wall time: {wall_time:.2f} s")
        if out:
            write_summary(out, summary)
            click.echo(f"wrote {out}")
        if trace_path:
            write_traces(trace_path, traces)
            click.echo(f"wrote {trace_path}")


# The runners are looked up when a study runs, so a wrapper installed on
# this module's bindings sees every call.
_study_command(
    "table1", lambda cfg: run_table1(cfg),
    """Per-iterate error statistics of the two-sided step on random
    diagonalizable matrices.""",
    ("n", "p", "trials", "seed", "start_distance", "max_iters", "workers"),
)
_study_command(
    "hamiltonian", lambda cfg: run_hamiltonian(cfg),
    """Success-rate study of the structure-exploiting step on random
    Hamiltonian matrices (ten steps, success below 1e-12).""",
    ("n", "trials", "seed", "start_distance", "workers"),
    trials=10000,
)


@cli.command()
@click.option("--kind", type=click.Choice(_INSTANCE_KINDS), default="diagonalizable", show_default=True)
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
    try:
        c, e, oracle, start = _instance(
            kind, n, p, seed, trial, start_distance
        )
    except (GrqiError, ValueError) as exc:
        _fail_usage(str(exc))
    os.makedirs(out, exist_ok=True)

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
