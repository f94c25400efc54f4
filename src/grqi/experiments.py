"""Reproducible convergence experiments and their persistence.

Two canned studies are provided: a batch of two-sided refinements on random
diagonalizable matrices with per-iterate error statistics, and a
success-rate study of the structure-exploiting one-sided step on random
Hamiltonian matrices.  Both are driven by per-trial RNG streams and step
chunks of trials with stacked linear algebra, one trial's arithmetic
independent of the others, so results are bit-identical for a given
configuration regardless of chunking and worker count.

Traces persist to CSV (one row per iterate) with floats in shortest
round-trip form; summaries persist to JSON with a fixed key set and no
timing fields, so repeated runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import GrqiError, MissingOracleError, ParseError
from .iterations import (
    CONVERGED,
    FAILURE,
    MAX_ITERS,
    IterationRecord,
    IterationTrace,
    StepDiagnostics,
    SubspacePair,
    _append_row,
    _failure_text,
    _rayleigh_step,
)
from .kernels import (
    _check_orthonormal,
    _principal_angles,
    _residual_angles,
    orthonormalize,
)
from .structured import _e_pair, apply_j
from .testgen import (
    _mirror_groups,
    eigenspace_pair_oracle,
    nearby_subspace,
    random_diagonalizable,
    random_e_hermitian,
    random_e_skew_hermitian,
    random_hamiltonian,
    trial_rng,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentSummary",
    "run_table1",
    "run_hamiltonian",
    "summarize",
    "hamiltonian_success",
    "write_traces",
    "read_traces",
    "summary_json",
    "write_summary",
    "format_table",
]

# Study -> the ``gen --kind`` its instances are drawn as.
_STUDY_KINDS = {"table1": "diagonalizable", "hamiltonian": "hamiltonian"}
_LOG_FLOOR = 1e-300
_HAMILTONIAN_ITERS = 10
_SUCCESS_TOL = 1e-12
# Study trials stepped together.  Larger chunks step little faster but
# grow peak memory: over ten 100-trial table1 batches peak RSS was
# 64.5 MiB stepping trials one by one, 64.7 MiB in chunks of 32 and
# 69.1 MiB in chunks of 100.
_CHUNK = 32


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one experiment batch.

    ``start_distance`` bounds the angle between each starting subspace and
    its oracle; both sides are drawn independently, so the summed starting
    error is below twice this bound.  ``p`` and ``max_iters`` are the
    block size and step count of the table1 study; the Hamiltonian study
    picks its own block size per trial, always takes ten steps, and
    ignores both.
    """

    experiment: str = "table1"
    n: int = 20
    p: int = 5
    trials: int = 1000
    seed: int = 0
    start_distance: float = 0.1
    max_iters: int = 5
    workers: int = 1

    def __post_init__(self):
        if self.experiment not in _STUDY_KINDS:
            raise ValueError(
                f"experiment must be one of {tuple(_STUDY_KINDS)}, "
                f"got {self.experiment!r}"
            )
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not (0.0 < self.start_distance < math.pi / 2):
            raise ValueError(
                f"start_distance must lie in (0, pi/2), "
                f"got {self.start_distance}"
            )
        if self.experiment == "table1" and not (self.n > self.p >= 1):
            raise ValueError(f"need n > p >= 1, got n={self.n}, p={self.p}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not (0 <= self.seed < 2**64):
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        if self.experiment == "hamiltonian" and (self.n < 2 or self.n % 2):
            raise ValueError(
                f"Hamiltonian study needs even n > 0, got {self.n}"
            )


@dataclass
class ExperimentSummary:
    """Per-iterate error statistics and success accounting for a batch.

    ``p`` is None when the block size varies per trial (the Hamiltonian
    study picks 2 or 4 depending on the target eigenvalue group);
    ``p_counts`` then holds the per-size trial counts.  It holds no
    timing, so repeated runs give equal summaries.
    """

    experiment: str
    n: int
    p: int | None
    trials: int
    seed: int
    per_iterate: list[dict] = field(default_factory=list)
    success_count: int = 0
    success_rate: float = 0.0
    failures: int = 0
    p_counts: dict[int, int] | None = None


def _log10e(value: float) -> float:
    return math.log10(max(float(value), _LOG_FLOOR))


def summarize(
    traces: list[IterationTrace],
    *,
    experiment: str = "custom",
    n: int = 0,
    p: int | None = None,
    seed: int = 0,
    success=None,
) -> ExperimentSummary:
    """Aggregate traces into per-iterate mean/max log10 error statistics.

    ``success`` maps a trace to a bool; the default counts every trace that
    did not fail.  Every trace must carry oracle errors.  Reads no clock.
    """
    if not traces:
        raise ValueError("cannot summarize an empty trace set")
    for t, trace in enumerate(traces):
        errs = trace.errors()
        if trace.status != FAILURE and (
            errs.size == 0 or not np.any(np.isfinite(errs))
        ):
            raise MissingOracleError(
                f"trace {t} has no oracle errors to aggregate"
            )
    if success is None:
        def success(trace):
            return trace.status != FAILURE

    depth = max(trace.iterates for trace in traces)
    per_iterate = []
    for k in range(depth):
        logs = [
            _log10e(trace.records[k].err_sum)
            for trace in traces
            if trace.iterates > k and math.isfinite(trace.records[k].err_sum)
        ]
        if not logs:
            continue
        per_iterate.append(
            {
                "k": k,
                "mean_log10_e": float(np.mean(logs)),
                "max_log10_e": float(np.max(logs)),
            }
        )
    wins = sum(1 for trace in traces if success(trace))
    return ExperimentSummary(
        experiment=experiment,
        n=n,
        p=p,
        trials=len(traces),
        seed=seed,
        per_iterate=per_iterate,
        success_count=wins,
        success_rate=wins / len(traces),
        failures=sum(1 for trace in traces if trace.status == FAILURE),
    )


_INSTANCE_KINDS = (
    "diagonalizable", "hamiltonian", "e-hermitian", "e-skew-hermitian",
)


def _instance(kind, n, p, seed, trial, delta):
    """Trial ``trial`` of seed ``seed`` as (C, E, oracle pair, start pair).

    ``grqi gen`` and both studies draw through here.  E is None for
    ``diagonalizable`` and for ``hamiltonian`` (J is implied); the
    structured kinds perturb the right oracle and start from span(E Y).
    """
    if kind not in _INSTANCE_KINDS:
        raise ValueError(f"kind must be one of {_INSTANCE_KINDS}, not {kind!r}")
    if kind in ("diagonalizable", "e-hermitian") and not (n > p >= 1):
        raise ValueError(f"need n > p >= 1, got n={n}, p={p}")
    rng = trial_rng(seed, trial)
    if kind == "diagonalizable":
        prob = random_diagonalizable(n, p, rng)
        oracle = SubspacePair(left=prob.oracle_left, right=prob.oracle_right)
        start = SubspacePair(
            left=nearby_subspace(oracle.left, delta, rng),
            right=nearby_subspace(oracle.right, delta, rng),
        )
        return prob.matrix, None, oracle, start
    if kind == "e-hermitian":
        c, e = random_e_hermitian(n, rng)
        # Real spectrum: no mirror pairing, target the top-modulus group.
        left, right, _ = eigenspace_pair_oracle(c, p)
        oracle = SubspacePair(left=left, right=right)
    else:
        if kind == "hamiltonian":
            c, e = random_hamiltonian(n, rng), None
        else:
            c, e = random_e_skew_hermitian(n, rng)
        # The target is the first group, so only its basis is built.
        _, s, groups = _mirror_groups(c, e is None)
        oracle = _e_pair(orthonormalize(s[:, groups[0]]), e)
    start = _e_pair(nearby_subspace(oracle.right, delta, rng), e)
    return c, e, oracle, start


def _end_failed(traces, live, failures) -> np.ndarray:
    """Give every trial of ``live`` with a failure its failure status;
    return the mask of the others."""
    for t, exc in zip(live, failures):
        if exc is not None:
            traces[t].status = FAILURE
            traces[t].failure_reason = _failure_text(exc)
    return np.array([exc is None for exc in failures], dtype=bool)


def _step_stack(hamiltonian, c, oracle, start, steps) -> list[IterationTrace]:
    """Trace every trial of a stack through ``steps`` steps, row for row as
    :func:`~grqi.iterations.iterate` records one trial without a
    convergence test; the rows of a trial depend on no other trial.

    ``c`` is (k, n, n); ``oracle`` and ``start`` are pairs of (k, n, p)
    stacks of left and right bases.  A trial whose step fails stops.  The
    Hamiltonian iterate is the pair (span(J Y), Y) of the one-sided
    step on Y.
    """
    (ol, orr), (yl, yr) = oracle, start
    traces = [IterationTrace() for _ in range(len(c))]
    live = np.arange(len(c))
    diags = [StepDiagnostics()] * len(c)
    for index in range(steps + 1):
        res = _residual_angles(c, yr)
        left_err = _principal_angles(yl, ol)
        right_err = _principal_angles(yr, orr)
        for j, t in enumerate(live):
            errors = float(left_err[j]), float(right_err[j])
            _append_row(traces[t], index, errors, float(res[j]), diags[j])
        if index == steps:
            break
        if hamiltonian:
            out = _rayleigh_step(c, yr, yr, e=apply_j)
        else:
            out = _rayleigh_step(c, yl, yr, two_sided=True)
        yr, yl, perturbed, cond, failures = out
        keep = _end_failed(traces, live, failures)
        if not keep.any():
            break
        live, c, ol, orr, yr = (x[keep] for x in (live, c, ol, orr, yr))
        diags = [
            StepDiagnostics(perturbed=f, shift_cond=x)
            for f, x, kept in zip(perturbed, cond, keep) if kept
        ]
        yl = apply_j(yr) if hamiltonian else yl[keep]
        _check_orthonormal(yr)
        _check_orthonormal(yl)
    return traces


def _study_chunk(args) -> list[tuple[IterationTrace, int]]:
    """Study trials ``trials`` (a range), each with its block size (0 when
    it could not be built).  Every trial is drawn alone; trials of equal
    block size and data types are stepped together."""
    experiment, seed, trials, n, p, delta, steps = args
    results, stacks = {}, {}
    for trial in trials:
        try:
            c, _, oracle, start = _instance(
                _STUDY_KINDS[experiment], n, p, seed, trial, delta
            )
        except GrqiError as exc:
            # One all-NaN iterate keeps the failed trial in the trace file.
            trace = IterationTrace(
                [IterationRecord(index=0)], FAILURE, _failure_text(exc)
            )
            results[trial] = trace, 0
            continue
        arrays = (c,) + tuple(
            s.basis for pr in (oracle, start) for s in (pr.left, pr.right)
        )
        # A real basis stacked with complex ones would be stepped in
        # complex arithmetic, and round differently than alone.
        key = (oracle.right.p,) + tuple(x.dtype for x in arrays)
        stacks.setdefault(key, []).append((trial, arrays))
    for (size, *_), members in stacks.items():
        c, ol, orr, yl, yr = map(np.stack, zip(*(a for _, a in members)))
        traces = _step_stack(
            experiment == "hamiltonian", c, (ol, orr), (yl, yr), steps
        )
        for (trial, _), trace in zip(members, traces):
            results[trial] = trace, size
    return [results[t] for t in trials]


def _run_batch(worker, args_list, workers: int) -> list:
    if workers <= 1:
        return [worker(args) for args in args_list]
    chunk = max(1, len(args_list) // (8 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, args_list, chunksize=chunk))


def _run_study(
    experiment: str, cfg: ExperimentConfig, steps: int, success=None
) -> tuple[ExperimentSummary, list[IterationTrace]]:
    """Run and summarize a study; the Hamiltonian block size varies per
    trial, so its summary counts trials per size instead of one ``p``."""
    if cfg.experiment != experiment:
        raise ValueError(
            f"{experiment} study given a config for {cfg.experiment!r}"
        )
    args = [
        (experiment, cfg.seed, range(t, min(t + _CHUNK, cfg.trials)), cfg.n,
         cfg.p, cfg.start_distance, steps)
        for t in range(0, cfg.trials, _CHUNK)
    ]
    chunks = _run_batch(_study_chunk, args, cfg.workers)
    results = [result for chunk in chunks for result in chunk]
    traces = [trace for trace, _ in results]
    fixed_p = experiment == "table1"
    summary = summarize(
        traces, experiment=experiment, n=cfg.n, p=cfg.p if fixed_p else None,
        seed=cfg.seed, success=success,
    )
    if not fixed_p:
        sizes = Counter(p for _, p in results if p)
        summary.p_counts = dict(sorted(sizes.items()))
    return summary, traces


def run_table1(
    cfg: ExperimentConfig,
) -> tuple[ExperimentSummary, list[IterationTrace]]:
    """Refine random left/right eigenspace pairs for a fixed step budget.

    Each trial draws a fresh diagonalizable matrix, perturbs both oracle
    subspaces by an angle below ``start_distance``, and runs exactly
    ``max_iters`` two-sided steps, recording the oracle error at every
    iterate.  Failed trials are tallied in the summary, never raised.
    """
    return _run_study("table1", cfg, cfg.max_iters)


def hamiltonian_success(trace: IterationTrace) -> bool:
    """Success rule of the Hamiltonian study: summed oracle error below
    1e-12 at the tenth iterate."""
    if trace.status == FAILURE or trace.iterates <= _HAMILTONIAN_ITERS:
        return False
    return trace.records[_HAMILTONIAN_ITERS].err_sum < _SUCCESS_TOL


def run_hamiltonian(
    cfg: ExperimentConfig,
) -> tuple[ExperimentSummary, list[IterationTrace]]:
    """Success-rate study of the one-sided step on Hamiltonian matrices.

    Each trial targets the full eigenvalue group of largest absolute real
    part (a pair for real eigenvalues, a quadruple for complex ones), so
    the block size is 2 or 4 per trial; the left iterate is recovered from
    the right one through the structure map rather than iterated.
    """
    return _run_study(
        "hamiltonian", cfg, _HAMILTONIAN_ITERS, hamiltonian_success
    )


# The trace CSV columns of one IterationRecord, between ``trial`` and
# ``status``: (column, record field, parse).  Floats are written in exact
# round-trip form, the other fields as integers.
_RECORD_COLUMNS = (
    ("iterate", "index", int),
    ("right_err", "right_err", float),
    ("left_err", "left_err", float),
    ("e", "err_sum", float),
    ("residual_angle", "residual", float),
    ("perturbed", "perturbed", lambda text: {"0": False, "1": True}[text]),
    ("shift_cond", "shift_cond", float),
)
_CSV_COLUMNS = (
    "trial", *(c for c, _, _ in _RECORD_COLUMNS), "status", "failure_reason"
)


def write_traces(path: str | os.PathLike, traces: list[IterationTrace]) -> None:
    """Write traces as CSV, one row per iterate, floats in exact
    round-trip form.  Every trace needs at least one record, or it could
    not be read back."""
    for t, trace in enumerate(traces):
        if not trace.records:
            raise ValueError(f"trace {t} has no records to write")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for t, trace in enumerate(traces):
            for rec in trace.records:
                writer.writerow([t, *(
                    repr(float(getattr(rec, f))) if parse is float
                    else int(getattr(rec, f)) for _, f, parse in _RECORD_COLUMNS
                ), trace.status, trace.failure_reason or ""])


def read_traces(path: str | os.PathLike) -> list[IterationTrace]:
    """Read a CSV trace file back into traces, grouped by trial column.
    :class:`~grqi.errors.ParseError` names the first line that
    :func:`write_traces` cannot write: a bad header, field or status, a
    skipped trial, or a trial whose status or failure reason changes or
    whose iterate column does not count 0, 1, 2, ..."""
    path = os.fspath(path)
    traces: list[IterationTrace] = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if lineno == 1:
                if tuple(row) != _CSV_COLUMNS:
                    raise ParseError(
                        f"unexpected header {row!r}", path=path, line=1
                    )
                continue
            if len(row) != len(_CSV_COLUMNS):
                raise ParseError(
                    f"expected {len(_CSV_COLUMNS)} fields, got {len(row)}",
                    path=path,
                    line=lineno,
                )
            try:
                trial = int(row[0])
                rec = IterationRecord(**{
                    name: parse(text)
                    for (_, name, parse), text in zip(_RECORD_COLUMNS, row[1:])
                })
            except (KeyError, ValueError):
                raise ParseError(
                    f"malformed row {row!r}", path=path, line=lineno
                ) from None
            status = (row[-2], row[-1] or None)
            if trial == len(traces):
                traces.append(IterationTrace([], *status))
            if not 0 <= trial == len(traces) - 1:
                problem = f"trial column jumped to {trial}"
            elif status[0] not in (CONVERGED, MAX_ITERS, FAILURE):
                problem = f"unknown status {status[0]!r}"
            elif status != (traces[-1].status, traces[-1].failure_reason):
                problem = f"status or failure_reason changed in trial {trial}"
            elif rec.index != traces[-1].iterates:
                problem = f"iterate {rec.index}, expected {traces[-1].iterates}"
            else:
                traces[-1].records.append(rec)
                continue
            raise ParseError(problem, path=path, line=lineno)
    return traces


def summary_json(summary: ExperimentSummary) -> str:
    """Serialize the summary to JSON with a fixed key set.

    The summary holds no timing, so identical seeds produce
    byte-identical documents.
    """
    doc = {
        "experiment": summary.experiment,
        "n": summary.n,
        "p": summary.p,
        "trials": summary.trials,
        "seed": summary.seed,
        "per_iterate": summary.per_iterate,
        "success_rate": summary.success_rate,
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def write_summary(path: str | os.PathLike, summary: ExperimentSummary) -> None:
    with open(path, "w") as fh:
        fh.write(summary_json(summary))


def format_table(summary: ExperimentSummary) -> str:
    """Render the per-iterate statistics as a three-column text table."""
    lines = [f"{'iterate':>7}  {'mean(log10 e)':>14}  {'max(log10 e)':>13}"]
    for row in summary.per_iterate:
        lines.append(
            f"{row['k']:>7}  {row['mean_log10_e']:>14.4f}  "
            f"{row['max_log10_e']:>13.4f}"
        )
    return "\n".join(lines)
