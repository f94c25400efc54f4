import json

import numpy as np
import pytest

from grqi import (
    CONVERGED,
    ExperimentConfig,
    FAILURE,
    GramSingularError,
    IterationRecord,
    IterationTrace,
    MissingOracleError,
    NearDefectiveError,
    ParseError,
    format_table,
    complement_basis,
    full_eigenspace_targets,
    hamiltonian_step,
    hamiltonian_success,
    j_matrix,
    largest_principal_angle,
    read_traces,
    run_hamiltonian,
    run_table1,
    summarize,
    summary_json,
    tsgrqi_step,
    write_summary,
    write_traces,
)
from grqi.experiments import _instance, _step_stack, _study_chunk
from grqi.iterations import SubspacePair
from grqi.kernels import Subspace
from grqi.structured import apply_j


def records_match(a, b):
    # bitwise field comparison, treating NaN as equal to NaN
    if (a.index, a.perturbed) != (b.index, b.perturbed):
        return False
    for name in ("right_err", "left_err", "err_sum", "residual", "shift_cond"):
        x, y = getattr(a, name), getattr(b, name)
        if not (x == y or (np.isnan(x) and np.isnan(y))):
            return False
    return True


def synthetic_trace(errs, status=CONVERGED):
    records = [
        IterationRecord(
            index=k,
            right_err=e / 2.0,
            left_err=e / 2.0,
            err_sum=e,
            residual=e,
            perturbed=bool(k % 2),
            shift_cond=1.0 + k,
        )
        for k, e in enumerate(errs)
    ]
    return IterationTrace(records=records, status=status)


# ----------------------------------------------------------------- config


def test_config_defaults_are_valid():
    cfg = ExperimentConfig()
    assert cfg.experiment == "table1"
    assert (cfg.n, cfg.p, cfg.trials) == (20, 5, 1000)


def test_config_hamiltonian_ignores_p():
    # The Hamiltonian study picks its block size per trial.
    cfg = ExperimentConfig(experiment="hamiltonian", n=4, p=5)
    assert cfg.n == 4


@pytest.mark.parametrize(
    "kwargs",
    [
        {"trials": 0},
        {"start_distance": 0.0},
        {"start_distance": np.pi / 2},
        {"n": 5, "p": 5},
        {"n": 4, "p": 6},
        {"experiment": "unknown"},
        {"workers": 0},
        {"max_iters": 0},
        {"seed": -1},
        {"experiment": "refine"},
        {"experiment": "custom"},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs)


# -------------------------------------------------------------- summarize


def test_summarize_log10_means():
    s = summarize([synthetic_trace([0.1, 1e-5])], n=4, p=1)
    assert len(s.per_iterate) == 2
    assert s.per_iterate[0]["mean_log10_e"] == pytest.approx(-1.0)
    assert s.per_iterate[1]["mean_log10_e"] == pytest.approx(-5.0)
    assert s.success_count == 1
    assert s.success_rate == 1.0


def test_summarize_max_is_elementwise():
    t1 = synthetic_trace([0.1, 1e-6])
    t2 = synthetic_trace([0.01, 1e-3])
    s = summarize([t1, t2], n=4, p=1)
    assert s.per_iterate[0]["max_log10_e"] == pytest.approx(-1.0)
    assert s.per_iterate[1]["max_log10_e"] == pytest.approx(-3.0)
    assert s.per_iterate[0]["mean_log10_e"] == pytest.approx(-1.5)


def test_summarize_mean_never_exceeds_max():
    traces = [synthetic_trace([10.0 ** -k, 10.0 ** -(k + 3)]) for k in range(1, 6)]
    s = summarize(traces, n=4, p=1)
    for row in s.per_iterate:
        assert row["mean_log10_e"] <= row["max_log10_e"] + 1e-12


def test_summarize_floors_tiny_errors():
    s = summarize([synthetic_trace([0.0])], n=4, p=1)
    assert s.per_iterate[0]["mean_log10_e"] == pytest.approx(-300.0)


def test_summarize_requires_oracle_errors():
    t = IterationTrace(
        records=[IterationRecord(index=0)], status=CONVERGED
    )
    with pytest.raises(MissingOracleError):
        summarize([t], n=4, p=1)


def test_summarize_rejects_empty_batch():
    with pytest.raises(ValueError):
        summarize([], n=4, p=1)


def test_summarize_counts_failures_without_oracle_rows():
    good = synthetic_trace([0.1, 1e-8])
    bad = IterationTrace(
        records=[IterationRecord(index=0)],
        status=FAILURE,
        failure_reason="GramSingularError: test",
    )
    s = summarize([good, bad], n=4, p=1)
    assert s.trials == 2
    assert s.success_count == 1
    assert s.success_rate == pytest.approx(0.5)
    assert s.failures == 1


def test_summarize_custom_success_predicate():
    t1 = synthetic_trace([0.1, 1e-8])
    t2 = synthetic_trace([0.1, 1e-2])
    s = summarize(
        [t1, t2],
        n=4,
        p=1,
        success=lambda t: t.records[-1].err_sum < 1e-6,
    )
    assert s.success_count == 1


# ------------------------------------------------------------- run_table1


@pytest.fixture(scope="module")
def table1_small():
    cfg = ExperimentConfig(trials=25, seed=11)
    return cfg, run_table1(cfg)


def test_table1_shape_and_sanity(table1_small):
    cfg, (summary, traces) = table1_small
    assert summary.trials == 25
    assert len(traces) == 25
    assert len(summary.per_iterate) == 6  # iterates 0..5
    assert summary.per_iterate[0]["k"] == 0
    # both start angles are below 0.1, so e0 <= 0.2
    assert summary.per_iterate[0]["max_log10_e"] <= np.log10(0.2) + 1e-12
    # cubic cascade reaches working precision by iterate 3
    assert summary.per_iterate[3]["mean_log10_e"] <= -12.0
    assert summary.success_rate == 1.0


def test_table1_trace_records_are_complete(table1_small):
    _, (_, traces) = table1_small
    for trace in traces:
        assert [r.index for r in trace.records] == list(range(6))
        for r in trace.records:
            assert np.isfinite(r.err_sum)
            assert r.err_sum >= 0.0
            assert np.isclose(r.err_sum, r.right_err + r.left_err)


def test_table1_determinism(table1_small):
    cfg, (summary, traces) = table1_small
    summary2, traces2 = run_table1(cfg)
    assert summary_json(summary) == summary_json(summary2)
    for a, b in zip(traces, traces2):
        assert a.status == b.status
        for ra, rb in zip(a.records, b.records):
            assert ra == rb


def test_table1_workers_do_not_change_results(table1_small):
    cfg, (summary, _) = table1_small
    cfg2 = ExperimentConfig(trials=25, seed=11, workers=3)
    summary2, _ = run_table1(cfg2)
    assert summary_json(summary) == summary_json(summary2)


def test_table1_refuses_a_hamiltonian_config(monkeypatch):
    monkeypatch.setattr("grqi.experiments._instance", None)  # draws nothing
    with pytest.raises(ValueError, match="table1 study given a config for "
                                         "'hamiltonian'"):
        run_table1(ExperimentConfig(experiment="hamiltonian", n=4, trials=3))


def test_table1_csv_roundtrip(tmp_path, table1_small):
    cfg, (summary, traces) = table1_small
    failed = IterationTrace(
        records=[IterationRecord(index=0)],
        status=FAILURE,
        failure_reason="GramSingularError: singular, \"quoted\" reason",
    )
    path = tmp_path / "traces.csv"
    write_traces(path, traces + [failed])
    back = read_traces(path)
    assert len(back) == len(traces) + 1
    for a, b in zip(traces + [failed], back):
        assert a.status == b.status
        assert a.failure_reason == b.failure_reason
        for ra, rb in zip(a.records, b.records):
            assert records_match(ra, rb)  # repr round-trip keeps floats bitwise
    assert back[-1].failure_reason == failed.failure_reason
    s2 = summarize(
        back[:-1],
        experiment=summary.experiment,
        n=summary.n,
        p=summary.p,
        seed=summary.seed,
    )
    assert summary_json(s2) == summary_json(summary)


def test_write_traces_rejects_trace_without_records(tmp_path):
    with pytest.raises(ValueError):
        write_traces(tmp_path / "t.csv", [synthetic_trace([0.1]), IterationTrace()])


# --------------------------------------------------------- run_hamiltonian


@pytest.fixture(scope="module")
def hamiltonian_small():
    cfg = ExperimentConfig(
        experiment="hamiltonian", n=12, p=2, trials=60, seed=5, max_iters=10
    )
    return cfg, run_hamiltonian(cfg)


def test_hamiltonian_success_rate(hamiltonian_small):
    _, (summary, traces) = hamiltonian_small
    assert summary.trials == 60
    assert summary.success_rate >= 0.9
    assert summary.p is None  # block size varies per trial
    assert summary.p_counts is not None
    assert set(summary.p_counts) <= {2, 4}
    assert sum(summary.p_counts.values()) + summary.failures == 60


def test_hamiltonian_success_criterion(hamiltonian_small):
    _, (summary, traces) = hamiltonian_small
    for trace in traces:
        if trace.status == FAILURE:
            assert not hamiltonian_success(trace)
            continue
        expected = trace.records[10].err_sum < 1e-12
        assert hamiltonian_success(trace) == expected
    assert summary.success_count == sum(hamiltonian_success(t) for t in traces)


def test_hamiltonian_rejects_odd_n():
    with pytest.raises(ValueError):
        run_hamiltonian(ExperimentConfig(experiment="hamiltonian", n=7, p=2, trials=1))


def test_hamiltonian_refuses_a_table1_config(monkeypatch):
    monkeypatch.setattr("grqi.experiments._instance", None)  # draws nothing
    with pytest.raises(ValueError, match="hamiltonian study given a config "
                                         "for 'table1'"):
        run_hamiltonian(ExperimentConfig(n=5, p=2, trials=3))


def test_hamiltonian_workers_determinism():
    cfg1 = ExperimentConfig(experiment="hamiltonian", n=8, p=2, trials=20, seed=3)
    cfg2 = ExperimentConfig(
        experiment="hamiltonian", n=8, p=2, trials=20, seed=3, workers=2
    )
    s1, _ = run_hamiltonian(cfg1)
    s2, _ = run_hamiltonian(cfg2)
    assert summary_json(s1) == summary_json(s2)


def test_hamiltonian_trial_qr_budget(monkeypatch):
    # One trial factors 24 bases: two for the start, one for the target,
    # one per step and one per residual.  Orthonormalizing J Y or the
    # groups the study does not target would push it past 25.  A stacked
    # call factors a matrix per entry of its leading axes, so those count.
    factored = []
    qr = np.linalg.qr

    def counting_qr(a, *args, **kwargs):
        factored.append(int(np.prod(np.shape(a)[:-2])))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    trials = 20
    run_hamiltonian(
        ExperimentConfig(experiment="hamiltonian", n=20, trials=trials, seed=3)
    )
    assert sum(factored) <= 25 * trials


@pytest.mark.parametrize("kind", ["hamiltonian", "e-skew-hermitian"])
@pytest.mark.parametrize(
    "seed, trial", [(0, 0), (3, 7), (11, 42), (5023667284082138044, 65)]
)
def test_instance_targets_first_full_eigenspace_group(kind, seed, trial):
    c, e, oracle, _ = _instance(kind, 20, 2, seed, trial, 0.1)
    target = full_eigenspace_targets(
        c, j_matrix(20) if e is None else e, conjugate_closed=e is None
    )[0]
    assert np.array_equal(oracle.right.basis, target.right.basis)
    assert largest_principal_angle(oracle.left, target.left) <= 1e-14


@pytest.mark.parametrize("kind", ["e-skew", "table1", "hermitian"])
def test_instance_refuses_unknown_kind(kind):
    with pytest.raises(ValueError, match=f"not '{kind}'$"):
        _instance(kind, 6, 2, 0, 0, 0.1)


def check_build_failures_recorded(
    tmp_path, monkeypatch, patched, runner, cfg
):
    # Every trial's instance build raises: each trial must be kept as one
    # failed row whose reason survives the CSV round trip.
    import grqi.experiments

    def refuse(*args, **kwargs):
        raise NearDefectiveError("grouping would be unreliable")

    monkeypatch.setattr(grqi.experiments, patched, refuse)
    summary, traces = runner(cfg)
    assert summary.failures == 3
    assert summary.success_count == 0
    path = tmp_path / "h.csv"
    write_traces(path, traces)
    back = read_traces(path)
    assert len(back) == 3
    for trace in back:
        assert trace.status == FAILURE
        assert trace.failure_reason == (
            "NearDefectiveError: grouping would be unreliable"
        )
        assert trace.iterates == 1


def test_hamiltonian_target_failure_is_recorded(tmp_path, monkeypatch):
    cfg = ExperimentConfig(experiment="hamiltonian", n=8, p=2, trials=3)
    check_build_failures_recorded(
        tmp_path, monkeypatch, "_mirror_groups", run_hamiltonian, cfg
    )


def test_table1_build_failure_is_recorded(tmp_path, monkeypatch):
    cfg = ExperimentConfig(experiment="table1", n=8, p=2, trials=3)
    check_build_failures_recorded(
        tmp_path, monkeypatch, "random_diagonalizable", run_table1, cfg
    )


# ---------------------------------------------------------- stacked driver

STUDIES = {
    "table1": (run_table1, {}),
    "hamiltonian": (run_hamiltonian, {"experiment": "hamiltonian"}),
}


def study_bytes(tmp_path, study, **kwargs):
    runner, extra = STUDIES[study]
    summary, traces = runner(ExperimentConfig(n=20, **extra, **kwargs))
    path = tmp_path / f"{study}-{len(traces)}.csv"
    write_traces(path, traces)
    return summary_json(summary), path.read_bytes()


@pytest.mark.parametrize("study", sorted(STUDIES))
def test_study_rows_do_not_depend_on_chunk_or_workers(
    tmp_path, monkeypatch, study
):
    # 70 trials span three 32-trial chunks; their first rows are those of
    # a 5-trial run, and neither one chunk per trial nor two workers
    # moves a byte.
    few = study_bytes(tmp_path, study, trials=5, seed=7)[1].splitlines()
    many = study_bytes(tmp_path, study, trials=70, seed=7)
    rows = many[1].splitlines()
    assert rows[: len(few)] == few
    assert int(rows[len(few)].split(b",")[0]) == 5
    assert study_bytes(tmp_path, study, trials=70, seed=7, workers=2) == many
    monkeypatch.setattr("grqi.experiments._CHUNK", 1)
    assert study_bytes(tmp_path, study, trials=70, seed=7) == many


def chunk_traces(tmp_path, experiment, trials, steps):
    """Trace bytes of ``trials`` stepped as one stack and one by one."""
    args = (experiment, 0, trials, 20, 5, 0.1, steps)
    together = [trace for trace, _ in _study_chunk(args)]
    alone = [
        _study_chunk(args[:2] + (range(t, t + 1),) + args[3:])[0][0]
        for t in trials
    ]
    out = []
    for name, traces in (("together", together), ("alone", alone)):
        write_traces(tmp_path / name, traces)
        out.append((tmp_path / name).read_bytes())
    return together, out


def test_complex_shift_trial_rows_do_not_depend_on_its_chunk(tmp_path):
    # Seed 0, trial 403 has complex quotient shifts from iterate 1 on.
    c, _, _, start = _instance("diagonalizable", 20, 5, 0, 403, 0.1)
    pair, _ = tsgrqi_step(c, start)
    yl, yr = pair.left.basis, pair.right.basis
    quotient = np.linalg.solve(yl.conj().T @ yr, yl.conj().T @ c @ yr)
    assert np.any(np.linalg.eigvals(quotient).imag != 0.0)
    _, (together, alone) = chunk_traces(tmp_path, "table1", range(400, 410), 5)
    assert together == alone


def test_stacked_steps_agree_with_public_steps(tmp_path):
    # Replays from the same start through the one-problem steps; the
    # stacked solves round differently, within 1e-12 + 1e-8 e.
    cases = [
        ("table1", "diagonalizable", range(400, 410), 5),
        ("hamiltonian", "hamiltonian", range(3), 10),
    ]
    for experiment, kind, trials, steps in cases:
        traces, _ = chunk_traces(tmp_path, experiment, trials, steps)
        for trial, trace in zip(trials, traces):
            c, _, oracle, state = _instance(kind, 20, 5, 0, trial, 0.1)
            for rec in trace.records:
                if rec.index:
                    if experiment == "table1":
                        state, _ = tsgrqi_step(c, state)
                    else:
                        y = hamiltonian_step(c, state.right)
                        state = SubspacePair(
                            left=Subspace(apply_j(y.basis)), right=y
                        )
                e = largest_principal_angle(
                    state.left, oracle.left
                ) + largest_principal_angle(state.right, oracle.right)
                assert abs(e - rec.err_sum) <= 1e-12 + 1e-8 * rec.err_sum


def test_step_failure_stays_in_its_trial(tmp_path, monkeypatch):
    # Trial 3 starts with its left basis orthogonal to its right one: its
    # first step fails on the cross Gram matrix, as the public step does,
    # and the seven trials stepped beside it keep their unpatched rows.
    import grqi.experiments

    def orthogonal_start(kind, n, p, seed, trial, delta):
        c, e, oracle, start = _instance(kind, n, p, seed, trial, delta)
        if trial == 3:
            left = Subspace(complement_basis(start.right)[:, :p])
            start = SubspacePair(left=left, right=start.right)
        return c, e, oracle, start

    cfg = ExperimentConfig(trials=8, seed=5)
    _, clean = run_table1(cfg)
    monkeypatch.setattr(grqi.experiments, "_instance", orthogonal_start)
    _, traces = run_table1(cfg)
    c, _, _, start = orthogonal_start("diagonalizable", 20, 5, 5, 3, 0.1)
    with pytest.raises(GramSingularError) as info:
        tsgrqi_step(c, start)
    assert traces[3].status == FAILURE
    assert traces[3].iterates == 1
    assert traces[3].failure_reason == f"GramSingularError: {info.value}"
    for t in (0, 1, 2, 4, 5, 6, 7):
        assert traces[t].status == clean[t].status
        assert traces[t].iterates == clean[t].iterates
        for a, b in zip(traces[t].records, clean[t].records):
            assert records_match(a, b)


def test_stack_whose_every_trial_fails_keeps_one_row_each():
    # Every left start is orthogonal to its right start, so the whole
    # stack fails its first step on the cross Gram matrix.
    e = np.eye(4)
    c = np.stack([np.diag([1.0, 2.0, 3.0, 4.0])] * 2)
    c[1] = c[1] @ c[1]
    yl = np.stack([e[:, 2:]] * 2)
    yr = np.stack([e[:, :2]] * 2)
    traces = _step_stack(False, c, (yl, yr), (yl, yr), 5)
    for t, trace in enumerate(traces):
        start = SubspacePair(left=Subspace(yl[t]), right=Subspace(yr[t]))
        with pytest.raises(GramSingularError) as info:
            tsgrqi_step(c[t], start)
        assert trace.status == FAILURE
        assert trace.failure_reason == f"GramSingularError: {info.value}"
        assert [r.index for r in trace.records] == [0]
        assert trace.records[0].err_sum == 0.0


# ------------------------------------------------------------- serialization


def test_summary_json_keys_and_layout(table1_small):
    _, (summary, _) = table1_small
    doc = json.loads(summary_json(summary))
    assert list(doc) == [
        "experiment",
        "n",
        "p",
        "trials",
        "seed",
        "per_iterate",
        "success_rate",
    ]
    assert doc["experiment"] == "table1"
    assert list(doc["per_iterate"][0]) == ["k", "mean_log10_e", "max_log10_e"]
    # wall time must never leak into the serialized form
    assert "wall" not in summary_json(summary)


def test_summary_json_null_p(hamiltonian_small):
    _, (summary, _) = hamiltonian_small
    doc = json.loads(summary_json(summary))
    assert doc["p"] is None


def test_write_summary_file_matches_string(tmp_path, table1_small):
    _, (summary, _) = table1_small
    path = tmp_path / "summary.json"
    write_summary(path, summary)
    assert path.read_text() == summary_json(summary)


def test_format_table_layout(table1_small):
    _, (summary, _) = table1_small
    lines = format_table(summary).splitlines()
    assert len(lines) == 1 + 6
    header = lines[0].split()
    assert header[0] == "iterate"
    row0 = lines[1].split()
    assert int(row0[0]) == 0
    float(row0[1]), float(row0[2])  # numeric columns


def test_read_traces_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("not,a,trace\n1,2,3\n")
    with pytest.raises(Exception):
        read_traces(path)


def _two_trial_csv(tmp_path):
    """A trace file of a converged and a failed trial, two rows each; the
    rows are lines 2-5."""
    traces = [
        IterationTrace(
            [IterationRecord(index=k, residual=0.1 * k) for k in range(2)],
            status,
            reason,
        )
        for status, reason in ((CONVERGED, None), (FAILURE, "E: why"))
    ]
    path = tmp_path / "t.csv"
    write_traces(path, traces)
    return path, traces


@pytest.mark.parametrize(
    "line,old,new,message",
    [
        (2, ",converged,", ",bogus,", "unknown status 'bogus'"),
        (3, ",converged,", ",failure,", "changed in trial 0"),
        (5, "E: why", "E: other", "changed in trial 1"),
        (4, ",0,nan,failure", ",7,nan,failure", "malformed row"),
        (3, "0,1,", "0,2,", "iterate 2, expected 1"),
        (3, "0,1,", "0,0,", "iterate 0, expected 1"),
        (2, "0,0,", "0,1,", "iterate 1, expected 0"),
        (4, "1,0,", "2,0,", "trial column jumped to 2"),
    ],
    ids=["status", "status-change", "reason-change", "perturbed",
         "iterate-skips", "iterate-repeats", "iterate-start", "trial-skips"],
)
def test_read_traces_rejects_corrupt_rows(tmp_path, line, old, new, message):
    path, traces = _two_trial_csv(tmp_path)
    back = read_traces(path)
    assert [(t.status, t.failure_reason) for t in back] == [
        (t.status, t.failure_reason) for t in traces
    ]
    assert all(records_match(a, b) for t, u in zip(traces, back)
               for a, b in zip(t.records, u.records))
    lines = path.read_text().splitlines(keepends=True)
    assert old in lines[line - 1]
    lines[line - 1] = lines[line - 1].replace(old, new, 1)
    path.write_text("".join(lines))
    with pytest.raises(ParseError, match=message) as info:
        read_traces(path)
    assert info.value.line == line
