"""End-to-end acceptance batteries.

Slower than the unit modules; each test is one self-contained criterion
with pinned tolerances and prints a single pass/fail line under -v.
"""
import math
import time

import numpy as np

from grqi import (
    ExperimentConfig,
    PencilPair,
    SubspacePair,
    complement_basis,
    grqi_step,
    j_matrix,
    largest_principal_angle,
    nearby_subspace,
    orthonormalize,
    pencil_tsgrqi_step,
    random_diagonalizable,
    random_e_hermitian,
    random_e_skew_hermitian,
    random_hamiltonian,
    run_hamiltonian,
    run_table1,
    summary_json,
    sylvester_solve,
    trial_rng,
    tsgrqi_step,
)

from _reference import hermitian_angle, two_sided_rqi_step
from order_fit import paper_orders

LOG_FLOOR = 1e-300


def log10e(value):
    return math.log10(max(value, LOG_FLOOR))


def test_acc1_table1_error_profile():
    t0 = time.monotonic()
    cfg = ExperimentConfig(
        n=20, p=5, trials=1000, seed=0, start_distance=0.1, max_iters=5
    )
    summary, traces = run_table1(cfg)
    rows = {row["k"]: row for row in summary.per_iterate}
    assert rows[1]["mean_log10_e"] <= -4.0, rows[1]
    assert rows[2]["mean_log10_e"] <= -12.0, rows[2]
    for k in (3, 4, 5):
        assert rows[k]["mean_log10_e"] <= -14.0, rows[k]
    hit = sum(
        1
        for tr in traces
        if len(tr.records) > 3 and log10e(tr.records[3].err_sum) <= -13.0
    )
    assert hit >= 0.99 * cfg.trials, f"iterate-3 hits: {hit}/{cfg.trials}"
    assert time.monotonic() - t0 < 120.0


def test_acc2_hamiltonian_success_rates():
    t0 = time.monotonic()
    rates = {}
    for start in (0.1, 0.001):
        cfg = ExperimentConfig(
            experiment="hamiltonian",
            n=20,
            p=2,
            trials=10_000,
            seed=0,
            start_distance=start,
        )
        summary, _ = run_hamiltonian(cfg)
        rates[start] = summary.success_rate
    assert rates[0.1] >= 0.995, rates
    assert rates[0.001] >= 0.999, rates
    assert time.monotonic() - t0 < 300.0


def test_acc3_cubic_order_regression():
    # Contraction order fitted as the regression slope of log10(e1) on
    # log10(e0) across the ensemble; a direct 3-point fit saturates at the
    # arithmetic floor from these start distances.
    two_sided, newton, newton_herm = paper_orders(100, 20, 5, 77, 1e-2)
    assert two_sided >= 2.5, two_sided
    assert 1.8 <= newton <= 2.7, newton
    assert newton_herm >= 2.5, newton_herm


def test_acc4_tangent_formula_battery():
    rng = np.random.default_rng(20260816)
    failures = 0
    for t in range(1000):
        n = int(rng.integers(2, 31))
        p = int(rng.integers(1, n))
        z = rng.standard_normal((n, p))
        if t % 2:
            z = z + 1j * rng.standard_normal((n, p))
        x = orthonormalize(z)
        xp = complement_basis(x)
        k = rng.standard_normal((n - p, p)) * 10.0 ** rng.uniform(-6, 1)
        nk = np.linalg.norm(k, 2)
        v = orthonormalize(x.basis + xp @ k)
        lhs = np.tan(largest_principal_angle(x, v))
        if abs(lhs - nk) > 1e-8 * (1.0 + nk * nk):
            failures += 1
    assert failures == 0


def test_acc5_structure_invariance_battery():
    worst = 0.0
    failures = 0

    def check(c, e, rng, n, p):
        nonlocal worst, failures
        z = rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))
        yr = orthonormalize(z)
        yl = orthonormalize(e @ yr.basis)
        try:
            pair, _ = tsgrqi_step(c, SubspacePair(left=yl, right=yr))
            ang = largest_principal_angle(
                pair.left, orthonormalize(e @ pair.right.basis)
            )
        except Exception:
            failures += 1
            return
        worst = max(worst, ang)
        if ang > 1e-9:
            failures += 1

    for t in range(500):
        rng = trial_rng(50001, t)
        n = int(rng.integers(4, 13))
        p = int(rng.integers(1, 4))
        c, e = random_e_hermitian(n, rng)
        check(c, e, rng, n, p)
    for t in range(500):
        rng = trial_rng(50002, t)
        n = int(rng.integers(4, 13))
        p = int(rng.integers(1, 4))
        if t % 2:
            n += n % 2
            c = random_hamiltonian(n, rng)
            e = j_matrix(n)
        else:
            c, e = random_e_skew_hermitian(n, rng)
        check(c, e, rng, n, p)
    assert failures == 0, f"failures={failures} worst={worst:.3e}"


def test_acc6_degeneration_battery():
    herm_fail = 0
    for t in range(200):
        rng = trial_rng(60001, t)
        n = int(rng.integers(4, 16))
        p = int(rng.integers(1, 4))
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, _ = np.linalg.qr(z)
        d = rng.permutation(np.arange(1.0, n + 1.0))
        c = (q * d) @ q.conj().T
        c = (c + c.conj().T) / 2.0
        y = orthonormalize(
            rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))
        )
        two, _ = tsgrqi_step(c, SubspacePair(left=y, right=y))
        one = grqi_step(c, y)
        if (
            largest_principal_angle(two.right, one) > 1e-10
            or largest_principal_angle(two.left, one) > 1e-10
        ):
            herm_fail += 1

    vector_fail = 0
    for t in range(200):
        rng = trial_rng(60002, t)
        n = int(rng.integers(3, 12))
        prob = random_diagonalizable(n, 1, rng)
        yl = nearby_subspace(prob.oracle_left, 0.05, rng)
        yr = nearby_subspace(prob.oracle_right, 0.05, rng)
        pair, _ = tsgrqi_step(prob.matrix, SubspacePair(left=yl, right=yr))
        v, u, _ = two_sided_rqi_step(
            prob.matrix, yl.basis[:, 0], yr.basis[:, 0]
        )
        if (
            hermitian_angle(pair.right.basis[:, 0], u) > 1e-10
            or hermitian_angle(pair.left.basis[:, 0], v) > 1e-10
        ):
            vector_fail += 1

    pencil_fail = 0
    for t in range(200):
        rng = trial_rng(60003, t)
        n = int(rng.integers(4, 16))
        p = int(rng.integers(1, 4))
        prob = random_diagonalizable(n, p, rng)
        yl = nearby_subspace(prob.oracle_left, 0.05, rng)
        yr = nearby_subspace(prob.oracle_right, 0.05, rng)
        plain, _ = tsgrqi_step(prob.matrix, SubspacePair(left=yl, right=yr))
        pen, _ = pencil_tsgrqi_step(
            prob.matrix, np.eye(n), PencilPair(hatted_left=yl, right=yr)
        )
        if (
            largest_principal_angle(pen.right, plain.right) > 1e-9
            or largest_principal_angle(pen.hatted_left, plain.left) > 1e-9
        ):
            pencil_fail += 1

    assert herm_fail == 0, herm_fail
    assert vector_fail == 0, vector_fail
    assert pencil_fail == 0, pencil_fail


def test_acc7_sylvester_closed_form_grid():
    for delta in (0.1, 0.01):
        for eta in (0.01, 0.001):
            a = np.array([[0.0, 1.0], [0.0, delta]])
            b = a + np.diag([eta, eta / 2.0])
            x = sylvester_solve(a, b, np.eye(2))
            ref = np.array(
                [
                    [-1.0 / eta, -2.0 / (eta * (2.0 * delta + eta))],
                    [0.0, -2.0 / eta],
                ]
            )
            rel = np.linalg.norm(x - ref) / np.linalg.norm(ref)
            assert rel <= 1e-8, (delta, eta, rel)


def test_acc8_repeated_runs_identical_summaries():
    cfg = ExperimentConfig(n=10, p=3, trials=40, seed=123)
    s1, _ = run_table1(cfg)
    s2, _ = run_table1(cfg)
    assert summary_json(s1).encode() == summary_json(s2).encode()

    hcfg = ExperimentConfig(
        experiment="hamiltonian", n=8, p=2, trials=30, seed=9
    )
    h1, _ = run_hamiltonian(hcfg)
    h2, _ = run_hamiltonian(hcfg)
    assert summary_json(h1).encode() == summary_json(h2).encode()
