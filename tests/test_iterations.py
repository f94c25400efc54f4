import numpy as np
import pytest

from grqi import (
    CONVERGED,
    FAILURE,
    GramSingularError,
    MAX_ITERS,
    NotHermitianError,
    RankDeficientError,
    SolveFailedError,
    SpectraOverlapError,
    StepConfig,
    Subspace,
    SubspacePair,
    grqi_step,
    iterate,
    largest_principal_angle,
    newton_chatelin_step,
    orthonormalize,
    random_diagonalizable,
    residual_angle,
    subspace_at_angle,
    trial_rng,
    tsgrqi_step,
)
from grqi.iterations import _check_hermitian, _solve_columns

from _reference import (
    BiorthogonalityLostError,
    ZeroVectorError,
    hermitian_angle,
    rqi_step,
    two_sided_rqi_step,
)

SEED = 2718


def pair_error(pair, oracle):
    return largest_principal_angle(pair.left, oracle.left) + largest_principal_angle(
        pair.right, oracle.right
    )


def unit_at_angle(x, theta, rng):
    # unit vector at exactly angle theta from unit vector x
    w = rng.standard_normal(x.shape[0])
    w = w - np.vdot(x, w) * x
    w = w / np.linalg.norm(w)
    return np.cos(theta) * x + np.sin(theta) * w


# ----------------------------------------------------------------- configs


def test_step_config_rejects_zero_max_iters():
    with pytest.raises(ValueError):
        StepConfig(max_iters=0)


def test_step_config_rejects_nonpositive_tol():
    with pytest.raises(ValueError):
        StepConfig(angle_tol=0.0)


def test_subspace_pair_dimension_check():
    with pytest.raises(Exception):
        SubspacePair(
            left=Subspace(np.eye(4)[:, :2]),
            right=Subspace(np.eye(5)[:, :2]),
        )


# ---------------------------------------------------------------- rqi_step


def test_rqi_exact_eigenvector_is_terminal():
    y, terminal = rqi_step(np.diag([1.0, 2.0]), np.eye(2)[:, 0])
    assert terminal
    assert hermitian_angle(y, np.eye(2)[:, 0]) <= 1e-10


def test_rqi_identity_matrix_terminal():
    y, terminal = rqi_step(np.eye(3), np.array([3.0, 4.0, 0.0]))
    assert terminal


def test_rqi_identity_matrix_preserves_direction():
    # when the quotient rounds to 1 +- ulp the solve stays finite; the
    # direction must still be preserved
    start = np.array([1.0, 1.0, 1.0])
    y, _ = rqi_step(np.eye(3), start)
    assert hermitian_angle(y, start) <= 1e-12


def test_rqi_explicit_2x2_step():
    a = np.diag([1.0, 2.0])
    y = np.array([1.0, 1.0]) / np.sqrt(2)
    z, terminal = rqi_step(a, y)
    # shift 1.5 gives (A - 1.5 I)^{-1} y parallel to (-1, 1)
    assert not terminal
    assert hermitian_angle(z, np.array([-1.0, 1.0])) <= 1e-12


def test_rqi_rejects_nonhermitian():
    with pytest.raises(NotHermitianError):
        rqi_step(np.array([[0.0, 1.0], [0.0, 0.0]]), np.ones(2))


def test_rqi_rejects_zero_vector():
    with pytest.raises(ZeroVectorError):
        rqi_step(np.eye(2), np.zeros(2))


# --------------------------------------------------------------- grqi_step


def test_grqi_fixed_point_on_diagonal():
    a = np.diag([1.0, 2.0, 3.0, 4.0])
    y = Subspace(np.eye(4)[:, :2])
    out, diag = grqi_step(a, y, full_output=True)
    assert diag.perturbed
    assert largest_principal_angle(out, y) <= 1e-12


def test_grqi_contracts_from_nearby_start():
    rng = trial_rng(SEED)
    d = rng.permutation(np.arange(1.0, 5.0))
    q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    a = q @ np.diag(d) @ q.T
    oracle = orthonormalize(q[:, :2])
    y = subspace_at_angle(oracle, 1e-3, rng)
    out = grqi_step(a, y)
    assert largest_principal_angle(out, oracle) <= 1e-8


def test_grqi_rejects_nonhermitian():
    with pytest.raises(NotHermitianError):
        grqi_step(np.array([[1.0, 1.0], [0.0, 2.0]]), Subspace(np.eye(2)[:, :1]))


def spectral_rule_rejects(a):
    return np.linalg.norm(a - a.conj().T, 2) > 1e-12 * max(
        1.0, np.linalg.norm(a, 2)
    )


@pytest.mark.parametrize("factor", [0.5, 0.999, 1.001, 2.0])
@pytest.mark.parametrize("scale", [0.01, 1.0, 100.0])
@pytest.mark.parametrize("rank_two", [False, True])
def test_hermitian_guard_agrees_with_spectral_rule(factor, scale, rank_two):
    rng = np.random.default_rng(SEED + int(1000 * factor) + int(scale))
    n = 40
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = scale * (h + h.conj().T) / np.linalg.norm(h + h.conj().T, 2)
    if rank_two:
        k = np.zeros((n, n))
        k[0, 1], k[1, 0] = 1.0, -1.0
    else:
        # Block symplectic form: skew, every singular value 1.
        k = np.block(
            [[np.zeros((n // 2, n // 2)), np.eye(n // 2)],
             [-np.eye(n // 2), np.zeros((n // 2, n // 2))]]
        )
    # A - A^H = 2 delta K, so the defect sits at factor times the threshold.
    delta = factor * 1e-12 * max(1.0, np.linalg.norm(h, 2)) / 2.0
    a = h + delta * k
    if spectral_rule_rejects(a):
        with pytest.raises(NotHermitianError):
            _check_hermitian(a)
    else:
        _check_hermitian(a)
    if factor in (0.5, 2.0):
        assert spectral_rule_rejects(a) == (factor > 1.0)


# ----------------------------------------------------- two_sided_rqi_step


def test_two_sided_exact_pair_terminal():
    v, u, terminal = two_sided_rqi_step(np.diag([1.0, 2.0]), np.eye(2)[:, 0], np.eye(2)[:, 0])
    assert terminal
    assert hermitian_angle(u, np.eye(2)[:, 0]) <= 1e-10
    assert hermitian_angle(v, np.eye(2)[:, 0]) <= 1e-10


def test_two_sided_reduces_to_rqi_for_hermitian():
    rng = trial_rng(SEED + 1)
    a = rng.standard_normal((5, 5))
    a = (a + a.T) / 2.0
    y = rng.standard_normal(5)
    y /= np.linalg.norm(y)
    z_ref, term_ref = rqi_step(a, y)
    v, u, term = two_sided_rqi_step(a, y, y)
    assert term == term_ref
    assert hermitian_angle(u, z_ref) <= 1e-10
    assert hermitian_angle(v, z_ref) <= 1e-10


def test_two_sided_orthogonal_pair_rejected():
    with pytest.raises(BiorthogonalityLostError):
        two_sided_rqi_step(np.diag([1.0, 2.0]), np.eye(2)[:, 0], np.eye(2)[:, 1])


def test_two_sided_contraction_ensemble():
    # one step from distance 1e-2 must land well below 1e-2**2.5, and a
    # second step must reach working precision
    failures = 0
    for t in range(40):
        rng = trial_rng(4242, t)
        prob = random_diagonalizable(5, 1, rng)
        u_star = prob.oracle_right.basis[:, 0]
        v_star = prob.oracle_left.basis[:, 0]
        u = unit_at_angle(u_star, 1e-2, rng)
        v = unit_at_angle(v_star, 1e-2, rng)
        e0 = max(hermitian_angle(u, u_star), hermitian_angle(v, v_star))
        v1, u1, term = two_sided_rqi_step(prob.matrix, v, u)
        e1 = max(hermitian_angle(u1, u_star), hermitian_angle(v1, v_star))
        if not term:
            v2, u2, _ = two_sided_rqi_step(prob.matrix, v1, u1)
            e2 = max(hermitian_angle(u2, u_star), hermitian_angle(v2, v_star))
        else:
            e2 = e1
        if e1 > e0**2.5 or e2 > 1e-12:
            failures += 1
    assert failures == 0


# -------------------------------------------------------------- tsgrqi_step


def test_tsgrqi_fixed_point_on_diagonal():
    c = np.diag([1.0, 2.0, 3.0, 4.0])
    y = Subspace(np.eye(4)[:, :2])
    pair = SubspacePair(left=y, right=y)
    out, diag = tsgrqi_step(c, pair)
    assert diag.perturbed
    assert largest_principal_angle(out.right, y) <= 1e-12
    assert largest_principal_angle(out.left, y) <= 1e-12


def test_tsgrqi_output_independent_of_basis_choice():
    rng = trial_rng(SEED + 2)
    prob = random_diagonalizable(12, 3, rng)
    pair = SubspacePair(
        left=subspace_at_angle(prob.oracle_left, 0.05, rng),
        right=subspace_at_angle(prob.oracle_right, 0.05, rng),
    )
    out1, _ = tsgrqi_step(prob.matrix, pair)
    m = rng.standard_normal((3, 3)) + np.eye(3)
    n = rng.standard_normal((3, 3)) + np.eye(3)
    assert min(abs(np.linalg.eigvals(m))) > 1e-3
    assert min(abs(np.linalg.eigvals(n))) > 1e-3
    repaired = SubspacePair(
        left=orthonormalize(pair.left.basis @ m),
        right=orthonormalize(pair.right.basis @ n),
    )
    out2, _ = tsgrqi_step(prob.matrix, repaired)
    assert largest_principal_angle(out1.right, out2.right) <= 1e-9
    assert largest_principal_angle(out1.left, out2.left) <= 1e-9


def reference_tsgrqi_step(c, pair):
    """The two-sided step written out with one dense solve per side."""
    yl, yr = pair.left.basis, pair.right.basis
    gram = yl.conj().T @ yr
    shifts, w = np.linalg.eig(np.linalg.solve(gram, yl.conj().T @ c @ yr))
    w_left = np.linalg.inv(gram @ w).conj().T
    eye = np.eye(c.shape[0])
    z_r = np.column_stack(
        [np.linalg.solve(c - r * eye, yr @ w[:, i]) for i, r in enumerate(shifts)]
    )
    z_l = np.column_stack(
        [
            np.linalg.solve(c.conj().T - np.conj(r) * eye, yl @ w_left[:, i])
            for i, r in enumerate(shifts)
        ]
    )
    return orthonormalize(z_l), orthonormalize(z_r)


@pytest.mark.parametrize("complex_data", [False, True])
def test_tsgrqi_matches_per_side_dense_solves(complex_data):
    rng = trial_rng(SEED + 7)
    prob = random_diagonalizable(60, 4, rng)
    c = prob.matrix
    if complex_data:
        c = c + 1e-3j * rng.standard_normal(c.shape)
    pair = SubspacePair(
        left=subspace_at_angle(prob.oracle_left, 0.05, rng),
        right=subspace_at_angle(prob.oracle_right, 0.05, rng),
    )
    out, diag = tsgrqi_step(c, pair)
    left, right = reference_tsgrqi_step(c, pair)
    assert not diag.perturbed
    assert largest_principal_angle(out.right, right) <= 1e-10
    assert largest_principal_angle(out.left, left) <= 1e-10


def test_tsgrqi_gram_singular_pair():
    c = np.diag([1.0, 2.0, 3.0, 4.0])
    pair = SubspacePair(
        left=Subspace(np.eye(4)[:, :2]),
        right=Subspace(np.eye(4)[:, 2:]),
    )
    with pytest.raises(GramSingularError):
        tsgrqi_step(c, pair)


def test_stacked_solve_isolates_a_singular_shift():
    # Trial 1's first shift is an eigenvalue of its triangular matrix, so
    # the stacked solve raises; every system is then solved alone and the
    # singular one gets the perturbed shift.  Each trial's bases must be
    # bitwise those of a stack holding that trial only, and agree with
    # the one-LU-per-shift path of a single problem.
    rng = trial_rng(SEED + 11)
    n, p = 6, 2
    a = np.triu(rng.standard_normal((3, n, n)), 1) + np.diag(np.arange(1.0, 7.0))
    shifts = np.array([[0.5, 2.5 + 1j], [1.0, 3.5], [4.5, 5.5 - 2j]])
    rhs = rng.standard_normal((3, n, p)) + 1j * rng.standard_normal((3, n, p))
    rhs[:2, :, 0] = rhs[:2, :, 0].real
    left = rng.standard_normal((3, n, p)).astype(complex)
    right, lq, perturbed, failures = _solve_columns(a, shifts, rhs, left=left)
    assert failures == [None, None, None]
    assert perturbed == [False, True, False]
    for t in range(3):
        one = _solve_columns(
            a[t:t + 1], shifts[t:t + 1], rhs[t:t + 1], left=left[t:t + 1]
        )
        assert np.array_equal(one[0][0], right[t])
        assert np.array_equal(one[1][0], lq[t])
        lu = _solve_columns(
            a[t], shifts[t:t + 1], rhs[t:t + 1], left=left[t:t + 1]
        )
        assert lu[2][0] == perturbed[t]
        for x, y in ((lu[0][0], right[t]), (lu[1][0], lq[t])):
            assert largest_principal_angle(Subspace(x), Subspace(y)) <= 1e-10


def test_stacked_solve_fails_only_the_trial_whose_retry_fails():
    # Trial 1 has C = 0 and shifts 0: solve_eps(0) = 0, so the moved
    # shift is singular too.  Only trial 1 fails, and the other trials
    # keep the bases of a stack holding that trial only.
    rng = trial_rng(SEED + 12)
    n, p = 5, 2
    a = rng.standard_normal((3, n, n))
    a[1] = 0.0
    shifts = rng.standard_normal((3, p))
    shifts[1] = 0.0
    rhs = rng.standard_normal((3, n, p))
    right, _, perturbed, failures = _solve_columns(a, shifts, rhs)
    assert isinstance(failures[1], SolveFailedError)
    for t in (0, 2):
        assert failures[t] is None
        one = _solve_columns(a[t:t + 1], shifts[t:t + 1], rhs[t:t + 1])
        assert np.array_equal(one[0][0], right[t])
        assert one[2][0] == perturbed[t]


def test_tsgrqi_p1_matches_two_sided_rqi():
    rng = trial_rng(SEED + 3)
    prob = random_diagonalizable(6, 1, rng)
    u = unit_at_angle(prob.oracle_right.basis[:, 0], 0.03, rng)
    v = unit_at_angle(prob.oracle_left.basis[:, 0], 0.03, rng)
    pair = SubspacePair(
        left=Subspace(v.reshape(-1, 1)),
        right=Subspace(u.reshape(-1, 1)),
    )
    out, _ = tsgrqi_step(prob.matrix, pair)
    v1, u1, _ = two_sided_rqi_step(prob.matrix, v, u)
    assert hermitian_angle(out.right.basis[:, 0], u1) <= 1e-10
    assert hermitian_angle(out.left.basis[:, 0], v1) <= 1e-10


def test_tsgrqi_hermitian_right_update_matches_grqi():
    rng = trial_rng(SEED + 4)
    a = rng.standard_normal((8, 8))
    a = (a + a.T) / 2.0
    vals, vecs = np.linalg.eigh(a)
    oracle = orthonormalize(vecs[:, :3])
    y = subspace_at_angle(oracle, 0.02, rng)
    out_pair, _ = tsgrqi_step(a, SubspacePair(left=y, right=y))
    out_one = grqi_step(a, y)
    assert largest_principal_angle(out_pair.right, out_one) <= 1e-10


def test_tsgrqi_three_steps_reach_working_precision():
    rng = trial_rng(SEED + 5)
    prob = random_diagonalizable(20, 5, rng)
    pair = SubspacePair(
        left=subspace_at_angle(prob.oracle_left, 0.08, rng),
        right=subspace_at_angle(prob.oracle_right, 0.08, rng),
    )
    oracle = SubspacePair(left=prob.oracle_left, right=prob.oracle_right)
    for _ in range(3):
        pair, _ = tsgrqi_step(prob.matrix, pair)
    assert pair_error(pair, oracle) <= 1e-14


def test_tsgrqi_near_defective_reports_shift_cond():
    c = np.array([[1.0, 1.0], [0.0, 1.0 + 1e-12]])
    pair = SubspacePair(left=Subspace(np.eye(2)), right=Subspace(np.eye(2)))
    out, diag = tsgrqi_step(c, pair)
    assert diag.shift_cond > 1e8


def test_tsgrqi_one_column_step_has_unit_shift_cond():
    rng = trial_rng(SEED + 6)
    prob = random_diagonalizable(8, 1, rng)
    pair = SubspacePair(
        left=subspace_at_angle(prob.oracle_left, 0.01, rng),
        right=subspace_at_angle(prob.oracle_right, 0.01, rng),
    )
    oracle = SubspacePair(left=prob.oracle_left, right=prob.oracle_right)
    out, diag = tsgrqi_step(prob.matrix, pair)
    assert diag.shift_cond == 1.0
    assert pair_error(out, oracle) < pair_error(pair, oracle)


# ------------------------------------------------------ newton_chatelin_step


def test_newton_fixed_on_invariant_subspace():
    c = np.diag([1.0, 2.0, 5.0, 6.0])
    y = Subspace(np.eye(4)[:, :2])
    out = newton_chatelin_step(c, y)
    assert largest_principal_angle(out, y) <= 1e-12


def test_newton_hermitian_one_step():
    rng = trial_rng(SEED + 6)
    a = rng.standard_normal((8, 8))
    a = (a + a.T) / 2.0
    vecs = np.linalg.eigh(a)[1]
    oracle = orthonormalize(vecs[:, :3])
    y = subspace_at_angle(oracle, 1e-2, rng)
    out = newton_chatelin_step(a, y)
    assert largest_principal_angle(out, oracle) <= 1e-5


def test_newton_nonnormal_quadratic():
    rng = trial_rng(SEED + 7)
    prob = random_diagonalizable(10, 2, rng)
    oracle = prob.oracle_right
    errs = [1e-3]
    y = subspace_at_angle(oracle, errs[0], rng)
    for _ in range(2):
        y = newton_chatelin_step(prob.matrix, y)
        errs.append(largest_principal_angle(y, oracle))
    assert errs[1] <= 1e-5
    order = np.log(errs[2] / errs[1]) / np.log(errs[1] / errs[0])
    assert order >= 1.8


def test_newton_spectra_overlap():
    c = np.array([[1.0, 5.0], [0.0, 1.0]])
    with pytest.raises(SpectraOverlapError):
        newton_chatelin_step(c, Subspace(np.eye(2)[:, 1:]))


# ---------------------------------------------------------------- iterate


def test_iterate_converges_from_exact_pair():
    c = np.diag([1.0, 2.0, 3.0, 4.0])
    y = Subspace(np.eye(4)[:, :2])
    oracle = SubspacePair(left=y, right=y)
    trace = iterate(
        lambda pair: tsgrqi_step(c, pair),
        SubspacePair(left=y, right=y),
        residual=lambda pair: residual_angle(c, pair.right),
        oracle=oracle,
    )
    assert trace.status == CONVERGED
    assert len(trace.records) <= 2
    assert [r.index for r in trace.records] == list(range(len(trace.records)))
    assert trace.records[-1].err_sum <= 1e-12


def test_iterate_hits_max_iters():
    rng = trial_rng(SEED + 8)
    prob = random_diagonalizable(8, 2, rng)
    start = SubspacePair(
        left=subspace_at_angle(prob.oracle_left, 0.4, rng),
        right=subspace_at_angle(prob.oracle_right, 0.4, rng),
    )
    trace = iterate(
        lambda pair: tsgrqi_step(prob.matrix, pair),
        start,
        StepConfig(max_iters=1, angle_tol=1e-15),
    )
    assert trace.status == MAX_ITERS
    assert len(trace.records) == 2


def test_iterate_captures_step_failure():
    c = np.diag([1.0, 2.0, 3.0, 4.0])
    start = SubspacePair(
        left=Subspace(np.eye(4)[:, :2]),
        right=Subspace(np.eye(4)[:, 2:]),
    )
    trace = iterate(lambda pair: tsgrqi_step(c, pair), start)
    assert trace.status == FAILURE
    assert "GramSingularError" in trace.failure_reason


def test_iterate_captures_residual_failure():
    # From near e1 the grqi iterate underflows onto the kernel of C at
    # iterate 14; this residual never judges convergence and raises there.
    c = np.diag([0.0, 1.0, 2.0, 3.0])
    start = orthonormalize(np.array([[1.0], [1e-3], [2e-3], [-1e-3]]))
    calls = []

    def residual(y):
        calls.append(y)
        if len(calls) == 15:
            raise RankDeficientError("C Y = 0")
        return 1.0

    trace = iterate(
        lambda s: grqi_step(c, s, full_output=True),
        start,
        residual=residual,
        oracle=Subspace(np.eye(4)[:, :1]),
    )
    assert trace.status == FAILURE
    assert trace.failure_reason.startswith("RankDeficientError: ")
    last = trace.records[-1]
    assert last.index == len(trace.records) - 1 > 0
    assert np.isnan(last.residual)
    assert last.err_sum == 0.0
    assert all(np.isfinite(r.residual) for r in trace.records[:-1])


def test_iterate_single_subspace_state():
    rng = trial_rng(SEED + 9)
    a = rng.standard_normal((6, 6))
    a = (a + a.T) / 2.0
    oracle = orthonormalize(np.linalg.eigh(a)[1][:, :2])
    y = subspace_at_angle(oracle, 0.05, rng)
    trace = iterate(
        lambda s: grqi_step(a, s, full_output=True),
        y,
        residual=lambda s: residual_angle(a, s),
        oracle=oracle,
    )
    assert trace.status == CONVERGED
    assert largest_principal_angle(oracle, oracle) <= 1e-14
    assert trace.records[-1].err_sum <= 1e-10
    assert np.isnan(trace.records[-1].left_err)


def test_iterate_trace_errors_decrease_cubically():
    rng = trial_rng(SEED + 10)
    prob = random_diagonalizable(20, 5, rng)
    start = SubspacePair(
        left=subspace_at_angle(prob.oracle_left, 0.05, rng),
        right=subspace_at_angle(prob.oracle_right, 0.05, rng),
    )
    oracle = SubspacePair(left=prob.oracle_left, right=prob.oracle_right)
    trace = iterate(
        lambda pair: tsgrqi_step(prob.matrix, pair),
        start,
        StepConfig(max_iters=5),
        oracle=oracle,
    )
    errs = trace.errors()
    assert errs[1] <= 1e-3
    assert errs[2] <= 1e-10
    assert errs[3] <= 1e-13
