import numpy as np
import pytest
import scipy.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from grqi import (
    DimensionMismatchError,
    RankDeficientError,
    SingularPencilShiftError,
    SolveFailedError,
    SpectraOverlapError,
    Subspace,
    largest_principal_angle,
    orthonormalize,
    residual_angle,
    shifted_solve,
    small_eig,
    solve_eps,
    subspace_at_angle,
    sylvester_solve,
)
from grqi.kernels import (
    _lu_solves,
    _orthonormal_stack,
    _principal_angles,
    _residual_angles,
)

from _reference import ZeroVectorError, hermitian_angle

SEED = 1234


def random_complex(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def projector(b):
    return b @ np.linalg.pinv(b)


# ---------------------------------------------------------------- Subspace


def test_subspace_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize("excess, accepted", [(1.5e-12, True), (3e-12, False)])
def test_subspace_orthonormality_bound_is_spectral(excess, accepted):
    # B^H B - I = excess * I: its Frobenius norm 2 * excess lies above the
    # bound 1e-12 * sqrt(4) in both cases, its spectral norm only in the
    # second.
    q = np.linalg.qr(np.random.default_rng(SEED).standard_normal((10, 4)))[0]
    b = q * np.sqrt(1.0 + excess)
    if accepted:
        assert Subspace(b).basis is b
    else:
        message = r"basis is not orthonormal: \|\|B\^H B - I\|\| = 3\.0"
        with pytest.raises(ValueError, match=message):
            Subspace(b)


def test_subspace_rejects_wide_basis():
    with pytest.raises(DimensionMismatchError):
        Subspace(np.eye(2, 3))


def test_subspace_shape_properties():
    s = Subspace(np.eye(5)[:, :2])
    assert (s.n, s.p) == (5, 2)


# ---------------------------------------------------------- orthonormalize


def test_orthonormalize_idempotent_on_orthonormal_input():
    q = np.linalg.qr(np.random.default_rng(SEED).standard_normal((6, 3)))[0]
    out = orthonormalize(q).basis
    assert np.linalg.norm(projector(out) - projector(q), 2) <= 1e-12


def test_orthonormalize_scaling_invariance():
    z = 2.0 * np.eye(7)[:, :3]
    out = orthonormalize(z).basis
    assert np.linalg.norm(projector(out) - projector(np.eye(7)[:, :3]), 2) <= 1e-13


def test_orthonormalize_random_complex_20x5():
    rng = np.random.default_rng(SEED)
    z = random_complex(rng, 20, 5)
    q = orthonormalize(z).basis
    assert np.linalg.norm(q.conj().T @ q - np.eye(5), 2) <= 1e-12
    # span match against the pseudo-inverse projector of the raw input
    p_ref = z @ np.linalg.solve(z.conj().T @ z, z.conj().T)
    assert np.linalg.norm(q @ q.conj().T - p_ref, 2) <= 1e-10


def test_orthonormalize_rank_deficient():
    z = np.ones((5, 2))
    with pytest.raises(RankDeficientError):
        orthonormalize(z)


def test_orthonormalize_rejects_1d():
    with pytest.raises(DimensionMismatchError):
        orthonormalize(np.ones(4))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 4))
def test_orthonormalize_span_preserving(seed, n, p):
    p = min(p, n)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, p))
    if np.linalg.svd(z, compute_uv=False)[-1] < 1e-6:
        return
    q = orthonormalize(z).basis
    p_ref = z @ np.linalg.solve(z.T @ z, z.T)
    assert np.linalg.norm(q @ q.conj().T - p_ref, 2) <= 1e-9


# ------------------------------------------------- largest_principal_angle


def test_angle_identical_subspaces():
    v = orthonormalize(np.random.default_rng(0).standard_normal((8, 3)))
    assert largest_principal_angle(v, v) <= 1e-14


def test_angle_orthogonal_lines():
    e1 = Subspace(np.eye(2)[:, :1])
    e2 = Subspace(np.eye(2)[:, 1:])
    assert abs(largest_principal_angle(e1, e2) - np.pi / 2) <= 1e-15


def test_angle_tangent_identity():
    rng = np.random.default_rng(SEED)
    x = orthonormalize(random_complex(rng, 9, 3))
    xp = spla.null_space(x.basis.conj().T)
    k = random_complex(rng, 6, 3)
    k *= 0.7 / np.linalg.norm(k, 2)
    v = orthonormalize(x.basis + xp @ k)
    assert abs(np.tan(largest_principal_angle(x, v)) - np.linalg.norm(k, 2)) <= 1e-12


def test_angle_matches_scipy_subspace_angles():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(25):
        u = orthonormalize(rng.standard_normal((11, 4)))
        v = orthonormalize(rng.standard_normal((11, 4)))
        ref = spla.subspace_angles(u.basis, v.basis).max()
        assert abs(largest_principal_angle(u, v) - ref) <= 1e-12


def test_angle_accurate_for_tiny_angles():
    # arccos of the Gram's sigma_min alone loses half the digits here
    rng = np.random.default_rng(SEED + 2)
    v = orthonormalize(rng.standard_normal((10, 3)))
    theta = 3e-12
    xp = spla.null_space(v.basis.conj().T)
    k = rng.standard_normal((7, 3))
    k *= np.tan(theta) / np.linalg.norm(k, 2)
    w = orthonormalize(v.basis + xp @ k)
    got = largest_principal_angle(v, w)
    assert abs(got - theta) <= 1e-4 * theta


def test_angle_symmetry():
    rng = np.random.default_rng(SEED + 3)
    u = orthonormalize(rng.standard_normal((7, 2)))
    v = orthonormalize(rng.standard_normal((7, 2)))
    d = largest_principal_angle(u, v) - largest_principal_angle(v, u)
    assert abs(d) <= 1e-14


def test_angle_dimension_mismatch():
    u = Subspace(np.eye(4)[:, :2])
    v = Subspace(np.eye(5)[:, :2])
    with pytest.raises(DimensionMismatchError):
        largest_principal_angle(u, v)


# ----------------------------------------------------------- vector angle


def test_hermitian_angle_self_is_zero():
    x = np.array([1.0, 2.0, -1.0])
    assert hermitian_angle(x, x) <= 1e-14


def test_hermitian_angle_orthogonal():
    assert abs(hermitian_angle(np.eye(3)[0], np.eye(3)[1]) - np.pi / 2) <= 1e-15


def test_hermitian_angle_phase_invariance():
    x = np.array([1.0 + 1j, -2.0, 0.5j])
    assert hermitian_angle(x, 1j * x) <= 1e-12
    assert hermitian_angle(x, np.exp(0.7j) * x) <= 1e-12


def test_hermitian_angle_zero_vector():
    with pytest.raises(ZeroVectorError):
        hermitian_angle(np.zeros(3), np.ones(3))


# ---------------------------------------------------------- residual_angle


def reference_residual_angle(c, y):
    """The largest principal angle between span(Y) and span(C Y), the
    residual before the block form, kept as a reference; it cannot be
    formed when C Y loses rank."""
    return largest_principal_angle(y, orthonormalize(c @ y.basis))


def test_residual_angle_invariant_subspace():
    c = np.diag([1.0, 2.0, 3.0, 4.0])
    y = Subspace(np.eye(4)[:, :2])
    assert residual_angle(c, y) <= 1e-12


def test_residual_angle_zero_on_exact_invariant_subspaces():
    rng = np.random.default_rng(SEED + 40)
    triangular = np.triu(random_complex(rng, 7, 7))
    triangular[3:, :3] = 0.0
    triangular[:3, :3] = random_complex(rng, 3, 3)
    cases = [
        (np.diag([0.0, 1.0, 2.0, 3.0]), np.eye(4)[:, :2]),  # meets ker C
        (np.zeros((5, 5)), np.eye(5)[:, :3]),  # C Y = 0
        (triangular, np.eye(7)[:, :3]),
    ]
    for c, y in cases:
        assert residual_angle(c, Subspace(y)) <= 1e-14
        assert residual_angle(c, Subspace(y), np.eye(len(c))) <= 1e-14


def test_residual_angle_never_exceeds_reference():
    rng = np.random.default_rng(SEED + 41)
    for case in range(400):
        n, p = int(rng.integers(6, 61)), int(rng.integers(1, 6))
        if case % 2:
            c, y = random_complex(rng, n, n), random_complex(rng, n, p)
        else:
            c, y = rng.standard_normal((n, n)), rng.standard_normal((n, p))
        y = orthonormalize(y)
        got = residual_angle(c, y)
        assert got <= reference_residual_angle(c, y) * (1.0 + 1e-9)
        # The relative backward error ||R||_2 / ||C||_2 bounds it below.
        cy = c @ y.basis
        leak = np.linalg.norm(cy - y.basis @ (y.basis.conj().T @ cy), 2)
        backward = np.arcsin(leak / np.linalg.norm(c, 2))
        assert backward <= got * (1.0 + 1e-9)
        # Near pi/2 arcsin magnifies the rounding of the norm ratio, so
        # B = I is held to the ratio, the sine of the angle.
        with_identity = residual_angle(c, y, np.eye(n))
        assert abs(np.sin(with_identity) - np.sin(got)) <= 1e-15


def test_residual_angle_small_near_the_kernel_of_c():
    # C Y is tiny, but span(Y) is 1e-8 from the invariant span(e1).
    c = np.diag([0.0, 1.0, 2.0, 3.0])
    y = orthonormalize(np.array([[1.0], [1e-8], [0.0], [0.0]]))
    assert residual_angle(c, y) < 1e-7


def test_residual_angle_below_reference_when_a_small_column_leaks():
    # C Y = [100 e1, e2 + e3]: span(C Y) is 45 degrees from span(Y), but
    # the part of C Y outside span(Y) is 1/100 of its norm.
    c = np.diag([100.0, 1.0, 1.0])
    c[2, 1] = 1.0
    y = Subspace(np.eye(3)[:, :2])
    assert reference_residual_angle(c, y) == pytest.approx(np.pi / 4)
    assert residual_angle(c, y) == pytest.approx(np.arcsin(0.01))


def test_residual_angle_full_space():
    rng = np.random.default_rng(SEED)
    c = rng.standard_normal((5, 5))
    y = orthonormalize(rng.standard_normal((5, 5)))
    assert residual_angle(c, y) <= 1e-12


def test_residual_angle_non_invariant_matches_svd():
    c = np.diag([1.0, 2.0, 5.0])
    b = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    y = orthonormalize(b)
    image = np.linalg.qr(c @ y.basis)[0]
    ref = spla.subspace_angles(y.basis, image).max()
    got = residual_angle(c, y)
    assert got > 0.1
    assert abs(got - ref) <= 1e-12


# ---------------------------------------------------------------- small_eig


def test_small_eig_identity():
    shifts, _, cond = small_eig(np.eye(2))
    assert np.allclose(sorted(shifts.real), [1.0, 1.0])
    assert cond == pytest.approx(1.0)


def test_small_eig_near_scalar_block_gets_identity_basis():
    # The solver's basis for this block has condition about 8e9; any basis
    # diagonalizes a near-scalar block, so it must not be reported as
    # near-defective.
    r = 2.0 * np.eye(5) + 1e-13 * np.eye(5, k=1)
    shifts, eigvecs, cond = small_eig(r)
    assert np.array_equal(eigvecs, np.eye(5))
    assert cond == 1.0
    assert np.array_equal(shifts, np.full(5, 2.0 + 0j))


@pytest.mark.parametrize("entry", [0.0, -0.0, 5e-324, 1e-100, 1e100, -1e100])
def test_small_eig_one_by_one_block_is_its_entry(entry):
    # A 1x1 block goes through the same solver as every other block; its
    # shift is the entry bit for bit, its basis [[1]] and its cond 1.0.
    for value in (entry, complex(entry, -entry)):
        shifts, eigvecs, cond = small_eig(np.array([[value]]))
        assert shifts.tobytes() == np.array([value], dtype=complex).tobytes()
        assert eigvecs.dtype == complex and np.array_equal(eigvecs, [[1.0]])
        assert cond == 1.0


def test_small_eig_diag():
    shifts, _, _ = small_eig(np.diag([1.0, 2.0]))
    assert np.allclose(sorted(shifts.real), [1.0, 2.0])


def test_small_eig_involution():
    shifts, _, _ = small_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(sorted(shifts.real), [-1.0, 1.0])


@pytest.mark.parametrize("p", [1, 2, 4, 7])
def test_small_eig_matches_dense_solver(p):
    rng = np.random.default_rng(SEED + p)
    r = random_complex(rng, p, p)
    shifts, _, _ = small_eig(r)
    ref = np.sort_complex(np.linalg.eigvals(r))
    assert np.allclose(np.sort_complex(shifts), ref, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_small_eig_reconstruction(seed, p):
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((p, p))
    shifts, eigvecs, cond = small_eig(r)
    if not np.isfinite(cond) or cond > 1e10:
        return
    recon = eigvecs @ np.diag(shifts) @ np.linalg.inv(eigvecs)
    assert np.linalg.norm(r - recon, 2) <= 1e-10 * cond * max(
        1.0, np.linalg.norm(r, 2)
    )


def test_small_eig_near_defective_reports_cond():
    r = np.array([[1.0, 1.0], [0.0, 1.0 + 1e-12]])
    assert small_eig(r)[2] > 1e8


def test_small_eig_cond_is_the_singular_value_ratio():
    # The bare sigma_max / sigma_min is the float np.linalg.cond returns.
    rng = np.random.default_rng(SEED + 31)
    for p in (2, 3, 5):
        for r in (rng.standard_normal((p, p)), random_complex(rng, p, p)):
            w = np.asarray(np.linalg.eig(r)[1], dtype=complex)
            assert small_eig(r)[2] == float(np.linalg.cond(w))


def test_small_eig_singular_basis_has_infinite_cond(monkeypatch):
    basis = np.array([[1.0, 1.0], [0.0, 0.0]])
    monkeypatch.setattr(
        np.linalg, "eig", lambda r: (np.ones((len(r), 2)), basis[None])
    )
    r = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert small_eig(r)[2] == np.inf


# ------------------------------------------------------------ stacked rules


def test_stacked_angles_match_one_pair_calls():
    # Both routes of the angle rule, cosine and sine, in one stack: each
    # angle is bitwise the one of a call on its pair alone.
    rng = np.random.default_rng(SEED + 32)
    u = [orthonormalize(random_complex(rng, 12, 3)) for _ in range(4)]
    v = [
        subspace_at_angle(x, theta, rng)
        for x, theta in zip(u, (1e-9, 1.2, 0.3, 1.0))
    ]
    stacked = _principal_angles(
        np.stack([x.basis for x in u]), np.stack([x.basis for x in v])
    )
    single = [largest_principal_angle(x, y) for x, y in zip(u, v)]
    assert stacked.tolist() == single


def test_stacked_rank_rule_fails_only_its_own_matrix():
    rng = np.random.default_rng(SEED + 33)
    z = rng.standard_normal((4, 10, 3))
    z[1, :, 2] = z[1, :, 0]
    z[2, 0, 0] = np.nan
    q, failures = _orthonormal_stack(z)
    for t in (0, 3):
        assert failures[t] is None
        assert np.array_equal(q[t], orthonormalize(z[t]).basis)
    for t in (1, 2):
        with pytest.raises(RankDeficientError) as info:
            orthonormalize(z[t])
        assert str(failures[t]) == str(info.value)
    assert np.all(np.isfinite(q))


def test_stacked_residual_angles_match_one_matrix_calls():
    rng = np.random.default_rng(SEED + 34)
    c = rng.standard_normal((3, 8, 8))
    c[1, :, :2] = 0.0  # C Y = 0 on Y = span(e1, e2)
    y = np.stack([orthonormalize(rng.standard_normal((8, 2))).basis] * 3)
    y[1] = np.eye(8)[:, :2]
    b = rng.standard_normal((3, 8, 8))
    angles = _residual_angles(c, y)
    pencil = _residual_angles(c, y, b)
    for t in range(3):
        assert angles[t] == residual_angle(c[t], Subspace(y[t]))
        assert pencil[t] == residual_angle(c[t], Subspace(y[t]), b[t])
    assert angles[1] == 0.0


# ------------------------------------------------------------ shifted_solve


def test_shifted_solve_plain():
    z, perturbed = shifted_solve(np.diag([1.0, 2.0]), 0.0, np.eye(2)[:, 0])
    assert not perturbed
    assert np.allclose(z, [1.0, 0.0])


def test_shifted_solve_scalar():
    z, perturbed = shifted_solve(np.array([[2.0]]), 1.0, np.array([1.0]))
    assert not perturbed
    assert np.allclose(z, [1.0])


def test_shifted_solve_singular_shift_keeps_direction():
    c = np.diag([1.0, 2.0])
    z, perturbed = shifted_solve(c, 1.0, np.eye(2)[:, 0])
    assert perturbed
    zn = z / np.linalg.norm(z)
    assert hermitian_angle(zn, np.eye(2)[:, 0]) <= 1e-8


def test_shifted_solve_matches_dense_solve():
    rng = np.random.default_rng(SEED)
    c = random_complex(rng, 6, 6)
    b = random_complex(rng, 6, 1)[:, 0]
    rho = 0.3 + 0.1j
    z, perturbed = shifted_solve(c, rho, b)
    assert not perturbed
    assert np.allclose(z, np.linalg.solve(c - rho * np.eye(6), b))


def test_shifted_solve_residual_when_unperturbed():
    rng = np.random.default_rng(SEED + 9)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        c = rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        rho = float(rng.standard_normal())
        z, perturbed = shifted_solve(c, rho, b)
        if perturbed:
            continue
        m = c - rho * np.eye(n)
        res = np.linalg.norm(m @ z - b)
        assert res <= 1e-10 * np.linalg.norm(m, 2) * max(1.0, np.linalg.norm(z))


def relative_residual(m, z, b):
    return np.linalg.norm(m @ z - b) / (
        np.linalg.norm(m, 2) * np.linalg.norm(z) + np.linalg.norm(b)
    )


@pytest.mark.parametrize("complex_data", [False, True])
@pytest.mark.parametrize("pencil", [False, True])
def test_shifted_solve_shared_factor_left_matches_adjoint_solve(
    complex_data, pencil
):
    rng = np.random.default_rng(SEED + 11)
    n = 30
    draw = (
        (lambda *s: random_complex(rng, *s))
        if complex_data
        else (lambda *s: rng.standard_normal(s))
    )
    c, b, right, left = draw(n, n), draw(n, n), draw(n), draw(n)
    rho = 0.4 - 0.3j if complex_data else 0.4
    bmat = b if pencil else np.eye(n)
    z, perturbed, z_left, perturbed_left = shifted_solve(
        c, rho, right, left=left, pencil_b=b if pencil else None
    )
    assert not perturbed and not perturbed_left
    m = c - rho * bmat
    m_h = c.conj().T - np.conj(rho) * bmat.conj().T
    ref_left = np.linalg.solve(m_h, left)
    assert relative_residual(m, z, right) <= 1e-12
    assert relative_residual(m_h, z_left, left) <= 1e-12
    assert np.linalg.norm(z_left - ref_left) <= 1e-10 * np.linalg.norm(ref_left)


def test_shifted_solve_real_path_matches_forced_complex():
    rng = np.random.default_rng(SEED + 12)
    n = 25
    c = rng.standard_normal((n, n))
    right, left = rng.standard_normal(n), rng.standard_normal(n)
    # Complex-typed inputs with zero imaginary parts still take the real path.
    z, _, z_left, _ = shifted_solve(
        c.astype(complex), 0.7 + 0j, right.astype(complex), left=left
    )
    assert z.dtype == np.float64 and z_left.dtype == np.float64
    ref, ref_left = _lu_solves(
        [c], 0.7, [right.astype(complex), left.astype(complex)]
    )
    assert ref.dtype == np.complex128
    assert np.linalg.norm(z - ref) <= 1e-12 * np.linalg.norm(ref)
    assert np.linalg.norm(z_left - ref_left) <= 1e-12 * np.linalg.norm(ref_left)


@pytest.mark.parametrize("pencil", [False, True])
def test_shifted_solve_exact_eigenvalue_flags_each_side(pencil):
    # rho = 2 is an exact eigenvalue of C (or of the pencil (A, B)).
    c = np.diag([1.0, 2.0, 4.0]) if not pencil else np.diag([1.0, 4.0, 4.0])
    b = None if not pencil else np.diag([1.0, 2.0, 1.0])
    e = np.eye(3)
    z, perturbed = shifted_solve(c, 2.0, e[:, 1] + e[:, 0], pencil_b=b)
    assert perturbed
    assert hermitian_angle(z, e[:, 1]) <= 1e-8
    z, perturbed, z_left, perturbed_left = shifted_solve(
        c, 2.0, e[:, 1], left=e[:, 1] + e[:, 2], pencil_b=b
    )
    assert perturbed and perturbed_left
    assert hermitian_angle(z_left, e[:, 1]) <= 1e-8
    # A shift away from the spectrum perturbs neither side.
    _, perturbed, _, perturbed_left = shifted_solve(
        c, 3.0, e[:, 1], left=e[:, 2], pencil_b=b
    )
    assert not perturbed and not perturbed_left
    # The moved shift fails too: the zero pencil is singular at every
    # shift, and 1e300 / 1e-300 overflows at rho and at rho - solve_eps(C).
    if pencil:
        with pytest.raises(SingularPencilShiftError):
            shifted_solve(0 * c, 2.0, e[:, 1], pencil_b=0 * c)
    else:
        with pytest.raises(SolveFailedError):
            shifted_solve(np.diag([2.0, 1e-300]), 0.0, np.array([0.0, 1e300]))


def test_shifted_solve_perturbs_only_the_nonfinite_side():
    # The factors are nonsingular, but the right solution overflows while
    # the left one stays finite: only the right side is re-solved.
    c = np.diag([1.0, 1e-300])
    z, perturbed, z_left, perturbed_left = shifted_solve(
        c, 0.0, np.array([0.0, 1e10]), left=np.array([1.0, 0.0])
    )
    assert perturbed and not perturbed_left
    assert np.all(np.isfinite(z))
    assert np.array_equal(z_left, [1.0, 0.0])


def test_solve_eps_formula():
    c = np.diag([3.0, 4.0])
    u = np.finfo(np.float64).eps
    assert solve_eps(c) == pytest.approx(1e3 * u * 5.0)


# ----------------------------------------------------------- sylvester_solve


def test_sylvester_1x1():
    x = sylvester_solve(np.array([[1.0]]), np.array([[2.0]]), np.array([[-1.0]]))
    assert np.allclose(x, [[1.0]])


def test_sylvester_zero_rhs():
    x = sylvester_solve(np.diag([1.0, 2.0]), np.array([[3.0]]), np.zeros((2, 1)))
    assert np.allclose(x, 0.0)


def bad_x_true(delta, eta):
    # closed-form solution of A X - X (A + diag(eta, eta/2)) = I
    # with A = [[0, 1], [0, delta]]; verified by substitution
    return np.array(
        [
            [-1.0 / eta, -2.0 / (eta * (2.0 * delta + eta))],
            [0.0, -2.0 / eta],
        ]
    )


@pytest.mark.parametrize("delta", [0.1, 0.01])
@pytest.mark.parametrize("eta", [0.01, 0.001])
def test_sylvester_closed_form_grid(delta, eta):
    a = np.array([[0.0, 1.0], [0.0, delta]])
    b = a + np.diag([eta, eta / 2.0])
    x = sylvester_solve(a, b, np.eye(2))
    ref = bad_x_true(delta, eta)
    assert np.linalg.norm(a @ ref - ref @ b - np.eye(2)) <= 1e-12 / eta
    assert np.linalg.norm(x - ref) / np.linalg.norm(ref) <= 1e-8


@pytest.mark.parametrize("delta", [0.1, 0.01])
@pytest.mark.parametrize("eta", [0.01, 0.001])
def test_sylvester_closed_form_swapped_perturbation(delta, eta):
    # same system with the diagonal perturbation order reversed
    a = np.array([[0.0, 1.0], [0.0, delta]])
    b = a + np.diag([eta / 2.0, eta])
    x = sylvester_solve(a, b, np.eye(2))
    ref = np.array(
        [
            [-2.0 / eta, 1.0 / (eta * (delta + eta))],
            [0.0, -1.0 / eta],
        ]
    )
    assert np.linalg.norm(a @ ref - ref @ b - np.eye(2)) <= 1e-12 / eta
    assert np.linalg.norm(x - ref) / np.linalg.norm(ref) <= 1e-8


def test_sylvester_residual_bound_many_instances():
    rng = np.random.default_rng(SEED)
    checked = 0
    while checked < 1000:
        p = int(rng.integers(1, 7))
        q = int(rng.integers(1, 7))
        a = rng.standard_normal((p, p))
        b = rng.standard_normal((q, q)) + 10.0 * np.eye(q)
        rhs = rng.standard_normal((p, q))
        x = sylvester_solve(a, b, rhs)
        scale = np.linalg.norm(a, 2) + np.linalg.norm(b, 2)
        res = np.linalg.norm(a @ x - x @ b - rhs, 2)
        assert res <= 1e-9 * scale * max(1.0, np.linalg.norm(x, 2))
        checked += 1


def test_sylvester_overlapping_spectra():
    with pytest.raises(SpectraOverlapError):
        sylvester_solve(np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]))


def test_sylvester_shared_eigenvalue_inconsistent():
    a = np.diag([1.0, 2.0])
    b = np.diag([2.0, 5.0])
    with pytest.raises(SpectraOverlapError):
        sylvester_solve(a, b, np.ones((2, 2)))


def test_sylvester_dimension_checks():
    with pytest.raises(DimensionMismatchError):
        sylvester_solve(np.eye(2), np.eye(3), np.ones((3, 3)))


def test_sylvester_matches_scipy_on_random_instances():
    rng = np.random.default_rng(SEED + 4)
    for _ in range(20):
        a = random_complex(rng, 4, 4)
        b = random_complex(rng, 3, 3) + 6.0 * np.eye(3)
        q = random_complex(rng, 4, 3)
        x = sylvester_solve(a, b, q)
        ref = spla.solve_sylvester(a, -b, q)
        assert np.allclose(x, ref)


# --------------------------------------------------------- tangent property


def test_tangent_formula_ensemble():
    rng = np.random.default_rng(SEED + 5)
    failures = 0
    for _ in range(300):
        n = int(rng.integers(2, 31))
        p = int(rng.integers(1, n + 1))
        if p == n:
            continue
        x = orthonormalize(rng.standard_normal((n, p)))
        xp = spla.null_space(x.basis.conj().T)
        k = rng.standard_normal((n - p, p)) * 10.0 ** rng.uniform(-6, 1)
        nk = np.linalg.norm(k, 2)
        v = orthonormalize(x.basis + xp @ k)
        lhs = np.tan(largest_principal_angle(x, v))
        if abs(lhs - nk) > 1e-8 * (1.0 + nk * nk):
            failures += 1
    assert failures == 0
