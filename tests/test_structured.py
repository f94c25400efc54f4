import numpy as np
import pytest

from grqi import (
    DegeneratePencilError,
    DimensionMismatchError,
    GramSingularError,
    OddDimensionError,
    PencilPair,
    STRUCTURES,
    Subspace,
    SubspacePair,
    UnpairedEigenvalueError,
    apply_j,
    check_structure,
    choose_pencil_normalization,
    eigenspace_pair_oracle,
    full_eigenspace_targets,
    generalized_hermitian_step,
    grqi_step,
    hamiltonian_step,
    j_matrix,
    largest_principal_angle,
    newton_chatelin_step,
    one_sided_step,
    orthonormalize,
    pencil_tsgrqi_step,
    random_diagonalizable,
    random_e_hermitian,
    random_e_skew_hermitian,
    random_hamiltonian,
    subspace_at_angle,
    trial_rng,
    tsgrqi_step,
)

SEED = 7070


# ----------------------------------------------------------------- apply_j


def test_apply_j_matches_dense_form():
    rng = trial_rng(SEED)
    x = rng.standard_normal((8, 3))
    assert np.array_equal(apply_j(x), j_matrix(8) @ x)


def test_j_matrix_layout():
    # j_matrix is apply_j of the identity, so this pins apply_j's layout.
    for n in (2, 4, 8):
        zero, eye = np.zeros((n // 2, n // 2)), np.eye(n // 2)
        dense = np.block([[zero, eye], [-eye, zero]])
        assert np.array_equal(j_matrix(n), dense)
    for n in (1, 3, 7):
        message = f"^J needs even dimension, got {n}$"
        with pytest.raises(OddDimensionError, match=message):
            j_matrix(n)


def test_apply_j_odd_dimension():
    with pytest.raises(OddDimensionError):
        apply_j(np.ones((3, 1)))
    with pytest.raises(OddDimensionError):
        j_matrix(5)


# --------------------------------------------------------- check_structure


def test_check_structure_2x2_hamiltonian():
    h = np.diag([1.0, -1.0])
    ok, defect = check_structure(h, "hamiltonian")
    assert ok
    assert defect <= 1e-14


def test_check_structure_identity_is_skew_hamiltonian():
    ok, _ = check_structure(np.eye(2), "skew-hamiltonian")
    assert ok
    ok_h, _ = check_structure(np.eye(2), "hamiltonian")
    assert not ok_h


def test_check_structure_random_hamiltonian():
    rng = trial_rng(SEED + 1)
    for _ in range(10):
        h = random_hamiltonian(10, rng)
        ok, defect = check_structure(h, "hamiltonian")
        assert ok
        assert defect <= 1e-12 * np.linalg.norm(h, 2)


def test_check_structure_hamiltonian_defect_matches_direct_form():
    rng = trial_rng(SEED + 2)
    c = rng.standard_normal((6, 6))
    j = j_matrix(6)
    _, defect = check_structure(c, "hamiltonian")
    direct = np.linalg.norm((c @ j).conj().T - c @ j, 2)
    assert np.isclose(defect, direct, rtol=1e-12)


def test_check_structure_skew_hamiltonian_square_of_hamiltonian():
    rng = trial_rng(SEED + 3)
    h = random_hamiltonian(8, rng)
    ok, defect = check_structure(h @ h, "skew-hamiltonian")
    assert ok
    assert defect <= 1e-10 * np.linalg.norm(h @ h, 2)


def test_check_structure_e_pairs():
    rng = trial_rng(SEED + 4)
    c, e = random_e_hermitian(7, rng)
    ok, _ = check_structure(c, "e-hermitian", e=e)
    assert ok
    ok_wrong, defect = check_structure(
        c + 0.01 * np.eye(7) * 1j, "e-hermitian", e=e
    )
    assert not ok_wrong
    assert defect > 0.0
    cs, es = random_e_skew_hermitian(7, rng)
    assert check_structure(cs, "e-skew-hermitian", e=es).ok
    assert not check_structure(cs, "e-hermitian", e=es).ok


def test_check_structure_skew_hermitian_with_identity_form():
    omega = np.array([[1j, 2.0], [-2.0, -3j]])
    assert np.allclose(omega.conj().T, -omega)
    ok, _ = check_structure(omega, "e-skew-hermitian", e=np.eye(2))
    assert ok


def test_check_structure_generalized():
    a = np.diag([2.0, 6.0])
    b = np.diag([1.0, 2.0])
    assert check_structure(a, "generalized", b=b).ok
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert not check_structure(bad, "generalized", b=b).ok


def test_check_structure_odd_dimension_for_j():
    with pytest.raises(OddDimensionError):
        check_structure(np.eye(3), "hamiltonian")


def test_check_structure_unknown_name_lists_the_table():
    with pytest.raises(ValueError, match="e-hermitian, e-skew-hermitian"):
        check_structure(np.eye(2), "symplectic")
    assert list(STRUCTURES) == [
        "e-hermitian", "e-skew-hermitian", "hamiltonian",
        "skew-hamiltonian", "generalized",
    ]
    for structure in STRUCTURES:
        ok, _ = check_structure(np.eye(4), structure, b=np.eye(4), e=np.eye(4))
        assert type(ok) is bool, structure


@pytest.mark.parametrize("structure, operand", [
    ("generalized", "b"), ("e-hermitian", "e"), ("e-skew-hermitian", "e"),
])
def test_check_structure_operand_must_match_c(structure, operand):
    with pytest.raises(DimensionMismatchError):
        check_structure(np.eye(4), structure, **{operand: np.eye(3)})


# ---------------------------------------------------------- one_sided_step


def test_one_sided_identity_form_matches_grqi():
    rng = trial_rng(SEED + 5)
    a = rng.standard_normal((7, 7))
    a = (a + a.T) / 2.0
    oracle = orthonormalize(np.linalg.eigh(a)[1][:, :2])
    y = subspace_at_angle(oracle, 0.05, rng)
    out_e = one_sided_step(a, np.eye(7), y)
    out_g = grqi_step(a, y)
    assert largest_principal_angle(out_e, out_g) <= 1e-12


def test_one_sided_matches_two_sided_right_update():
    rng = trial_rng(SEED + 6)
    for builder in (random_e_hermitian, random_e_skew_hermitian):
        c, e = builder(9, rng)
        _, right, _ = eigenspace_pair_oracle(c, 3)
        y = subspace_at_angle(right, 0.03, rng)
        pair = SubspacePair(left=orthonormalize(e @ y.basis), right=y)
        out_two, _ = tsgrqi_step(c, pair)
        out_one = one_sided_step(c, e, y)
        assert largest_principal_angle(out_one, out_two.right) <= 1e-9


def test_one_sided_accepts_callable_form():
    rng = trial_rng(SEED + 7)
    h = random_hamiltonian(6, rng)
    target = full_eigenspace_targets(h, j_matrix(6))[0]
    y = subspace_at_angle(target.right, 0.01, rng)
    out_dense = one_sided_step(h, j_matrix(6), y)
    out_callable = one_sided_step(h, apply_j, y)
    assert np.array_equal(out_dense.basis, out_callable.basis)


def test_one_sided_gram_singular_on_isotropic_subspace():
    h = random_hamiltonian(4, trial_rng(SEED + 8))
    y = Subspace(np.eye(4)[:, :2])  # J-isotropic: Y^H J Y = 0
    with pytest.raises(GramSingularError):
        one_sided_step(h, j_matrix(4), y)


def test_structure_invariance_of_two_sided_pairs():
    # left iterate of the pair (span(EY), span(Y)) stays at span(E Z_R)
    rng = trial_rng(SEED + 9)
    worst = 0.0
    for builder in (random_e_hermitian, random_e_skew_hermitian):
        for _ in range(20):
            c, e = builder(8, rng)
            _, right, _ = eigenspace_pair_oracle(c, 2)
            y = subspace_at_angle(right, 0.05, rng)
            pair = SubspacePair(left=orthonormalize(e @ y.basis), right=y)
            out, _ = tsgrqi_step(c, pair)
            gap = largest_principal_angle(
                out.left, orthonormalize(e @ out.right.basis)
            )
            worst = max(worst, gap)
    assert worst <= 1e-9


# ------------------------------------------------------- hamiltonian steps


def test_hamiltonian_step_equals_one_sided_with_dense_j():
    rng = trial_rng(SEED + 10)
    h = random_hamiltonian(8, rng)
    target = full_eigenspace_targets(h, j_matrix(8))[0]
    y = subspace_at_angle(target.right, 0.02, rng)
    assert np.array_equal(
        hamiltonian_step(h, y).basis,
        one_sided_step(h, j_matrix(8), y).basis,
    )


def test_hamiltonian_step_full_space_fixed():
    h = random_hamiltonian(2, trial_rng(SEED + 11))
    y = Subspace(np.eye(2))
    out = hamiltonian_step(h, y)
    assert largest_principal_angle(out, y) <= 1e-12


def test_hamiltonian_step_one_step_contraction():
    rng = trial_rng(SEED + 12)
    h = random_hamiltonian(4, rng)
    target = full_eigenspace_targets(h, j_matrix(4))[0]
    y = subspace_at_angle(target.right, 1e-3, rng)
    out = hamiltonian_step(h, y)
    assert largest_principal_angle(out, target.right) <= 1e-8


def test_hamiltonian_left_eigenspace_is_j_image():
    rng = trial_rng(SEED + 13)
    h = random_hamiltonian(8, rng)
    target = full_eigenspace_targets(h, j_matrix(8))[0]
    y = subspace_at_angle(target.right, 1e-2, rng)
    for _ in range(3):
        y = hamiltonian_step(h, y)
    yl = orthonormalize(apply_j(y.basis))
    # span(J Y) must be invariant under H^H near convergence
    image = orthonormalize(h.conj().T @ yl.basis)
    assert largest_principal_angle(yl, image) <= 1e-8


def test_skew_hamiltonian_identity_fixed_span():
    rng = trial_rng(SEED + 14)
    y = orthonormalize(rng.standard_normal((6, 2)))
    out, diag = hamiltonian_step(np.eye(6), y, full_output=True)
    assert diag.perturbed
    assert largest_principal_angle(out, y) <= 1e-10


def test_skew_hamiltonian_step_contraction():
    rng = trial_rng(SEED + 15)
    h = random_hamiltonian(8, rng)
    t = h @ h  # square of Hamiltonian is skew-Hamiltonian
    _, right, _ = eigenspace_pair_oracle(t, 2)
    y = subspace_at_angle(right, 1e-2, rng)
    out = hamiltonian_step(t, y)
    assert largest_principal_angle(out, right) <= 1e-6


# --------------------------------------------------- generalized pencil step


def test_generalized_step_with_identity_b_is_grqi():
    rng = trial_rng(SEED + 16)
    a = rng.standard_normal((6, 6))
    a = (a + a.T) / 2.0
    oracle = orthonormalize(np.linalg.eigh(a)[1][:, :2])
    y = subspace_at_angle(oracle, 0.05, rng)
    out_gen = generalized_hermitian_step(a, np.eye(6), y)
    out_plain = grqi_step(a, y)
    assert largest_principal_angle(out_gen, out_plain) <= 1e-12


def test_generalized_step_exact_eigenvector_fixed():
    a = np.diag([2.0, 6.0])
    b = np.diag([1.0, 2.0])
    y = Subspace(np.eye(2)[:, :1])
    out, diag = generalized_hermitian_step(a, b, y, full_output=True)
    assert diag.perturbed
    assert largest_principal_angle(out, y) <= 1e-12


def test_generalized_step_contraction_to_pencil_eigenspace():
    rng = trial_rng(SEED + 17)
    n, p = 12, 3
    a = rng.standard_normal((n, n))
    a = (a + a.T) / 2.0
    m = rng.standard_normal((n, n))
    b = m @ m.T + n * np.eye(n)
    _, right, _ = eigenspace_pair_oracle(
        np.linalg.solve(b, a), p
    )
    y = subspace_at_angle(right, 1e-2, rng)
    for _ in range(2):
        y = generalized_hermitian_step(a, b, y)
    assert largest_principal_angle(y, right) <= 1e-10


def test_generalized_step_gram_singular():
    a = np.diag([1.0, 2.0])
    b = np.diag([1.0, -1.0])
    y = orthonormalize(np.array([[1.0], [1.0]]))
    with pytest.raises(GramSingularError):
        generalized_hermitian_step(a, b, y)


def test_generalized_step_equals_one_sided_on_b_inverse_a():
    # E = B applied to B^{-1} A, as the docstring states.
    rng = trial_rng(SEED + 18)
    n, p = 12, 3
    a = rng.standard_normal((n, n))
    a = (a + a.T) / 2.0
    m = rng.standard_normal((n, n))
    b = m @ m.T + n * np.eye(n)
    _, right, _ = eigenspace_pair_oracle(
        np.linalg.solve(b, a), p
    )
    y = subspace_at_angle(right, 0.05, rng)
    out_gen = generalized_hermitian_step(a, b, y)
    out_one = one_sided_step(np.linalg.solve(b, a), b, y)
    assert largest_principal_angle(out_gen, out_one) <= 1e-10


# --------------------------------------------------- full_eigenspace_targets


def test_targets_real_pair_and_imaginary_pair():
    c = np.zeros((4, 4))
    c[0, 0], c[1, 1] = 1.0, -1.0
    c[2, 3], c[3, 2] = 2.0, -2.0  # eigenvalues +-2i
    targets = full_eigenspace_targets(c, conjugate_closed=True)
    assert len(targets) == 2
    top = targets[0]
    assert sorted(np.round(top.eigenvalues.real)) == [-1.0, 1.0]
    assert top.right.p == 2
    assert largest_principal_angle(top.right, Subspace(np.eye(4)[:, :2])) <= 1e-10
    assert targets[1].right.p == 2
    assert np.allclose(sorted(targets[1].eigenvalues.imag), [-2.0, 2.0])


def test_targets_complex_quadruple():
    a, b = 1.0, 2.0
    c = np.zeros((4, 4))
    c[:2, :2] = [[a, b], [-b, a]]
    c[2:, 2:] = [[-a, b], [-b, -a]]
    targets = full_eigenspace_targets(c, conjugate_closed=True)
    assert len(targets) == 1
    assert targets[0].right.p == 4


def test_targets_purely_imaginary_multiplicity():
    c = np.diag([3j, 3j])
    targets = full_eigenspace_targets(c, conjugate_closed=False)
    assert len(targets) == 1
    assert targets[0].right.p == 2


def test_targets_unpaired_eigenvalue():
    with pytest.raises(UnpairedEigenvalueError):
        full_eigenspace_targets(np.diag([1.0, 2.0]), conjugate_closed=False)


def test_targets_attach_left_spans():
    rng = trial_rng(SEED + 18)
    h = random_hamiltonian(6, rng)
    targets = full_eigenspace_targets(h, j_matrix(6))
    for t in targets:
        assert t.left is not None
        assert (
            largest_principal_angle(
                t.left, orthonormalize(j_matrix(6) @ t.right.basis)
            )
            <= 1e-10
        )
        # left group spans are invariant under H^H
        image = orthonormalize(h.conj().T @ t.left.basis)
        assert largest_principal_angle(t.left, image) <= 1e-8


def test_targets_ordered_by_max_real_part():
    rng = trial_rng(SEED + 19)
    h = random_hamiltonian(10, rng)
    targets = full_eigenspace_targets(h)
    reals = [float(np.abs(t.eigenvalues.real).max()) for t in targets]
    assert reals == sorted(reals, reverse=True)


def test_hamiltonian_spectrum_mirror_symmetry():
    rng = trial_rng(SEED + 20)
    for _ in range(50):
        h = random_hamiltonian(8, rng)
        vals = np.linalg.eigvals(h)
        mirrored = -vals.conj()
        # greedy matching within 1e-8 relative scale
        remaining = list(vals)
        scale = max(1.0, np.abs(vals).max())
        for m in mirrored:
            j = int(np.argmin([abs(r - m) for r in remaining]))
            assert abs(remaining[j] - m) <= 1e-8 * scale
            remaining.pop(j)


# ------------------------------------------------------------ pencil steps


def test_pencil_identity_b_reduces_to_plain_two_sided():
    rng = trial_rng(SEED + 21)
    prob = random_diagonalizable(10, 2, rng)
    yl = subspace_at_angle(prob.oracle_left, 0.04, rng)
    yr = subspace_at_angle(prob.oracle_right, 0.04, rng)
    out_pencil, _ = pencil_tsgrqi_step(
        prob.matrix, np.eye(10), PencilPair(hatted_left=yl, right=yr)
    )
    out_plain, _ = tsgrqi_step(prob.matrix, SubspacePair(left=yl, right=yr))
    assert largest_principal_angle(out_pencil.right, out_plain.right) <= 1e-9
    assert largest_principal_angle(out_pencil.hatted_left, out_plain.left) <= 1e-9


def test_pencil_pair_is_a_subspace_pair():
    e = np.eye(4)
    pair = PencilPair(hatted_left=Subspace(e[:, :2]), right=Subspace(e[:, 2:]))
    assert isinstance(pair, SubspacePair)
    assert pair.hatted_left is pair.left
    with pytest.raises(DimensionMismatchError):
        PencilPair(hatted_left=Subspace(e[:, :3]), right=Subspace(e[:, 3:]))


def test_pencil_matches_generalized_hermitian_step():
    rng = trial_rng(SEED + 22)
    n, p = 10, 2
    a = rng.standard_normal((n, n))
    a = (a + a.T) / 2.0
    m = rng.standard_normal((n, n))
    b = m @ m.T + n * np.eye(n)
    _, right, _ = eigenspace_pair_oracle(
        np.linalg.solve(b, a), p
    )
    yr = subspace_at_angle(right, 0.02, rng)
    # Y_L = B Y_R gives hatted_left = B^{-H} B Y_R = span(Y_R)
    pair = PencilPair(hatted_left=yr, right=yr)
    out_pencil, _ = pencil_tsgrqi_step(a, b, pair)
    out_gen = generalized_hermitian_step(a, b, yr)
    assert largest_principal_angle(out_pencil.right, out_gen) <= 1e-8


def test_pencil_exact_deflating_subspace_fixed():
    a = np.diag([2.0, 6.0])
    b = np.diag([1.0, 2.0])
    e1 = Subspace(np.eye(2)[:, :1])
    out, diag = pencil_tsgrqi_step(a, b, PencilPair(hatted_left=e1, right=e1))
    assert diag.perturbed
    assert largest_principal_angle(out.right, e1) <= 1e-10


def test_pencil_rejects_singular_bhat():
    a = np.diag([1.0, 2.0])
    b = np.diag([1.0, 0.0])
    pair = PencilPair(
        hatted_left=Subspace(np.eye(2)[:, :1]),
        right=Subspace(np.eye(2)[:, :1]),
    )
    with pytest.raises(DegeneratePencilError):
        pencil_tsgrqi_step(a, b, pair)  # the step takes B as passed


def test_pencil_gram_singular():
    a = np.diag([1.0, 2.0])
    pair = PencilPair(
        hatted_left=Subspace(np.eye(2)[:, :1]),
        right=Subspace(np.eye(2)[:, 1:]),
    )
    with pytest.raises(GramSingularError):
        pencil_tsgrqi_step(a, np.eye(2), pair)


def test_choose_normalization_prefers_default():
    a, b = np.diag([1.0, 2.0]), np.eye(2)
    a_hat, b_hat = choose_pencil_normalization(a, b)
    assert a_hat is a and b_hat is b


def test_choose_normalization_handles_singular_b():
    a = np.diag([1.0, 2.0])
    b = np.diag([1.0, 0.0])
    a_hat, b_hat = choose_pencil_normalization(a, b)
    assert np.linalg.cond(b_hat) < 1e8
    # B is 0 and A is 2 in the last diagonal entry, so there
    # A_hat = -2 alpha and B_hat = -2 beta exactly.
    alpha, beta = -a_hat[1, 1] / 2.0, -b_hat[1, 1] / 2.0
    assert alpha**2 + beta**2 == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_array_equal(b_hat, alpha * b - beta * a)
    np.testing.assert_array_equal(a_hat, -beta * b - alpha * a)


def test_choose_normalization_hopeless_pencil():
    s = np.array([[0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DegeneratePencilError):
        choose_pencil_normalization(s, s)


# ---------------------------------------------------------- operand shapes

_Y3 = Subspace(np.eye(3)[:, :1])
_I3, _I4 = np.eye(3), np.eye(4)
_ONE = "matrix is (4, 4), expected (3, 3)"
_A_WRONG = "matrices are (4, 4) and (3, 3), expected (3, 3)"
_B_WRONG = "matrices are (3, 3) and (4, 4), expected (3, 3)"


@pytest.mark.parametrize(
    "step,message",
    [
        (lambda: tsgrqi_step(_I4, SubspacePair(_Y3, _Y3)), _ONE),
        (lambda: grqi_step(_I4, _Y3), _ONE),
        (lambda: newton_chatelin_step(_I4, _Y3), _ONE),
        (lambda: one_sided_step(_I4, _I3, _Y3), _ONE),
        (
            lambda: hamiltonian_step(np.eye(6), Subspace(_I4[:, :2])),
            "matrix is (6, 6), expected (4, 4)",
        ),
        (lambda: generalized_hermitian_step(_I4, _I3, _Y3), _A_WRONG),
        (lambda: generalized_hermitian_step(_I3, _I4, _Y3), _B_WRONG),
        (lambda: pencil_tsgrqi_step(_I4, _I3, PencilPair(_Y3, _Y3)), _A_WRONG),
        (lambda: pencil_tsgrqi_step(_I3, _I4, PencilPair(_Y3, _Y3)), _B_WRONG),
    ],
    ids=[
        "tsgrqi", "grqi", "newton", "one_sided", "hamiltonian",
        "generalized_a", "generalized_b", "pencil_a", "pencil_b",
    ],
)
def test_steps_refuse_a_wrongly_shaped_operand(step, message):
    with pytest.raises(DimensionMismatchError) as info:
        step()
    assert str(info.value) == message
