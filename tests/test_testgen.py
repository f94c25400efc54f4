import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grqi import (
    DimensionMismatchError,
    NearDefectiveError,
    NotSpectralError,
    OddDimensionError,
    Subspace,
    UnpairedEigenvalueError,
    complement_basis,
    eigenspace_pair_oracle,
    group_mirror_eigenvalues,
    largest_principal_angle,
    nearby_subspace,
    orthonormalize,
    random_diagonalizable,
    random_e_hermitian,
    random_e_skew_hermitian,
    random_hamiltonian,
    subspace_at_angle,
    trial_rng,
)
from grqi.testgen import _mirror_groups

SEED = 31415


# ------------------------------------------------------------------- RNG


def test_trial_rng_deterministic():
    a = trial_rng(42, 7).standard_normal(5)
    b = trial_rng(42, 7).standard_normal(5)
    assert np.array_equal(a, b)


def test_trial_rng_streams_differ_per_trial():
    a = trial_rng(42, 0).standard_normal(5)
    b = trial_rng(42, 1).standard_normal(5)
    assert not np.array_equal(a, b)


def test_trial_rng_key_is_xor_of_seed_and_trial():
    # streams are a function of seed XOR trial alone
    a = trial_rng(0b1100, 0b1010).standard_normal(4)
    c = trial_rng(0b1100 ^ 0b1010, 0).standard_normal(4)
    assert np.array_equal(a, c)
    d = trial_rng(0, 0b0110).standard_normal(4)
    assert np.array_equal(a, d)
    other = trial_rng(0b0111, 0).standard_normal(4)
    assert not np.array_equal(a, other)


def test_trial_rng_validates_inputs():
    with pytest.raises(ValueError):
        trial_rng(-1)
    with pytest.raises(ValueError):
        trial_rng(2**64)
    with pytest.raises(ValueError):
        trial_rng(0, -3)


# ------------------------------------------------- random_diagonalizable


def test_random_diagonalizable_spectrum_is_permutation():
    prob = random_diagonalizable(9, 3, trial_rng(SEED))
    vals = np.sort(np.linalg.eigvals(prob.matrix).real)
    assert np.allclose(vals, np.arange(1.0, 10.0), atol=1e-8)
    assert 0.0 < prob.alpha < 0.1


def test_random_diagonalizable_oracles_are_invariant():
    worst_r = worst_l = 0.0
    for t in range(200):
        prob = random_diagonalizable(12, 4, trial_rng(SEED, t))
        c = prob.matrix
        scale = np.linalg.norm(c, 2)
        vr = prob.oracle_right.basis
        m = vr.conj().T @ (c @ vr)
        worst_r = max(worst_r, np.linalg.norm(c @ vr - vr @ m, 2) / scale)
        vl = prob.oracle_left.basis
        nmat = vl.conj().T @ (c.conj().T @ vl)
        worst_l = max(worst_l, np.linalg.norm(c.conj().T @ vl - vl @ nmat, 2) / scale)
        # restricted spectra agree as multisets up to conjugation
        assert np.allclose(
            np.sort_complex(np.linalg.eigvals(m)),
            np.sort_complex(np.linalg.eigvals(nmat).conj()),
            atol=1e-8 * scale,
        )
    assert worst_r <= 1e-9
    assert worst_l <= 1e-9


def test_random_diagonalizable_pairing_gram_invertible():
    smallest = np.inf
    for t in range(200):
        prob = random_diagonalizable(10, 3, trial_rng(SEED + 1, t))
        gram = prob.oracle_left.basis.conj().T @ prob.oracle_right.basis
        smallest = min(smallest, np.linalg.svd(gram, compute_uv=False)[-1])
    assert smallest > 0.5  # alpha < 0.1 keeps the pair far from orthogonal


def test_random_diagonalizable_rejects_bad_p():
    with pytest.raises(DimensionMismatchError):
        random_diagonalizable(4, 5, trial_rng(0))


def test_random_diagonalizable_reproducible():
    a = random_diagonalizable(8, 2, trial_rng(99, 3))
    b = random_diagonalizable(8, 2, trial_rng(99, 3))
    assert np.array_equal(a.matrix, b.matrix)
    assert np.array_equal(a.oracle_right.basis, b.oracle_right.basis)


# ----------------------------------------------------- random_hamiltonian


def test_random_hamiltonian_block_structure():
    h = random_hamiltonian(10, trial_rng(SEED + 2))
    f = h[:5, :5]
    assert np.allclose(h[5:, 5:], -f.T)
    assert np.allclose(h[:5, 5:], h[:5, 5:].T)
    assert np.allclose(h[5:, :5], h[5:, :5].T)
    assert abs(np.trace(h)) <= 1e-12 * np.linalg.norm(h, 2)


def test_random_hamiltonian_odd_dimension():
    with pytest.raises(OddDimensionError):
        random_hamiltonian(7, trial_rng(0))


# ------------------------------------------------------- structured pairs


@pytest.mark.parametrize("builder,sign", [(random_e_hermitian, 1.0), (random_e_skew_hermitian, -1.0)])
def test_random_e_pairs_satisfy_pairing(builder, sign):
    rng = trial_rng(SEED + 3)
    for _ in range(10):
        c, e = builder(6, rng)
        assert np.allclose(e, e.conj().T)
        assert np.all(np.linalg.eigvalsh(e) > 0)
        defect = np.linalg.norm(e @ c - sign * c.conj().T @ e, 2)
        assert defect <= 1e-10 * np.linalg.norm(e, 2) * np.linalg.norm(c, 2)


# ------------------------------------------------------ subspace sampling


def test_complement_basis_is_orthogonal_complement():
    v = orthonormalize(trial_rng(SEED + 4).standard_normal((9, 4)))
    w = complement_basis(v)
    assert w.shape == (9, 5)
    assert np.linalg.norm(w.conj().T @ w - np.eye(5), 2) <= 1e-12
    assert np.linalg.norm(v.basis.conj().T @ w, 2) <= 1e-12


def test_complement_basis_empty_for_full_space():
    v = Subspace(np.eye(3))
    assert complement_basis(v).shape == (3, 0)


def test_subspace_at_angle_exact():
    rng = trial_rng(SEED + 5)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 16))
        p = int(rng.integers(1, n))
        v = orthonormalize(rng.standard_normal((n, p)))
        theta = float(rng.uniform(0.0, 1.5))
        w = subspace_at_angle(v, theta, rng)
        worst = max(worst, abs(largest_principal_angle(v, w) - theta))
    assert worst <= 1e-10


def test_subspace_at_angle_zero_and_full():
    rng = trial_rng(SEED + 6)
    v = orthonormalize(rng.standard_normal((5, 2)))
    assert np.array_equal(subspace_at_angle(v, 0.0, rng).basis, v.basis)
    full = Subspace(np.eye(4))
    out = subspace_at_angle(full, 0.3, rng)
    assert largest_principal_angle(out, full) <= 1e-14


def test_subspace_at_angle_rejects_bad_theta():
    v = Subspace(np.eye(3)[:, :1])
    with pytest.raises(ValueError):
        subspace_at_angle(v, np.pi / 2, trial_rng(0))


def test_nearby_subspace_within_bound():
    rng = trial_rng(SEED + 7)
    v = orthonormalize(rng.standard_normal((10, 3)))
    for _ in range(100):
        w = nearby_subspace(v, 0.1, rng)
        assert largest_principal_angle(v, w) < 0.1


def test_nearby_subspace_zero_delta():
    v = orthonormalize(trial_rng(SEED + 8).standard_normal((6, 2)))
    assert np.array_equal(nearby_subspace(v, 0.0, trial_rng(1)).basis, v.basis)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_nearby_subspace_angles_fill_the_range(seed):
    rng = np.random.default_rng(seed)
    v = orthonormalize(rng.standard_normal((8, 2)))
    angles = [largest_principal_angle(v, nearby_subspace(v, 0.5, rng)) for _ in range(16)]
    assert all(0.0 < a < 0.5 for a in angles)


# -------------------------------------------------- mirror eigenvalue groups


def test_group_mirror_real_pair():
    groups = group_mirror_eigenvalues(np.array([1.0, -1.0], dtype=complex), 1e-8)
    assert len(groups) == 1
    assert sorted(groups[0]) == [0, 1]


def test_group_mirror_imaginary_self_pairing():
    groups = group_mirror_eigenvalues(np.array([2j, -2j]), 1e-8)
    assert len(groups) == 2


def test_group_mirror_conjugate_closure_merges_imaginary_pair():
    groups = group_mirror_eigenvalues(np.array([2j, -2j]), 1e-8, conjugate_closed=True)
    assert len(groups) == 1


def test_group_mirror_quadruple():
    vals = np.array([1 + 2j, 1 - 2j, -1 + 2j, -1 - 2j])
    groups = group_mirror_eigenvalues(vals, 1e-8, conjugate_closed=True)
    assert len(groups) == 1
    assert len(groups[0]) == 4
    # without conjugate closure the quadruple splits into mirror pairs
    halves = group_mirror_eigenvalues(vals, 1e-8, conjugate_closed=False)
    assert sorted(len(g) for g in halves) == [2, 2]


def test_group_mirror_unpaired_raises():
    with pytest.raises(UnpairedEigenvalueError):
        group_mirror_eigenvalues(np.array([1.0, 2.0], dtype=complex), 1e-8)


def test_group_mirror_partition_property():
    rng = trial_rng(SEED + 9)
    for _ in range(25):
        h = random_hamiltonian(8, rng)
        vals = np.linalg.eigvals(h)
        tol = 1e-8 * max(1.0, np.abs(vals).max())
        groups = group_mirror_eigenvalues(vals, tol, conjugate_closed=True)
        seen = np.concatenate(groups)
        assert sorted(seen) == list(range(8))
        for g in groups:
            sub = vals[g]
            # each group is closed under both symmetries
            for lam in sub:
                assert np.min(np.abs(sub - (-np.conj(lam)))) <= tol
                assert np.min(np.abs(sub - np.conj(lam))) <= tol


def reference_group_mirror_eigenvalues(values, tol, conjugate_closed=False):
    """The frontier search that grouped mirror eigenvalues before the
    component rule, kept as a reference: absorb every unused eigenvalue
    near an image of a member, in descending-modulus order."""
    order = np.lexsort((values.imag, values.real, -np.abs(values)))
    unused = list(order)
    groups = []
    while unused:
        member_set = [unused.pop(0)]
        frontier = list(member_set)
        while frontier:
            i = frontier.pop()
            images = [values[i], -np.conj(values[i])]
            if conjugate_closed:
                images.append(np.conj(values[i]))
            for img in images:
                j = 0
                while j < len(unused):
                    if abs(values[unused[j]] - img) <= tol:
                        member_set.append(unused.pop(j))
                        frontier.append(member_set[-1])
                    else:
                        j += 1
                covered = min(abs(values[j2] - img) for j2 in member_set)
                if covered > tol:
                    raise UnpairedEigenvalueError(f"{values[i]} near {img}")
        groups.append(np.array(sorted(member_set)))
    return groups


def assert_groups_match_reference(values, tol, conjugate_closed):
    """Equal groups, or both refuse; True when the spectrum was grouped."""
    try:
        want = reference_group_mirror_eigenvalues(values, tol, conjugate_closed)
    except UnpairedEigenvalueError:
        with pytest.raises(UnpairedEigenvalueError):
            group_mirror_eigenvalues(values, tol, conjugate_closed)
        return False
    got = group_mirror_eigenvalues(values, tol, conjugate_closed)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    return True


@pytest.mark.parametrize(
    "kind, n, conjugate_closed, count",
    [
        ("hamiltonian", 4, False, 500),
        ("hamiltonian", 4, True, 500),
        ("hamiltonian", 8, False, 500),
        ("hamiltonian", 8, True, 500),
        ("hamiltonian", 20, False, 400),
        ("hamiltonian", 20, True, 400),
        ("e-skew-hermitian", 10, False, 400),
        ("e-skew-hermitian", 10, True, 100),
    ],
)
def test_group_mirror_matches_reference_search(kind, n, conjugate_closed, count):
    # Same partition, group order and member order as the search on the
    # spectra the studies group (tolerance as in full_eigenspace_targets),
    # and the same outcome once one eigenvalue is dropped.
    grouped = refused = 0
    for t in range(count):
        rng = trial_rng(SEED + 11, t)
        if kind == "hamiltonian":
            c = random_hamiltonian(n, rng)
        else:
            c, _ = random_e_skew_hermitian(n, rng)
        vals = np.linalg.eigvals(c)
        tol = 1e-8 * max(1.0, np.linalg.norm(c, 2))
        grouped += assert_groups_match_reference(vals, tol, conjugate_closed)
        refused += not assert_groups_match_reference(
            vals[1:], tol, conjugate_closed
        )
    # An E-skew-Hermitian spectrum is imaginary: every eigenvalue is its
    # own mirror image, but not closed under conjugation.
    skew = kind == "e-skew-hermitian"
    assert grouped == (0 if skew and conjugate_closed else count)
    assert refused > 0 or (skew and not conjugate_closed)


@pytest.mark.parametrize("conjugate_closed", [False, True])
@pytest.mark.parametrize(
    "vals",
    [
        # equal moduli, ranked by real then imaginary part
        [1.0, -1.0, 1j, -1j, 1 + 0j, -1 + 0j],
        [2 + 1j, -2 + 1j, 2 - 1j, -2 - 1j, 1 + 2j, -1 + 2j, 1 - 2j, -1 - 2j],
        # a double pair, and two eigenvalues near one image
        [3.0, 3.0, -3.0, -3.0, -3.0 + 4e-9, 0.5j, -0.5j],
        # a chain: 1 and 1 + 1.8e-8 are linked only through -(1 + 0.9e-8)
        [1.0, -(1.0 + 0.9e-8), 1.0 + 1.8e-8, 0.25, -0.25],
        [1.0 + 1.8e-8, 0.25, -(1.0 + 0.9e-8), -0.25, 1.0],
    ],
)
def test_group_mirror_ties_and_chains_match_reference(vals, conjugate_closed):
    vals = np.array(vals, dtype=complex)
    assert_groups_match_reference(vals, 1e-8, conjugate_closed)


def test_group_mirror_chain_is_one_group():
    vals = np.array([1.0, -(1.0 + 0.9e-8), 1.0 + 1.8e-8, 0.25, -0.25])
    groups = group_mirror_eigenvalues(vals.astype(complex), 1e-8)
    assert [list(g) for g in groups] == [[0, 1, 2], [3, 4]]


def test_group_mirror_order_contract():
    # Groups follow their first member in descending modulus, ties broken
    # by real then imaginary part; members are listed by index.
    vals = np.array(
        [0.5, 3j, -0.5, -3j, 2 + 1j, -2 + 1j, 2 - 1j, -2 - 1j]
    )
    groups = group_mirror_eigenvalues(vals, 1e-8)
    assert [list(g) for g in groups] == [[3], [1], [6, 7], [4, 5], [0, 2]]
    closed = group_mirror_eigenvalues(vals, 1e-8, conjugate_closed=True)
    assert [list(g) for g in closed] == [[1, 3], [4, 5, 6, 7], [0, 2]]
    # Of the two mirror pairs with |Re| = 2 the earlier group ranks first.
    assert list(_mirror_groups(np.diag(vals), False)[2][0]) == [6, 7]


def test_group_mirror_unpaired_message_names_the_image():
    with pytest.raises(UnpairedEigenvalueError, match=r"\(2\+0j\).*\(-2"):
        group_mirror_eigenvalues(np.array([1.0, -1.0, 2.0], dtype=complex), 1e-8)


# ----------------------------------------------------- eigenspace oracles


def test_eigenspace_pair_oracle_diagonal_case():
    left, right, spectrum = eigenspace_pair_oracle(
        np.diag([3.0, 1.0, 2.0]), 1
    )
    e1 = Subspace(np.eye(3)[:, :1])
    assert largest_principal_angle(right, e1) <= 1e-12
    assert largest_principal_angle(left, e1) <= 1e-12
    assert np.allclose(spectrum, [3.0])


def test_eigenspace_pair_oracle_takes_the_top_modulus():
    # The p eigenvalues of largest modulus; a modulus tie goes to the
    # smaller real part.
    e = np.eye(3)
    for d, p, top, basis in (
        ([1.0, -3.0, 2.0], 2, [-3.0, 2.0], e[:, 1:]),
        ([3.0, -3.0, 1.0], 1, [-3.0], e[:, 1:2]),
    ):
        left, right, spectrum = eigenspace_pair_oracle(np.diag(d), p)
        assert np.array_equal(np.sort(spectrum.real), top)
        assert largest_principal_angle(right, Subspace(basis)) <= 1e-12
        assert largest_principal_angle(left, Subspace(basis)) <= 1e-12


@pytest.mark.parametrize("p", [0, 4])
def test_eigenspace_pair_oracle_rejects_p_outside_one_to_n(p):
    with pytest.raises(DimensionMismatchError, match="need 1 <= p <= 3"):
        eigenspace_pair_oracle(np.diag([3.0, 1.0, 2.0]), p)


def test_eigenspace_pair_oracle_roundtrip_on_a_built_matrix():
    # C = S diag(d) S^-1 with S near the identity: the top three
    # eigenvalues 10, 9, 8 have right basis S[:, :3], left S^-H[:, :3].
    rng = trial_rng(SEED + 11)
    g = rng.standard_normal((10, 10))
    s = np.eye(10) + 0.05 * g / np.linalg.norm(g, 2)
    d = np.array([10.0, 9.0, 8.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    c = s @ np.diag(d) @ np.linalg.inv(s)
    left, right, spectrum = eigenspace_pair_oracle(c, 3)
    assert largest_principal_angle(right, orthonormalize(s[:, :3])) <= 1e-9
    s_inv_h = np.linalg.inv(s).conj().T
    assert largest_principal_angle(left, orthonormalize(s_inv_h[:, :3])) <= 1e-9
    assert np.allclose(np.sort_complex(spectrum), [8.0, 9.0, 10.0])


def test_eigenspace_pair_oracle_invariance_residuals():
    rng = trial_rng(SEED + 12)
    for _ in range(20):
        c = rng.standard_normal((8, 8))
        scale = np.linalg.norm(c, 2)
        try:
            left, right, _ = eigenspace_pair_oracle(c, 2)
        except (NotSpectralError, NearDefectiveError):
            continue
        m = right.basis.conj().T @ (c @ right.basis)
        assert np.linalg.norm(c @ right.basis - right.basis @ m, 2) <= 1e-9 * scale
        nmat = left.basis.conj().T @ (c.conj().T @ left.basis)
        assert (
            np.linalg.norm(c.conj().T @ left.basis - left.basis @ nmat, 2)
            <= 1e-9 * scale
        )


def test_eigenspace_pair_oracle_rejects_split_cluster():
    c = np.diag([1.0, 1.0 + 1e-12, 5.0])
    with pytest.raises(NotSpectralError):
        eigenspace_pair_oracle(c, 2)


def test_eigenspace_pair_oracle_rejects_near_defective():
    c = np.array([[1.0, 1.0], [0.0, 1.0 + 1e-13]])
    with pytest.raises(NearDefectiveError):
        eigenspace_pair_oracle(c, 1)
