"""The condition rule decides as the SVD rules do, and no guard of a step
takes an SVD of an n x n operand.

``pencil_tsgrqi_step`` refuses B when sigma_min(B) <= n eps
sigma_max(B), and ``choose_pencil_normalization`` keeps a B_hat when
``np.linalg.cond(B_hat) < 1e8``.  Both decide kappa_2(B) < limit from the
brackets kappa_2 <= ||B||_F ||B^-1||_F <= n kappa_2 on one LU inverse,
with the SVD only where the brackets cannot decide.  The battery puts
kappa_2 at 1e-3 to 1e3 times each limit, for a spectrum whose Frobenius
condition is about n/2 kappa_2 (half the singular values at each end)
and one where it is about kappa_2 (one value at each end, the rest at
their geometric mean).  Close to a limit the brackets cannot decide, so
those cases run the SVD.
"""
import numpy as np
import pytest

from grqi import (
    DegeneratePencilError,
    PencilPair,
    Subspace,
    SubspacePair,
    choose_pencil_normalization,
    generalized_hermitian_step,
    grqi_step,
    hamiltonian_step,
    one_sided_step,
    orthonormalize,
    pencil_tsgrqi_step,
    random_hamiltonian,
    tsgrqi_step,
)

SEED = 3737
N = 24
EPS = float(np.finfo(float).eps)
PENCIL_LIMIT = 1.0 / (N * EPS)
COND_LIMIT = 1e8
FACTORS = [1e-3, 0.5, 0.999, 1.001, 2.0, 1e3]


@pytest.fixture
def full_calls(monkeypatch):
    """The operand shapes of every ``np.linalg.svd``, ``np.linalg.cond``
    and ``np.linalg.norm(x, 2)`` call, as ``(name, shape)``."""
    calls = []
    norm, svd, cond = np.linalg.norm, np.linalg.svd, np.linalg.cond

    def counted_norm(x, ord=None, *args, **kwargs):
        if ord == 2:
            calls.append(("norm", np.shape(x)))
        return norm(x, ord, *args, **kwargs)

    def counted_svd(x, *args, **kwargs):
        calls.append(("svd", np.shape(x)))
        return svd(x, *args, **kwargs)

    def counted_cond(x, *args, **kwargs):
        calls.append(("cond", np.shape(x)))
        return cond(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "cond", counted_cond)
    return calls


def square_calls(calls, n):
    return [name for name, shape in calls if shape[-2:] == (n, n)]


def random_matrix(rng, n, complex_data):
    g = rng.standard_normal((n, n))
    return g + 1j * rng.standard_normal((n, n)) if complex_data else g


def with_condition(rng, kappa, spectrum, complex_data, n=N):
    """U diag(sigma) V^H with sigma_max = 1 and sigma_min = 1/kappa."""
    if spectrum == "clustered":
        sigma = np.where(np.arange(n) < n // 2, 1.0, 1.0 / kappa)
    else:
        sigma = np.full(n, kappa ** -0.5)
        sigma[0], sigma[-1] = 1.0, 1.0 / kappa
    u = np.linalg.qr(random_matrix(rng, n, complex_data))[0]
    v = np.linalg.qr(random_matrix(rng, n, complex_data))[0]
    return (u * sigma) @ v.conj().T


def svd_refuses(b):
    """The pencil step's SVD rule: is B numerically singular?"""
    sv = np.linalg.svd(b, compute_uv=False)
    return bool(sv[-1] <= b.shape[0] * EPS * sv[0])


def start_pair(n, p=1):
    e = Subspace(np.eye(n)[:, :p])
    return PencilPair(hatted_left=e, right=e)


def step_refuses(a, b):
    try:
        pencil_tsgrqi_step(a, b, start_pair(b.shape[0]))
    except DegeneratePencilError:
        return True
    return False


def keeps_b(a, b):
    a_hat, b_hat = choose_pencil_normalization(a, b)
    return a_hat is a and b_hat is b


# ------------------------------------------------------------ parity


@pytest.mark.parametrize("factor", FACTORS)
@pytest.mark.parametrize("spectrum", ["clustered", "isolated"])
@pytest.mark.parametrize("complex_data", [False, True])
def test_pencil_guard_decides_as_the_svd_rule(
    factor, spectrum, complex_data, full_calls
):
    rng = np.random.default_rng(SEED)
    b = with_condition(rng, factor * PENCIL_LIMIT, spectrum, complex_data)
    a = np.diag(np.arange(1.0, N + 1.0))
    refuses = svd_refuses(b)
    # Rounding in U diag(sigma) V^H moves kappa_2 by a few percent at
    # this limit, so only the cases away from it pin the construction.
    if factor not in (0.999, 1.001):
        assert refuses == (factor > 1.0)
    full_calls.clear()
    assert step_refuses(a, b) == refuses
    ran = square_calls(full_calls, N)
    if factor in (0.999, 1.001):
        assert ran == ["svd"], "the brackets decided inside the band"
    if factor == 1e-3:
        assert ran == []


@pytest.mark.parametrize("factor", FACTORS)
@pytest.mark.parametrize("spectrum", ["clustered", "isolated"])
@pytest.mark.parametrize("complex_data", [False, True])
def test_normalization_decides_as_cond(
    factor, spectrum, complex_data, full_calls
):
    rng = np.random.default_rng(SEED + 1)
    b = with_condition(rng, factor * COND_LIMIT, spectrum, complex_data)
    a = random_matrix(rng, N, complex_data)
    keeps = bool(np.linalg.cond(b) < COND_LIMIT)
    assert keeps == (factor < 1.0)
    full_calls.clear()
    assert keeps_b(a, b) == keeps
    ran = square_calls(full_calls, N)
    if factor in (0.999, 1.001):
        assert ran[:1] == ["cond"], "the brackets decided inside the band"
    if factor in (1e-3, 1e3):
        assert ran == []


def zero_column(rng):
    b = random_matrix(rng, N, False)
    b[:, 5] = 0.0
    return b


@pytest.mark.parametrize(
    "make_b",
    [
        lambda rng: np.zeros((N, N)),
        zero_column,
        lambda rng: np.diag([1.0, 0.0]),
    ],
    ids=["zero", "zero_column", "diag_1_0"],
)
def test_singular_b_is_refused_and_rotated(make_b):
    rng = np.random.default_rng(SEED + 2)
    b = make_b(rng)
    n = b.shape[0]
    a = np.diag(np.arange(1.0, n + 1.0))
    assert svd_refuses(b) and not np.linalg.cond(b) < COND_LIMIT
    assert step_refuses(a, b)
    a_hat, b_hat = choose_pencil_normalization(a, b)
    assert b_hat is not b and np.linalg.cond(b_hat) < COND_LIMIT


# ------------------------------------------------------------ guard budget


def test_no_guard_of_a_step_decomposes_an_n_by_n_operand(full_calls):
    """The six public steps and the normalization, at n = 200 on operands
    whose guards hold, make SVD, cond and 2-norm calls on p x p blocks
    only."""
    rng = np.random.default_rng(SEED + 3)
    n, p = 200, 4
    g = rng.standard_normal((n, n))
    herm = (g + g.T) / 2.0
    spd = g @ g.T / n + np.eye(n)
    ham = random_hamiltonian(n, rng)
    y = orthonormalize(rng.standard_normal((n, p)))
    yl = orthonormalize(rng.standard_normal((n, p)))
    full_calls.clear()
    tsgrqi_step(g, SubspacePair(left=yl, right=y))
    grqi_step(herm, y)
    one_sided_step(herm, np.eye(n), y)
    hamiltonian_step(ham, y)
    generalized_hermitian_step(herm, spd, y)
    a_hat, b_hat = choose_pencil_normalization(g, spd)
    assert b_hat is spd
    pencil_tsgrqi_step(a_hat, b_hat, PencilPair(hatted_left=yl, right=y))
    assert full_calls, "the steps make their p x p calls"
    assert square_calls(full_calls, n) == []
