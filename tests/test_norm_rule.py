"""The norm-bound rule decides as the exact 2-norm rule does.

The Hermitian guard, every structure claim of ``check_structure`` and the
residual test of ``sylvester_solve`` decide ||D||_2 <= bound(||M||_2)
through Frobenius brackets, computing 2-norms only where the brackets
straddle the bound.  Each battery puts a rank-one or a full-rank defect
at 0.5, 0.999, 1.001 and 2 times the bound and compares the decision with
the rule written out in 2-norms.  Close to the bound the brackets cannot
decide, so those cases run the 2-norm path.
"""
import numpy as np
import pytest
import scipy.linalg

from grqi import (
    NotHermitianError,
    STRUCTURES,
    SpectraOverlapError,
    check_structure,
    generalized_hermitian_step,
    j_matrix,
    orthonormalize,
    random_hamiltonian,
    sylvester_solve,
)
from grqi.iterations import _check_hermitian

SEED = 3131
FACTORS = [0.5, 0.999, 1.001, 2.0]


def two(x):
    return float(np.linalg.norm(x, 2))


@pytest.fixture
def spectral_calls(monkeypatch):
    """Count the ``np.linalg.norm(x, 2)`` and ``np.linalg.svd`` calls."""
    calls = []
    norm, svd = np.linalg.norm, np.linalg.svd

    def counted_norm(x, ord=None, *args, **kwargs):
        if ord == 2:
            calls.append("norm")
        return norm(x, ord, *args, **kwargs)

    def counted_svd(*args, **kwargs):
        calls.append("svd")
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    return calls


def unit_defect(rng, n, hermitian, rank_one):
    """A Hermitian (else skew-Hermitian) n x n matrix of 2-norm 1: rank
    one, or unitary and so of full rank."""
    if rank_one:
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u /= np.linalg.norm(u)
        k = np.outer(u, u.conj())
    else:
        q = np.linalg.qr(
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        )[0]
        k = (q * np.where(np.arange(n) % 2, 1.0, -1.0)) @ q.conj().T
    return k if hermitian else 1j * k


def random_normal(rng, n, sign):
    """A random n x n matrix M = sign M^H of 2-norm 1."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g + sign * g.conj().T
    return m / two(m)


# ------------------------------------------------------- Hermitian guard


@pytest.mark.parametrize("factor", FACTORS)
@pytest.mark.parametrize("rank_one", [True, False])
def test_hermitian_guard_decides_as_the_two_norm_rule(
    factor, rank_one, spectral_calls
):
    rng = np.random.default_rng(SEED)
    n = 24
    h = 50.0 * random_normal(rng, n, 1.0)
    k = unit_defect(rng, n, hermitian=False, rank_one=rank_one)
    # A - A^H = 2 delta K with ||K||_2 = 1.
    delta = factor * 1e-12 * max(1.0, two(h)) / 2.0
    a = h + delta * k
    defect = two(a - a.conj().T)
    holds = defect <= 1e-12 * max(1.0, two(a))
    assert holds == (factor < 1.0)
    spectral_calls.clear()
    if holds:
        _check_hermitian(a)
    else:
        with pytest.raises(NotHermitianError) as info:
            _check_hermitian(a)
        assert f">= {defect:.3e}" in str(info.value)
    if factor in (0.999, 1.001):
        assert spectral_calls, "the brackets decided inside the band"


# ------------------------------------------------------ structure claims


def claim_case(rng, structure, factor, rank_one, n=20):
    """(c, operands) for ``structure`` whose defect is ``factor`` times
    the bound of the claim, in the direction of a rank-one or full-rank
    matrix."""
    operand, sign = STRUCTURES[structure]
    if operand == "b":
        # C - C^H = 2 delta K; B is exactly Hermitian.
        h = 30.0 * random_normal(rng, n, 1.0)
        b = 10.0 * (np.eye(n) + 0.5 * random_normal(rng, n, 1.0))
        b = (b + b.conj().T) / 2.0
        scale = max(two(h), two(b))
        k = unit_defect(rng, n, hermitian=False, rank_one=rank_one)
        delta = factor * 1e-10 * max(1.0, scale) / 2.0
        return h + delta * k, {"b": b}
    # The defect is P - t P^H for P = E C, t = s, or P = J C, t = -s
    # (J^H = -J).  With P = P0 + delta K, P0 = t P0^H and K = -t K^H, it
    # is 2 delta K.
    t = sign if operand else -sign
    p0 = 30.0 * random_normal(rng, n, t)
    k = unit_defect(rng, n, hermitian=t < 0, rank_one=rank_one)
    if operand is None:
        scale = two(p0)
        c_of = lambda p: -j_matrix(n) @ p  # J^{-1} = -J
        operands = {}
    else:
        e = np.eye(n) + 0.3 * random_normal(rng, n, 1.0)
        e = (e + e.conj().T) / 2.0
        scale = two(e) * two(np.linalg.solve(e, p0))
        c_of = lambda p: np.linalg.solve(e, p)
        operands = {"e": e}
    delta = factor * 1e-10 * max(1.0, scale) / 2.0
    return c_of(p0 + delta * k), operands


def claim_rule(structure, c, b=None, e=None):
    """``check_structure``'s rule in 2-norms: (holds, defect)."""
    operand, sign = STRUCTURES[structure]
    if operand is None:
        jc = j_matrix(c.shape[0]) @ c
        defect, scale = two(jc + sign * jc.conj().T), two(c)
    elif sign is None:
        defect = max(two(c - c.conj().T), two(b - b.conj().T))
        scale = max(two(c), two(b))
    else:
        defect = two(e @ c - sign * (c.conj().T @ e))
        scale = two(e) * two(c)
    return defect <= 1e-10 * max(scale, 1.0), defect


@pytest.mark.parametrize("factor", FACTORS)
@pytest.mark.parametrize("rank_one", [True, False])
@pytest.mark.parametrize("structure", list(STRUCTURES))
def test_structure_claim_decides_as_the_two_norm_rule(
    structure, factor, rank_one, spectral_calls
):
    rng = np.random.default_rng(SEED + 1)
    c, operands = claim_case(rng, structure, factor, rank_one)
    holds, defect = claim_rule(structure, c, **operands)
    assert holds == (factor < 1.0)
    spectral_calls.clear()
    chk = check_structure(c, structure, **operands)
    assert type(chk.ok) is bool
    assert chk.ok == holds
    if holds:
        assert chk.defect >= defect * (1.0 - 1e-12)
    else:
        assert chk.defect == pytest.approx(defect, rel=1e-12)
    if factor in (0.999, 1.001):
        assert spectral_calls, "the brackets decided inside the band"


def test_holding_hamiltonian_claim_takes_no_two_norm(spectral_calls):
    h = random_hamiltonian(200, np.random.default_rng(SEED + 2))
    spectral_calls.clear()
    chk = check_structure(h, "hamiltonian")
    assert chk.ok
    assert spectral_calls == []


def test_generalized_step_refuses_a_non_hermitian_pencil():
    a = np.random.default_rng(0).standard_normal((6, 6))
    y = orthonormalize(np.eye(6)[:, :2])
    with pytest.raises(NotHermitianError):
        generalized_hermitian_step(a, np.eye(6), y)
    with pytest.raises(NotHermitianError):
        generalized_hermitian_step(a + a.T, np.eye(6) + np.triu(a, 1), y)


# -------------------------------------------------------- sylvester_solve


def sylvester_case(rng, regime, factor, rank_one, p=5, q=4):
    """(A, B, Q, X) with A X - X B - Q = D, ||D||_2 = ``factor`` times
    the residual bound.  In the "x" regime the ||X||-scaled term binds;
    in the "q" regime X is huge and the ||Q||-scaled term binds."""
    if regime == "x":
        a = rng.standard_normal((p, p))
        b = rng.standard_normal((q, q)) + 6.0 * np.eye(q)
        x = rng.standard_normal((p, q))
    else:
        q = p
        a = b = np.diag(np.arange(1.0, p + 1.0))
        x = 1e8 * np.eye(p) + rng.standard_normal((p, p))
    c0 = a @ x - x @ b
    bound = min(
        1e-9 * (two(a) + two(b)) * max(1.0, two(x)),
        1e-5 * max(1.0, two(c0)),
    )
    if rank_one:
        d = np.outer(rng.standard_normal(p), rng.standard_normal(q))
    else:
        d = np.linalg.qr(rng.standard_normal((p, q)))[0]
    return a, b, c0 - factor * bound * d / two(d), x


@pytest.mark.parametrize("factor", FACTORS)
@pytest.mark.parametrize("rank_one", [True, False])
@pytest.mark.parametrize("regime", ["x", "q"])
def test_sylvester_check_decides_as_the_two_norm_rule(
    regime, factor, rank_one, monkeypatch
):
    rng = np.random.default_rng(SEED + 3)
    a, b, q, x = sylvester_case(rng, regime, factor, rank_one)
    residual = two(a @ x - x @ b - q)
    limit = min(
        1e-9 * (two(a) + two(b)) * max(1.0, two(x)),
        1e-5 * max(1.0, two(q)),
    )
    holds = residual <= limit
    assert holds == (factor < 1.0)
    # The solver returns X, so only the residual test decides.
    monkeypatch.setattr(scipy.linalg, "solve_sylvester", lambda *_: x)
    if holds:
        assert sylvester_solve(a, b, q) is x
    else:
        with pytest.raises(SpectraOverlapError) as info:
            sylvester_solve(a, b, q)
        assert (
            f"Sylvester residual {residual:.3e} exceeds bound {limit:.3e}"
            in str(info.value)
        )
