"""Dense linear-algebra kernels shared by all iteration variants.

The public surface is small: an orthonormal-basis container
(:class:`Subspace`), principal angles and the invariance residual angle,
the orthogonal complement of a subspace, a robust small
eigendecomposition, shifted solves with an automatic perturbation
fallback, and a Sylvester solver with a spectra-disjointness guard.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    RankDeficientError,
    SingularPencilShiftError,
    SolveFailedError,
    SpectraOverlapError,
)

__all__ = [
    "Subspace",
    "orthonormalize",
    "complement_basis",
    "largest_principal_angle",
    "residual_angle",
    "small_eig",
    "solve_eps",
    "shifted_solve",
    "sylvester_solve",
]

# Machine unit roundoff for float64; perturbation sizes are multiples of it.
_U = float(np.finfo(np.float64).eps)

_ORTHO_RTOL = 1e-12
_RANK_RTOL = 1e-15
_DEFECTIVE_COND = 1e8


@dataclass(frozen=True, eq=False)
class Subspace:
    """A p-dimensional subspace of C^n held as an orthonormal basis.

    The basis is an n-by-p matrix with orthonormal columns; construction
    validates shape and orthonormality, so every instance in circulation is
    trustworthy.  Use :func:`orthonormalize` to build one from a general
    full-rank matrix.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis)
        if b.ndim != 2:
            raise DimensionMismatchError(
                f"subspace basis must be 2-d, got ndim={b.ndim}"
            )
        n, p = b.shape
        if not (1 <= p <= n):
            raise DimensionMismatchError(
                f"subspace basis must be n-by-p with 1 <= p <= n, got {n}x{p}"
            )
        _check_orthonormal(b[None])
        object.__setattr__(self, "basis", b)

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def p(self) -> int:
        return self.basis.shape[1]


def _adjoint(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix of a stack."""
    return x.conj().swapaxes(-1, -2)


def _extremes(sv: np.ndarray):
    """(largest, smallest) singular value of each matrix of a stack, as
    Python floats: per-matrix rules decide on them in plain arithmetic,
    which rounds as numpy does and costs less than array calls on the
    stacks of one that the public functions make."""
    return zip(sv[:, 0].tolist(), sv[:, -1].tolist())


def _norm_rule(defects, bound, *mats):
    """Decide max ||D||_2 <= bound(||M||_2 for M in mats) over ``defects``,
    ``bound`` nondecreasing in each norm, by the brackets ||X||_F /
    sqrt(min(shape)) <= ||X||_2 <= ||X||_F, and by 2-norms where they
    straddle it.  Returns ``(ok, defect)``: the largest ||D||_2 if the
    rule fails, an upper bound of it if the rule holds."""
    d_f = max(float(np.linalg.norm(d)) for d in defects)
    m_f = [float(np.linalg.norm(m)) for m in mats]
    if d_f <= bound(*(f / math.sqrt(min(m.shape))
                      for f, m in zip(m_f, mats))):
        return True, d_f
    d_2 = max(float(np.linalg.norm(d, 2)) for d in defects)
    if d_2 > bound(*m_f):
        return False, d_2
    return d_2 <= bound(*(float(np.linalg.norm(m, 2)) for m in mats)), d_2


def _check_orthonormal(b: np.ndarray) -> None:
    """The basis rule of :class:`Subspace` on every n-by-p matrix of the
    stack ``b``: finite entries and ||B^H B - I||_2 <= 1e-12 sqrt(p).
    Raises ``ValueError`` for the first matrix that breaks it."""
    if not np.all(np.isfinite(b)):
        raise ValueError("subspace basis has nonfinite entries")
    p = b.shape[-1]
    gap = _adjoint(b) @ b - np.eye(p)
    bound = _ORTHO_RTOL * math.sqrt(p)
    # ||.||_2 <= ||.||_F, and no matrix's Frobenius norm exceeds the whole
    # stack's, so norms per matrix are needed only to reject.
    if np.linalg.norm(gap) <= bound:
        return
    over = np.linalg.norm(gap, axis=(-2, -1)) > bound
    defect = np.linalg.norm(gap[over], 2, axis=(-2, -1))
    if np.any(defect > bound):
        raise ValueError(
            f"basis is not orthonormal: ||B^H B - I|| = "
            f"{defect[defect > bound][0]:.3e}"
        )


def _orthonormal_stack(z: np.ndarray):
    """Economy QR of every n-by-p matrix of the stack ``z`` under the rank
    rule of :func:`orthonormalize`.  Returns ``(q, failures)``, where
    ``failures[t]`` is the :class:`~grqi.errors.RankDeficientError` of
    matrix t or None; a failed matrix gets a finite stand-in basis, so it
    cannot fail the others."""
    k, n, p = z.shape
    failures = [None] * k
    if not np.all(np.isfinite(z)):
        finite = np.isfinite(z).all(axis=(1, 2))
        z = np.where(finite[:, None, None], z, np.eye(n, p))
        for t in np.flatnonzero(~finite):
            failures[t] = RankDeficientError("matrix has nonfinite entries")
    q, r = np.linalg.qr(z)
    # Singular values of z equal those of the triangular factor.
    sv = np.linalg.svd(r, compute_uv=False)
    tol = n * p * _RANK_RTOL
    for t, (top, bottom) in enumerate(_extremes(sv)):
        if (top == 0.0 or bottom <= tol * top) and failures[t] is None:
            ratio = 0.0 if top == 0.0 else bottom / top
            failures[t] = RankDeficientError(
                f"columns are numerically rank deficient "
                f"(sigma_min/sigma_max = {ratio:.3e})"
            )
    return q, failures


def _raise_first(failures) -> None:
    """Raise the failure of the one problem of a stacked call, if any."""
    if failures[0] is not None:
        raise failures[0]


def _first_failures(earlier: list, later: list) -> list:
    """Per trial, the failure of an earlier stage, else of a later one."""
    return [f if f is not None else g for f, g in zip(earlier, later)]


def orthonormalize(z: np.ndarray) -> Subspace:
    """Return the subspace spanned by the columns of ``z``.

    Uses an economy QR factorization.  Raises
    :class:`~grqi.errors.RankDeficientError` when the columns are
    numerically dependent (smallest singular value at or below
    ``n * p * 1e-15`` times the largest).
    """
    z = np.asarray(z)
    if z.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-d array, got ndim={z.ndim}")
    n, p = z.shape
    if not (1 <= p <= n):
        raise DimensionMismatchError(
            f"cannot orthonormalize a {n}x{p} matrix: need 1 <= p <= n"
        )
    q, failures = _orthonormal_stack(z[None])
    _raise_first(failures)
    return Subspace(q[0])


def complement_basis(v: Subspace) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of ``v``
    (n-by-(n-p); empty when p = n)."""
    q, _ = np.linalg.qr(v.basis, mode="complete")
    return q[:, v.p:]


def _principal_angles(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Largest principal angle between span(u[t]) and span(v[t]) for every
    pair of orthonormal bases of two equal-shape stacks."""
    g = _adjoint(u) @ v
    cos = np.minimum(np.linalg.svd(g, compute_uv=False)[:, -1], 1.0)
    # The cosine cannot resolve angles below about sqrt(eps): those go
    # through the sine of the part of v orthogonal to u.
    near = cos * cos > 0.5
    angle = np.arccos(cos)
    sine = np.linalg.svd((v - u @ g)[near], compute_uv=False)[:, 0]
    angle[near] = np.arcsin(np.minimum(sine, 1.0))
    return angle


def largest_principal_angle(u: Subspace, v: Subspace) -> float:
    """Largest principal angle between two equal-dimension subspaces.

    The cosine is the smallest singular value of the p-by-p Gram matrix of
    the orthonormal bases.  Because the cosine cannot resolve angles below
    about sqrt(eps), small angles are recomputed through the sine route
    (largest singular value of the part of one basis orthogonal to the
    other), which is accurate down to the underflow threshold.
    """
    if u.n != v.n or u.p != v.p:
        raise DimensionMismatchError(
            f"subspaces have mismatched shapes {u.n}x{u.p} vs {v.n}x{v.p}"
        )
    return float(_principal_angles(u.basis[None], v.basis[None])[0])


def _residual_angles(c: np.ndarray, y: np.ndarray, b=None) -> np.ndarray:
    """:func:`residual_angle` for every matrix of a stack: ``c`` (and
    ``b``) is (k, n, n) or one (n, n) matrix, ``y`` (k, n, p) orthonormal
    bases."""
    cy = c @ y
    q = y if b is None else np.linalg.qr(b @ y)[0]
    leak = np.linalg.norm(cy - q @ (_adjoint(q) @ cy), 2, axis=(-2, -1))
    scale = np.maximum(
        np.linalg.norm(cy, 2, axis=(-2, -1)),
        np.linalg.norm(c, axis=(-2, -1)) / np.sqrt(c.shape[-1]),
    )
    ratio = np.divide(leak, scale, out=np.zeros_like(scale), where=scale > 0)
    return np.arcsin(np.minimum(ratio, 1.0))


def residual_angle(c: np.ndarray, y: Subspace, b=None) -> float:
    """Angle by which span(C Y) leaves span(B Y), B the identity when ``b``
    is None: arcsin ||C Y - Q Q^H C Y||_2 / max(||C Y||_2, ||C||_F/sqrt(n))
    for an orthonormal basis Q of span(B Y) (Y itself without ``b``), and
    0 when C = 0.  Both terms of the scale are lower bounds of ||C||_2, so
    the angle is never below arcsin ||C Y - Q Q^H C Y||_2 / ||C||_2, and
    it stays small on subspaces near the kernel of C.

    Zero exactly on invariant subspaces of C (deflating subspaces of the
    pencil (C, B)), also those that meet the kernel of C.  Without ``b``
    it is at most the largest principal angle of span(Y) and span(C Y).
    """
    c = np.asarray(c)
    if c.shape != (y.n, y.n) or b is not None and np.shape(b) != c.shape:
        raise DimensionMismatchError(f"matrices must be {y.n}x{y.n}")
    return float(_residual_angles(c, y.basis[None], b)[0])


def _small_eig_stack(r: np.ndarray):
    """:func:`small_eig` for a (k, p, p) stack of blocks.  Returns
    ``(shifts, eigvecs, cond)``."""
    k, p, _ = r.shape
    vals, w = np.linalg.eig(r)
    w = np.asarray(w, dtype=complex)
    vals = np.asarray(vals, dtype=complex)
    # sigma_max / sigma_min, infinite for a singular basis.
    sv = np.linalg.svd(w, compute_uv=False)
    cond = [top / bottom if bottom else math.inf
            for top, bottom in _extremes(sv)]
    for t in range(k):
        if cond[t] > _DEFECTIVE_COND:
            off_scalar = np.abs(r[t] - r[t, 0, 0] * np.eye(p)).max()
            if off_scalar <= 1e-12 * np.abs(r[t]).max():
                w[t], cond[t] = np.eye(p), 1.0
                vals[t] = np.diag(r[t])
    return vals, w, cond


def small_eig(r: np.ndarray):
    """Eigendecomposition ``(shifts, eigvecs, cond)`` of a small (p x p)
    shift block R: R W = W diag(shifts) for W = ``eigvecs``, whose 2-norm
    condition number ``cond`` is infinite when W is singular.

    Every block, 1x1 included, goes through the dense nonsymmetric
    eigensolver.  A block within 1e-12 max|r| of a scalar matrix is not
    defective, so any basis diagonalizes it: it gets the identity basis
    and its diagonal as shifts, where the solver would return nearly
    parallel vectors.
    """
    r = np.asarray(r)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise DimensionMismatchError(f"expected a square block, got {r.shape}")
    vals, w, cond = _small_eig_stack(r[None])
    return vals[0], w[0], cond[0]


def solve_eps(c: np.ndarray) -> float:
    """Perturbation magnitude used by the shifted-solve fallback: 1e3
    times unit roundoff times the Frobenius norm of ``c``."""
    return 1e3 * _U * float(np.linalg.norm(c, "fro"))


def _is_real(x: np.ndarray) -> bool:
    return np.isrealobj(x) or not np.any(x.imag)


@functools.cache
def _lu_funcs(dtype: np.dtype):
    # scipy is imported here and in sylvester_solve, so a process that
    # never solves (gen, a study meeting no singular system) does not
    # pay for importing it.
    from scipy.linalg.lapack import get_lapack_funcs

    return get_lapack_funcs(("getrf", "getrs"), dtype=dtype)


def _lu_solves(mats, rho, rhs) -> list:
    """Factor M = mats[0] - rho mats[1] (the identity for a missing
    mats[1]) once, then solve M z = rhs[0] and M^H z = rhs[1].  A side
    that is skipped (None) or unusable (exact zero pivot, nonfinite
    entries) comes back as None."""
    dtype = next(r.dtype for r in rhs if r is not None)
    m = np.array(mats[0], dtype=dtype, order="F")
    if len(mats) == 1:
        m.reshape(-1, order="F")[:: m.shape[0] + 1] -= rho
    else:
        m -= rho * mats[1]
    getrf, getrs = _lu_funcs(dtype)
    lu, piv, info = getrf(m, overwrite_a=True)
    adjoint = 2 if dtype == np.complex128 else 1
    out = [None] * len(rhs)
    for side, r in enumerate(rhs):
        if r is not None and info == 0:
            # OpenBLAS's zgetrs solves one column thread-count-dependently;
            # a block with a zero column gets the one-thread bits (n <= 64).
            one = adjoint == 2 and r.ndim == 1
            block = np.array((r, np.zeros_like(r))).T if one else r
            z = getrs(lu, piv, block, trans=side * adjoint)[0]
            z = z[:, 0] if one else z
            out[side] = z if np.isfinite(z).all() else None
    return out


def shifted_solve(
    c: np.ndarray,
    rho: complex,
    b: np.ndarray,
    *,
    left: np.ndarray | None = None,
    pencil_b: np.ndarray | None = None,
):
    """Solve (C - rho I) z = b, perturbing the shift if necessary.

    ``pencil_b`` replaces I by B.  With ``left`` the adjoint system
    (C - rho I)^H z = left is solved from the same LU factors, which are
    computed in real arithmetic when all operands and rho are real.  A
    side that meets an exact zero pivot or nonfinite entries (shift
    numerically equal to an eigenvalue) is re-solved with the shift moved
    to rho - :func:`solve_eps` (C); near an eigenvalue this keeps the
    solution direction intact, which is all the iteration needs.  Returns
    ``(z, perturbed)``, plus ``(z_left, perturbed_left)`` when ``left``
    is given; raises :class:`~grqi.errors.SolveFailedError`
    (:class:`~grqi.errors.SingularPencilShiftError` for a pencil) if a
    perturbed solve fails too.
    """
    c = np.asarray(c)
    n = c.shape[0]
    mats = [c] if pencil_b is None else [c, np.asarray(pencil_b)]
    rhs = [np.asarray(b)] + ([] if left is None else [np.asarray(left)])
    if any(x.shape != (n, n) for x in mats):
        raise DimensionMismatchError(
            f"matrices must be square and equal, got {[x.shape for x in mats]}"
        )
    if any(r.shape[0] != n for r in rhs):
        raise DimensionMismatchError(f"right-hand sides need {n} rows")
    rho = complex(rho)
    if rho.imag == 0.0 and all(map(_is_real, mats + rhs)):
        rho, mats = rho.real, [x.real for x in mats]
        rhs = [np.asarray(r.real, dtype=np.float64) for r in rhs]
    else:
        rhs = [np.asarray(r, dtype=np.complex128) for r in rhs]
    z = _lu_solves(mats, rho, rhs)
    perturbed = [x is None for x in z]
    if any(perturbed):
        eps = solve_eps(c)
        retry = [r if f else None for r, f in zip(rhs, perturbed)]
        redo = _lu_solves(mats, rho - eps, retry)
        z = [y if f else x for x, y, f in zip(z, redo, perturbed)]
        if any(x is None for x in z):
            pencil = pencil_b is not None
            error = SingularPencilShiftError if pencil else SolveFailedError
            raise error(
                f"shifted solve failed at shift {rho} even after moving it "
                f"by {eps:.3e}"
            )
    if left is None:
        return z[0], perturbed[0]
    return z[0], perturbed[0], z[1], perturbed[1]


def sylvester_solve(a: np.ndarray, b: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve the Sylvester equation A X - X B = Q.

    The equation is uniquely solvable iff the spectra of A and B are
    disjoint.  Rather than gating on an eigenvalue gap up front (which
    would also refuse singular-but-consistent systems), the computed
    solution is verified against the residual bound
    min(1e-9 (||A|| + ||B||) max(1, ||X||), 1e-5 max(1, ||Q||)) in 2-norms,
    which Frobenius brackets decide where they can; failures raise
    :class:`~grqi.errors.SpectraOverlapError`.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    q = np.asarray(q)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"A must be square, got {a.shape}")
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise DimensionMismatchError(f"B must be square, got {b.shape}")
    if q.shape != (a.shape[0], b.shape[0]):
        raise DimensionMismatchError(
            f"Q is {q.shape}, expected {(a.shape[0], b.shape[0])}"
        )
    from scipy.linalg import solve_sylvester

    try:
        x = solve_sylvester(a, -b, q)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SpectraOverlapError(
            f"Sylvester solve failed, spectra of A and B likely overlap: "
            f"{exc}"
        ) from None
    # The ||X||-scaled bound alone would accept the huge junk solutions
    # the triangular solver emits for inconsistent singular systems, so
    # the residual must also be small on the scale of Q itself.
    bound = lambda norm_a, norm_b, norm_x, norm_q: min(
        1e-9 * (norm_a + norm_b) * max(1.0, norm_x), 1e-5 * max(1.0, norm_q)
    )
    ok, residual, limit = False, np.inf, 0.0
    if np.all(np.isfinite(x)):
        ok, residual = _norm_rule([a @ x - x @ b - q], bound, a, b, x, q)
        if not ok:
            limit = bound(*(np.linalg.norm(m, 2) for m in (a, b, x, q)))
    if not ok:
        ea, eb = np.linalg.eigvals(a), np.linalg.eigvals(b)
        gap = np.abs(ea[:, None] - eb[None, :]).min()
        raise SpectraOverlapError(
            f"Sylvester residual {residual:.3e} exceeds bound {limit:.3e} "
            f"(spectra of A and B are separated by only {gap:.3e})"
        )
    return x
