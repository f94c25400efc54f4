"""One-sided iterations for structure-preserving subspace refinement.

When the matrix satisfies E C = C^H E (or the skew variant
E C = -C^H E) for an invertible E with E^H = +/-E, a right subspace
determines the matching left one as E times it.  Tracking only the right
iterate then halves the work while keeping the cubic local convergence of
the two-sided iteration; the block symplectic form J = [[0, I], [-I, 0]]
is the prominent special case.  A generalized variant handles Hermitian
pencils (A, B) without forming B^{-1} A, and a pencil variant extends
the two-sided iteration to deflating subspace pairs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    DegeneratePencilError,
    DimensionMismatchError,
    OddDimensionError,
)
from .iterations import (
    StepConfig,
    StepDiagnostics,
    SubspacePair,
    _check_hermitian,
    _check_operands,
    _one_step,
)
from .kernels import Subspace, _norm_rule, orthonormalize
from .testgen import _mirror_groups

__all__ = [
    "STRUCTURES",
    "PencilPair",
    "StructureCheck",
    "TargetGroup",
    "apply_j",
    "j_matrix",
    "check_structure",
    "one_sided_step",
    "generalized_hermitian_step",
    "hamiltonian_step",
    "full_eigenspace_targets",
    "pencil_tsgrqi_step",
    "choose_pencil_normalization",
]

_STRUCT_RTOL = 1e-10
_PENCIL_COND_LIMIT = 1e8
_PENCIL_TRIES = 50

# Claimed structure -> (operand paired with C: "e" for E, "b" for B,
# None for the block symplectic form J; sign s of E C = s C^H E, None
# for a Hermitian pencil (C, B) with B invertible).  Hamiltonian means
# (C J)^H = C J, that is C is E-skew-Hermitian with E = J.
STRUCTURES = {
    "e-hermitian": ("e", 1.0),
    "e-skew-hermitian": ("e", -1.0),
    "hamiltonian": (None, -1.0),
    "skew-hamiltonian": (None, 1.0),
    "generalized": ("b", None),
}


class PencilPair(SubspacePair):
    """Right subspace and transformed left subspace tracked by
    :func:`pencil_tsgrqi_step` on the pencil (A_hat, B_hat) it is given
    (the left factor absorbs B_hat^{-H}); ``left`` is the hatted left
    subspace."""

    def __init__(self, hatted_left: Subspace, right: Subspace):
        super().__init__(left=hatted_left, right=right)

    @property
    def hatted_left(self) -> Subspace:
        return self.left


class StructureCheck(NamedTuple):
    ok: bool
    defect: float


def apply_j(x: np.ndarray) -> np.ndarray:
    """Apply the block symplectic form J = [[0, I], [-I, 0]] without
    materializing it: O(np) row swap with sign.  ``x`` is a matrix or a
    stack of matrices, mapped matrix by matrix."""
    x = np.asarray(x)
    n = x.shape[-2]
    if n % 2 != 0:
        raise OddDimensionError(f"J needs even dimension, got {n}")
    h = n // 2
    return np.concatenate([x[..., h:, :], -x[..., :h, :]], axis=-2)


def j_matrix(n: int) -> np.ndarray:
    """Dense block symplectic form, for checks and tests."""
    return apply_j(np.eye(n))


def check_structure(c, structure: str, *, b=None, e=None) -> StructureCheck:
    """Verify the claim ``structure``, a key of :data:`STRUCTURES`, about
    the square matrix C, returning (ok, defect norm).

    The claim reads the operand its entry names (``b`` or ``e``, of C's
    shape) or applies J.  The defect, ||E C - s C^H E||_2 or the larger
    of ||C - C^H||_2 and ||B - B^H||_2, is compared against ``1e-10``
    times the natural norm scale of the operands.  J^H = -J, so for J
    the defect is ||J C + s (J C)^H||_2 and ||J||_2 = 1.  It is decided
    in O(n^2) where Frobenius norms can: the defect returned is the
    2-norm when the claim fails and an upper bound of it when it holds.
    """
    if structure not in STRUCTURES:
        raise ValueError(
            f"unknown structure {structure!r}, expected one of "
            f"{', '.join(STRUCTURES)}"
        )
    operand, sign = STRUCTURES[structure]
    c = np.asarray(c)
    n = c.shape[0]
    if c.shape != (n, n):
        raise DimensionMismatchError(f"matrix must be square, got {c.shape}")
    if operand is None:
        jc = apply_j(c)
        defects, mats = [jc + sign * jc.conj().T], [c]
    else:
        m = np.asarray({"b": b, "e": e}[operand])
        if m.shape != (n, n):
            raise DimensionMismatchError(
                f"{operand.upper()} is {m.shape}, expected {(n, n)}"
            )
        mats = [c, m]
        defects = ([m @ c - sign * (c.conj().T @ m)] if sign is not None
                   else [c - c.conj().T, m - m.conj().T])
    scale = math.prod if operand == "e" else max
    bound = lambda *norms: _STRUCT_RTOL * max(scale(norms), 1.0)
    return StructureCheck(*_norm_rule(defects, bound, *mats))


def _as_operator(e):
    """Normalize an E argument (dense matrix or callable) to a callable."""
    if callable(e):
        return e
    e = np.asarray(e)
    return lambda x: e @ x


def _e_pair(y: Subspace, e=None) -> SubspacePair:
    """Y with its structure-implied left side span(E Y), for E a matrix or
    a callable, or J when ``e`` is None: J only moves rows and flips their
    signs, so J Y is orthonormal without a QR."""
    if e is None:
        return SubspacePair(left=Subspace(apply_j(y.basis)), right=y)
    return SubspacePair(left=orthonormalize(_as_operator(e)(y.basis)), right=y)


def one_sided_step(
    c: np.ndarray,
    e,
    y: Subspace,
    cfg: StepConfig | None = None,
    *,
    full_output: bool = False,
):
    """One structure-exploiting right-subspace step.

    For C with E C = +/- C^H E, the left iterate of the two-sided step
    started from the pair (span(E Y), span(Y)) is always span(E Z_R), so
    only the right update C Z - Z (Y^H E Y)^{-1} (Y^H E C Y) = Y needs to
    be solved.  ``e`` may be a dense matrix or a callable applying it.  No
    setting of ``cfg`` applies to it.
    """
    out, _, diag = _one_step(c, y.basis, y.basis, e=_as_operator(e))
    return (out, diag) if full_output else out


def hamiltonian_step(
    c: np.ndarray,
    y: Subspace,
    cfg: StepConfig | None = None,
    *,
    full_output: bool = False,
):
    """One-sided step for (C J)^H = +/-(C J) matrices, with J applied
    implicitly: :func:`one_sided_step` with E = J, whose matching left
    subspace is span(J Y).  Hamiltonian and skew-Hamiltonian matrices
    take the same step.  No setting of ``cfg`` applies to it."""
    return one_sided_step(c, apply_j, y, full_output=full_output)


def generalized_hermitian_step(
    a: np.ndarray,
    b: np.ndarray,
    y: Subspace,
    cfg: StepConfig | None = None,
    *,
    full_output: bool = False,
):
    """One-sided step for the Hermitian pencil (A, B) with B invertible.

    Equivalent to the E-Hermitian step with E = B applied to B^{-1} A, but
    implemented with shifted pencil solves (A - rho_i B) so B is never
    inverted.  A non-Hermitian A or B raises, as in
    :func:`~grqi.iterations.grqi_step`.  No setting of ``cfg`` applies.
    """
    a, b = np.asarray(a), np.asarray(b)
    _check_operands(y.n, a, b)
    _check_hermitian(a)
    _check_hermitian(b)
    out, _, diag = _one_step(a, y.basis, y.basis, b=b)
    return (out, diag) if full_output else out


class TargetGroup(NamedTuple):
    """One mirror-symmetric eigenvalue group with its eigenspaces.

    ``left`` is None unless an E operator was supplied to
    :func:`full_eigenspace_targets`.
    """

    eigenvalues: np.ndarray
    right: Subspace
    left: Subspace | None


def full_eigenspace_targets(
    c: np.ndarray,
    e=None,
    *,
    conjugate_closed: bool | None = None,
) -> list[TargetGroup]:
    """Eigenvalue groups symmetric about the imaginary axis, with their
    right eigenspaces.

    For matrices whose spectrum carries the mirror symmetry lambda ->
    -conj(lambda) (E-skew-Hermitian ones do), one-sided iterations can
    only converge to eigenspaces of full mirror-symmetric groups; this
    enumerates them.  For real input the groups are additionally closed
    under conjugation, so the spanned subspaces are real: a real pair
    {lambda, -lambda} gives p = 2 and a complex quadruple
    {lambda, conj(lambda), -lambda, -conj(lambda)} gives p = 4.
    When ``e`` (matrix or callable) is given, the matching left eigenspace
    span(E V_R) is attached to each group.  Groups are returned in
    descending order of largest absolute real part.
    """
    c = np.asarray(c)
    if conjugate_closed is None:
        conjugate_closed = bool(np.isrealobj(c))
    values, s, groups = _mirror_groups(c, conjugate_closed)
    out = []
    for g in groups:
        right = orthonormalize(s[:, g])
        left = None if e is None else _e_pair(right, e).left
        out.append(TargetGroup(values[g], right, left))
    return out


def pencil_tsgrqi_step(
    a: np.ndarray,
    b: np.ndarray,
    pair: SubspacePair,
    cfg: StepConfig | None = None,
) -> tuple[PencilPair, StepDiagnostics]:
    """One two-sided step on the pencil (A, B), taken as passed, for
    deflating subspace pairs; a singular B needs the normalized pencil
    of :func:`choose_pencil_normalization`.

    The right update solves A Z (Yl^H B Yr) - B Z (Yl^H A Yr) = B Yr.
    Diagonalizing M = (Yl^H B Yr)^{-1} (Yl^H A Yr) = W diag(rho) W^{-1}
    decouples it into columns (A - rho_i B) z = B Yr W e_i, and the
    adjoint system decouples the same way under the conjugated shifts
    with the left eigenvector factor (Gb W)^{-H}, so one LU of
    A - rho_i B serves both sides.  For B = I this reduces to the plain
    two-sided step.  No setting of ``cfg`` applies to it.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    n = pair.right.n
    _check_operands(n, a, b)
    sv_b = np.linalg.svd(b, compute_uv=False)
    if sv_b[-1] <= n * np.finfo(float).eps * sv_b[0]:
        raise DegeneratePencilError(
            "B is numerically singular; normalize the pencil with "
            "choose_pencil_normalization"
        )
    right, left, diag = _one_step(
        a, pair.left.basis, pair.right.basis, b=b, two_sided=True,
    )
    return PencilPair(hatted_left=left, right=right), diag


def choose_pencil_normalization(
    a: np.ndarray,
    b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The pencil (A_hat, B_hat) with the deflating subspaces of (A, B)
    that the pencil step runs on: ``(a, b)`` themselves when cond(B) is
    below 1e8, else the rotation (-beta B - alpha A, alpha B - beta A)
    with (alpha, beta) = (cos t, sin t) for the first of up to 50 angles
    t drawn from ``np.random.default_rng(0)`` that brings cond(B_hat)
    below 1e8.  Raises :class:`~grqi.errors.DegeneratePencilError` when
    none does.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if np.linalg.cond(b) < _PENCIL_COND_LIMIT:
        return a, b
    rng = np.random.default_rng(0)
    for _ in range(_PENCIL_TRIES):
        t = float(rng.uniform(0.0, 2.0 * np.pi))
        alpha, beta = np.cos(t), np.sin(t)
        b_hat = alpha * b - beta * a
        if np.linalg.cond(b_hat) < _PENCIL_COND_LIMIT:
            return -beta * b - alpha * a, b_hat
    raise DegeneratePencilError(
        f"no normalization with cond(B_hat) < {_PENCIL_COND_LIMIT:.1e} "
        f"found in {_PENCIL_TRIES} tries"
    )
