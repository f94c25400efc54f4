"""Subspace iteration steps and the trace-recording driver.

The central step is :func:`tsgrqi_step`, which refines a pair of left and
right subspaces simultaneously and converges locally cubically to pairs of
spectral left-right invariant subspaces of a general square matrix.  The
Hermitian block step :func:`grqi_step` and a Newton baseline
(:func:`newton_chatelin_step`) are provided for comparison and as
degeneration checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    GramSingularError,
    GrqiError,
    NotHermitianError,
)
from .kernels import (
    Subspace,
    _adjoint,
    _check_finite,
    _extremes,
    _first_failures,
    _norm_rule,
    _orthonormal_stack,
    _raise_first,
    _small_eig_stack,
    complement_basis,
    largest_principal_angle,
    orthonormalize,
    shifted_solve,
    sylvester_solve,
)

__all__ = [
    "StepConfig",
    "StepDiagnostics",
    "SubspacePair",
    "IterationRecord",
    "IterationTrace",
    "CONVERGED",
    "MAX_ITERS",
    "FAILURE",
    "grqi_step",
    "tsgrqi_step",
    "newton_chatelin_step",
    "iterate",
]

_GRAM_TOL = 1e-12
_HERM_RTOL = 1e-12

CONVERGED = "converged"
MAX_ITERS = "max_iters"
FAILURE = "failure"


@dataclass(frozen=True)
class StepConfig:
    """The step budget ``max_iters`` and convergence threshold
    ``angle_tol`` of :func:`iterate`.  The public steps take one too, but
    no step reads it."""

    max_iters: int = 50
    angle_tol: float = 1e-12

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (self.angle_tol > 0.0):
            raise ValueError(f"angle_tol must be > 0, got {self.angle_tol}")


@dataclass(frozen=True)
class StepDiagnostics:
    """Per-step bookkeeping: whether any shifted solve needed the
    perturbation fallback, and the condition number of the shift-block
    eigenvector basis."""

    perturbed: bool = False
    shift_cond: float = float("nan")


@dataclass(frozen=True, eq=False)
class SubspacePair:
    """A left subspace and a right subspace of equal dimension.

    The cross Gram matrix of the two bases is tracked by the iteration but
    is not required to be invertible here; the step itself raises when it
    degenerates.
    """

    left: Subspace
    right: Subspace

    def __post_init__(self):
        if self.left.n != self.right.n or self.left.p != self.right.p:
            raise DimensionMismatchError(
                f"left is {self.left.n}x{self.left.p}, "
                f"right is {self.right.n}x{self.right.p}"
            )


@dataclass(frozen=True)
class IterationRecord:
    """One row of an iteration trace.

    ``left_err``/``right_err`` are principal angles to the oracle
    subspaces (NaN when no oracle was supplied), ``err_sum`` their sum,
    ``residual`` the invariance residual angle of the current iterate.
    """

    index: int
    right_err: float = float("nan")
    left_err: float = float("nan")
    err_sum: float = float("nan")
    residual: float = float("nan")
    perturbed: bool = False
    shift_cond: float = float("nan")


@dataclass
class IterationTrace:
    """Complete record of one refinement run."""

    records: list[IterationRecord] = field(default_factory=list)
    status: str = MAX_ITERS
    failure_reason: str | None = None

    @property
    def iterates(self) -> int:
        return len(self.records)

    def errors(self) -> np.ndarray:
        """Per-iterate oracle error sums, NaN where unavailable."""
        return np.array([r.err_sum for r in self.records])


def _check_hermitian(a: np.ndarray) -> None:
    """Raise unless ||A - A^H||_2 <= 1e-12 max(1, ||A||_2)."""
    bound = lambda norm_a: _HERM_RTOL * max(1.0, norm_a)
    ok, defect = _norm_rule([a - a.conj().T], bound, a)
    if not ok:
        raise NotHermitianError(
            f"matrix is not Hermitian: ||A - A^H|| >= {defect:.3e}"
        )


def _check_operands(n: int, a: np.ndarray, b: np.ndarray | None = None):
    """Raise unless the step operands ``a`` and ``b`` (if any) are n by n
    and finite."""
    if b is not None and (a.shape != (n, n) or b.shape != (n, n)):
        raise DimensionMismatchError(
            f"matrices are {a.shape} and {b.shape}, expected {(n, n)}"
        )
    if a.shape != (n, n):
        raise DimensionMismatchError(f"matrix is {a.shape}, expected {(n, n)}")
    _check_finite("matrix" if b is None else "A", a)
    if b is not None:
        _check_finite("B", b)


def _stacked_solves(a, shifts, sides, z) -> list:
    """Solve every (trial, shift) system of the (k, n, n) stack ``a`` with
    one ``np.linalg.solve`` per side and arithmetic, writing column i of
    ``z[side][t]``.  A system is real, as in :func:`shifted_solve`, when
    its matrix, shift and right-hand sides are.  Returns the systems
    (t, i) that were singular or gave nonfinite entries, unsolved."""
    real = (shifts.imag == 0.0) & ~np.any(a.imag, axis=(1, 2))[:, None]
    for x in sides:
        real &= ~np.any(x.imag, axis=1)
    diag = np.arange(a.shape[-1])
    failed = np.zeros(real.shape, dtype=bool)
    for is_real in (True, False):
        t, i = np.nonzero(real == is_real)
        if not t.size:
            continue
        rho = shifts[t, i].real if is_real else shifts[t, i]
        m = a[t].real if is_real else a[t].astype(np.complex128)
        m[:, diag, diag] -= rho[:, None]
        for side, (rhs, out) in enumerate(zip(sides, z)):
            x = rhs[t, :, i]
            x = x.real if is_real else x
            sol = _solve_each(_adjoint(m) if side else m, x)
            ok = np.isfinite(sol).all(axis=1)
            out[t[ok], :, i[ok]] = sol[ok]
            failed[t[~ok], i[~ok]] = True
    return list(zip(*np.nonzero(failed)))


def _solve_each(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Solutions of m[j] z = x[j] for a stack of systems, NaN for the
    exactly singular ones: one of them makes the stacked call raise, and
    then each system is solved alone."""
    try:
        return np.linalg.solve(m, x[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full(x.shape, np.nan, dtype=np.result_type(m, x))
        for j in range(len(m)):
            try:
                out[j] = np.linalg.solve(m[j], x[j])
            except np.linalg.LinAlgError:
                pass
        return out


def _solve_columns(a, shifts, rhs, *, left=None, b=None, failures=None):
    """Solve (A - shifts[t, i] B) z = rhs[t, :, i] for every trial t and
    shift i (B = I when absent), and the adjoint systems with right-hand
    sides ``left`` on the same matrices; orthonormalize the solutions.

    One (n, n) problem keeps one LU per shift for both sides through
    :func:`shifted_solve`; ``b`` is only taken with it.  A (k, n, n)
    stack is solved in stacked calls, and only its singular or nonfinite
    systems go through :func:`shifted_solve`, which perturbs the shift.
    Trials that already carry a failure are not solved one by one.
    Returns ``(right, left or None, perturbed, failures)`` with one entry
    per trial in the last two.
    """
    k, n, p = rhs.shape
    sides = [rhs] if left is None else [rhs, left]
    dtype = np.promote_types(a.dtype, rhs.dtype)
    z = [np.zeros((k, n, p), dtype=dtype) for _ in sides]
    if a.ndim == 2:
        todo = [(t, i) for t in range(k) for i in range(p)]
    else:
        todo = _stacked_solves(a, shifts, sides, z)
    perturbed = [False] * k
    failures = [None] * k if failures is None else list(failures)
    for t, i in todo:
        if failures[t] is not None:
            continue
        try:
            out = shifted_solve(
                a if a.ndim == 2 else a[t], shifts[t, i], rhs[t, :, i],
                left=None if left is None else left[t, :, i], pencil_b=b,
            )
        except GrqiError as exc:
            failures[t] = exc
            continue
        for side, out_z in enumerate(z):
            out_z[t, :, i] = out[2 * side]
            perturbed[t] = perturbed[t] or out[2 * side + 1]
    left_q = None
    if left is not None:
        left_q, rank_failures = _orthonormal_stack(z[1])
        failures = _first_failures(failures, rank_failures)
    right_q, rank_failures = _orthonormal_stack(z[0])
    return right_q, left_q, perturbed, _first_failures(failures, rank_failures)


def _rayleigh_step(a, yl, yr, *, b=None, e=None, two_sided=False):
    """The block Rayleigh quotient step behind every non-Hermitian block
    step, on stacks ``yl``, ``yr`` of k orthonormal n-by-p bases (arrays)
    and ``a`` either one (n, n) matrix or a (k, n, n) stack.

    With B and the operator E taken as the identity when absent, the
    quotient G^{-1} Yl^H E(A Yr), G = Yl^H E(B Yr), is diagonalized as
    W diag(rho) W^{-1}.  The right update solves
    (A - rho_i B) z = (B Yr) W e_i; a two-sided step also solves the
    adjoint system (A - rho_i B)^H z = B^H Yl (G W)^{-H} e_i.  Returns
    ``(right, left or None, perturbed, shift_cond, failures)``: stacked
    bases, per-trial diagnostics, and per trial the first error of its
    step or None.  A failed trial goes on with stand-ins (identity Gram
    matrix and eigenvector basis), so it cannot fail the others; its
    bases are junk.
    """
    k, _, p = yr.shape
    yl_h = _adjoint(yl)
    byr = yr if b is None else b @ yr
    gram = yl_h @ (byr if e is None else e(byr))
    sv = np.linalg.svd(gram, compute_uv=False)
    failures = [None] * k
    for t, (top, bottom) in enumerate(_extremes(sv)):
        if bottom <= _GRAM_TOL * max(1.0, top):
            failures[t] = GramSingularError(
                f"cross Gram matrix Yl^H E(B Yr) is numerically singular "
                f"(sigma_min = {bottom:.3e})"
            )
            gram[t] = np.eye(p)
    ayr = a @ yr
    quotient = np.linalg.solve(gram, yl_h @ (ayr if e is None else e(ayr)))
    shifts, w, cond = _small_eig_stack(quotient)
    for t, failure in enumerate(failures):
        if failure is not None:
            w[t] = np.eye(p)
    rhs_l = None
    if two_sided:
        rhs_l = yl @ _adjoint(np.linalg.inv(gram @ w))
        if b is not None:
            rhs_l = _adjoint(b) @ rhs_l
    right, left, perturbed, failures = _solve_columns(
        a, shifts, byr @ w, left=rhs_l, b=b, failures=failures
    )
    return right, left, perturbed, cond, failures


def _one_step(a, yl, yr, *, b=None, **kwargs):
    """:func:`_rayleigh_step` on one problem whose arrays ``a`` and ``b``
    the caller has checked with :func:`_check_operands`: raise its
    failure, else return ``(right, left or None, StepDiagnostics)`` as
    subspaces."""
    right, left, perturbed, cond, failures = _rayleigh_step(
        a, yl[None], yr[None], b=b, **kwargs
    )
    _raise_first(failures)
    if left is not None:
        left = Subspace(left[0])
    diag = StepDiagnostics(perturbed=perturbed[0], shift_cond=cond[0])
    return Subspace(right[0]), left, diag


def grqi_step(
    a: np.ndarray,
    y: Subspace,
    cfg: StepConfig | None = None,
    *,
    full_output: bool = False,
):
    """One block Rayleigh quotient step for a Hermitian matrix.

    The block Rayleigh quotient Y^H A Y is diagonalized (it is Hermitian,
    so the eigenvector basis is unitary) and each column is refined by an
    independently shifted solve; no setting of ``cfg`` applies to it.
    """
    a = np.asarray(a)
    _check_operands(y.n, a)
    _check_hermitian(a)
    rayleigh = y.basis.conj().T @ (a @ y.basis)
    rayleigh = (rayleigh + rayleigh.conj().T) / 2.0
    shifts, w = np.linalg.eigh(rayleigh)
    right, _, perturbed, failures = _solve_columns(
        a, shifts[None], (y.basis @ w)[None]
    )
    _raise_first(failures)
    out = Subspace(right[0])
    if full_output:
        diag = StepDiagnostics(perturbed=perturbed[0], shift_cond=1.0)
        return out, diag
    return out


def tsgrqi_step(
    c: np.ndarray,
    pair: SubspacePair,
    cfg: StepConfig | None = None,
) -> tuple[SubspacePair, StepDiagnostics]:
    """One two-sided Grassmann Rayleigh quotient step.

    The right block quotient R = (Y_L^H Y_R)^{-1} (Y_L^H C Y_R) is
    eigendecomposed, which decouples the coupled update equations into
    independent shifted solves: columns of the right update solve
    (C - rho_i I) z = Y_R W e_i and columns of the left update solve the
    adjoint system (C - rho_i I)^H z = Y_L W_L^{-H} e_i with
    W_L = (Y_L^H Y_R) W, so one LU of C - rho_i I serves both.  Solves
    that hit the spectrum are retried with a perturbed shift; both
    updates are orthonormalized.  No setting of ``cfg`` applies to it.
    """
    c = np.asarray(c)
    _check_operands(pair.right.n, c)
    right, left, diag = _one_step(
        c, pair.left.basis, pair.right.basis, two_sided=True
    )
    return SubspacePair(left=left, right=right), diag


def newton_chatelin_step(
    c: np.ndarray,
    y: Subspace,
    *,
    full_output: bool = False,
):
    """One Newton step for the invariant-subspace equation.

    With Y_perp an orthonormal complement of Y, the correction K solves the
    Sylvester equation
    (Y_perp^H C Y_perp) K - K (Y^H C Y) = -Y_perp^H C Y,
    and the next iterate is the orthonormalized Y + Y_perp K.  Quadratically
    convergent in general, cubically for Hermitian C.
    """
    c = np.asarray(c)
    _check_operands(y.n, c)
    if y.p == y.n:
        # The whole space is invariant; nothing to correct.
        out = y
    else:
        perp = complement_basis(y)
        a22 = perp.conj().T @ (c @ perp)
        a11 = y.basis.conj().T @ (c @ y.basis)
        a21 = perp.conj().T @ (c @ y.basis)
        k = sylvester_solve(a22, a11, -a21)
        out = orthonormalize(y.basis + perp @ k)
    if full_output:
        return out, StepDiagnostics(perturbed=False, shift_cond=float("nan"))
    return out


def _side_angles(state, other) -> tuple[float, float]:
    """``(left, right)`` largest principal angles from each side of
    ``state`` to the same side of ``other``: NaN where ``other`` is None,
    and on the left of a one-sided state."""
    if other is None:
        return float("nan"), float("nan")
    if isinstance(state, Subspace):
        return float("nan"), largest_principal_angle(state, other)
    return (
        largest_principal_angle(state.left, other.left),
        largest_principal_angle(state.right, other.right),
    )


def _append_row(trace, index, errors, residual, diag) -> None:
    """Append the row of iterate ``index`` to ``trace``.  ``errors`` is
    ``(left_err, right_err)``; their sum is the right error alone when the
    left one is NaN (a one-sided run, or a run with no oracle)."""
    left_err, right_err = errors
    err_sum = right_err if math.isnan(left_err) else left_err + right_err
    trace.records.append(IterationRecord(
        index, right_err, left_err, err_sum, residual, diag.perturbed,
        diag.shift_cond,
    ))


def _failure_text(exc: Exception) -> str:
    """The ``failure_reason`` of a trace that ``exc`` ended."""
    return f"{type(exc).__name__}: {exc}"


def iterate(
    step,
    start,
    cfg: StepConfig | None = None,
    *,
    residual=None,
    oracle=None,
) -> IterationTrace:
    """Drive a step function to convergence, recording a full trace.

    ``step`` maps a state (a :class:`~grqi.kernels.Subspace` or a
    :class:`SubspacePair`) to ``(next_state, StepDiagnostics)``;
    ``residual`` optionally maps a state to its invariance residual angle;
    ``oracle`` is a reference state used to fill the error columns.

    The run is declared converged when both the angle between successive
    iterates and the residual angle fall below ``cfg.angle_tol`` at the
    same iterate (the successive-iterate angle alone can stall small while
    the iterate is still wrong).  Step and residual failures are captured
    in the trace status, never raised; an iterate whose residual failed
    keeps its row, with a NaN residual.
    """
    cfg = cfg or StepConfig()
    trace = IterationTrace()
    state, prev, diag, failure = start, None, StepDiagnostics(), None
    for k in range(cfg.max_iters + 1):
        try:
            res = float("nan") if residual is None else float(residual(state))
        except GrqiError as exc:
            res, failure = float("nan"), exc
        _append_row(trace, k, _side_angles(state, oracle), res, diag)
        if failure is not None:
            break
        moved = math.inf if prev is None else max(
            filter(math.isfinite, _side_angles(prev, state))
        )
        if moved <= cfg.angle_tol and (np.isnan(res) or res <= cfg.angle_tol):
            trace.status = CONVERGED
            break
        if k == cfg.max_iters:
            break
        try:
            nxt, diag = step(state)
        except GrqiError as exc:
            failure = exc
            break
        prev, state = state, nxt
    if failure is not None:
        trace.status = FAILURE
        trace.failure_reason = _failure_text(failure)
    return trace
