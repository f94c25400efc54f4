"""Classical vector Rayleigh quotient iterations, kept as references.

Ostrowski's two-sided RQI for one left/right vector pair (Parlett, Math.
Comp. 1974) is the p = 1 case of the two-sided Grassmann step, and the
one-sided RQI is its Hermitian case; tests compare the block steps of
:mod:`grqi` against them.  No program path uses them, so they live here
rather than in the package.
"""

import numpy as np

from grqi.errors import DimensionMismatchError, GrqiError
from grqi.iterations import _check_hermitian

_BIORTH_TOL = 1e-13


class ZeroVectorError(GrqiError):
    """A vector argument is (numerically) zero."""


class BiorthogonalityLostError(GrqiError):
    """Left and right vectors became orthogonal, so the two-sided Rayleigh
    quotient is undefined."""


def hermitian_angle(x: np.ndarray, y: np.ndarray) -> float:
    """Phase-invariant angle between two nonzero vectors.

    Defined through cos(theta) = |x^H y| / (||x|| ||y||); evaluated with
    atan2 on the (cos, sin) pair so that tiny angles are not flattened to
    zero by the arccos branch.
    """
    x = np.asarray(x).reshape(-1)
    y = np.asarray(y).reshape(-1)
    if x.shape != y.shape:
        raise DimensionMismatchError(
            f"vectors have mismatched lengths {x.shape[0]} vs {y.shape[0]}"
        )
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        raise ZeroVectorError("angle with a zero vector is undefined")
    xh = x / nx
    yh = y / ny
    inner = np.vdot(yh, xh)
    c = abs(inner)
    s = np.linalg.norm(xh - yh * inner)
    return float(np.arctan2(s, c))


def rqi_step(a: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, bool]:
    """One Rayleigh quotient iteration step for a Hermitian matrix.

    Returns the normalized next vector and a terminal flag; the flag is set
    when the shifted matrix is numerically singular, in which case the
    returned vector is a kernel direction (an eigenvector, so iteration can
    stop).
    """
    a = np.asarray(a)
    n = a.shape[0]
    if a.shape != (n, n):
        raise DimensionMismatchError(f"matrix must be square, got {a.shape}")
    _check_hermitian(a)
    y = np.asarray(y).reshape(-1)
    if y.shape[0] != n:
        raise DimensionMismatchError(
            f"vector has length {y.shape[0]}, expected {n}"
        )
    ny = np.linalg.norm(y)
    if ny == 0.0:
        raise ZeroVectorError("cannot iterate from the zero vector")
    y = y / ny
    rho = float(np.real(np.vdot(y, a @ y)))
    try:
        z = np.linalg.solve(a - rho * np.eye(n), y)
        if not np.all(np.isfinite(z)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        # rho is an eigenvalue to working precision: return a kernel vector.
        _, _, vh = np.linalg.svd(a - rho * np.eye(n))
        return vh[-1].conj(), True
    return z / np.linalg.norm(z), False


def two_sided_rqi_step(
    c: np.ndarray,
    v: np.ndarray,
    u: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """One two-sided Rayleigh quotient step on a left/right vector pair.

    ``v`` is the left vector, ``u`` the right one.  The shared shift is the
    two-sided Rayleigh quotient v^H C u / v^H u; the right vector is
    refined with C and the left one with C^H under the conjugated shift.
    Returns ``(v_next, u_next, terminal)`` with unit vectors; ``terminal``
    is set when the shift is an eigenvalue to working precision, in which
    case kernel vectors (left and right eigenvectors) are returned.
    """
    c = np.asarray(c)
    n = c.shape[0]
    if c.shape != (n, n):
        raise DimensionMismatchError(f"matrix must be square, got {c.shape}")
    v = np.asarray(v).reshape(-1)
    u = np.asarray(u).reshape(-1)
    if v.shape[0] != n or u.shape[0] != n:
        raise DimensionMismatchError(
            f"vectors have lengths {v.shape[0]}, {u.shape[0]}, expected {n}"
        )
    v = v / np.linalg.norm(v)
    u = u / np.linalg.norm(u)
    pairing = np.vdot(v, u)
    if abs(pairing) <= _BIORTH_TOL:
        raise BiorthogonalityLostError(
            f"|v^H u| = {abs(pairing):.3e}: two-sided quotient undefined"
        )
    rho = complex(np.vdot(v, c @ u) / pairing)
    eye = np.eye(n)
    try:
        u_next = np.linalg.solve(c - rho * eye, u)
        v_next = np.linalg.solve(c.conj().T - np.conj(rho) * eye, v)
        if not (np.all(np.isfinite(u_next)) and np.all(np.isfinite(v_next))):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        # Shift hit the spectrum: extract the kernel pair and stop.
        uu, _, vh = np.linalg.svd(c - rho * eye)
        return uu[:, -1], vh[-1].conj(), True
    u_next = u_next / np.linalg.norm(u_next)
    v_next = v_next / np.linalg.norm(v_next)
    if abs(np.vdot(v_next, u_next)) <= _BIORTH_TOL:
        raise BiorthogonalityLostError(
            "updated vectors are numerically orthogonal"
        )
    return v_next, u_next, False
