"""Benchmark inputs with exact targets, built with numpy alone.

Every matrix here is a similarity (or pencil equivalence) of a diagonal or
block-diagonal core whose eigenvectors are known by construction, so the
target subspaces and eigenvalues are exact and do not come from the
program under test.  Starting subspaces sit at a fixed largest principal
angle from their targets, realized exactly through the tangent identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Variant:
    """One large-n refinement problem.

    ``matrices`` holds (C,), (C, C^T) for the two-sided variant, or the
    pencil (A, B);
    ``right``/``left`` are orthonormal target bases (``left`` is None for
    one-sided variants); ``eigenvalues`` the exact target spectrum;
    ``start_right``/``start_left`` the starting bases.
    """

    name: str
    kind: str
    matrices: tuple
    right: np.ndarray
    left: np.ndarray | None
    eigenvalues: np.ndarray
    start_right: np.ndarray
    start_left: np.ndarray | None


def orth(x: np.ndarray) -> np.ndarray:
    return np.linalg.qr(x)[0]


def near_identity(rng: np.random.Generator, n: int, size: float = 0.1):
    """I + size * E / (2 sqrt(n)) for standard-normal E: a well-conditioned
    nonnormal eigenvector matrix (2 sqrt(n) approximates ||E||_2)."""
    return np.eye(n) + (size / (2.0 * np.sqrt(n))) * rng.standard_normal((n, n))


def start_near(rng: np.random.Generator, target: np.ndarray, angle: float):
    """Orthonormal basis at largest principal angle ``angle`` from the
    orthonormal basis ``target``: span(V + V_perp K) with ||K||_2 =
    tan(angle)."""
    g = rng.standard_normal(target.shape)
    g -= target @ (target.conj().T @ g)
    g *= np.tan(angle) / np.linalg.norm(g, 2)
    return orth(target + g)


def two_sided(rng, n: int, p: int, angle: float) -> Variant:
    """C = S diag(d) S^{-1}; targets span(S[:, :p]) and span(S^{-H}[:, :p])."""
    d = rng.permutation(np.arange(1.0, n + 1.0))
    s = near_identity(rng, n)
    s_inv = np.linalg.inv(s)
    c = (s * d) @ s_inv
    right, left = orth(s[:, :p]), orth(s_inv.T[:, :p])
    return Variant(
        f"two_sided_p{p}", "two_sided", (c, c.T.copy()), right, left,
        d[:p], start_near(rng, right, angle), start_near(rng, left, angle),
    )


def hermitian(rng, n: int, p: int, angle: float) -> Variant:
    """A = Q diag(d) Q^T with Q orthogonal; target span(Q[:, :p])."""
    d = rng.permutation(np.arange(1.0, n + 1.0))
    q = orth(rng.standard_normal((n, n)))
    a = (q * d) @ q.T
    a = (a + a.T) / 2.0
    right = q[:, :p]
    return Variant(
        "hermitian", "hermitian", (a,), right, None, d[:p],
        start_near(rng, right, angle), None,
    )


def generalized(rng, n: int, p: int, angle: float) -> Variant:
    """A = X^{-T} diag(l) X^{-1}, B = X^{-T} X^{-1} (positive definite), so
    A X = B X diag(l); target span(X[:, :p])."""
    lam = rng.permutation(np.arange(1.0, n + 1.0))
    x = near_identity(rng, n)
    x_inv = np.linalg.inv(x)
    a = (x_inv.T * lam) @ x_inv
    b = x_inv.T @ x_inv
    a, b = (a + a.T) / 2.0, (b + b.T) / 2.0
    right = orth(x[:, :p])
    return Variant(
        "generalized", "generalized", (a, b), right, None, lam[:p],
        start_near(rng, right, angle), None,
    )


def pencil(rng, n: int, p: int, angle: float) -> Variant:
    """A = Y^{-H} diag(d) X^{-1}, B = Y^{-H} X^{-1}: right deflating
    vectors X, left ones Y (y^H A = d y^H B); targets their first p
    columns.  B is far from the identity."""
    d = rng.permutation(np.arange(1.0, n + 1.0))
    x = near_identity(rng, n)
    y = near_identity(rng, n)
    x_inv = np.linalg.inv(x)
    y_inv_h = np.linalg.inv(y).T
    a = (y_inv_h * d) @ x_inv
    b = y_inv_h @ x_inv
    right, left = orth(x[:, :p]), orth(y[:, :p])
    return Variant(
        "pencil", "pencil", (a, b), right, left, d[:p],
        start_near(rng, right, angle), start_near(rng, left, angle),
    )


def hamiltonian(rng, n: int, angle: float) -> Variant:
    """C = T H0 T^{-1} with H0 = diag(D, -D^T) and T symplectic.

    D carries one 2x2 block with eigenvalues a +/- ib, so C has the mirror
    quadruple {a +/- ib, -a +/- ib}; its right eigenspace is spanned by
    T[:, [0, 1, h, h+1]] (p = 4).  T = diag(X, X^{-T}) [[I, 0], [K, I]]
    [[I, G], [0, I]] with K, G symmetric is symplectic, so T^{-1} =
    -J T^T J is exact and C is Hamiltonian.
    """
    h = n // 2
    dvals = rng.permutation(np.arange(1.0, h + 1.0)) + 0.5
    dmat = np.diag(dvals)
    a_re, a_im = float(h) + 7.25, 3.5
    dmat[:2, :2] = [[a_re, a_im], [-a_im, a_re]]
    x = near_identity(rng, h)
    k = 0.05 * rng.standard_normal((h, h)) / np.sqrt(h)
    g = 0.05 * rng.standard_normal((h, h)) / np.sqrt(h)
    k, g = k + k.T, g + g.T
    zero, eye = np.zeros((h, h)), np.eye(h)
    t = (
        np.block([[x, zero], [zero, np.linalg.inv(x).T]])
        @ np.block([[eye, zero], [k, eye]])
        @ np.block([[eye, g], [zero, eye]])
    )
    jm = np.block([[zero, eye], [-eye, zero]])
    t_inv = -jm @ t.T @ jm
    c = t @ np.block([[dmat, zero], [zero, -dmat.T]]) @ t_inv
    right = orth(t[:, [0, 1, h, h + 1]])
    lam = np.array(
        [a_re + 1j * a_im, a_re - 1j * a_im, -a_re + 1j * a_im,
         -a_re - 1j * a_im]
    )
    return Variant(
        "hamiltonian", "hamiltonian", (c,), right, None, lam,
        start_near(rng, right, angle), None,
    )
