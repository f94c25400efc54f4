"""Random problem generators and ground-truth oracles.

Problems are drawn from counter-based RNG streams (Philox keyed by
``seed XOR trial``), so per-trial results are reproducible bit for bit and
independent of execution order.  The main generator builds mildly
nonnormal diagonalizable matrices with known eigenvector matrix; a second
one builds real matrices with the block structure [[F, G],[H, -F^T]]
(G, H symmetric), whose spectrum is symmetric about the imaginary axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NearDefectiveError,
    NotSpectralError,
    OddDimensionError,
    UnpairedEigenvalueError,
)
from .kernels import Subspace, complement_basis, orthonormalize

__all__ = [
    "trial_rng",
    "GeneratedProblem",
    "random_diagonalizable",
    "random_hamiltonian",
    "random_e_hermitian",
    "random_e_skew_hermitian",
    "subspace_at_angle",
    "nearby_subspace",
    "eigenspace_pair_oracle",
    "group_mirror_eigenvalues",
]

_GAP_RTOL = 1e-8
_EIG_COND_LIMIT = 1e8


def trial_rng(seed: int, trial: int = 0) -> np.random.Generator:
    """Counter-based generator for one trial of one batch.

    Streams are keyed by ``seed XOR trial``, so any subset of trials can be
    regenerated without running the others.
    """
    if not (0 <= seed < 2**64):
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if trial < 0:
        raise ValueError(f"trial index must be nonnegative, got {trial}")
    key = np.uint64(seed) ^ np.uint64(trial)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True, eq=False)
class GeneratedProblem:
    """A random matrix together with its exact left/right eigenspace pair.

    ``spectrum`` lists the eigenvalues carried by the oracle pair and
    ``alpha`` the nonnormality scale of the eigenvector matrix S = I +
    (alpha/||E||) E.
    """

    matrix: np.ndarray
    oracle_right: Subspace
    oracle_left: Subspace
    spectrum: np.ndarray
    alpha: float


def random_diagonalizable(
    n: int,
    p: int,
    rng: np.random.Generator,
) -> GeneratedProblem:
    """Mildly nonnormal diagonalizable matrix with a known oracle pair.

    C = S D S^{-1} with D a random permutation of diag(1..n) and
    S = I + (alpha/||E||_2) E for standard-normal E and alpha uniform on
    (0, 0.1).  The oracle subspaces are spanned by the first p columns of
    S (right) and of S^{-H} (left); the oracle spectrum is the first p
    permuted diagonal entries.
    """
    if not (1 <= p <= n):
        raise DimensionMismatchError(f"need 1 <= p <= n, got n={n}, p={p}")
    d = rng.permutation(np.arange(1.0, n + 1.0))
    e = rng.standard_normal((n, n))
    alpha = float(rng.uniform(0.0, 0.1))
    s = np.eye(n) + (alpha / np.linalg.norm(e, 2)) * e
    s_inv = np.linalg.inv(s)
    c = (s * d) @ s_inv
    return GeneratedProblem(
        matrix=c,
        oracle_right=orthonormalize(s[:, :p]),
        oracle_left=orthonormalize(s_inv.conj().T[:, :p]),
        spectrum=d[:p].astype(complex),
        alpha=alpha,
    )


def random_hamiltonian(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random real matrix of the form [[F, G],[H, -F^T]] with G, H
    symmetric, drawn from standard-normal blocks.  Its spectrum is
    symmetric with respect to the imaginary axis."""
    if n % 2 != 0:
        raise OddDimensionError(f"block form needs even n, got {n}")
    h = n // 2
    f = rng.standard_normal((h, h))
    g = rng.standard_normal((h, h))
    k = rng.standard_normal((h, h))
    return np.block([[f, g + g.T], [k + k.T, -f.T]])


def _random_e_pair(n: int, rng: np.random.Generator, sign: float):
    """(C, E) as C = E^{-1} M with E Hermitian positive definite and
    M = sign * M^H, so that E C = sign * C^H E."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    e = a @ a.conj().T + n * np.eye(n)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = (m + sign * m.conj().T) / 2.0
    c = np.linalg.solve(e, m)
    return c, e


def random_e_hermitian(
    n: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Random pair (C, E) with E Hermitian positive definite and
    E C = C^H E.  Built as C = E^{-1} M with M Hermitian."""
    return _random_e_pair(n, rng, 1.0)


def random_e_skew_hermitian(
    n: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Random pair (C, E) with E Hermitian positive definite and
    E C = -C^H E.  Built as C = E^{-1} M with M skew-Hermitian."""
    return _random_e_pair(n, rng, -1.0)


def subspace_at_angle(
    v: Subspace,
    theta: float,
    rng: np.random.Generator,
) -> Subspace:
    """A subspace at exactly the prescribed largest principal angle from
    ``v``, in a uniformly random direction.

    Constructed as span(V + V_perp K) with ||K||_2 = tan(theta), which by
    the tangent identity realizes the angle exactly.
    """
    if not (0.0 <= theta < np.pi / 2):
        raise ValueError(f"theta must lie in [0, pi/2), got {theta}")
    if theta == 0.0 or v.p == v.n:
        return Subspace(v.basis.copy())
    perp = complement_basis(v)
    if np.iscomplexobj(v.basis):
        k = rng.standard_normal((v.n - v.p, v.p)) + 1j * rng.standard_normal(
            (v.n - v.p, v.p)
        )
    else:
        k = rng.standard_normal((v.n - v.p, v.p))
    k *= np.tan(theta) / np.linalg.norm(k, 2)
    return orthonormalize(v.basis + perp @ k)


def nearby_subspace(
    v: Subspace,
    delta_max: float,
    rng: np.random.Generator,
) -> Subspace:
    """A random subspace within largest principal angle ``delta_max`` of
    ``v``; the realized angle is uniform on (0, delta_max)."""
    if delta_max < 0.0 or delta_max >= np.pi / 2:
        raise ValueError(
            f"delta_max must lie in [0, pi/2), got {delta_max}"
        )
    if delta_max == 0.0:
        return Subspace(v.basis.copy())
    return subspace_at_angle(v, float(rng.uniform(0.0, delta_max)), rng)


def _stable_order(values: np.ndarray) -> np.ndarray:
    """Indices sorting by modulus descending, ties broken by real then
    imaginary part so the ordering is reproducible."""
    return np.lexsort((values.imag, values.real, -np.abs(values)))


def group_mirror_eigenvalues(
    values: np.ndarray,
    tol: float,
    conjugate_closed: bool = False,
) -> list[np.ndarray]:
    """Partition eigenvalues into groups symmetric about the imaginary
    axis.

    Two eigenvalues are linked when one lies within ``tol`` of the other
    or of one of the other's images: the mirror image -conj(lambda) and,
    with ``conjugate_closed`` (real matrices, whose invariant subspaces of
    interest are real), conj(lambda).  The groups are the connected
    components of that relation, so multiplicities stay together.  They
    come in the order of their first member in descending modulus (ties
    broken by real, then imaginary part), each with its indices ascending.
    Raises :class:`~grqi.errors.UnpairedEigenvalueError` when an image of
    some eigenvalue has no eigenvalue within ``tol``.
    """
    order = _stable_order(values)
    ranked = values[order]
    images = [ranked, -np.conj(ranked)]
    if conjugate_closed:
        images.append(np.conj(ranked))
    # near[k, i, j]: ranked[j] lies within tol of image k of ranked[i].
    near = np.abs(ranked - np.stack(images)[:, :, None]) <= tol
    missing = np.argwhere(~near.any(axis=2))
    if missing.size:
        k, i = missing[0]
        raise UnpairedEigenvalueError(
            f"eigenvalue {ranked[i]} has no eigenvalue within {tol:.3e} of "
            f"its image {images[k][i]}"
        )
    # The link is symmetric (|mu + conj(lambda)| = |lambda + conj(mu)|,
    # |mu - conj(lambda)| = |lambda - conj(mu)|).  Each component takes the
    # smallest rank in it as label, spread one link per round.
    link = near.any(axis=0)
    label = np.arange(len(ranked))
    for _ in range(len(ranked)):
        spread = np.where(link, label, len(ranked)).min(axis=1)
        if np.array_equal(spread, label):
            break
        label = spread
    return [np.sort(order[label == r]) for r in np.unique(label)]


def _mirror_groups(c: np.ndarray, conjugate_closed: bool):
    """Eigenvalues, eigenvector matrix and mirror-symmetric groups (index
    arrays) of ``c``, in descending order of largest absolute real part,
    ties in their order of :func:`group_mirror_eigenvalues`; only the
    groups a caller keeps need their bases orthonormalized."""
    values, s = _checked_eig(c)
    tol = 1e-8 * max(1.0, float(np.linalg.norm(c, 2)))
    groups = group_mirror_eigenvalues(values, tol, conjugate_closed)
    return values, s, sorted(
        groups, key=lambda g: -float(np.abs(values[g].real).max())
    )


def _checked_eig(c: np.ndarray):
    """Eigenvalues and eigenvector matrix of the square matrix ``c``;
    :class:`~grqi.errors.NearDefectiveError` when the eigenvector matrix
    condition exceeds 1e8."""
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise DimensionMismatchError(f"matrix must be square, got {c.shape}")
    values, s = np.linalg.eig(c)
    cond = float(np.linalg.cond(s))
    if cond > _EIG_COND_LIMIT:
        raise NearDefectiveError(
            f"eigenvector matrix condition {cond:.3e} exceeds "
            f"{_EIG_COND_LIMIT:.1e}"
        )
    return values, s


def eigenspace_pair_oracle(
    c: np.ndarray, p: int
) -> tuple[Subspace, Subspace, np.ndarray]:
    """Exact left/right eigenspace pair ``(left, right, spectrum)`` for
    the p eigenvalues of largest modulus, ties going to the smaller real,
    then imaginary part.  Raises
    :class:`~grqi.errors.DimensionMismatchError` unless 1 <= p <= n,
    :class:`~grqi.errors.NearDefectiveError` when the eigenvector matrix
    is too ill-conditioned to trust, and
    :class:`~grqi.errors.NotSpectralError` when the selected subset is
    not separated from the remaining spectrum.
    """
    c = np.asarray(c)
    values, s = _checked_eig(c)
    n = c.shape[0]
    if not 1 <= p <= n:
        raise DimensionMismatchError(f"need 1 <= p <= {n}, got p = {p}")
    idx = _stable_order(values)[:p]
    rest = np.setdiff1d(np.arange(n), idx)
    if rest.size:
        gap = np.abs(values[idx][:, None] - values[rest][None, :]).min()
        scale = float(np.linalg.norm(c, 2))
        if gap <= _GAP_RTOL * scale:
            raise NotSpectralError(
                f"selected eigenvalues are separated from the rest by only "
                f"{gap:.3e} (threshold {_GAP_RTOL * scale:.3e})"
            )
    s_inv_h = np.linalg.inv(s).conj().T
    return (
        orthonormalize(s_inv_h[:, idx]),
        orthonormalize(s[:, idx]),
        values[idx],
    )
