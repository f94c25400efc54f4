"""Contraction order of every structured and pencil step.

The paper claims locally cubic convergence for the two-sided step and
for its generalized Hermitian, Hamiltonian and skew-Hamiltonian
versions.  Each step here is fitted the way acc3 fits the two-sided
step: the slope of log10(e1) on log10(e0) over 100 instances at n = 20,
each started at a largest principal angle uniform in (1e-4, 3e-2) from
its target, must be at least 2.5.  A fixed-shift step, which is first
order, must fail the same gate, so the fit tells the orders apart.

The seeds were fixed before any slope was seen.  Instance t is trial t
of seed 4179, drawn by the code the studies and ``gen`` use; its start
(and the pencil's B) comes from trial t of seed 4179 + 2**40, whose
stream keys (seed XOR trial) never meet the instance keys.  An instance
for which a trial returns None is skipped (no trial does so now); at
least 30 must remain.
"""
import numpy as np
import pytest

from grqi import (
    PencilPair,
    generalized_hermitian_step,
    hamiltonian_step,
    largest_principal_angle,
    one_sided_step,
    orthonormalize,
    pencil_tsgrqi_step,
    shifted_solve,
    subspace_at_angle,
    trial_rng,
)
from grqi.experiments import _instance

N, P, TRIALS = 20, 5, 100
SEED = 4179
START_SEED = SEED + 2**40
GATE = 2.5
MIN_USED = 30


def start_near(target, rng):
    return subspace_at_angle(target, float(rng.uniform(1e-4, 3e-2)), rng)


def one_sided(kind):
    """(e0, e1) of the one-sided step on ``gen --kind`` instances; J is
    implied when the instance has no E."""

    def trial(t, rng):
        c, e, oracle, _ = _instance(kind, N, P, SEED, t, 0.0)
        y = start_near(oracle.right, rng)
        out = hamiltonian_step(c, y) if e is None else one_sided_step(c, e, y)
        return (
            largest_principal_angle(y, oracle.right),
            largest_principal_angle(out, oracle.right),
        )

    return trial


def skew_hamiltonian(t, rng):
    """H^2 for a Hamiltonian H is skew-Hamiltonian.  The target is H's
    first mirror group, the Hamiltonian instance's oracle: it is real,
    closed under conjugation and invariant under H^2.  J maps the right
    eigenspace of an eigenvalue mu of a real H^2 onto the left one of
    conj(mu), so a target holding mu without conj(mu) is one the J step
    cannot reach."""
    h, _, oracle, _ = _instance("hamiltonian", N, P, SEED, t, 0.0)
    y = start_near(oracle.right, rng)
    out = hamiltonian_step(h @ h, y)
    return (
        largest_principal_angle(y, oracle.right),
        largest_principal_angle(out, oracle.right),
    )


def generalized_hermitian(t, rng):
    """The Hermitian pencil (E C, E) of an E-Hermitian instance C, whose
    deflating subspaces are the eigenspaces of C."""
    c, e, oracle, _ = _instance("e-hermitian", N, P, SEED, t, 0.0)
    a = e @ c
    a = (a + a.conj().T) / 2.0
    y = start_near(oracle.right, rng)
    out = generalized_hermitian_step(a, e, y)
    return (
        largest_principal_angle(y, oracle.right),
        largest_principal_angle(out, oracle.right),
    )


def pencil_two_sided(t, rng):
    """The pencil (B C, B) of a diagonalizable instance C with B = I + G,
    ||G||_2 = 1/2.  Its right deflating subspace is C's right eigenspace
    V_R; its left one, which the hatted left iterate tracks, is
    B^{-H} V_L.  The error is the sum over both sides."""
    c, _, oracle, _ = _instance("diagonalizable", N, P, SEED, t, 0.0)
    g = rng.standard_normal((N, N))
    b = np.eye(N) + 0.5 * g / np.linalg.norm(g, 2)
    left = orthonormalize(np.linalg.solve(b.conj().T, oracle.left.basis))
    right = oracle.right
    pair = PencilPair(
        hatted_left=start_near(left, rng), right=start_near(right, rng)
    )
    out, _ = pencil_tsgrqi_step(b @ c, b, pair)
    return tuple(
        largest_principal_angle(s.left, left)
        + largest_principal_angle(s.right, right)
        for s in (pair, out)
    )


def fixed_shift(t, rng):
    """Inverse iteration on one eigenvector with the shift held 0.3 from
    its eigenvalue (the others are at least 1 away): first order."""
    c, _, oracle, _ = _instance("diagonalizable", N, 1, SEED, t, 0.0)
    x, v = oracle.left.basis[:, 0], oracle.right.basis[:, 0]
    shift = (np.vdot(x, c @ v) / np.vdot(x, v)).real + 0.3
    y = start_near(oracle.right, rng)
    z, _ = shifted_solve(c, shift, y.basis[:, 0])
    out = orthonormalize(z[:, None])
    return (
        largest_principal_angle(y, oracle.right),
        largest_principal_angle(out, oracle.right),
    )


def fitted_order(trial):
    """Slope of log10(e1) on log10(e0) over the instances whose target
    could be built, and how many those were."""
    e0s, e1s = [], []
    for t in range(TRIALS):
        errors = trial(t, trial_rng(START_SEED, t))
        if errors is not None:
            e0s.append(errors[0])
            e1s.append(errors[1])
    slope = float(np.polyfit(np.log10(e0s), np.log10(e1s), 1)[0])
    return slope, len(e0s)


@pytest.mark.parametrize(
    "trial",
    [
        one_sided("e-hermitian"),
        one_sided("e-skew-hermitian"),
        one_sided("hamiltonian"),
        skew_hamiltonian,
        generalized_hermitian,
        pencil_two_sided,
    ],
    ids=["e-hermitian", "e-skew-hermitian", "hamiltonian", "skew-hamiltonian",
         "generalized-hermitian", "pencil-two-sided"],
)
def test_step_converges_cubically(trial):
    slope, used = fitted_order(trial)
    assert used >= MIN_USED, used
    assert slope >= GATE, (slope, used)


def test_fixed_shift_step_fails_the_order_gate():
    slope, used = fitted_order(fixed_shift)
    assert used == TRIALS
    assert slope < GATE, slope
