"""Fit contraction orders by ensemble regression: the slope of
log10(e1) on log10(e0) over instances started at random distances from
their targets.  That spread in e0 is what the regression needs; a direct
3-point fit bottoms out at the arithmetic floor well before e2.

Every ensemble fit of the repository is written here once.  Acceptance
test acc3 runs ``paper_orders`` (the two-sided step, and the Newton step
on nonnormal and Hermitian instances); ``tests/test_convergence_order.py``
gates each of ``STEP_TRIALS`` and the ``fixed_shift`` control through
``fitted_order``.  Those fits keep the test's seeds and start range and
follow only --instances, --n (even) and --p.
"""
import argparse

import numpy as np

from grqi import (
    PencilPair,
    SubspacePair,
    generalized_hermitian_step,
    hamiltonian_step,
    largest_principal_angle,
    nearby_subspace,
    newton_chatelin_step,
    one_sided_step,
    orthonormalize,
    pencil_tsgrqi_step,
    random_diagonalizable,
    shifted_solve,
    subspace_at_angle,
    trial_rng,
    tsgrqi_step,
)
from grqi.experiments import _instance

# Step fits draw instance t from trial t of STEP_SEED and its start from
# trial t of STEP_SEED + 2**40 (stream keys seed XOR trial never meet).
STEP_SEED = 4179


def slope(x, y):
    return float(np.polyfit(np.log10(x), np.log10(y), 1)[0])


def pair_error(pair, left, right):
    return (
        largest_principal_angle(pair.left, left)
        + largest_principal_angle(pair.right, right)
    )


def paper_orders(instances, n, p, seed, start):
    """Fitted orders of the two-sided step, the Newton step on nonnormal
    instances and the Newton step on Hermitian ones.  Instance t draws
    all three problems, in that order, from trial t of ``seed``, each
    started below ``start`` from its target."""
    e0s, e1s, n0s, n1s, h0s, h1s = [], [], [], [], [], []
    for t in range(instances):
        rng = trial_rng(seed, t)
        prob = random_diagonalizable(n, p, rng)
        vl, vr = prob.oracle_left, prob.oracle_right
        pair = SubspacePair(
            left=nearby_subspace(vl, start, rng),
            right=nearby_subspace(vr, start, rng),
        )
        e0s.append(pair_error(pair, vl, vr))
        pair, _ = tsgrqi_step(prob.matrix, pair)
        e1s.append(pair_error(pair, vl, vr))

        y = nearby_subspace(vr, start, rng)
        n0s.append(largest_principal_angle(y, vr))
        y = newton_chatelin_step(prob.matrix, y)
        n1s.append(largest_principal_angle(y, vr))

        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        d = rng.permutation(np.arange(1.0, n + 1.0))
        a = (q * d) @ q.T
        vh = orthonormalize(q[:, :p])
        y = nearby_subspace(vh, start, rng)
        h0s.append(largest_principal_angle(y, vh))
        y = newton_chatelin_step(a, y)
        h1s.append(largest_principal_angle(y, vh))
    return slope(e0s, e1s), slope(n0s, n1s), slope(h0s, h1s)


def start_near(target, rng):
    return subspace_at_angle(target, float(rng.uniform(1e-4, 3e-2)), rng)


def angles(y, out, target):
    return (
        largest_principal_angle(y, target),
        largest_principal_angle(out, target),
    )


def one_sided(kind):
    """(e0, e1) of the one-sided step on ``gen --kind`` instances; J is
    implied when the instance has no E."""

    def trial(n, p, seed, t, rng):
        c, e, oracle, _ = _instance(kind, n, p, seed, t, 0.0)
        y = start_near(oracle.right, rng)
        out = hamiltonian_step(c, y) if e is None else one_sided_step(c, e, y)
        return angles(y, out, oracle.right)

    return trial


def skew_hamiltonian(n, p, seed, t, rng):
    """H^2 for a Hamiltonian H is skew-Hamiltonian.  The target is H's
    first mirror group, the Hamiltonian instance's oracle: it is real,
    closed under conjugation and invariant under H^2.  J maps the right
    eigenspace of an eigenvalue mu of a real H^2 onto the left one of
    conj(mu), so a target holding mu without conj(mu) is one the J step
    cannot reach."""
    h, _, oracle, _ = _instance("hamiltonian", n, p, seed, t, 0.0)
    y = start_near(oracle.right, rng)
    return angles(y, hamiltonian_step(h @ h, y), oracle.right)


def generalized_hermitian(n, p, seed, t, rng):
    """The Hermitian pencil (E C, E) of an E-Hermitian instance C, whose
    deflating subspaces are the eigenspaces of C."""
    c, e, oracle, _ = _instance("e-hermitian", n, p, seed, t, 0.0)
    a = e @ c
    a = (a + a.conj().T) / 2.0
    y = start_near(oracle.right, rng)
    return angles(y, generalized_hermitian_step(a, e, y), oracle.right)


def pencil_two_sided(n, p, seed, t, rng):
    """The pencil (B C, B) of a diagonalizable instance C with B = I + G,
    ||G||_2 = 1/2.  Its right deflating subspace is C's right eigenspace
    V_R; its left one, which the hatted left iterate tracks, is
    B^{-H} V_L.  The error is the sum over both sides."""
    c, _, oracle, _ = _instance("diagonalizable", n, p, seed, t, 0.0)
    g = rng.standard_normal((n, n))
    b = np.eye(n) + 0.5 * g / np.linalg.norm(g, 2)
    left = orthonormalize(np.linalg.solve(b.conj().T, oracle.left.basis))
    right = oracle.right
    pair = PencilPair(
        hatted_left=start_near(left, rng), right=start_near(right, rng)
    )
    out, _ = pencil_tsgrqi_step(b @ c, b, pair)
    return pair_error(pair, left, right), pair_error(out, left, right)


def fixed_shift(n, p, seed, t, rng):
    """Inverse iteration on one eigenvector (``p`` is not read) with the
    shift held 0.3 from its eigenvalue (the others are at least 1 away):
    first order."""
    c, _, oracle, _ = _instance("diagonalizable", n, 1, seed, t, 0.0)
    x, v = oracle.left.basis[:, 0], oracle.right.basis[:, 0]
    shift = (np.vdot(x, c @ v) / np.vdot(x, v)).real + 0.3
    y = start_near(oracle.right, rng)
    z, _ = shifted_solve(c, shift, y.basis[:, 0])
    return angles(y, orthonormalize(z[:, None]), oracle.right)


STEP_TRIALS = {
    "e-hermitian": one_sided("e-hermitian"),
    "e-skew-hermitian": one_sided("e-skew-hermitian"),
    "hamiltonian": one_sided("hamiltonian"),
    "skew-hamiltonian": skew_hamiltonian,
    "generalized-hermitian": generalized_hermitian,
    "pencil-two-sided": pencil_two_sided,
}


def fitted_order(trial, instances, n, p, seed, start_seed):
    """Slope of log10(e1) on log10(e0) over the instances.  Instance t is
    built from trial t of ``seed`` and started from trial t of
    ``start_seed``."""
    e0s, e1s = zip(*(
        trial(n, p, seed, t, trial_rng(start_seed, t))
        for t in range(instances)
    ))
    return slope(e0s, e1s)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instances", type=int, default=100)
    ap.add_argument("--n", type=int, default=20)
    ap.add_argument("--p", type=int, default=5)
    ap.add_argument("--seed", type=int, default=77)
    ap.add_argument("--start", type=float, default=1e-2)
    args = ap.parse_args()
    if args.n % 2:
        ap.error("--n must be even: the Hamiltonian fits need it")

    size = (args.instances, args.n, args.p)
    labels = ("two-sided step", "newton, nonnormal", "newton, hermitian")
    for label, order in zip(labels, paper_orders(*size, args.seed, args.start)):
        print(f"{label + ':':<19} {order:.3f}")
    for label, trial in {**STEP_TRIALS, "fixed-shift": fixed_shift}.items():
        order = fitted_order(trial, *size, STEP_SEED, STEP_SEED + 2**40)
        print(f"{label + ':':<19} {order:.3f}")


if __name__ == "__main__":
    main()
