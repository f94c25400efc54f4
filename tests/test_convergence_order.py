"""Contraction order of every structured and pencil step.

The paper claims locally cubic convergence for the two-sided step and
for its generalized Hermitian, Hamiltonian and skew-Hamiltonian
versions.  Each step here is fitted the way acc3 fits the two-sided
step: the slope of log10(e1) on log10(e0) over 100 instances at n = 20,
each started at a largest principal angle uniform in (1e-4, 3e-2) from
its target, must be at least 2.5.  A fixed-shift step, which is first
order, must fail the same gate, so the fit tells the orders apart.  The
trials and the fit are those of ``scripts/order_fit.py``.

The seeds were fixed before any slope was seen.  Instance t is trial t
of seed 4179, drawn by the code the studies and ``gen`` use; its start
(and the pencil's B) comes from trial t of seed 4179 + 2**40, whose
stream keys (seed XOR trial) never meet the instance keys.
"""
import pytest

from order_fit import STEP_TRIALS, fitted_order, fixed_shift

N, P, TRIALS = 20, 5, 100
SEED = 4179
START_SEED = SEED + 2**40
GATE = 2.5


@pytest.mark.parametrize("trial", STEP_TRIALS.values(), ids=list(STEP_TRIALS))
def test_step_converges_cubically(trial):
    slope = fitted_order(trial, TRIALS, N, P, SEED, START_SEED)
    assert slope >= GATE, slope


def test_fixed_shift_step_fails_the_order_gate():
    slope = fitted_order(fixed_shift, TRIALS, N, P, SEED, START_SEED)
    assert slope < GATE, slope
