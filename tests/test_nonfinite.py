"""A NaN or infinite operand fails as a ``NonfiniteOperandError`` that
names it, so ``iterate`` records the failure instead of aborting."""
import numpy as np
import pytest

from grqi import (
    FAILURE,
    GrqiError,
    NonfiniteOperandError,
    PencilPair,
    Subspace,
    SubspacePair,
    choose_pencil_normalization,
    generalized_hermitian_step,
    grqi_step,
    hamiltonian_step,
    iterate,
    one_sided_step,
    pencil_tsgrqi_step,
    residual_angle,
    tsgrqi_step,
)

N = 4
Y = Subspace(np.eye(N)[:, :2])
PAIR = SubspacePair(left=Y, right=Y)
PENCIL = PencilPair(hatted_left=Y, right=Y)


def diag(bad=None):
    """diag(1..4), with entry (1, 1) set to ``bad`` when given."""
    m = np.diag(np.arange(1.0, N + 1.0))
    if bad is not None:
        m[1, 1] = bad
    return m


CASES = {
    "tsgrqi": (lambda m: tsgrqi_step(m, PAIR), "matrix"),
    "grqi": (lambda m: grqi_step(m, Y), "matrix"),
    "one_sided": (lambda m: one_sided_step(m, np.eye(N), Y), "matrix"),
    "one_sided_e": (lambda m: one_sided_step(diag(), m, Y), "E"),
    "hamiltonian": (lambda m: hamiltonian_step(m, Y), "matrix"),
    "generalized_a": (
        lambda m: generalized_hermitian_step(m, np.eye(N), Y), "A"
    ),
    "generalized_b": (
        lambda m: generalized_hermitian_step(diag(), m, Y), "B"
    ),
    "pencil_a": (lambda m: pencil_tsgrqi_step(m, np.eye(N), PENCIL), "A"),
    "pencil_b": (lambda m: pencil_tsgrqi_step(diag(), m, PENCIL), "B"),
    "normalization_a": (
        lambda m: choose_pencil_normalization(m, np.eye(N)), "A"
    ),
    "normalization_b": (
        lambda m: choose_pencil_normalization(diag(), m), "B"
    ),
    "residual_c": (lambda m: residual_angle(m, Y), "C"),
    "residual_b": (lambda m: residual_angle(diag(), Y, m), "B"),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("case", list(CASES))
def test_nonfinite_operand_is_named(case, bad):
    call, name = CASES[case]
    with pytest.raises(NonfiniteOperandError) as info:
        call(diag(bad))
    assert str(info.value) == f"{name} has NaN or infinite entries"
    assert isinstance(info.value, GrqiError)


@pytest.mark.parametrize("case", ["tsgrqi", "grqi", "pencil_b"])
def test_iterate_records_a_nonfinite_step_as_failure(case):
    call, name = CASES[case]
    trace = iterate(lambda state: call(diag(np.nan)), PAIR)
    assert trace.status == FAILURE
    assert trace.failure_reason == (
        f"NonfiniteOperandError: {name} has NaN or infinite entries"
    )


def test_iterate_records_a_nonfinite_residual_as_failure():
    trace = iterate(
        lambda y: grqi_step(diag(), y, full_output=True), Y,
        residual=lambda y: residual_angle(diag(np.nan), y),
    )
    assert trace.status == FAILURE
    assert trace.iterates == 1
    assert "NonfiniteOperandError: C has" in trace.failure_reason
