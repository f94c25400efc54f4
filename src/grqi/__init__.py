"""Refinement of left-right invariant subspace pairs by two-sided
Grassmann Rayleigh quotient iteration, with structure-exploiting one-sided
variants, a Newton baseline, problem generators, and experiment drivers.
"""

from .errors import (
    DegeneratePencilError,
    DimensionMismatchError,
    GramSingularError,
    GrqiError,
    MissingOracleError,
    NearDefectiveError,
    NotHermitianError,
    NotSpectralError,
    OddDimensionError,
    ParseError,
    RankDeficientError,
    SingularPencilShiftError,
    SolveFailedError,
    SpectraOverlapError,
    UnpairedEigenvalueError,
    UnsupportedFormatError,
)
from .kernels import (
    Subspace,
    complement_basis,
    largest_principal_angle,
    orthonormalize,
    residual_angle,
    shifted_solve,
    small_eig,
    solve_eps,
    sylvester_solve,
)
from .iterations import (
    CONVERGED,
    FAILURE,
    MAX_ITERS,
    IterationRecord,
    IterationTrace,
    StepConfig,
    StepDiagnostics,
    SubspacePair,
    grqi_step,
    iterate,
    newton_chatelin_step,
    tsgrqi_step,
)
from .structured import (
    STRUCTURES,
    PencilCoefficients,
    PencilPair,
    StructureCheck,
    TargetGroup,
    apply_j,
    check_structure,
    choose_pencil_normalization,
    full_eigenspace_targets,
    generalized_hermitian_step,
    hamiltonian_step,
    j_matrix,
    one_sided_step,
    pencil_tsgrqi_step,
)
from .testgen import (
    GeneratedProblem,
    eigenspace_pair_oracle,
    group_mirror_eigenvalues,
    nearby_subspace,
    random_diagonalizable,
    random_e_hermitian,
    random_e_skew_hermitian,
    random_hamiltonian,
    select_top_modulus,
    subspace_at_angle,
    trial_rng,
)

from .mmio import read_matrix, write_matrix
from .experiments import (
    ExperimentConfig,
    ExperimentSummary,
    format_table,
    hamiltonian_success,
    read_traces,
    run_hamiltonian,
    run_table1,
    summarize,
    summary_json,
    write_summary,
    write_traces,
)

__version__ = "0.1.0"
