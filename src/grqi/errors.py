"""Exception types shared across the package.

All numerical failure modes raise subclasses of :class:`GrqiError`, so
callers (in particular the CLI and the experiment drivers) can catch one
base class and record the failure instead of aborting a batch.
"""


class GrqiError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(GrqiError):
    """Operands have incompatible shapes."""


class NonfiniteOperandError(GrqiError):
    """An operand has NaN or infinite entries; the message names it."""


class RankDeficientError(GrqiError):
    """A matrix that must have full column rank does not."""


class NotHermitianError(GrqiError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NearDefectiveError(GrqiError):
    """Eigenvector basis of a small block is too ill-conditioned to trust."""


class SolveFailedError(GrqiError):
    """A shifted linear solve produced nonfinite values even after the
    fallback perturbation."""


class SingularPencilShiftError(SolveFailedError):
    """A shifted pencil solve stayed nonfinite after perturbation."""


class SpectraOverlapError(GrqiError):
    """The two coefficient matrices of a Sylvester equation have
    (numerically) intersecting spectra."""


class GramSingularError(GrqiError):
    """The cross Gram matrix of a left-right basis pair is numerically
    singular."""


class OddDimensionError(GrqiError):
    """An operation requiring even dimension (block symplectic form) was
    given an odd-sized matrix."""


class UnpairedEigenvalueError(GrqiError):
    """An eigenvalue has no mirror partner across the imaginary axis within
    the matching tolerance."""


class NotSpectralError(GrqiError):
    """The selected eigenvalue subset is not separated from the rest of the
    spectrum, so it does not define a spectral subspace."""


class DegeneratePencilError(GrqiError):
    """No usable normalization of the pencil was found (shifted combination
    singular or too ill-conditioned)."""


class MissingOracleError(GrqiError):
    """Summary statistics were requested from traces that carry no oracle
    error columns."""


class ParseError(GrqiError):
    """A matrix or trace file could not be parsed at 1-based line
    ``line`` of ``path``; the message reads ``path:line: message``."""

    def __init__(self, message, path, line):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


class UnsupportedFormatError(ParseError):
    """A :class:`ParseError` at ``path:1``: the header names an unsupported
    layout, such as sparse coordinate data or a non-general symmetry."""
