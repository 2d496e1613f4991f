"""Exception hierarchy shared by all lobpcg_kit modules."""


class LobpcgKitError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(LobpcgKitError):
    """Operand shapes are incompatible."""


class NonSymmetricError(LobpcgKitError):
    """A matrix required to be symmetric fails the symmetry check."""


class NoConvergenceError(LobpcgKitError):
    """An internal iterative kernel exceeded its iteration cap."""


class NotPositiveDefiniteError(LobpcgKitError):
    """Cholesky hit a pivot at or below the rank-deficiency threshold."""


class DenseCapExceededError(LobpcgKitError):
    """Problem dimension exceeds the dense-kernel size cap."""


class IndexOutOfRangeError(LobpcgKitError):
    """A vertex or matrix index is outside [0, n)."""


class AsymmetricValuesError(LobpcgKitError):
    """Both (i, j) and (j, i) were supplied with values that disagree."""


class SelfLoopError(LobpcgKitError):
    """A graph edge connects a vertex to itself."""


class NegativeWeightError(LobpcgKitError):
    """A graph edge carries a negative or non-finite weight."""


class ZeroVectorError(LobpcgKitError):
    """A vector with (numerically) zero B-norm where a nonzero one is required."""


class InsufficientRankError(LobpcgKitError):
    """A basis has fewer independent columns than requested eigenpairs."""


class ZeroRankError(InsufficientRankError):
    """Every column of a block was numerically dependent and got dropped."""


class OrthonormalizationError(LobpcgKitError):
    """A block failed its B-orthonormality post-check, or its B-Gram matrix
    is not finite."""


class InvalidConfigError(LobpcgKitError):
    """A solver configuration violates its invariants."""


class BadHeaderError(LobpcgKitError):
    """A Matrix Market file does not start with a valid header line."""


class UnsupportedFieldError(LobpcgKitError):
    """A Matrix Market file uses a format/field this reader does not accept."""


class NonSymmetricDataError(LobpcgKitError):
    """A 'general' Matrix Market file holds numerically non-symmetric data."""


class MatrixMarketParseError(LobpcgKitError):
    """Malformed Matrix Market or edge-list content.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class DisconnectedGraphError(LobpcgKitError):
    """The graph is not connected, so no spectral bisection exists."""
