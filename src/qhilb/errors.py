"""Exception types shared across the package."""


class QhilbError(Exception):
    """Base class for all errors raised by qhilb."""


class DimensionMismatch(QhilbError):
    """Matrix shapes are incompatible with the requested operation."""


class NotHermitian(QhilbError):
    """Input was required to be hermitian but is not (within tolerance)."""


class NotAProjection(QhilbError):
    """Input was required to be a hermitian idempotent but is not."""


class CellMismatch(QhilbError):
    """Cells are not composable / two-cell shapes do not line up."""


class EmptyColumn(QhilbError):
    """A one-cell misses basis vectors over some source index, so no
    balanced dual exists."""

    def __init__(self, col: int):
        super().__init__(f"no basis vector with source index {col}")
        self.col = col


class InvalidQSystem(QhilbError):
    """Data fails the multiplicative-unit axioms beyond tolerance."""


class NormalizationFailure(QhilbError):
    """No positive scalar makes a block of the comparison unitary
    isometric; the input is not a valid multiplicative structure."""


class IllTypedPath(QhilbError):
    """A path of generators is not composable or hits unknown labels."""


class ParseError(QhilbError):
    """A scenario / data file does not match the expected schema."""
