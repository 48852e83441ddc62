"""Exception taxonomy shared by all tetrakit modules."""


class TetrakitError(Exception):
    """Base class for all tetrakit errors."""


class DimensionError(TetrakitError):
    """Matrix dimensions are empty, mismatched, or otherwise unusable."""


class PreconditionError(TetrakitError):
    """A documented precondition of an operation was violated."""


class PoleError(PreconditionError):
    """Evaluation requested at (or too close to) a pole of a rational map."""


class NotPSDError(PreconditionError):
    """A nominally positive semidefinite input has a genuinely negative eigenvalue."""


class NotAContractionError(PreconditionError):
    """Operator norm exceeds one beyond tolerance where a contraction is required."""


class NotCommutingError(PreconditionError):
    """A family that must commute has a commutator above tolerance."""


class NoSolutionError(TetrakitError):
    """A linear system that must be consistent is not; carries the residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


class InconsistentInputError(TetrakitError):
    """Input data violates a structural identity it was claimed to satisfy."""


class InternalConsistencyError(TetrakitError):
    """A guaranteed post-condition failed; indicates a bug or a lying input."""


class SchemaError(TetrakitError):
    """A JSON document does not conform to the tetrakit I/O schema."""
