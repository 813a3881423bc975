"""Exception hierarchy shared by all facesim modules.

Each CLI exit code maps to one branch of this hierarchy.
"""


class FacesimError(Exception):
    """Base class for all errors raised by this package."""


class DataError(FacesimError):
    """Malformed or inconsistent input data (CLI exit code 3)."""


class FormatError(DataError):
    """A file does not conform to its documented format."""


class ValidationError(DataError):
    """Parsed data violates a structural invariant."""

    row = None  # the first invalid row of an embedding table, where one is named


class IntegrityError(DataError):
    """A cross-reference (image_id, triplet_id, label) cannot be resolved."""


class DegenerateVectorError(DataError):
    """A vector with zero norm was passed where cosine similarity is needed."""


class EvaluationError(DataError):
    """An evaluation was requested on an empty or unusable sample set."""


class DivergenceError(FacesimError):
    """Training produced non-finite loss or weights (CLI exit code 4)."""

    def __init__(self, message, epoch=None, batch=None):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch


class InfeasibleSplitError(FacesimError):
    """The requested evaluation split cannot be satisfied (CLI exit code 5)."""
