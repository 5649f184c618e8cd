"""Exception types shared across the library."""


class ZClosureError(Exception):
    """Base class for all library errors."""


class SingularMatrix(ZClosureError):
    """A matrix required to be invertible has determinant zero."""


class NotUnipotent(ZClosureError):
    """Operation requires a unipotent matrix."""


class NotSemisimple(ZClosureError):
    """Operation requires a semisimple matrix."""


class UnsupportedEigenvalues(ZClosureError):
    """The spectrum is not rational, so the exact relation engine cannot run."""


class NonInvertibleUpdate(ZClosureError):
    """An affine-program update matrix is singular; carries the update index."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"update {index} is not invertible")


class ResourceLimit(ZClosureError):
    """A fixed work budget (S-pairs, degree, coordinates, ...) was exceeded."""


class NoStabilization(ZClosureError):
    """Iterative deepening exhausted its degree budget without stabilizing."""
