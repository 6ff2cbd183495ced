"""Exception types shared across the package."""


class NetmomentError(Exception):
    """Base class for all package errors."""


class DataError(NetmomentError, ValueError):
    """Input data violates a structural contract (shape, symmetry, schema)."""


class DegenerateDegreeError(DataError):
    """Degrees with no finite solution: on the boundary of their range, or infinite.

    Carries the offending node ids in ``nodes``.
    """

    def __init__(self, message, nodes):
        super().__init__(message)
        self.nodes = list(nodes)


class SingularDesignError(NetmomentError, ValueError):
    """A required linear solve is singular (collinear covariate design).

    ``trace`` holds the per-iteration history of ``fit`` up to the failure;
    it is empty when the error comes from elsewhere.
    """

    def __init__(self, message):
        super().__init__(message)
        self.trace = []


class NonConvergenceError(NetmomentError, RuntimeError):
    """Iteration cap reached before tolerances were met.

    ``residual`` holds the last residual norm; ``trace`` holds the
    per-iteration history of ``fit`` up to the failure; it is empty when
    the error comes from elsewhere.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual
        self.trace = []
