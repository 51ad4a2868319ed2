"""Exception types shared across the package."""


class HelixDipolesError(Exception):
    """Base class for all package errors."""


class GeometryError(HelixDipolesError):
    """Helix parameters outside the physically admissible range."""


class CoincidenceError(HelixDipolesError):
    """Interaction requested at (numerically) coincident particle positions."""


class GridError(HelixDipolesError):
    """Discretization grid unfit for the requested computation."""


class DimensionError(HelixDipolesError):
    """Operator/vector shape mismatch."""


class ConvergenceError(HelixDipolesError):
    """Iterative eigensolver stopped before reaching its tolerance.

    ``result`` holds the ``(energies, vectors)`` pairs ARPACK did converge
    within its restart limit, or ``None`` when it failed outright.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result
