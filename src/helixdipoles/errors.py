"""Exception types shared across the package, and the one rule for scalar inputs:
every scalar is a finite real > 0 (>= 0 where zero is allowed), never a ``bool``
(:func:`check_positive`), and every count an integer (:func:`is_integer`); anything
else raises the checking site's own error type, not ``TypeError``; nothing is converted."""

import math
import numbers


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


def is_integer(x) -> bool:
    """Whether ``x`` is a Python or numpy integer, ``bool`` excluded."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def check_positive(error: type[Exception], allow_zero: bool = False, **values) -> None:
    """Raise ``error`` for the first of ``values`` (by name) that breaks the rule."""
    for name, value in values.items():
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if not (real and (0 <= value if allow_zero else 0 < value) and value < math.inf):
            raise error(f"{name} must be finite and >{'=' * allow_zero} 0, got {value!r}")
