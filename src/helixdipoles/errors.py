"""Exception types shared across the package, and the one rule for scalar inputs
(:func:`is_real`, :func:`check_finite`, :func:`check_positive`, :func:`check_count`):
a value that breaks it raises the checking site's own error type, never
``TypeError``; nothing is converted."""

import math
import numbers
import sys


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


def is_real(x) -> bool:
    """Whether ``x`` is a real number with a float value (NaN and +-inf included), ``bool``
    excluded: an integer beyond the float range, such as 10**400, has none."""
    return (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and (not is_integer(x) or -sys.float_info.max <= x <= sys.float_info.max))


def check_positive(error: type[Exception], allow_zero: bool = False, **values) -> None:
    """Raise ``error`` for the first of ``values`` (by name) not real, finite and > 0 (>= 0)."""
    for name, value in values.items():
        if not (is_real(value) and (0 <= value if allow_zero else 0 < value) and value < math.inf):
            raise error(f"{name} must be finite and >{'=' * allow_zero} 0, got {value!r}")


def check_finite(error: type[Exception], **values) -> None:
    """Raise ``error`` for the first of ``values`` (by name) not a finite real number."""
    for name, value in values.items():
        if not (is_real(value) and -math.inf < value < math.inf):
            raise error(f"{name} must be a finite real number, got {value!r}")


def check_count(error: type[Exception], minimum: int, **values) -> None:
    """:func:`check_positive` for counts: integers >= ``minimum`` with a float value."""
    for name, value in values.items():
        if not (is_integer(value) and is_real(value) and value >= minimum):
            raise error(f"need an integer {name} >= {minimum}, got {value!r}")
