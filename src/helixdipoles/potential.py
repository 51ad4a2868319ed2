"""Helix geometry and the interaction of two aligned dipoles moving on it.

Two dipoles on a helix of radius R and pitch h, both polarized along the
helix axis, interact through the ordinary dipole-dipole coupling evaluated
at their three-dimensional positions.  Because the geometry is invariant
under rotations about the axis combined with the matching axial shift, the
interaction depends only on the angular separation ``phi`` of the pair.
Everything here is expressed through the dimensionless reduced potential

    V(phi) = [1 - cos(phi) - (ratio*phi/2pi)^2]
             / (2*[1 - cos(phi)] + (ratio*phi/2pi)^2)^(5/2)

with ``ratio = h/R``.  The reduced form is the canonical evaluator; the
dimensionful pair energy is a thin prefactor wrapper around it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.constants import epsilon_0 as EPSILON_0
from scipy.constants import hbar as HBAR

from .errors import CoincidenceError, GeometryError

TWO_PI = 2.0 * math.pi

#: Pitch-to-radius ratios must stay below this for the short-range part of
#: the interaction to be repulsive (no collapsing pairs).
RATIO_MAX = math.sqrt(2.0) * math.pi

#: Angular separations smaller than this are treated as coincident particles.
COINCIDENCE_EPS = 1e-12

#: Derivative magnitude below which a refined minimum is accepted.
MINIMUM_DERIVATIVE_TOL = 1e-10

#: Step of the uniform grid on which :func:`find_minima` brackets minima.
MINIMA_SCAN_STEP = 1e-3


@dataclass(frozen=True)
class HelixGeometry:
    """Helical trap: radius ``radius_R`` and pitch ``pitch_h`` (rise per turn).

    The derived arc parameter ``alpha`` converts winding angle to arc length
    (s = alpha * phi); the dimensionless ``ratio`` h/R fixes all reduced
    physics.
    """

    radius_R: float
    pitch_h: float

    def __post_init__(self) -> None:
        if not self.radius_R > 0.0:
            raise GeometryError(f"radius must be positive, got {self.radius_R}")
        if self.pitch_h < 0.0:
            raise GeometryError(f"pitch must be non-negative, got {self.pitch_h}")

    @property
    def alpha(self) -> float:
        """Arc length per unit winding angle, sqrt(R^2 + (h/2pi)^2)."""
        return math.hypot(self.radius_R, self.pitch_h / TWO_PI)

    @property
    def ratio(self) -> float:
        """Pitch-to-radius ratio h/R."""
        return self.pitch_h / self.radius_R


@dataclass(frozen=True)
class PhysicalDipole:
    """A particle with mass, electric dipole moment and the permittivity scale.

    SI units throughout; ``vacuum_permittivity`` defaults to the CODATA value
    and is a field so tests can exercise the unit arithmetic exactly.
    """

    mass_m: float
    dipole_moment_d: float
    vacuum_permittivity: float = EPSILON_0

    def __post_init__(self) -> None:
        for name in ("mass_m", "dipole_moment_d", "vacuum_permittivity"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")


@dataclass(frozen=True)
class PotentialMinimum:
    """An attractive local minimum of the reduced potential.

    ``winding_index`` counts full turns: the k-th minimum sits slightly below
    an angular separation of 2pi*k where the dipoles are stacked head to tail
    on adjacent windings.
    """

    phi_k: float
    value: float
    winding_index: int


def cartesian_position(phi, geo: HelixGeometry):
    """Map winding angle(s) to 3D coordinates (R sin phi, R cos phi, h phi/2pi)."""
    phi = np.asarray(phi, dtype=float)
    x = geo.radius_R * np.sin(phi)
    y = geo.radius_R * np.cos(phi)
    z = geo.pitch_h * phi / TWO_PI
    if phi.ndim == 0:
        return float(x), float(y), float(z)
    return x, y, z


def _check_coincidence(phi: np.ndarray) -> None:
    if np.any(np.abs(phi) < COINCIDENCE_EPS):
        raise CoincidenceError(
            f"separation below coincidence epsilon {COINCIDENCE_EPS:g}"
        )


def reduced_potential(phi, ratio: float):
    """Dimensionless pair potential at angular separation ``phi``.

    Even in ``phi``; diverges like +/- 1/phi^3 at short range (sign set by
    ``ratio`` against the geometry bound) and falls off as -(2pi/(ratio*phi))^3
    at large separation, with attractive pockets near integer windings.

    Args:
        phi: scalar or array of separations (any real except ~0).
        ratio: pitch-to-radius ratio h/R.

    Raises:
        CoincidenceError: if any ``|phi| < 1e-12``.
    """
    phi = np.asarray(phi, dtype=float)
    _check_coincidence(phi)
    q2 = (ratio / TWO_PI) ** 2 * phi * phi
    one_minus_cos = 1.0 - np.cos(phi)
    num = one_minus_cos - q2
    den = 2.0 * one_minus_cos + q2
    out = num / den**2.5
    return float(out) if out.ndim == 0 else out


def reduced_potential_derivative(phi, ratio: float):
    """Closed-form d/dphi of :func:`reduced_potential` (same domain rules)."""
    phi = np.asarray(phi, dtype=float)
    _check_coincidence(phi)
    c = (ratio / TWO_PI) ** 2
    sin = np.sin(phi)
    num = 1.0 - np.cos(phi) - c * phi * phi
    den = 2.0 * (1.0 - np.cos(phi)) + c * phi * phi
    dnum = sin - 2.0 * c * phi
    dden = 2.0 * sin + 2.0 * c * phi
    out = den ** (-3.5) * (dnum * den - 2.5 * num * dden)
    return float(out) if out.ndim == 0 else out


def full_potential(phi_i, phi_j, geo: HelixGeometry, dip: PhysicalDipole):
    """Dimensionful pair energy of two dipoles at angles ``phi_i`` and ``phi_j``.

    Equal to the 3D aligned dipole-dipole energy evaluated at the helix
    positions; depends on the angles only through their difference.  The
    prefactor is d^2 / (2 pi eps0 R^3) times the reduced potential (the
    factor-of-two relative to the bare d^2/(4 pi eps0 R^3) scale comes from
    the numerator of the 3D form, 2R^2[1-cos] - 2h^2(phi/2pi)^2).
    """
    phi = np.asarray(phi_i, dtype=float) - np.asarray(phi_j, dtype=float)
    prefactor = dip.dipole_moment_d**2 / (
        2.0 * math.pi * dip.vacuum_permittivity * geo.radius_R**3
    )
    return prefactor * reduced_potential(phi, geo.ratio)


def beta_from_physical(dip: PhysicalDipole, geo: HelixGeometry) -> float:
    """Dimensionless coupling strength for a physical dipole pair on a helix.

    beta = mu d^2 / (2 pi eps0 R hbar^2) * (alpha/R)^2 with the two-body
    reduced mass mu = m/2.  Doubling the dipole moment quadruples beta; in
    the ring limit h = 0 the geometric factor (alpha/R)^2 is 1.
    """
    mu = dip.mass_m / 2.0
    core = mu * dip.dipole_moment_d**2 / (
        2.0 * math.pi * dip.vacuum_permittivity * geo.radius_R * HBAR**2
    )
    return core * (geo.alpha / geo.radius_R) ** 2


def validate_geometry(ratio: float) -> None:
    """Check that ``ratio`` admits a repulsive short-range interaction.

    Raises:
        GeometryError: if ``ratio <= 0`` or ``ratio >= sqrt(2)*pi`` (the
            latter makes the short-range potential attractive, so pairs
            would collapse into the regime this model excludes).
    """
    if not ratio > 0.0:
        raise GeometryError(f"pitch-to-radius ratio must be positive, got {ratio}")
    if ratio >= RATIO_MAX:
        raise GeometryError(
            f"ratio {ratio:g} >= sqrt(2)*pi ~ {RATIO_MAX:.6f}: "
            "short-range interaction would be attractive"
        )


def _refine_minimum(ratio: float, lo: float, hi: float) -> float:
    """Pin a minimum bracketed by a derivative sign change V'(lo) < 0 <= V'(hi).

    Bisects the analytic derivative down to floating-point resolution.
    """
    flo = reduced_potential_derivative(lo, ratio)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        fmid = reduced_potential_derivative(mid, ratio)
        if flo * fmid <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def find_minima(
    ratio: float,
    max_windings: int,
) -> list[PotentialMinimum]:
    """Locate the attractive minima of the reduced potential.

    Scans (0, 2pi*max_windings] in steps of ``MINIMA_SCAN_STEP``, brackets
    sign changes of the analytic derivative, and refines each bracket by
    bisection on the analytic derivative until the derivative magnitude at
    the reported minimum is below 1e-10.  Only attractive minima (negative value) are
    reported: for small ratios the potential also has a shallow positive
    local minimum on the repulsive shoulder before the first winding, which
    is not a pair-binding feature.
    Minima beyond the winding bound 1 + (2pi)^2/ratio, past which the
    oscillation has died out, are never reported (none exist there).

    Args:
        ratio: pitch-to-radius ratio, must satisfy :func:`validate_geometry`.
        max_windings: scan extent in full turns (>= 1).

    Returns:
        Minima sorted by position; may be empty for large ratios where the
        winding pockets are too shallow to form.
    """
    validate_geometry(ratio)
    if max_windings < 1:
        raise ValueError("max_windings must be >= 1")

    phi_hi = TWO_PI * max_windings
    grid = np.arange(MINIMA_SCAN_STEP, phi_hi + MINIMA_SCAN_STEP, MINIMA_SCAN_STEP)
    deriv = reduced_potential_derivative(grid, ratio)
    # minimum bracketed where the derivative crosses - to +
    crossing = np.flatnonzero((deriv[:-1] < 0.0) & (deriv[1:] >= 0.0))

    vanish_phi = TWO_PI * (1.0 + TWO_PI**2 / ratio)
    minima: list[PotentialMinimum] = []
    for i in crossing:
        phi_min = _refine_minimum(ratio, grid[i], grid[i + 1])
        value = reduced_potential(phi_min, ratio)
        if value >= 0.0:
            continue
        if phi_min > phi_hi or phi_min > vanish_phi:
            continue
        if abs(reduced_potential_derivative(phi_min, ratio)) > MINIMUM_DERIVATIVE_TOL:
            continue
        minima.append(
            PotentialMinimum(
                phi_k=float(phi_min),
                value=float(value),
                winding_index=int(math.ceil(phi_min / TWO_PI)),
            )
        )
    return minima
