"""Helix geometry and the interaction of two aligned dipoles moving on it.

Two dipoles on a helix of radius R and pitch h, both polarized along the
helix axis, interact through the ordinary dipole-dipole coupling evaluated
at their three-dimensional positions.  Because the geometry is invariant
under rotations about the axis combined with the matching axial shift, the
interaction depends only on the angular separation ``phi`` of the pair.
Everything here is expressed through the dimensionless reduced potential

    V(phi) = [1 - cos(phi) - (ratio*phi/2pi)^2]
             / (2*[1 - cos(phi)] + (ratio*phi/2pi)^2)^(5/2)

with ``ratio = h/R``.  Its prefactor, the coupling beta = d^2 / (2 pi eps0
R^3) in units of hbar^2 / (mu alpha^2), is where SI scales enter, and
:func:`energy_unit_joules` is the one place that unit, the pair's reduced
mass ``mu`` and the arc length per winding angle ``alpha`` are defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.constants import hbar as HBAR

from .errors import CoincidenceError, GeometryError, check_count, check_positive

TWO_PI = 2.0 * math.pi

#: Pitch-to-radius ratios must stay below this for the short-range part of
#: the interaction to be repulsive (no collapsing pairs).
RATIO_MAX = math.sqrt(2.0) * math.pi

#: Ratios must be at least this fifth root of the smallest normal float (about
#: 2.9e-62): V(2pi) = -ratio^2 / ratio^5, and below it ratio^5 leaves the normal
#: floats (below 2e-65 it is 0, and V(2pi) is -inf).
RATIO_MIN = (2.0**-1022) ** 0.2

#: Angular separations smaller than this are treated as coincident particles.
COINCIDENCE_EPS = 1e-12

#: Step of the uniform grid on which :func:`find_minima` brackets minima.
MINIMA_SCAN_STEP = 1e-3


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


def _fraction(phi, ratio: float):
    """Checked separations ``phi``, ``c = (ratio/2pi)^2`` and the numerator
    ``1 - cos(phi) - c phi^2`` and denominator ``2(1 - cos(phi)) + c phi^2``
    of :func:`reduced_potential`."""
    phi = np.asarray(phi, dtype=float)
    if np.any(np.abs(phi) < COINCIDENCE_EPS):
        raise CoincidenceError(
            f"separation below coincidence epsilon {COINCIDENCE_EPS:g}"
        )
    c = (ratio / TWO_PI) ** 2
    q2 = c * phi * phi
    one_minus_cos = 1.0 - np.cos(phi)
    return phi, c, one_minus_cos - q2, 2.0 * one_minus_cos + q2


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
    _, _, num, den = _fraction(phi, ratio)
    out = num / den**2.5
    return float(out) if out.ndim == 0 else out


def reduced_potential_derivative(phi, ratio: float):
    """Closed-form d/dphi of :func:`reduced_potential` (same domain rules)."""
    phi, c, num, den = _fraction(phi, ratio)
    sin = np.sin(phi)
    dnum = sin - 2.0 * c * phi
    dden = 2.0 * sin + 2.0 * c * phi
    out = den ** (-3.5) * (dnum * den - 2.5 * num * dden)
    return float(out) if out.ndim == 0 else out


def energy_unit_joules(mass_kg: float, radius_m: float, ratio: float) -> float:
    """Energy unit hbar^2 / (mu alpha^2) of every solver, in joules.

    ``mu = m/2`` is the reduced mass of a pair of particles of mass
    ``mass_kg`` and ``alpha = sqrt(R^2 + (h/2pi)^2)`` the arc length per
    winding angle of a helix of radius R = ``radius_m`` and pitch
    h = ``ratio`` * R.  The coupling beta is the pair energy scale
    d^2 / (2 pi eps0 R^3) of :func:`reduced_potential` in this unit.

    Raises:
        ValueError: unless ``mass_kg`` and ``radius_m`` are finite and > 0.
        GeometryError: next, from :func:`validate_geometry` on ``ratio``.
        ValueError: last, unless the unit is a float > 0: at extreme scales
            it underflows to 0, or its denominator does.
    """
    check_positive(ValueError, mass_kg=mass_kg, radius_m=radius_m)
    validate_geometry(ratio)
    mu = mass_kg / 2.0
    alpha = math.hypot(radius_m, ratio * radius_m / TWO_PI)
    # alpha**2 raises OverflowError where alpha * alpha is inf, and only there:
    # the largest finite square lies an ulp below the largest float
    den = mu * alpha**2 if alpha * alpha < math.inf else math.inf
    unit = HBAR**2 / den if den > 0.0 else 0.0
    if not unit > 0.0:
        raise ValueError(f"energy unit of mass_kg {mass_kg!r} and radius_m {radius_m!r} "
                         "is not a float > 0")
    return unit


def validate_geometry(ratio: float) -> None:
    """Check that ``ratio`` admits a repulsive short-range interaction.

    Raises:
        GeometryError: unless ``RATIO_MIN <= ratio < sqrt(2)*pi`` (a ratio at
            or above the bound makes the short-range potential attractive, so
            pairs would collapse into the regime this model excludes; one
            below the floor leaves the float range).
    """
    check_positive(GeometryError, ratio=ratio)
    if ratio < RATIO_MIN:
        raise GeometryError(f"ratio {ratio!r} < {RATIO_MIN!r}: the potential at one "
                            "winding would leave the float range")
    if ratio >= RATIO_MAX:
        raise GeometryError(
            f"ratio {ratio:g} >= sqrt(2)*pi ~ {RATIO_MAX:.6f}: "
            "short-range interaction would be attractive"
        )


def validate_coupling(beta: float, ratio: float) -> None:
    """:func:`validate_geometry` on ``ratio``, then ``ValueError`` unless ``beta``
    is finite and >= 0."""
    validate_geometry(ratio)
    check_positive(ValueError, allow_zero=True, beta=beta)


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

    Scans (0, min(2pi*max_windings, phi*)] in steps of ``MINIMA_SCAN_STEP``,
    brackets every minus-to-plus sign change of the analytic derivative, and
    bisects each bracket on the analytic derivative down to floating-point
    resolution.  No derivative threshold is applied afterwards: at small
    ratios the wells are so sharp that V' at the bisected minimum is still
    1e-10 to 1e-5.  Only attractive minima (negative value) are reported:
    for small ratios the potential also has a shallow positive local minimum
    on the repulsive shoulder before the first winding, which is not a
    pair-binding feature.  No minimum lies beyond phi* = max(12pi^2/ratio^2,
    20/3) (118.4 rad at ratio 1): with u = 1 - cos(phi), c = (ratio/2pi)^2,
    V' = 3 (2u + c phi^2)^(-7/2) (c^2 phi^3 + 2c phi^2 sin(phi) - 3c phi u - u sin(phi)),
    whose bracket is >= c phi^2 (c phi - 2) - 6c phi - 2 > 0 once c phi >= 3
    and phi > 20/3.  Small ratios still have minima far out (at ratio 0.1,
    still at winding 1,000).

    Args:
        ratio: pitch-to-radius ratio, must satisfy :func:`validate_geometry`.
        max_windings: scan extent in full turns, an integer >= 1.

    Returns:
        Minima sorted by position; may be empty for large ratios where the
        winding pockets are too shallow to form.
    """
    validate_geometry(ratio)
    check_count(ValueError, 1, max_windings=max_windings)

    phi_hi = TWO_PI * max_windings
    stop = min(phi_hi, max(12.0 * math.pi**2 / ratio**2, 20.0 / 3.0))
    grid = np.arange(MINIMA_SCAN_STEP, stop + MINIMA_SCAN_STEP, MINIMA_SCAN_STEP)
    deriv = reduced_potential_derivative(grid, ratio)
    # minimum bracketed where the derivative crosses - to +
    crossing = np.flatnonzero((deriv[:-1] < 0.0) & (deriv[1:] >= 0.0))

    minima: list[PotentialMinimum] = []
    for i in crossing:
        phi_min = _refine_minimum(ratio, grid[i], grid[i + 1])
        value = reduced_potential(phi_min, ratio)
        if value >= 0.0 or phi_min > phi_hi:
            continue
        minima.append(
            PotentialMinimum(
                phi_k=float(phi_min),
                value=float(value),
                winding_index=int(math.ceil(phi_min / TWO_PI)),
            )
        )
    return minima
