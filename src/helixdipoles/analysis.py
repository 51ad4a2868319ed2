"""Size observables and scaling analyses of the two-body ground state.

Two regimes bracket the ground state: at strong coupling it rattles
harmonically about the first potential minimum, so its mean squared
separation follows c1/sqrt(beta) + c2*phi0^2; at weak binding the tail is
a bare exponential exp(-kappa*phi) with E = -kappa^2/2, which fixes
<phi^2> = 1/(2 kappa^2), i.e. the product (<phi^2> - phi0^2)*E levels off
near a constant until the state grows to the size of the solution box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_count, check_positive
from .potential import find_minima
from .twobody import Grid1D, solve_two_body


@dataclass(frozen=True)
class SizeScanRow:
    """Ground-state size data at one coupling strength."""

    beta: float
    energy: float
    phi2: float
    phi0: float


@dataclass(frozen=True)
class HarmonicFit:
    """Least-squares phi2 ~ c1/sqrt(beta) + c2*phi0^2 over the couplings in ``beta_range``."""

    c1: float
    c2: float
    residual_rms: float
    beta_range: tuple[float, float]


def check_fit_window(betas) -> None:
    """Refuse couplings the harmonic basis cannot fit: at least four, each finite
    and > 0 (the basis takes 1/sqrt(beta)), at least two of them distinct."""
    check_count(ValueError, 4, betas=len(betas))
    for beta in betas:
        check_positive(ValueError, beta=beta)
    if len(set(betas)) < 2:
        raise ValueError(f"betas must hold two distinct couplings, got {tuple(betas)!r}")


def build_size_scan(
    betas,
    grid: Grid1D,
    ratio: float,
) -> list[SizeScanRow]:
    """Ground-state solve per coupling: E0, the trapezoidal <phi^2> (with zero walls,
    :meth:`.linalg.Solution.expectation` of ``grid.nodes**2``) and phi0."""
    minima = find_minima(ratio, 1)
    if not minima:
        raise ValueError(f"no attractive minimum for ratio {ratio}")
    phi0 = minima[0].phi_k
    rows = []
    for beta in betas:
        sol = solve_two_body(grid, beta, ratio, 1)
        rows.append(SizeScanRow(float(beta), float(sol.energies[0]),
                                sol.expectation(grid.nodes**2), phi0))
    return rows


def fit_harmonic_size(rows: list[SizeScanRow]) -> HarmonicFit:
    """Fit <phi^2> against the basis {1/sqrt(beta), phi0^2}, linearly.

    phi0 enters as a known regressor, not a fitted location.  The fit window
    is the rows' own coupling range.

    Raises:
        ValueError: the rows' couplings fail :func:`check_fit_window`, or the
            design matrix is degenerate anyway (rows built by hand).
    """
    betas = [r.beta for r in rows]
    check_fit_window(betas)
    design = np.column_stack([1.0 / np.sqrt(betas), np.array([r.phi0 for r in rows]) ** 2])
    target = np.array([r.phi2 for r in rows])
    coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < 2:
        raise ValueError("degenerate design matrix: the basis columns are dependent")
    residual_rms = float(np.sqrt(np.mean((target - design @ coef) ** 2)))
    return HarmonicFit(float(coef[0]), float(coef[1]), residual_rms,
                       (float(min(betas)), float(max(betas))))


def size_energy_product(rows: list[SizeScanRow]) -> np.ndarray:
    """Table of (E, (<phi^2> - phi0^2) * E), sorted by energy ascending.

    In the asymptotic weak-binding regime the product is constant; it grows
    toward zero once the state feels the solution box.
    """
    table = np.array([[r.energy, (r.phi2 - r.phi0**2) * r.energy] for r in rows])
    return table[np.argsort(table[:, 0])]
