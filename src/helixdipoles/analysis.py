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


def expectation_phi2(psi: np.ndarray, grid: Grid1D) -> float:
    """Trapezoidal <phi^2> of a grid wave function normalized on ``grid``.

    The implied zero boundary values make the trapezoidal rule collapse to
    ``spacing * sum(phi_i^2 psi_i^2)`` over the interior nodes.
    """
    phi = grid.nodes
    return float(grid.weight * np.sum(phi * phi * psi * psi))


def build_size_scan(
    betas,
    grid: Grid1D,
    ratio: float,
) -> list[SizeScanRow]:
    """Ground-state solve per coupling; pairs E0 with <phi^2> and phi0."""
    minima = find_minima(ratio, 1)
    if not minima:
        raise ValueError(f"no attractive minimum for ratio {ratio}")
    phi0 = minima[0].phi_k
    rows = []
    for beta in betas:
        sol = solve_two_body(grid, beta, ratio, 1)
        rows.append(
            SizeScanRow(
                beta=float(beta),
                energy=float(sol.energies[0]),
                phi2=expectation_phi2(sol.wavefunction(0), grid),
                phi0=phi0,
            )
        )
    return rows


def fit_harmonic_size(rows: list[SizeScanRow]) -> HarmonicFit:
    """Fit <phi^2> against the basis {1/sqrt(beta), phi0^2}, linearly.

    phi0 enters as a known regressor, not a fitted location.  Requires at
    least four rows; the fit window is the rows' own coupling range.

    Raises:
        ValueError: too few rows, or a degenerate design matrix (all couplings equal).
    """
    check_count(ValueError, 4, n_rows=len(rows))
    betas = np.array([r.beta for r in rows])
    check_positive(ValueError, beta=float(betas.min()))  # the basis takes 1/sqrt(beta)
    design = np.column_stack([1.0 / np.sqrt(betas), np.array([r.phi0 for r in rows]) ** 2])
    target = np.array([r.phi2 for r in rows])
    coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < 2:
        raise ValueError("degenerate design matrix: couplings do not vary")
    residual_rms = float(np.sqrt(np.mean((target - design @ coef) ** 2)))
    return HarmonicFit(
        c1=float(coef[0]),
        c2=float(coef[1]),
        residual_rms=residual_rms,
        beta_range=(float(betas.min()), float(betas.max())),
    )


def size_energy_product(rows: list[SizeScanRow]) -> np.ndarray:
    """Table of (E, (<phi^2> - phi0^2) * E), sorted by energy ascending.

    In the asymptotic weak-binding regime the product is constant; it grows
    toward zero once the state feels the solution box.
    """
    table = np.array([[r.energy, (r.phi2 - r.phi0**2) * r.energy] for r in rows])
    return table[np.argsort(table[:, 0])]
