"""Relative motion of two dipoles on the helix: spectra and wave functions.

The relative coordinate is the angular separation ``phi > 0``; the hard
repulsive core at coincidence and a far wall at ``phi = L`` impose Dirichlet
boundaries, so the problem reduces to a 1D box with the reduced pair
potential scaled by the coupling ``beta``.  Energies are reported in the
natural unit hbar^2 / (mu alpha^2) with mu the reduced pair mass and alpha
the helix arc parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, HelixDipolesError
from .linalg import (DEFAULT_SEED, EigenResult, SymmetricSparseOperator, check_request,
                     lowest_eigenpairs)
from .potential import reduced_potential, validate_geometry

#: A state counts as bound when its reduced energy is below this threshold;
#: shallower negative states are numerically box-sensitive.
BOUND_THRESHOLD = -1e-3

#: Spacings above this under-resolve the winding-scale potential wells.
MAX_SPACING = 0.2

STATISTICS = ("boson", "fermion")


@dataclass(frozen=True)
class Grid1D:
    """Uniform interior grid on (0, phi_max) with implied zero boundaries."""

    phi_max: float = 100.0
    n_points: int = 9999

    def __post_init__(self) -> None:
        if not 0.0 < self.phi_max < math.inf or self.n_points < 3:
            raise GridError("need finite phi_max > 0 and at least 3 interior points")

    @classmethod
    def from_spacing(cls, phi_max: float = 100.0, spacing: float = 0.01) -> "Grid1D":
        if not (0.0 < phi_max < math.inf and 0.0 < spacing < math.inf):
            raise GridError(f"phi_max and spacing must be finite and > 0, "
                            f"got ({phi_max}, {spacing})")
        return cls(phi_max=phi_max, n_points=int(round(phi_max / spacing)) - 1)

    @property
    def spacing(self) -> float:
        return self.phi_max / (self.n_points + 1)

    @property
    def nodes(self) -> np.ndarray:
        """Interior node positions; the endpoints 0 and phi_max are excluded."""
        return self.spacing * np.arange(1, self.n_points + 1)


def _check_resolution(grid: Grid1D) -> None:
    if grid.spacing > MAX_SPACING:
        raise GridError(
            f"spacing {grid.spacing:g} > {MAX_SPACING} under-resolves the potential wells"
        )


@dataclass
class TwoBodySolution:
    """Eigenpairs of the relative-motion problem at one coupling strength."""

    grid: Grid1D
    eigen: EigenResult
    bound_count: int

    @property
    def energies(self) -> np.ndarray:
        return self.eigen.values

    def wavefunction(self, state: int = 0) -> np.ndarray:
        return self.eigen.vectors[:, state]


def assemble_hamiltonian_1d(
    grid: Grid1D, beta: float, ratio: float
) -> SymmetricSparseOperator:
    """Tridiagonal operator -1/2 d^2/dphi^2 + beta * V(phi) on the interior nodes.

    Built by :meth:`SymmetricSparseOperator.on_lattice`; the Dirichlet walls
    are the lattice border.  ``beta = 0`` gives the bare box.
    """
    validate_geometry(ratio)
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError(f"coupling strength beta must be finite and >= 0, got {beta}")
    _check_resolution(grid)
    index = np.pad(np.arange(grid.n_points, dtype=np.int32), 1, constant_values=-1)
    return SymmetricSparseOperator.on_lattice(
        index, grid.spacing, beta * reduced_potential(grid.nodes, ratio))


def solve_two_body(
    grid: Grid1D,
    beta: float,
    ratio: float,
    k: int,
    *,
    tol: float = 1e-9,
    method: str = "auto",
    seed: int = DEFAULT_SEED,
) -> TwoBodySolution:
    """Lowest ``k`` states of the half-line relative-motion problem.

    The returned wave functions live on ``grid.nodes`` (phi > 0 only) and are
    unit-normalized under the trapezoidal grid quadrature.
    """
    op = assemble_hamiltonian_1d(grid, beta, ratio)
    eigen = lowest_eigenpairs(
        op, k, tol,
        method=method, seed=seed,
        quadrature_weight=grid.spacing,
    )
    bound_count = int(np.sum(eigen.values < BOUND_THRESHOLD))
    return TwoBodySolution(grid=grid, eigen=eigen, bound_count=bound_count)


def extend_full_line(
    sol: TwoBodySolution,
    statistics: str,
    state: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Extend a half-line eigenstate to (-L, L) by exchange symmetry.

    Bosons get the even extension, fermions the odd one (continuous at 0
    because the wave function vanishes there).  Returns node positions over
    the full line, endpoints included, and the wave function renormalized to
    unit full-line quadrature norm.
    """
    if statistics not in STATISTICS:
        raise ValueError(f"statistics must be one of {STATISTICS}")
    psi_half = sol.wavefunction(state)
    sign = 1.0 if statistics == "boson" else -1.0
    grid = sol.grid
    phi = np.concatenate([-grid.nodes[::-1], [0.0], grid.nodes])
    phi = np.concatenate([[-grid.phi_max], phi, [grid.phi_max]])
    psi = np.concatenate([[0.0], sign * psi_half[::-1], [0.0], psi_half, [0.0]])
    norm = math.sqrt(grid.spacing * float(np.sum(psi**2)))
    return phi, psi / norm


@dataclass
class BetaScanRow:
    """One row of a coupling-strength scan; ``error`` set if the solve failed."""

    beta: float
    energies: np.ndarray | None
    bound_count: int | None
    error: str | None = None


def scan_beta(
    betas,
    grid: Grid1D,
    ratio: float,
    k: int,
    *,
    tol: float = 1e-9,
    method: str = "auto",
    seed: int = DEFAULT_SEED,
) -> list[BetaScanRow]:
    """Independent solves for each coupling in ``betas``, in input order.

    Package errors and ``ValueError`` from a solve are recorded per row and
    do not abort the scan; any other exception propagates.  The geometry,
    the solve request (``k``, ``tol``, ``method``) and the grid resolution
    do not depend on the coupling, so they are checked once, before the
    first solve, and raise.
    """
    betas = list(betas)
    if not betas:
        raise ValueError("betas must be non-empty")
    validate_geometry(ratio)
    check_request(k, grid.n_points, tol, method)
    _check_resolution(grid)
    rows: list[BetaScanRow] = []
    for beta in betas:
        try:
            sol = solve_two_body(grid, beta, ratio, k,
                                 tol=tol, method=method, seed=seed)
            rows.append(BetaScanRow(beta, sol.energies, sol.bound_count))
        except (HelixDipolesError, ValueError) as exc:  # row error, scan continues
            rows.append(BetaScanRow(beta, None, None, error=str(exc)))
    return rows
