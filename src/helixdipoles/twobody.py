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

from .errors import GridError, HelixDipolesError, check_count, check_positive, is_real
from .linalg import Solution, SymmetricSparseOperator, check_request, lowest_eigenpairs
from .potential import reduced_potential, validate_coupling, validate_geometry

#: A state counts as bound when its reduced energy is below this threshold;
#: shallower negative states are numerically box-sensitive.
BOUND_THRESHOLD = -1e-3

#: Spacings above this under-resolve the winding-scale potential wells.
MAX_SPACING = 0.2

HALF_LINE = (100.0, 0.01)  #: default (phi_max, spacing) of the two-body grid

STATISTICS = {"boson": 1.0, "fermion": -1.0}


def exchange_sign(statistics: str) -> float:
    """The factor a wave function takes under a pair exchange, by ``STATISTICS`` name."""
    if statistics not in STATISTICS:
        raise ValueError(f"statistics must be one of {tuple(STATISTICS)}, got {statistics!r}")
    return STATISTICS[statistics]


def whole_cells(extent: float, spacing: float) -> int:
    """``extent / spacing`` rounded, the box rule of both grids; ``GridError`` unless finite."""
    cells = float(extent) / float(spacing)
    if not math.isfinite(cells):
        raise GridError(f"box {extent!r} / spacing {spacing!r} overflows the cell count")
    return round(cells)


class Grid1D:
    """Uniform interior grid on (0, phi_max) with implied zero boundaries.

    The box is cut into ``whole_cells(phi_max, spacing)`` cells and keeps
    ``phi_max``, so the spacing solved, ``phi_max / cells``, can differ from
    the one asked for; one above ``MAX_SPACING`` is refused.  ``index``, the
    lattice :meth:`SymmetricSparseOperator.on_lattice` takes, numbers the
    interior nodes inside a border of -1 (the walls at 0 and ``phi_max``).
    """

    def __init__(self, phi_max: float = HALF_LINE[0], spacing: float = HALF_LINE[1]):
        check_positive(GridError, phi_max=phi_max, spacing=spacing)
        cells = whole_cells(phi_max, spacing)
        self.n_points = cells - 1
        check_count(GridError, 3, n_points=self.n_points)
        self.phi_max = float(phi_max)
        self.spacing = self.phi_max / cells
        if self.spacing > MAX_SPACING:
            raise GridError(f"spacing {self.spacing:g} > {MAX_SPACING} "
                            "under-resolves the potential wells")
        self.weight = self.spacing  # the quadrature weight of one node
        self.nodes = self.spacing * np.arange(1, cells)  # the walls 0 and phi_max excluded
        self.index = -np.ones(cells + 1, dtype=np.int32)
        self.index[1:-1] = np.arange(self.n_points)


@dataclass
class TwoBodySolution(Solution):
    """Eigenpairs of the relative-motion problem at one coupling strength."""

    bound_count: int


def assemble_hamiltonian_1d(
    grid: Grid1D, beta: float, ratio: float
) -> SymmetricSparseOperator:
    """Tridiagonal operator -1/2 d^2/dphi^2 + beta * V(phi) on the interior nodes.

    Built by :meth:`SymmetricSparseOperator.on_lattice`; the Dirichlet walls
    are the lattice border.  ``beta = 0`` gives the bare box.
    """
    validate_coupling(beta, ratio)
    return SymmetricSparseOperator.on_lattice(
        grid.index, grid.spacing, beta * reduced_potential(grid.nodes, ratio))


def solve_two_body(
    grid: Grid1D,
    beta: float,
    ratio: float,
    k: int,
    *,
    seed: int | None = None,
) -> TwoBodySolution:
    """The bound states of the half-line relative-motion problem, at most ``k``.

    One Sturm count gives the number of states below ``BOUND_THRESHOLD``;
    the ``min(k, count)`` lowest are solved, and the lowest one alone when
    none is bound, so that a solution always holds a state.  The levels
    above the threshold are left out: on the default box they are its own
    levels near (m pi / L)^2 / 2.  ``bound_count`` is the number of states
    solved that lie below the threshold, so it reads 0 for that lone state
    and ``k`` whenever ``k`` or more are bound.

    The tridiagonal operator always takes the banded solve, which draws no
    random numbers: ``seed`` is ignored, and stays only because
    ``perfbench/record_references.py`` still passes one.  Its ``wavefunction``
    states live on ``grid.nodes`` (phi > 0 only) and are unit-normalized
    under the trapezoidal grid quadrature.
    """
    op = assemble_hamiltonian_1d(grid, beta, ratio)
    eigen = lowest_eigenpairs(op, k, below=BOUND_THRESHOLD)
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
    sign = exchange_sign(statistics)
    psi_half = sol.wavefunction(state)
    grid = sol.grid
    phi = np.concatenate([-grid.nodes[::-1], [0.0], grid.nodes])
    phi = np.concatenate([[-grid.phi_max], phi, [grid.phi_max]])
    psi = np.concatenate([[0.0], sign * psi_half[::-1], [0.0], psi_half, [0.0]])
    norm = math.sqrt(grid.weight * float(np.sum(psi**2)))
    return phi, psi / norm


@dataclass
class BetaScanRow:
    """One row of a coupling-strength scan; ``error`` set if the solve failed.

    ``energies`` are those of :func:`solve_two_body`: the bound states, at
    most ``k``, or the lowest level alone when none is bound.
    """

    beta: float
    energies: np.ndarray | None
    bound_count: int | None
    error: str | None = None


def scan_beta(
    betas,
    grid: Grid1D,
    ratio: float,
    k: int,
) -> list[BetaScanRow]:
    """Independent :func:`solve_two_body` solves for each coupling in ``betas``, in input order.

    Package errors and ``ValueError`` from a solve are recorded per row and
    do not abort the scan; any other exception propagates.  The geometry,
    ``k`` and the type of each coupling (:func:`.errors.is_real`) are checked
    once, before the first solve, and raise; the grid's resolution was
    checked when ``grid`` was built.
    """
    betas = list(betas)
    check_count(ValueError, 1, n_betas=len(betas))
    validate_geometry(ratio)
    check_request(k, grid.n_points)
    if not all(map(is_real, betas)):
        raise ValueError(f"couplings must be real numbers, got {betas!r}")
    rows: list[BetaScanRow] = []
    for beta in betas:
        try:
            sol = solve_two_body(grid, beta, ratio, k)
            rows.append(BetaScanRow(beta, sol.energies, sol.bound_count))
        except (HelixDipolesError, ValueError) as exc:  # row error, scan continues
            rows.append(BetaScanRow(beta, None, None, error=str(exc)))
    return rows
