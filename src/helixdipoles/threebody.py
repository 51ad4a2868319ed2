"""Three dipoles on the helix: wedge-restricted 2D relative motion.

An orthogonal linear map takes the particle angles (phi1, phi2, phi3) to two
relative coordinates (x, y) and a center-of-mass coordinate z that decouples.
The hard pair cores make the wave function vanish whenever two angles agree,
so it suffices to solve in the ordered wedge phi1 > phi2 > phi3, i.e.
{x > 0, y > x/sqrt(3)}, with Dirichlet closure on the wedge edges and on an
outer rectangle.  Full-plane wave functions for identical bosons or fermions
are recovered afterwards by reflecting across the coincidence lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError
from .linalg import (DEFAULT_SEED, EigenResult, SymmetricSparseOperator, check_request,
                     lowest_eigenpairs)
from .potential import TWO_PI, reduced_potential, validate_geometry

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT6 = math.sqrt(6.0)
SQRT32 = math.sqrt(1.5)

#: Chain configuration with both pair separations at one winding.
FIRST_MINIMUM_XY = (SQRT2 * math.pi, SQRT6 * math.pi)

#: One-winding shift of the coordinates: spacing of the potential valleys
#: along x and along y.
X_WINDING = TWO_PI / SQRT2
Y_WINDING = TWO_PI / SQRT32

#: Required clearance, in windings, between the first-minimum configuration
#: and the outer box walls.
MIN_MARGIN_WINDINGS = 5.0

#: Nodes closer than this many cells to the wedge edge y = x/sqrt(3) are
#: boundary nodes (see :class:`WedgeGrid2D`).
EDGE_CUSHION = 0.5

#: Spacing ratio of the coarse wedge whose ground energy places the
#: shift-invert shift (beta=2: 5,723 nodes against 93,406).
COARSE_FACTOR = 4


@dataclass(frozen=True)
class JacobiAngles:
    """Relative coordinates (x, y) and center-of-mass coordinate z."""

    x: float
    y: float
    z: float


def jacobi_from_angles(phi1, phi2, phi3) -> JacobiAngles:
    """Orthogonal map from particle angles to relative + center-of-mass coordinates."""
    x = (phi1 - phi2) / SQRT2
    y = (phi1 + phi2) / SQRT6 - math.sqrt(2.0 / 3.0) * phi3
    z = (phi1 + phi2 + phi3) / SQRT3
    return JacobiAngles(x=x, y=y, z=z)


def angles_from_jacobi(j: JacobiAngles) -> tuple[float, float, float]:
    """Exact inverse of :func:`jacobi_from_angles` (transpose of the orthogonal map)."""
    phi1 = j.x / SQRT2 + j.y / SQRT6 + j.z / SQRT3
    phi2 = -j.x / SQRT2 + j.y / SQRT6 + j.z / SQRT3
    phi3 = -math.sqrt(2.0 / 3.0) * j.y + j.z / SQRT3
    return phi1, phi2, phi3


def pair_separations(x, y) -> tuple:
    """Pair angle differences (phi12, phi23, phi13) at relative coordinates (x, y)."""
    phi12 = SQRT2 * np.asarray(x, dtype=float)
    phi23 = SQRT32 * np.asarray(y, dtype=float) - np.asarray(x, dtype=float) / SQRT2
    return phi12, phi23, phi12 + phi23


class WedgeGrid2D:
    """Uniform grid over {0 < x < x_max, x/sqrt(3) < y < y_max}.

    Only interior wedge nodes are active; everything outside the mask is an
    implied Dirichlet zero.  Nodes closer to the wedge edge y = x/sqrt(3)
    than ``EDGE_CUSHION`` cells are treated as boundary nodes: at grid
    resolution they sit on the Dirichlet line, and keeping them active would
    put unresolved short-range potential spikes on the diagonal (the grid
    cannot distinguish such a sliver from the coincidence line itself).
    """

    def __init__(self, x_max: float = 30.0, y_max: float = 40.0, spacing: float = 0.1):
        if not all(0.0 < v < math.inf for v in (x_max, y_max, spacing)):
            raise GridError("x_max, y_max and spacing must be finite and positive, "
                            f"got ({x_max}, {y_max}, {spacing})")
        self.x_max = float(x_max)
        self.y_max = float(y_max)
        self.spacing = float(spacing)

        nx = int(round(self.x_max / self.spacing))
        ny = int(round(self.y_max / self.spacing))
        if nx < 3 or ny < 3:
            raise GridError("box too small for the requested spacing")
        ii, jj = np.meshgrid(np.arange(1, nx), np.arange(1, ny), indexing="ij")
        inside = jj - ii / SQRT3 > EDGE_CUSHION
        self._nx, self._ny = nx, ny
        self.ii = ii[inside]
        self.jj = jj[inside]
        self.x = self.ii * self.spacing
        self.y = self.jj * self.spacing
        self.n_active = int(self.x.size)
        index = -np.ones((nx + 1, ny + 1), dtype=np.int32)
        index[self.ii, self.jj] = np.arange(self.n_active)
        self._index = index

    def coarsened(self, factor: int) -> "WedgeGrid2D | None":
        """The same box at ``factor`` times the spacing, or None when that
        spacing leaves fewer than three cells along an axis (no grid)."""
        spacing = factor * self.spacing
        if min(round(self.x_max / spacing), round(self.y_max / spacing)) < 3:
            return None
        return WedgeGrid2D(self.x_max, self.y_max, spacing)

    def margin_windings(self) -> tuple[float, float]:
        """Clearance of the first-minimum configuration from the outer walls,
        in one-winding units along each axis."""
        x0, y0 = FIRST_MINIMUM_XY
        return (self.x_max - x0) / X_WINDING, (self.y_max - y0) / Y_WINDING

    def node_values_to_padded(self, values: np.ndarray) -> np.ndarray:
        """Scatter active-node values into a dense (nx+1, ny+1) array of the
        full box corner grid, zeros elsewhere (the Dirichlet extension)."""
        padded = np.zeros((self._nx + 1, self._ny + 1))
        padded[self.ii, self.jj] = values
        return padded


@dataclass
class ThreeBodySolution:
    """Wedge eigenpairs and ground-state pair-distance observables."""

    grid: WedgeGrid2D
    eigen: EigenResult
    distances: tuple[float, float, float]  # <phi12>, <phi23>, <phi13> in 2pi units

    @property
    def energies(self) -> np.ndarray:
        return self.eigen.values

    def wavefunction(self, state: int = 0) -> np.ndarray:
        return self.eigen.vectors[:, state]


def assemble_hamiltonian_2d(
    grid: WedgeGrid2D,
    beta: float,
    ratio: float,
    *,
    allow_small_box: bool = False,
) -> SymmetricSparseOperator:
    """The lattice operator -1/2 (d_x^2 + d_y^2) plus the three pair potentials.

    Built on the wedge mask (Dirichlet outside it) in the two-body unit
    hbar^2 / (mu alpha^2), so each particle carries the pair reduced mass
    mu = m/2: the pair-12 term alone, beta V(sqrt(2) x), has the energies
    2 E2(beta/2) of the two-body problem.  Unless ``allow_small_box`` is
    set, the outer rectangle must clear the first-minimum chain
    configuration by at least five windings along each axis.
    """
    validate_geometry(ratio)
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError(f"coupling strength beta must be finite and >= 0, got {beta}")
    mx, my = grid.margin_windings()
    if not allow_small_box and (mx < MIN_MARGIN_WINDINGS or my < MIN_MARGIN_WINDINGS):
        raise GridError(
            f"box clears the first-minimum configuration by ({mx:.2f}, {my:.2f}) "
            f"windings; need {MIN_MARGIN_WINDINGS:g} (pass allow_small_box to override)"
        )

    phi12, phi23, phi13 = pair_separations(grid.x, grid.y)
    pot = beta * (
        reduced_potential(phi12, ratio)
        + reduced_potential(phi23, ratio)
        + reduced_potential(phi13, ratio)
    )
    op = SymmetricSparseOperator.on_lattice(grid._index, grid.spacing, pot)
    op.validate()
    return op


def solve_three_body(
    grid: WedgeGrid2D,
    beta: float,
    ratio: float,
    k: int,
    *,
    tol: float = 1e-9,
    method: str = "auto",
    seed: int = DEFAULT_SEED,
    allow_small_box: bool = False,
) -> ThreeBodySolution:
    """Lowest ``k`` wedge states and the ground-state pair distances.

    When the solve takes shift-invert (``auto`` or forced), the same box is
    first solved at ``COARSE_FACTOR`` times the spacing, and its ground
    energy is handed to :func:`lowest_eigenpairs` as the ``estimate`` that
    places the shift.  A coarse grid that cannot be built is skipped; every
    one that can has at least two nodes, enough for its one-pair request.
    """
    check_request(k, grid.n_active, tol, method)  # before the costly assembly
    coarse = grid.coarsened(COARSE_FACTOR) if method in ("auto", "shift-invert") else None
    estimate = None
    if coarse is not None:
        coarse_op = assemble_hamiltonian_2d(coarse, beta, ratio, allow_small_box=allow_small_box)
        estimate = float(lowest_eigenpairs(coarse_op, 1, tol, seed=seed).values[0])
    op = assemble_hamiltonian_2d(grid, beta, ratio, allow_small_box=allow_small_box)
    eigen = lowest_eigenpairs(
        op, k, tol,
        method=method, seed=seed,
        quadrature_weight=grid.spacing**2,
        estimate=estimate,
    )
    sol = ThreeBodySolution(grid=grid, eigen=eigen, distances=(0.0, 0.0, 0.0))
    sol.distances = pair_distance_expectations(sol)
    return sol


def pair_distance_expectations(
    sol: ThreeBodySolution, state: int = 0
) -> tuple[float, float, float]:
    """Expectation values of the pair angle differences, in units of 2pi.

    The wedge enforces the ordering phi1 > phi2 > phi3, so all three are
    positive, and <phi13> = <phi12> + <phi23> holds by linearity.
    """
    grid = sol.grid
    weight = sol.wavefunction(state) ** 2 * grid.spacing**2
    weight = weight / weight.sum()
    return tuple(float(np.dot(weight, phi)) / TWO_PI
                 for phi in pair_separations(grid.x, grid.y))


def _reflection(angle: float) -> np.ndarray:
    two = 2.0 * angle
    return np.array([[math.cos(two), math.sin(two)],
                     [math.sin(two), -math.cos(two)]])


def _rotation(angle: float) -> np.ndarray:
    return np.array([[math.cos(angle), -math.sin(angle)],
                     [math.sin(angle), math.cos(angle)]])


#: The particle-exchange group acting on (x, y): identity and the two cyclic
#: rotations are even; the three reflections (pair swaps, fixed lines x = 0
#: and y = +-x/sqrt(3)) are odd.
EXCHANGE_GROUP: list[tuple[np.ndarray, float]] = [
    (np.eye(2), 1.0),
    (_rotation(2.0 * math.pi / 3.0), 1.0),
    (_rotation(-2.0 * math.pi / 3.0), 1.0),
    (_reflection(math.pi / 2.0), -1.0),   # swap 1<->2: x -> -x
    (_reflection(math.pi / 6.0), -1.0),   # swap 2<->3: line y = x/sqrt(3)
    (_reflection(-math.pi / 6.0), -1.0),  # swap 1<->3: line y = -x/sqrt(3)
]


def symmetrize_wavefunction(
    sol: ThreeBodySolution,
    statistics: str,
    x: np.ndarray,
    y: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Sample the full-plane (anti)symmetrized ground state at the points (x, y).

    Each sample point is carried around the exchange group; the zero-padded
    bilinear interpolant of the wedge solution is summed over the orbit with
    the permutation parity as sign for fermions (all +1 for bosons).  The
    group sum makes bosonic output exactly reflection-invariant and forces
    fermionic output to vanish on the coincidence lines.

    Returns:
        (psi, n_outside): ``psi`` with the shape of ``x`` and ``y`` broadcast
        together, and the count of sample points whose wedge representative
        lies outside the solved box (those samples are zero and flagged
        rather than extrapolated).
    """
    if statistics not in ("boson", "fermion"):
        raise ValueError("statistics must be 'boson' or 'fermion'")
    grid = sol.grid
    padded = grid.node_values_to_padded(sol.wavefunction(0))
    dx = grid.spacing
    nx, ny = padded.shape[0] - 1, padded.shape[1] - 1

    X, Y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    pts = np.stack([X.ravel(), Y.ravel()])

    def interpolate(px, py):
        fx, fy = px / dx, py / dx
        i0 = np.floor(fx).astype(np.int64)
        j0 = np.floor(fy).astype(np.int64)
        inside = (i0 >= 0) & (i0 < nx) & (j0 >= 0) & (j0 < ny)
        i0c, j0c = np.clip(i0, 0, nx - 1), np.clip(j0, 0, ny - 1)
        tx, ty = fx - i0c, fy - j0c
        v = ((1 - tx) * (1 - ty) * padded[i0c, j0c]
             + tx * (1 - ty) * padded[i0c + 1, j0c]
             + (1 - tx) * ty * padded[i0c, j0c + 1]
             + tx * ty * padded[i0c + 1, j0c + 1])
        return np.where(inside, v, 0.0)

    use_parity = statistics == "fermion"
    total = np.zeros(pts.shape[1])
    for mat, parity in EXCHANGE_GROUP:
        total += (parity if use_parity else 1.0) * interpolate(*(mat @ pts))

    # wedge representative outside the solved box -> flagged zero; ordering
    # the particle angles phi1 >= phi2 >= phi3 maps a point into the wedge
    ordered = np.sort(angles_from_jacobi(JacobiAngles(pts[0], pts[1], 0.0)), axis=0)[::-1]
    wedge = jacobi_from_angles(*ordered)
    outside = (wedge.x > grid.x_max) | (wedge.y > grid.y_max)
    total[outside] = 0.0
    return total.reshape(X.shape), int(outside.sum())
