"""Three dipoles on the helix: wedge-restricted 2D relative motion.

An orthogonal linear map takes the particle angles (phi1, phi2, phi3) to two
relative coordinates (x, y) and a center-of-mass coordinate z that decouples.
The hard pair cores make the wave function vanish whenever two angles agree,
so it suffices to solve in the ordered wedge phi1 > phi2 > phi3, i.e.
{x > 0, y > x/sqrt(3)}, with Dirichlet closure on the wedge edges and on an
outer rectangle.  :func:`symmetrize_wavefunction` recovers full-plane wave
functions for identical bosons or fermions by summing the wedge solution over
the six permutations of a sample's particle angles; the permutation that
orders them phi1 >= phi2 >= phi3 gives the sample's wedge representative.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, check_count, check_positive
from .linalg import (DEFAULT_SEED, Solution, SymmetricSparseOperator, check_request,
                     lowest_eigenpairs)
from .potential import TWO_PI, reduced_potential, validate_coupling
from .twobody import exchange_sign, whole_cells

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT6 = math.sqrt(6.0)
SQRT32 = math.sqrt(1.5)


def jacobi_from_angles(phi1, phi2, phi3) -> tuple:
    """Orthogonal map from particle angles to relative (x, y) and center-of-mass z."""
    x = (phi1 - phi2) / SQRT2
    y = (phi1 + phi2) / SQRT6 - math.sqrt(2.0 / 3.0) * phi3
    z = (phi1 + phi2 + phi3) / SQRT3
    return x, y, z


def angles_from_jacobi(x, y, z=0.0) -> tuple:
    """Exact inverse of :func:`jacobi_from_angles` (transpose of the orthogonal map)."""
    phi1 = x / SQRT2 + y / SQRT6 + z / SQRT3
    phi2 = -x / SQRT2 + y / SQRT6 + z / SQRT3
    phi3 = -math.sqrt(2.0 / 3.0) * y + z / SQRT3
    return phi1, phi2, phi3


#: Chain configuration with both pair separations at one winding.
FIRST_MINIMUM_XY = jacobi_from_angles(2.0 * TWO_PI, TWO_PI, 0.0)[:2]

#: One-winding shift of the coordinates: spacing of the potential valleys
#: along x (phi1 moved by a winding) and along y (phi3 moved back by one).
X_WINDING = jacobi_from_angles(TWO_PI, 0.0, 0.0)[0]
Y_WINDING = jacobi_from_angles(0.0, 0.0, -TWO_PI)[1]

#: Required clearance, in windings, between the first-minimum configuration
#: and the outer box walls.
MIN_MARGIN_WINDINGS = 5.0

#: Nodes closer than this many cells to the wedge edge y = x/sqrt(3) are
#: boundary nodes (see :class:`WedgeGrid2D`).
EDGE_CUSHION = 0.5

STRONG_BOX = (30.0, 40.0, 0.1)  #: default (x_max, y_max, spacing) for beta >= 1
WEAK_BOX = (60.0, 90.0, 0.15)  #: below, where the weakly bound states are larger

#: Spacing ratio of the coarse wedge whose ground energy places the
#: shift-invert shift (beta=2: 5,723 nodes against 93,406).
COARSE_FACTOR = 4


def default_box(beta: float) -> tuple[float, float, float]:
    """The box at coupling ``beta`` (``ValueError`` unless finite and >= 0)."""
    check_positive(ValueError, allow_zero=True, beta=beta)
    return STRONG_BOX if beta >= 1.0 else WEAK_BOX


def pair_separations(x, y) -> tuple:
    """Pair angle differences (phi12, phi23, phi13) at relative coordinates (x, y)."""
    phi12 = SQRT2 * np.asarray(x, dtype=float)
    phi23 = SQRT32 * np.asarray(y, dtype=float) - np.asarray(x, dtype=float) / SQRT2
    return phi12, phi23, phi12 + phi23


class WedgeGrid2D:
    """Uniform grid over {0 < x < x_max, x/sqrt(3) < y < y_max}.

    The requested box is rounded to whole cells: ``x_max`` and ``y_max`` are
    the lattice walls ``nx * spacing`` and ``ny * spacing``.  Only interior
    wedge nodes are active; everything outside the mask is an implied
    Dirichlet zero.  ``index``, the lattice that
    :meth:`SymmetricSparseOperator.on_lattice` takes, numbers the active
    nodes of the (nx+1, ny+1) box corners row-major (node m at (x[m], y[m]))
    and holds -1 elsewhere.  Nodes closer to the wedge edge y = x/sqrt(3)
    than ``EDGE_CUSHION`` cells are treated as boundary nodes: at grid
    resolution they sit on the Dirichlet line, and keeping them active would
    put unresolved short-range potential spikes on the diagonal (the grid
    cannot distinguish such a sliver from the coincidence line itself).
    """

    def __init__(self, x_max: float = STRONG_BOX[0], y_max: float = STRONG_BOX[1],
                 spacing: float = STRONG_BOX[2]):
        check_positive(GridError, x_max=x_max, y_max=y_max, spacing=spacing)
        self.spacing = float(spacing)
        self.weight = self.spacing**2  # the quadrature weight of one node
        nx, ny = whole_cells(x_max, spacing), whole_cells(y_max, spacing)
        check_count(GridError, 3, x_cells=nx, y_cells=ny)  # the box at this spacing
        self.x_max = nx * self.spacing
        self.y_max = ny * self.spacing
        ii, jj = np.meshgrid(np.arange(1, nx), np.arange(1, ny), indexing="ij")
        inside = jj - ii / SQRT3 > EDGE_CUSHION
        ii, jj = ii[inside], jj[inside]
        self.x = ii * self.spacing
        self.y = jj * self.spacing
        self.n_active = int(self.x.size)
        self.index = -np.ones((nx + 1, ny + 1), dtype=np.int32)
        self.index[ii, jj] = np.arange(self.n_active)

    def coarsened(self) -> "WedgeGrid2D | None":
        """This box rounded to whole cells of ``COARSE_FACTOR`` times the
        spacing, or None when no grid can be built at that spacing."""
        try:
            return WedgeGrid2D(self.x_max, self.y_max, COARSE_FACTOR * self.spacing)
        except GridError:
            return None

    def margin_windings(self) -> tuple[float, float]:
        """Clearance of the first-minimum configuration from the outer walls,
        in one-winding units along each axis."""
        x0, y0 = FIRST_MINIMUM_XY
        return (self.x_max - x0) / X_WINDING, (self.y_max - y0) / Y_WINDING


@dataclass
class ThreeBodySolution(Solution):
    """Wedge eigenpairs and ground-state pair-distance observables."""

    distances: tuple[float, float, float]  # <phi12>, <phi23>, <phi13> in 2pi units


def assemble_hamiltonian_2d(
    grid: WedgeGrid2D, beta: float, ratio: float
) -> SymmetricSparseOperator:
    """The lattice operator -1/2 (d_x^2 + d_y^2) plus the three pair potentials.

    Built on ``grid.index`` (Dirichlet outside the wedge mask) in the
    two-body unit hbar^2 / (mu alpha^2), so each particle carries the pair
    reduced mass mu = m/2: the pair-12 term alone, beta V(sqrt(2) x), has
    the energies 2 E2(beta/2) of the two-body problem.  Any box is
    assembled; :func:`solve_three_body` checks its clearance.
    """
    validate_coupling(beta, ratio)
    phi12, phi23, phi13 = pair_separations(grid.x, grid.y)
    pot = beta * (
        reduced_potential(phi12, ratio)
        + reduced_potential(phi23, ratio)
        + reduced_potential(phi13, ratio)
    )
    return SymmetricSparseOperator.on_lattice(grid.index, grid.spacing, pot)


def solve_three_body(
    grid: WedgeGrid2D,
    beta: float,
    ratio: float,
    k: int,
    *,
    method: str = "auto",
    seed: int = DEFAULT_SEED,
    allow_small_box: bool = False,
) -> ThreeBodySolution:
    """Lowest ``k`` wedge states and the ground-state pair distances.

    Once per request, before any assembly, it checks ``k``, ``method``,
    ``seed``, ``ratio``, ``beta`` and, unless ``allow_small_box``, that the
    box clears the chain configuration by ``MIN_MARGIN_WINDINGS`` windings on
    each axis.  Under ``auto``, which takes shift-invert on the wedge, the
    same box is first solved at ``COARSE_FACTOR`` times the spacing, and its
    ground energy is handed to :func:`lowest_eigenpairs` as the ``estimate``
    that places the shift.  A coarse grid that cannot be built is skipped;
    every one that can has at least two nodes, enough for its one-pair request.
    """
    check_request(k, grid.n_active, method, seed)  # before the costly assembly
    validate_coupling(beta, ratio)
    mx, my = grid.margin_windings()
    if not allow_small_box and (mx < MIN_MARGIN_WINDINGS or my < MIN_MARGIN_WINDINGS):
        raise GridError(
            f"box clears the first-minimum configuration by ({mx:.2f}, {my:.2f}) "
            f"windings; need {MIN_MARGIN_WINDINGS:g} (pass allow_small_box to override)"
        )
    coarse = grid.coarsened() if method == "auto" else None
    estimate = None
    if coarse is not None:
        coarse_op = assemble_hamiltonian_2d(coarse, beta, ratio)
        estimate = float(lowest_eigenpairs(coarse_op, 1, seed=seed).values[0])
    op = assemble_hamiltonian_2d(grid, beta, ratio)
    eigen = lowest_eigenpairs(op, k, method=method, seed=seed, estimate=estimate)
    distances = pair_distance_expectations(Solution(grid, eigen))
    return ThreeBodySolution(grid=grid, eigen=eigen, distances=distances)


def pair_distance_expectations(sol: Solution) -> tuple[float, float, float]:
    """Ground-state expectation values of the pair angle differences, in units of 2pi.

    :meth:`.linalg.Solution.expectation` of each separation.  The wedge enforces
    the ordering phi1 > phi2 > phi3, so all three are positive, and
    <phi13> = <phi12> + <phi23> holds by linearity.
    """
    return tuple(sol.expectation(phi) / TWO_PI
                 for phi in pair_separations(sol.grid.x, sol.grid.y))


def symmetrize_wavefunction(
    sol: ThreeBodySolution,
    statistics: str,
    x: np.ndarray,
    y: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Sample the full-plane (anti)symmetrized ground state at the points (x, y).

    Each point is read once as particle angles at zero center of mass; the
    zero-padded bilinear interpolant of the wedge solution is summed over the
    six images that permuting those angles gives, each odd permutation
    weighted by :func:`.twobody.exchange_sign` (-1 for fermions, +1 for bosons).
    The sum makes the output even (bosons) or odd (fermions) under every
    exchange, to rounding, so fermionic output vanishes on the coincidence lines.

    Returns:
        (psi, n_outside): ``psi`` with the shape of ``x`` and ``y`` broadcast
        together, and the count of sample points whose wedge representative,
        the image with phi1 >= phi2 >= phi3, lies outside the solved box
        (those samples are zero and flagged rather than extrapolated).
    """
    sign = exchange_sign(statistics)
    grid = sol.grid
    # grid.index -1 picks the appended zero; cell index -1 wraps to the far zero margin
    field = np.pad(np.append(sol.wavefunction(0), 0.0)[grid.index], (0, 1))
    dx = grid.spacing
    nx, ny = (n - 1 for n in grid.index.shape)

    X, Y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    xs, ys = X.ravel(), Y.ravel()

    def interpolate(px, py):
        fx, fy = px / dx, py / dx
        i0 = np.clip(np.floor(fx), -1, nx).astype(np.int64)
        j0 = np.clip(np.floor(fy), -1, ny).astype(np.int64)
        tx, ty = fx - i0, fy - j0
        return ((1 - tx) * (1 - ty) * field[i0, j0]
                + tx * (1 - ty) * field[i0 + 1, j0]
                + (1 - tx) * ty * field[i0, j0 + 1]
                + tx * ty * field[i0 + 1, j0 + 1])

    # images with phi1 >= phi2 >= phi3 coincide at ties.  Rounding can carry
    # one on an outer wall a couple of ulps out, so the walls get a slack of
    # 8 ulps (the interpolant is zero there).
    slack = 8 * np.spacing(max(grid.x_max, grid.y_max))
    angles = angles_from_jacobi(xs, ys)
    total = np.zeros(xs.size)
    outside = np.zeros(xs.size, dtype=bool)
    for perm in itertools.permutations(range(3)):
        a, b, c = (angles[i] for i in perm)
        ix, iy, _ = jacobi_from_angles(a, b, c)
        odd = sum(p > q for p, q in itertools.combinations(perm, 2)) % 2
        total += (sign if odd else 1.0) * interpolate(ix, iy)
        outside |= (a >= b) & (b >= c) & ((ix > grid.x_max + slack) | (iy > grid.y_max + slack))
    total[outside] = 0.0
    return total.reshape(X.shape), int(outside.sum())
