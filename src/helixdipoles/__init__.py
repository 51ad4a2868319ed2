"""Quantum bound states of aligned dipoles confined to a helical trap."""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    CoincidenceError,
    DimensionError,
    GeometryError,
    GridError,
    HelixDipolesError,
)
from .potential import (
    HelixGeometry,
    PhysicalDipole,
    PotentialMinimum,
    RATIO_MAX,
    beta_from_physical,
    cartesian_position,
    energy_unit_joules,
    find_minima,
    full_potential,
    reduced_potential,
    reduced_potential_derivative,
    validate_geometry,
)
from .linalg import (
    EigenResult,
    SymmetricSparseOperator,
    lowest_eigenpairs,
)
from .twobody import (
    BOUND_THRESHOLD,
    BetaScanRow,
    Grid1D,
    TwoBodySolution,
    assemble_hamiltonian_1d,
    extend_full_line,
    scan_beta,
    solve_two_body,
)
from .threebody import (
    ThreeBodySolution,
    WedgeGrid2D,
    angles_from_jacobi,
    assemble_hamiltonian_2d,
    jacobi_from_angles,
    pair_distance_expectations,
    pair_separations,
    solve_three_body,
    symmetrize_wavefunction,
)
from .analysis import (
    HarmonicFit,
    SizeScanRow,
    build_size_scan,
    expectation_phi2,
    fit_harmonic_size,
    size_energy_product,
)
