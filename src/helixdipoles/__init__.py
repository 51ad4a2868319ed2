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
    JacobiAngles,
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

__all__ = [
    "__version__",
    "HelixDipolesError", "GeometryError", "CoincidenceError", "GridError",
    "DimensionError", "ConvergenceError",
    "HelixGeometry", "PhysicalDipole", "PotentialMinimum", "RATIO_MAX",
    "cartesian_position", "reduced_potential", "reduced_potential_derivative",
    "full_potential", "beta_from_physical", "energy_unit_joules", "find_minima",
    "validate_geometry", "SymmetricSparseOperator", "EigenResult", "lowest_eigenpairs",
    "Grid1D", "TwoBodySolution", "BetaScanRow", "BOUND_THRESHOLD",
    "assemble_hamiltonian_1d", "solve_two_body", "extend_full_line", "scan_beta",
    "JacobiAngles", "WedgeGrid2D", "ThreeBodySolution",
    "jacobi_from_angles", "angles_from_jacobi", "pair_separations",
    "assemble_hamiltonian_2d", "solve_three_body", "pair_distance_expectations",
    "symmetrize_wavefunction",
    "SizeScanRow", "HarmonicFit", "expectation_phi2", "build_size_scan",
    "fit_harmonic_size", "size_energy_product",
]
