"""Shared fixtures; the production-size three-body solves are expensive and
session-scoped so the acceptance criteria and module tests reuse them."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh

from helixdipoles.linalg import EigenResult, Solution, lowest_eigenpairs
from helixdipoles.threebody import WedgeGrid2D, solve_three_body
from helixdipoles.twobody import Grid1D, assemble_hamiltonian_1d, solve_two_body


@pytest.fixture(scope="session")
def as_solution():
    """Wraps a grid function on ``grid`` as a one-state ``Solution``: its unit vector."""
    def wrap(grid, psi):
        psi = np.asarray(psi, dtype=float)
        unit = psi / np.sqrt(np.sum(psi**2))
        eigen = EigenResult(np.zeros(1), unit[:, None], np.zeros(1), method="given")
        return Solution(grid, eigen)
    return wrap


@pytest.fixture(scope="session")
def dense_oracle():
    """The ``k`` lowest eigenpairs of an operator by dense LAPACK, the check on every route."""
    def solve(op, k):
        values, vectors = eigh(op.csr.toarray(), subset_by_index=(0, k - 1))
        residuals = np.linalg.norm(op.csr @ vectors - vectors * values, axis=0)
        return EigenResult(values, vectors, residuals, method="dense")
    return solve


@pytest.fixture(scope="session")
def lattice_coo_reference():
    """The lattice operator of ``on_lattice`` from COO triplets, one stencil arm at a time."""
    def build(index, spacing, potential):
        n = int(np.count_nonzero(index >= 0))
        active = np.argwhere(index >= 0)  # row-major, so row m is node m
        rows, cols, vals = [np.arange(n)], [np.arange(n)], [index.ndim / spacing**2 + potential]
        for axis in range(index.ndim):
            for step in (-1, 1):
                shifted = active.copy()
                shifted[:, axis] += step
                neighbor = index[tuple(shifted.T)]
                has = neighbor >= 0
                rows.append(np.flatnonzero(has))
                cols.append(neighbor[has])
                vals.append(np.full(int(has.sum()), -0.5 / spacing**2))
        return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                             shape=(n, n)).tocsr()
    return build


@pytest.fixture(scope="session")
def two_body_beta1():
    """Default-grid solve at beta=1, h=R: its three bound states, though six are allowed."""
    return solve_two_body(Grid1D(), beta=1.0, ratio=1.0, k=6)


@pytest.fixture(scope="session")
def box_levels_beta1():
    """The six lowest levels of the same operator, the three box levels above E = 0 included."""
    grid = Grid1D()
    return Solution(grid, lowest_eigenpairs(assemble_hamiltonian_1d(grid, 1.0, 1.0), 6))


@pytest.fixture(scope="session")
def three_body_beta1():
    grid = WedgeGrid2D(x_max=30.0, y_max=40.0, spacing=0.1)
    return solve_three_body(grid, beta=1.0, ratio=1.0, k=2)


@pytest.fixture(scope="session")
def three_body_beta2():
    grid = WedgeGrid2D(x_max=30.0, y_max=40.0, spacing=0.1)
    return solve_three_body(grid, beta=2.0, ratio=1.0, k=1)


@pytest.fixture(scope="session")
def three_body_beta025():
    grid = WedgeGrid2D(x_max=60.0, y_max=90.0, spacing=0.15)
    return solve_three_body(grid, beta=0.25, ratio=1.0, k=1)


@pytest.fixture(scope="session")
def mini_wedge_solves(dense_oracle):
    """The dense oracle's and plain Lanczos's solves of the same small wedge operator."""
    from helixdipoles.threebody import assemble_hamiltonian_2d

    grid = WedgeGrid2D(x_max=12.0, y_max=16.0, spacing=0.4)
    op = assemble_hamiltonian_2d(grid, 1.0, 1.0)
    dense = dense_oracle(op, 4)
    lanczos = lowest_eigenpairs(op, 4, method="lanczos")
    return grid, dense, lanczos
