import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helixdipoles import twobody
from helixdipoles.errors import GeometryError, GridError
from helixdipoles.linalg import SymmetricSparseOperator, lowest_eigenpairs
from helixdipoles.potential import find_minima, reduced_potential, reduced_potential_derivative
from helixdipoles.twobody import (
    BOUND_THRESHOLD,
    Grid1D,
    assemble_hamiltonian_1d,
    extend_full_line,
    scan_beta,
    solve_two_body,
)

TWO_PI = 2.0 * math.pi

# frozen before the build from direct LAPACK tridiagonal diagonalization
# (beta = 1, h = R, L = 100)
E_BETA1_DX001 = [-0.3065243752, -0.0276792387, -0.0037083210, 0.0002883839,
                 0.0032297780, 0.0076920212]
E0_BETA1_DX0005 = -0.3065222797
E_BETA05_DX001 = [-0.0980029917, -0.0065728359, 0.0000300015, 0.0022439249]


class TestGrid1D:
    def test_defaults(self):
        grid = Grid1D()
        assert grid.phi_max == 100.0
        assert grid.n_points == 9999
        assert grid.spacing == pytest.approx(0.01, rel=1e-12)

    def test_nodes_exclude_boundaries(self):
        grid = Grid1D(10.0, 0.1)
        assert grid.nodes[0] == pytest.approx(0.1)
        assert grid.nodes[-1] == pytest.approx(10.0 - 0.1)
        assert grid.n_points == 99

    def test_spacing_relation(self):
        grid = Grid1D(50.0, 50.0 / 500)
        assert grid.spacing == pytest.approx(50.0 / 500.0, rel=1e-14)

    def test_coarse_spacing_rejected_when_built(self):
        # the resolution rule belongs to the grid: no under-resolving grid exists
        with pytest.raises(GridError, match="under-resolves"):
            Grid1D(100.0, 0.25)
        with pytest.raises(GridError, match="spacing 0.25 > 0.2"):
            Grid1D(100.0, 100.0 / 400)

    def test_index_is_the_lattice_of_the_assembly(self):
        # 100 / 0.03 is not a whole number of cells: 3,333 cells, 3,332 nodes
        grid = Grid1D(100.0, 0.03)
        padded = np.pad(np.arange(3332, dtype=np.int32), 1, constant_values=-1)
        assert grid.index.dtype == padded.dtype
        np.testing.assert_array_equal(grid.index, padded)
        csr = assemble_hamiltonian_1d(grid, 1.0, 1.0).csr
        want = SymmetricSparseOperator.on_lattice(
            padded, grid.spacing, reduced_potential(grid.nodes, 1.0)).csr
        for got, ref in ((csr.data, want.data), (csr.indices, want.indices),
                         (csr.indptr, want.indptr)):
            assert got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes()


class TestAssembly:
    def test_free_box_ground_state(self):
        grid = Grid1D()
        op = assemble_hamiltonian_1d(grid, 0.0, 1.0)
        from helixdipoles.linalg import lowest_eigenpairs

        res = lowest_eigenpairs(op, 1)
        analytic = math.pi**2 / (2.0 * 100.0**2)
        assert res.values[0] == pytest.approx(analytic, rel=1e-5)

    def test_diagonal_near_first_winding(self):
        grid = Grid1D()
        beta = 1.0
        op = assemble_hamiltonian_1d(grid, beta, 1.0)
        i = int(np.argmin(np.abs(grid.nodes - TWO_PI)))
        node = grid.nodes[i]
        expected = 1.0 / grid.spacing**2 + beta * reduced_potential(node, 1.0)
        assert op.csr.diagonal()[i] == pytest.approx(expected, rel=1e-14)
        assert reduced_potential(node, 1.0) == pytest.approx(-1.0, abs=0.01)

    def test_invalid_parameters(self):
        with pytest.raises(GeometryError):
            assemble_hamiltonian_1d(Grid1D(), 1.0, 5.0)
        with pytest.raises(ValueError):
            assemble_hamiltonian_1d(Grid1D(), -0.5, 1.0)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_nonfinite_beta_rejected(self, beta):
        with pytest.raises(ValueError, match="finite"):
            solve_two_body(Grid1D(), beta, 1.0, 2)


def _box_levels(grid, beta, k):
    """The ``k`` lowest levels of the two-body operator, bound or not."""
    return lowest_eigenpairs(assemble_hamiltonian_1d(grid, beta, 1.0), k)


class TestSolve:
    def test_reference_spectrum(self, box_levels_beta1, two_body_beta1):
        np.testing.assert_allclose(box_levels_beta1.energies, E_BETA1_DX001, atol=1e-8)
        assert two_body_beta1.bound_count == 3

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 20.0), st.integers(1, 6))
    def test_the_bound_states_at_most_k_or_the_lowest_level(self, dense_oracle, beta, k):
        grid = Grid1D(20.0, 0.1)
        op = assemble_hamiltonian_1d(grid, beta, 1.0)
        levels = dense_oracle(op, op.n).values
        count = int(np.sum(levels < BOUND_THRESHOLD))
        sol = solve_two_body(grid, beta, 1.0, k)
        kept = max(1, min(k, count))
        np.testing.assert_allclose(sol.energies, levels[:kept], rtol=0.0, atol=1e-10)
        assert sol.bound_count == min(k, count)

    def test_fine_grid_ground_state(self):
        sol = solve_two_body(Grid1D(100.0, 0.005), 1.0, 1.0, 1)
        assert sol.energies[0] == pytest.approx(E0_BETA1_DX0005, abs=1e-8)

    def test_wavefunctions_normalized(self, box_levels_beta1):
        grid = box_levels_beta1.grid
        assert grid.weight == grid.spacing
        for m in range(4):
            norm = grid.weight * np.sum(box_levels_beta1.wavefunction(m) ** 2)
            assert norm == pytest.approx(1.0, abs=1e-10)

    def test_node_counting(self, box_levels_beta1):
        # m-th eigenstate has exactly m interior sign changes
        for m in range(4):
            psi = box_levels_beta1.wavefunction(m)
            live = psi[np.abs(psi) > 1e-8 * np.abs(psi).max()]
            changes = int(np.sum(live[:-1] * live[1:] < 0.0))
            assert changes == m

    def test_hellmann_feynman_sandwich(self):
        # dE0/dbeta = <V>0 for H = T + beta V on the lattice, and E0(beta) is
        # concave, so every chord slope of E0 lies between the ends' <V>0
        grid = Grid1D()
        v = reduced_potential(grid.nodes, 1.0)
        betas = [0.1, 0.2, 0.4, 0.7, 1.0, 1.4, 2.0, 5.0, 10.0, 20.0]
        sols = [solve_two_body(grid, beta, 1.0, 1) for beta in betas]
        e0 = [sol.energies[0] for sol in sols]
        dv = [sol.expectation(v) for sol in sols]
        for i in range(len(betas) - 1):
            slope = (e0[i + 1] - e0[i]) / (betas[i + 1] - betas[i])
            assert dv[i + 1] <= slope <= dv[i], betas[i]

    def test_grid_convergence_second_order(self):
        energies = {}
        for dx in (0.04, 0.02, 0.01):
            sol = solve_two_body(Grid1D(100.0, dx), 1.0, 1.0, 1)
            energies[dx] = sol.energies[0]
        ratio = (energies[0.04] - energies[0.02]) / (energies[0.02] - energies[0.01])
        assert 3.5 < ratio < 4.5

    def test_strong_coupling_harmonic_expansion(self):
        """E0 = beta V(phi0) + w/2 + c0 + c1/sqrt(beta) + ... with w = sqrt(beta V''),
        on the well of the first winding at ratio 1 (Bender & Wu 1969).

        c0 = V''''/(32 V'') - 11 V'''^2/(288 V''^2) is the anharmonic shift.  The
        second difference lowers a harmonic ground level by w^2 h^2/32 (its symbol
        is p^2/2 - h^2 p^4/24, and <p^4> = 3 w^2/4).  So sqrt(beta) times what is
        left of E0 tends to c1.  Measured on L = 100, h = 0.005, it reads 0.21885 at
        beta = 80 and 0.22075 at beta = 320: 1.9e-3 apart, the c2/sqrt(beta) term
        the expansion leaves out.  The tolerance 5e-3 is 2.6 times that.  An error
        d in c0 parts the two values by (sqrt(320) - sqrt(80)) d = 8.9 d, so the
        check resolves c0 to 6e-4 (0.07%); leaving out the lattice term parts them
        by 0.023.
        """
        phi0 = find_minima(1.0, 1)[0].phi_k
        step = 1e-3  # central differences of the closed-form V'

        def dv(k):
            return reduced_potential_derivative(phi0 + k * step, 1.0)

        v2 = (dv(1) - dv(-1)) / (2.0 * step)
        v3 = (dv(1) - 2.0 * dv(0) + dv(-1)) / step**2
        v4 = (dv(2) - 2.0 * dv(1) + 2.0 * dv(-1) - dv(-2)) / (2.0 * step**3)
        c0 = v4 / (32.0 * v2) - 11.0 * v3**2 / (288.0 * v2**2)
        grid = Grid1D(100.0, 0.005)
        c1 = []
        for beta in (80.0, 320.0):
            e0 = solve_two_body(grid, beta, 1.0, 1).energies[0]
            w = math.sqrt(beta * v2)
            lattice = w**2 * grid.spacing**2 / 32.0
            c1.append(math.sqrt(beta)
                      * (e0 + lattice - beta * reduced_potential(phi0, 1.0) - w / 2.0 - c0))
        assert abs(c1[0] - c1[1]) < 5e-3

    def test_box_wall_artifact(self, box_levels_beta1):
        # near-threshold states are box artifacts; genuinely bound states are not
        wide = _box_levels(Grid1D(150.0, 0.01), 1.0, 6)
        narrow = box_levels_beta1
        rel = np.abs(wide.values - narrow.energies) / np.abs(narrow.energies)
        shallow = np.abs(narrow.energies) < 1e-3
        assert shallow.any()
        assert np.all(rel[shallow] > 0.10)
        assert rel[0] < 1e-3


class TestExtendFullLine:
    def test_boson_even(self, two_body_beta1):
        phi, psi = extend_full_line(two_body_beta1, "boson")
        np.testing.assert_array_equal(psi, psi[::-1])
        assert psi[0] == psi[-1] == 0.0

    def test_fermion_odd_and_continuous(self, two_body_beta1):
        phi, psi = extend_full_line(two_body_beta1, "fermion")
        np.testing.assert_array_equal(psi, -psi[::-1])
        mid = len(psi) // 2
        assert psi[mid] == 0.0 and phi[mid] == 0.0

    def test_full_line_norm(self, two_body_beta1):
        for stats in ("boson", "fermion"):
            _, psi = extend_full_line(two_body_beta1, stats, state=1)
            norm = two_body_beta1.grid.spacing * np.sum(psi**2)
            assert norm == pytest.approx(1.0, rel=1e-12)

    def test_statistics_validation(self, two_body_beta1):
        with pytest.raises(ValueError):
            extend_full_line(two_body_beta1, "anyon")


class TestScanBeta:
    def test_bound_count_nondecreasing(self):
        betas = [round(0.1 * i, 10) for i in range(1, 15)]
        rows = scan_beta(betas, Grid1D(), 1.0, 4)
        counts = [r.bound_count for r in rows]
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert all(r.error is None for r in rows)

    def test_small_coupling_approaches_box_spectrum(self):
        grid = Grid1D()
        rows = scan_beta([1e-6], grid, 1.0, 4)
        box = np.array([m**2 * math.pi**2 / (2.0 * grid.phi_max**2) for m in range(1, 5)])
        np.testing.assert_allclose(_box_levels(grid, 1e-6, 4).values, box, rtol=1e-2)
        assert rows[0].bound_count == 0

    def test_spot_check_beta_half(self):
        rows = scan_beta([0.5], Grid1D(), 1.0, 4)
        np.testing.assert_allclose(_box_levels(Grid1D(), 0.5, 4).values, E_BETA05_DX001,
                                   atol=1e-8)
        assert rows[0].bound_count == 2

    def test_row_errors_recorded(self):
        rows = scan_beta([0.5, -1.0], Grid1D(40.0, 0.05), 1.0, 2)
        assert rows[0].error is None
        assert rows[1].error is not None and rows[1].energies is None

    def test_foreign_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("not a solver failure")

        monkeypatch.setattr(twobody, "solve_two_body", broken)
        with pytest.raises(RuntimeError):
            scan_beta([0.5], Grid1D(40.0, 0.05), 1.0, 2)

    def test_empty_betas_rejected(self):
        with pytest.raises(ValueError):
            scan_beta([], Grid1D(), 1.0, 2)


def _dvr_e0(oracle, cells, beta):
    """Ground energy of ``spectral_oracle`` on (0, 100) in ``cells`` cells, ratio 1."""
    grid = Grid1D(100.0, 100.0 / cells)
    return oracle(grid, beta * reduced_potential(grid.nodes, 1.0)).energies[0]


class TestSpectralOracle:
    """The half-line sine DVR converges spectrally, so it measures the second-order
    error of the h=0.01 default lattice, which lies below it."""

    def test_converged_at_beta2(self, spectral_oracle):
        e0 = [_dvr_e0(spectral_oracle, cells, 2.0) for cells in (1000, 1200)]
        assert abs(e0[0] - e0[1]) <= 1e-9

    @pytest.mark.parametrize("beta, error", [(0.5, 6.7e-7), (2.0, 9.8e-6), (20.0, 2.55e-4)])
    def test_lattice_lies_below_by_its_error(self, spectral_oracle, beta, error):
        lattice = solve_two_body(Grid1D(), beta, 1.0, 1).energies[0]
        assert _dvr_e0(spectral_oracle, 1000, beta) - lattice == pytest.approx(error, rel=0.1)


def test_bound_threshold_constant():
    assert BOUND_THRESHOLD == -1e-3
