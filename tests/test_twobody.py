import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helixdipoles import twobody
from helixdipoles.errors import GeometryError, GridError
from helixdipoles.potential import reduced_potential
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
        grid = Grid1D.from_spacing(10.0, 0.1)
        assert grid.nodes[0] == pytest.approx(0.1)
        assert grid.nodes[-1] == pytest.approx(10.0 - 0.1)
        assert grid.n_points == 99

    def test_spacing_relation(self):
        grid = Grid1D(phi_max=50.0, n_points=499)
        assert grid.spacing == pytest.approx(50.0 / 500.0, rel=1e-14)

    def test_invalid(self):
        with pytest.raises(GridError):
            Grid1D(phi_max=-1.0)

    @pytest.mark.parametrize("spacing", [0.0, -0.01, math.nan, math.inf])
    def test_from_spacing_rejects_bad_spacing(self, spacing):
        with pytest.raises(GridError):
            Grid1D.from_spacing(10.0, spacing)

    @given(st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_non_finite_phi_max_rejected(self, phi_max):
        with pytest.raises(GridError, match="finite"):
            Grid1D(phi_max=phi_max, n_points=99)
        with pytest.raises(GridError, match="finite"):
            Grid1D.from_spacing(phi_max, 0.1)


class TestAssembly:
    def test_free_box_ground_state(self):
        grid = Grid1D()
        op = assemble_hamiltonian_1d(grid, 0.0, 1.0)
        from helixdipoles.linalg import lowest_eigenpairs

        res = lowest_eigenpairs(op, 1, 1e-11)
        analytic = math.pi**2 / (2.0 * 100.0**2)
        assert res.values[0] == pytest.approx(analytic, rel=1e-5)

    def test_diagonal_near_first_winding(self):
        grid = Grid1D()
        beta = 1.0
        op = assemble_hamiltonian_1d(grid, beta, 1.0)
        i = int(np.argmin(np.abs(grid.nodes - TWO_PI)))
        node = grid.nodes[i]
        expected = 1.0 / grid.spacing**2 + beta * reduced_potential(node, 1.0)
        assert op.diagonal()[i] == pytest.approx(expected, rel=1e-14)
        assert reduced_potential(node, 1.0) == pytest.approx(-1.0, abs=0.01)

    def test_tridiagonal_symmetric(self):
        op = assemble_hamiltonian_1d(Grid1D.from_spacing(20.0, 0.05), 1.0, 1.0)
        assert op.is_tridiagonal()
        op.validate()

    def test_coarse_grid_rejected(self):
        with pytest.raises(GridError):
            assemble_hamiltonian_1d(Grid1D.from_spacing(100.0, 0.25), 1.0, 1.0)

    def test_invalid_parameters(self):
        with pytest.raises(GeometryError):
            assemble_hamiltonian_1d(Grid1D(), 1.0, 5.0)
        with pytest.raises(ValueError):
            assemble_hamiltonian_1d(Grid1D(), -0.5, 1.0)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_nonfinite_beta_rejected(self, beta):
        with pytest.raises(ValueError, match="finite"):
            solve_two_body(Grid1D(), beta, 1.0, 2)


class TestSolve:
    def test_reference_spectrum(self, two_body_beta1):
        np.testing.assert_allclose(two_body_beta1.energies, E_BETA1_DX001, atol=1e-8)
        assert two_body_beta1.bound_count == 3

    def test_fine_grid_ground_state(self):
        sol = solve_two_body(Grid1D.from_spacing(100.0, 0.005), 1.0, 1.0, 1)
        assert sol.energies[0] == pytest.approx(E0_BETA1_DX0005, abs=1e-8)

    def test_wavefunctions_normalized(self, two_body_beta1):
        dx = two_body_beta1.grid.spacing
        for m in range(4):
            norm = dx * np.sum(two_body_beta1.wavefunction(m) ** 2)
            assert norm == pytest.approx(1.0, abs=1e-10)

    def test_node_counting(self, two_body_beta1):
        # m-th eigenstate has exactly m interior sign changes
        for m in range(4):
            psi = two_body_beta1.wavefunction(m)
            live = psi[np.abs(psi) > 1e-8 * np.abs(psi).max()]
            changes = int(np.sum(live[:-1] * live[1:] < 0.0))
            assert changes == m

    def test_hellmann_feynman(self):
        # dE/dbeta equals <V> for the discrete eigenproblem; the central
        # difference only adds O(delta^2) truncation
        grid = Grid1D()
        delta = 1e-3
        e_plus = solve_two_body(grid, 1.0 + delta, 1.0, 1).energies[0]
        e_minus = solve_two_body(grid, 1.0 - delta, 1.0, 1).energies[0]
        fd = (e_plus - e_minus) / (2.0 * delta)
        sol = solve_two_body(grid, 1.0, 1.0, 1)
        v_exp = grid.spacing * np.sum(
            reduced_potential(grid.nodes, 1.0) * sol.wavefunction(0) ** 2
        )
        assert fd == pytest.approx(v_exp, rel=1e-3)

    def test_grid_convergence_second_order(self):
        energies = {}
        for dx in (0.04, 0.02, 0.01):
            sol = solve_two_body(Grid1D.from_spacing(100.0, dx), 1.0, 1.0, 1)
            energies[dx] = sol.energies[0]
        ratio = (energies[0.04] - energies[0.02]) / (energies[0.02] - energies[0.01])
        assert 3.5 < ratio < 4.5

    def test_box_wall_artifact(self, two_body_beta1):
        # near-threshold states are box artifacts; genuinely bound states are not
        wide = solve_two_body(Grid1D.from_spacing(150.0, 0.01), 1.0, 1.0, 6)
        narrow = two_body_beta1
        rel = np.abs(wide.energies - narrow.energies) / np.abs(narrow.energies)
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
        np.testing.assert_allclose(rows[0].energies, box, rtol=1e-2)
        assert rows[0].bound_count == 0

    def test_spot_check_beta_half(self):
        rows = scan_beta([0.5], Grid1D(), 1.0, 4)
        np.testing.assert_allclose(rows[0].energies, E_BETA05_DX001, atol=1e-8)
        assert rows[0].bound_count == 2

    def test_row_errors_recorded(self):
        rows = scan_beta([0.5, -1.0], Grid1D.from_spacing(40.0, 0.05), 1.0, 2)
        assert rows[0].error is None
        assert rows[1].error is not None and rows[1].energies is None

    def test_foreign_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("not a solver failure")

        monkeypatch.setattr(twobody, "solve_two_body", broken)
        with pytest.raises(RuntimeError):
            scan_beta([0.5], Grid1D.from_spacing(40.0, 0.05), 1.0, 2)

    def test_empty_betas_rejected(self):
        with pytest.raises(ValueError):
            scan_beta([], Grid1D(), 1.0, 2)


def test_bound_threshold_constant():
    assert BOUND_THRESHOLD == -1e-3
