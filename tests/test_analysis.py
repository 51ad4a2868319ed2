import math

import numpy as np
import pytest
from scipy.integrate import simpson

from helixdipoles.analysis import (
    SizeScanRow,
    build_size_scan,
    fit_harmonic_size,
    size_energy_product,
)
from helixdipoles.potential import find_minima
from helixdipoles.twobody import Grid1D, solve_two_body

TWO_PI = 2.0 * math.pi

# frozen from the pre-build fine-grid reference solve (beta=1, dx=0.01)
PHI2_BETA1 = 40.59329775


class TestExpectationPhi2:
    def test_point_mass(self, as_solution):
        grid = Grid1D(20.0, 0.01)
        psi = np.zeros(grid.n_points)
        i = int(np.argmin(np.abs(grid.nodes - TWO_PI)))
        psi[i] = 1.0
        sol = as_solution(grid, psi)
        assert sol.expectation(grid.nodes**2) == pytest.approx(grid.nodes[i] ** 2, rel=1e-12)

    def test_box_ground_state_closed_form(self, as_solution):
        length = 30.0
        grid = Grid1D(length, 0.001)
        sol = as_solution(grid, np.sin(math.pi * grid.nodes / length))
        exact = length**2 * (1.0 / 3.0 - 1.0 / (2.0 * math.pi**2))
        assert sol.expectation(grid.nodes**2) == pytest.approx(exact, rel=1e-6)

    def test_simpson_consistency(self):
        grid = Grid1D(100.0, 0.01)
        sol = solve_two_body(grid, 1.0, 1.0, 1)
        psi = sol.wavefunction(0)
        trapz = sol.expectation(grid.nodes**2)
        full_phi = np.concatenate([[0.0], grid.nodes, [grid.phi_max]])
        full_psi = np.concatenate([[0.0], psi, [0.0]])
        simp = simpson(full_phi**2 * full_psi**2, x=full_phi)
        assert trapz == pytest.approx(simp, rel=1e-8)

    def test_reference_value(self):
        grid = Grid1D()
        sol = solve_two_body(grid, 1.0, 1.0, 1)
        assert sol.expectation(grid.nodes**2) == pytest.approx(PHI2_BETA1, rel=1e-6)


class TestHarmonicFit:
    def test_exact_synthetic_recovery(self):
        phi0 = 6.2
        betas = np.array([5.0, 8.0, 12.0, 16.0, 20.0])
        rows = [
            SizeScanRow(beta=b, energy=-b, phi2=3.0 / math.sqrt(b) + 1.0 * phi0**2, phi0=phi0)
            for b in betas
        ]
        fit = fit_harmonic_size(rows)
        assert fit.c1 == pytest.approx(3.0, abs=1e-10)
        assert fit.c2 == pytest.approx(1.0, abs=1e-10)
        assert fit.residual_rms < 1e-10

    def test_solver_data_fit_quality(self):
        betas = (5.0, 7.5, 10.0, 12.5, 15.0, 17.5, 20.0)
        rows = build_size_scan(betas, Grid1D(), 1.0)
        fit = fit_harmonic_size(rows)
        mean_phi2 = np.mean([r.phi2 for r in rows])
        assert fit.residual_rms / mean_phi2 < 0.01
        # the equilibrium-shift term dominates at strong coupling
        assert fit.c2 * rows[0].phi0**2 > 10.0 * fit.c1 / math.sqrt(betas[-1])

    def test_too_few_rows(self):
        rows = [SizeScanRow(5.0, -1.0, 40.0, 6.2)] * 3
        with pytest.raises(ValueError):
            fit_harmonic_size(rows)

    def test_window_is_the_rows_coupling_range(self):
        rows = [SizeScanRow(b, -1.0, 3.0 / math.sqrt(b) + 6.2**2, 6.2)
                for b in (5.0, 7.5, 10.0, 12.5, 15.0)]
        assert fit_harmonic_size(rows).beta_range == (5.0, 15.0)

    def test_degenerate_design(self):
        rows = [SizeScanRow(7.0, -1.0, 40.0, 6.2) for _ in range(5)]
        with pytest.raises(ValueError):
            fit_harmonic_size(rows)

    def test_dependent_basis_columns(self):
        # distinct couplings, but phi0^2 built as 2/sqrt(beta): the window rule
        # passes these rows and the rank check after the solve refuses them
        rows = [SizeScanRow(b, -1.0, 40.0, math.sqrt(2.0 / math.sqrt(b)))
                for b in (4.0, 16.0, 64.0, 256.0)]
        with pytest.raises(ValueError, match=r"^degenerate design matrix"):
            fit_harmonic_size(rows)

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.nan])
    def test_basis_needs_positive_couplings(self, beta):
        # 1/sqrt(beta) would warn, then fail inside LAPACK with a misleading message
        rows = [SizeScanRow(b, -1.0, 40.0, 6.2) for b in (beta, 5.0, 10.0, 15.0)]
        with pytest.raises(ValueError, match=r"^beta must be finite and > 0, got "):
            fit_harmonic_size(rows)


class TestSizeScan:
    def test_phi2_strictly_decreasing_in_beta(self):
        rows = build_size_scan((1.0, 2.5, 5.0, 10.0, 15.0, 20.0), Grid1D(), 1.0)
        phi2 = [r.phi2 for r in rows]
        assert all(a > b for a, b in zip(phi2, phi2[1:]))

    def test_phi0_taken_from_first_minimum(self):
        rows = build_size_scan((5.0,), Grid1D(60.0, 0.02), 1.0)
        assert rows[0].phi0 == pytest.approx(find_minima(1.0, 1)[0].phi_k, abs=1e-12)


class TestSizeEnergyProduct:
    def test_synthetic_closed_form(self):
        phi0 = 6.2
        rows = [
            SizeScanRow(beta=1.0, energy=-(k**2) / 2.0,
                        phi2=1.0 / (2.0 * k**2) + phi0**2, phi0=phi0)
            for k in (0.5, 1.0, 2.0)
        ]
        table = size_energy_product(rows)
        np.testing.assert_allclose(table[:, 1], -0.25, rtol=1e-12)

    def test_sorted_by_energy(self):
        rows = [
            SizeScanRow(0.2, -0.016, 80.0, 6.2),
            SizeScanRow(0.5, -0.098, 45.0, 6.2),
            SizeScanRow(0.1, -0.003, 260.0, 6.2),
        ]
        table = size_energy_product(rows)
        assert np.all(np.diff(table[:, 0]) >= 0.0)
