import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from helixdipoles import threebody
from helixdipoles.cli import RunConfig
from helixdipoles.errors import DimensionError, GeometryError, GridError
from helixdipoles.linalg import (EigenResult, Solution, SymmetricSparseOperator,
                                 lowest_eigenpairs)
from helixdipoles.potential import reduced_potential
from helixdipoles.threebody import (
    FIRST_MINIMUM_XY,
    X_WINDING,
    Y_WINDING,
    ThreeBodySolution,
    WedgeGrid2D,
    angles_from_jacobi,
    assemble_hamiltonian_2d,
    exchange_images,
    jacobi_from_angles,
    pair_separations,
    solve_three_body,
    symmetrize_wavefunction,
)
from helixdipoles.twobody import Grid1D, solve_two_body

TWO_PI = 2.0 * math.pi

# dense references computed before the build on the small wedge
# (x_max=12, y_max=16, beta=1, h=R, half-cell edge cushion)
MINI_E_DX05 = [-0.490597362, -0.222958816, -0.172283341, -0.055358708]
MINI_E_DX04 = [-0.486053327, -0.220748474, -0.170036187, -0.051638463]
MINI_E_DX02 = [-0.477138053, -0.216388829, -0.165248734, -0.045238210]
MINI_N = 879  # active nodes of that wedge at h = 0.4

# production-box references from an independent shift-invert solver run
# before the build (same operator definition)
PROD_BETA1_E = [-0.4754838, -0.2441071]
PROD_BETA1_D = (1.0137, 1.0137, 2.0273)
PROD_BETA2_E0 = -1.4391000
PROD_BETA2_D = (0.9987, 0.9987, 1.9973)
PROD_BETA025_E0 = -0.0285792
PROD_BETA025_D = (1.5454, 1.5468, 3.0922)


class AssemblyReached(Exception):
    """Raised in place of the wedge assembly: the request passed its checks."""


def stop_at_assembly(*args):
    raise AssemblyReached


class TestJacobiTransform:
    def test_chain_configuration(self):
        x, y, _ = jacobi_from_angles(2.0 * TWO_PI, TWO_PI, 0.0)
        assert x == pytest.approx(math.sqrt(2.0) * math.pi, rel=1e-14)
        assert y == pytest.approx(math.sqrt(6.0) * math.pi, rel=1e-14)

    def test_coincident_particles_map_to_origin(self):
        x, y, z = jacobi_from_angles(3.3, 3.3, 3.3)
        assert (x, y) == (0.0, 0.0)
        assert z == pytest.approx(math.sqrt(3.0) * 3.3, rel=1e-14)

    @given(st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50))
    def test_orthogonality(self, p1, p2, p3):
        x, y, z = jacobi_from_angles(p1, p2, p3)
        assert x**2 + y**2 + z**2 == pytest.approx(
            p1**2 + p2**2 + p3**2, rel=1e-12, abs=1e-12
        )

    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            angles = rng.uniform(-40.0, 40.0, size=3)
            back = angles_from_jacobi(*jacobi_from_angles(*angles))
            np.testing.assert_allclose(back, angles, atol=1e-12)

    def test_zero_maps_to_zero(self):
        assert angles_from_jacobi(0.0, 0.0, 0.0) == (0.0, 0.0, 0.0)

    @given(st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50))
    def test_pair_separations_invert_the_map(self, p1, p2, p3):
        x, y, _ = jacobi_from_angles(p1, p2, p3)
        np.testing.assert_allclose(pair_separations(x, y),
                                   (p1 - p2, p2 - p3, p1 - p3), rtol=0.0, atol=1e-12)

    @given(st.floats(-50, 50), st.floats(-50, 50))
    def test_exchange_images_permute_the_pair_separations(self, x, y):
        # an exchange permutes the pair distances and multiplies the product
        # phi12 phi23 phi13 (the Vandermonde of the angles) by its sign
        seps = pair_separations(x, y)
        scale = 1.0 + max(abs(s) for s in seps)
        images = list(exchange_images(x, y))
        np.testing.assert_allclose(images[0][:2], (x, y), rtol=0.0, atol=1e-12)  # identity
        assert sorted(parity for *_, parity in images) == [-1.0] * 3 + [1.0] * 3
        for ix, iy, parity in images:
            moved = pair_separations(ix, iy)
            np.testing.assert_allclose(sorted(np.abs(moved)), sorted(np.abs(seps)),
                                       rtol=0.0, atol=1e-12)
            assert np.prod(moved) == pytest.approx(parity * np.prod(seps),
                                                   rel=0.0, abs=1e-12 * scale**3)

    @given(st.floats(-50, 50), st.floats(-50, 50))
    def test_ordered_angles_give_the_wedge_image(self, x, y):
        # symmetrize_wavefunction finds a sample's wedge representative by
        # ordering the particle angles phi1 >= phi2 >= phi3
        rx, ry, _ = jacobi_from_angles(*np.sort(angles_from_jacobi(x, y))[::-1])
        gaps = [math.hypot(ix - rx, iy - ry) for ix, iy, _ in exchange_images(x, y)]
        assert min(gaps) < 1e-12
        assert rx >= 0.0 and ry >= rx / math.sqrt(3.0) - 1e-12

    def test_pair_separations_at_peak(self):
        x, y = FIRST_MINIMUM_XY
        phi12, phi23, phi13 = pair_separations(x, y)
        assert phi12 == pytest.approx(TWO_PI, rel=1e-14)
        assert phi23 == pytest.approx(TWO_PI, rel=1e-14)
        assert phi13 == pytest.approx(2.0 * TWO_PI, rel=1e-14)

    @given(st.floats(-50, 50), st.floats(-50, 50))
    def test_windings_shift_one_pair_separation_by_one_winding(self, x, y):
        # X_WINDING and Y_WINDING are the images of one-winding shifts of phi1
        # and of -phi3, so each moves one pair separation by exactly 2 pi
        phi12, phi23, _ = pair_separations(x, y)
        assert pair_separations(x + X_WINDING, y)[0] - phi12 == pytest.approx(
            TWO_PI, rel=0.0, abs=1e-12)
        assert pair_separations(x, y + Y_WINDING)[1] - phi23 == pytest.approx(
            TWO_PI, rel=0.0, abs=1e-12)


class TestWedgeGrid:
    def test_active_nodes_inside_wedge(self):
        grid = WedgeGrid2D(12.0, 16.0, 0.4)
        assert np.all(grid.y - grid.x / math.sqrt(3.0) > 0.0)
        assert np.all(grid.x > 0.0)
        assert np.all(grid.x < 12.0)
        assert np.all(grid.y < 16.0)

    def test_margins(self):
        mx, my = WedgeGrid2D(30.0, 40.0, 0.1).margin_windings()
        assert mx > 5.0 and my > 5.0
        mx, my = WedgeGrid2D(12.0, 16.0, 0.4).margin_windings()
        assert mx < 5.0

    @pytest.mark.parametrize("x_max, y_max, spacing", [(30.0, 40.0, 0.1), (12.0, 16.0, 0.4)])
    def test_index_matches_node_coordinates(self, x_max, y_max, spacing):
        grid = WedgeGrid2D(x_max, y_max, spacing)
        ii, jj = np.nonzero(grid.index >= 0)  # row-major, as on_lattice numbers
        np.testing.assert_array_equal(ii, np.rint(grid.x / spacing))
        np.testing.assert_array_equal(jj, np.rint(grid.y / spacing))
        np.testing.assert_array_equal(grid.index[ii, jj], np.arange(grid.n_active))

    def test_box_is_the_lattice_walls(self):
        # 30/0.7 and 40/0.7 round to 43 and 57 cells: the lattice is 30.1 x 39.9
        grid = WedgeGrid2D(30.0, 40.0, 0.7)
        assert grid.index.shape == (44, 58)
        assert (grid.x_max, grid.y_max) == (43 * 0.7, 57 * 0.7)
        assert WedgeGrid2D(12.0, 16.0, 0.4).coarsened().x_max == 8 * 1.6  # 7.5 cells
        # a unit field: zero only off the lattice; both points are their own wedge image
        ones = EigenResult(np.zeros(1), np.ones((grid.n_active, 1)), np.zeros(1), method="given")
        sol = ThreeBodySolution(grid=grid, eigen=ones, distances=(0.0, 0.0, 0.0))
        psi, n_outside = symmetrize_wavefunction(sol, "boson", 5.0, 39.95)
        assert (psi, n_outside) == (0.0, 1)
        psi, n_outside = symmetrize_wavefunction(sol, "boson", 30.05, 35.0)
        assert psi > 0.0 and n_outside == 0

    def test_small_box_rejected_unless_allowed(self, monkeypatch):
        # solve_three_body checks the box once per request, before any assembly
        monkeypatch.setattr(threebody, "assemble_hamiltonian_2d", stop_at_assembly)
        grid = WedgeGrid2D(12.0, 16.0, 0.4)
        with pytest.raises(GridError, match="allow_small_box"):
            solve_three_body(grid, 1.0, 1.0, 1)
        with pytest.raises(GeometryError):  # the ratio is checked before the box
            solve_three_body(grid, 1.0, 5.0, 1)
        with pytest.raises(AssemblyReached):
            solve_three_body(grid, 1.0, 1.0, 1, allow_small_box=True)

    def test_negative_seed_rejected_before_assembly(self, monkeypatch):
        monkeypatch.setattr(threebody, "assemble_hamiltonian_2d", stop_at_assembly)
        grid = WedgeGrid2D(12.0, 16.0, 0.4)
        with pytest.raises(ValueError, match="seed"):
            solve_three_body(grid, 1.0, 1.0, 1, seed=-1, allow_small_box=True)

    @given(st.floats(3.0, 40.0), st.floats(3.0, 50.0))
    def test_margin_violation_needs_allow_small_box(self, x_max, y_max):
        grid = WedgeGrid2D(x_max, y_max, 1.0)  # coarse: at most ~1,000 nodes
        # the walls sit on whole cells; the one-winding chain sits at
        # (sqrt2 pi, sqrt6 pi); a winding is 2 pi / sqrt2 along x and
        # 2 pi / sqrt(3/2) along y
        clear_x = (round(x_max) - math.sqrt(2.0) * math.pi) / (TWO_PI / math.sqrt(2.0))
        clear_y = (round(y_max) - math.sqrt(6.0) * math.pi) / (TWO_PI / math.sqrt(1.5))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(threebody, "assemble_hamiltonian_2d", stop_at_assembly)
            if min(clear_x, clear_y) < 5.0:
                with pytest.raises(GridError, match="allow_small_box"):
                    solve_three_body(grid, 1.0, 1.0, 1)
            else:
                with pytest.raises(AssemblyReached):
                    solve_three_body(grid, 1.0, 1.0, 1)
            with pytest.raises(AssemblyReached):
                solve_three_body(grid, 1.0, 1.0, 1, allow_small_box=True)
        assert assemble_hamiltonian_2d(grid, 1.0, 1.0).n == grid.n_active  # any box assembles


class TestAssembly2D:
    def test_diagonal_at_chain_peak(self):
        # adjacent pairs sit one winding apart (V = -1 each); the outer pair
        # is two windings apart where V(4 pi) = -1/8 exactly
        grid = WedgeGrid2D(30.0, 40.0, 0.1)
        op = assemble_hamiltonian_2d(grid, 1.0, 1.0)
        x0, y0 = FIRST_MINIMUM_XY
        i = int(np.argmin((grid.x - x0) ** 2 + (grid.y - y0) ** 2))
        potential_part = op.csr.diagonal()[i] - 2.0 / grid.spacing**2
        assert potential_part == pytest.approx(-2.125, abs=0.05)

    def test_symmetry(self):
        grid = WedgeGrid2D(12.0, 16.0, 0.4)
        op = assemble_hamiltonian_2d(grid, 1.0, 1.0)
        csr = op.csr
        assert (csr != csr.T).nnz == 0
        rows = np.repeat(np.arange(op.n), np.diff(csr.indptr))  # every row stores its diagonal
        assert np.array_equal(np.unique(rows[rows == csr.indices]), np.arange(op.n))

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_stencil_csr_equals_coo_reference(self, lattice_coo_reference, beta):
        grid = WedgeGrid2D(12.0, 16.0, 0.4)
        csr = assemble_hamiltonian_2d(grid, beta, 1.0).csr
        pot = beta * sum(reduced_potential(phi, 1.0) for phi in pair_separations(grid.x, grid.y))
        ref = lattice_coo_reference(grid.index, grid.spacing, pot)
        assert csr.indices.dtype == np.int32 and csr.indptr.dtype == np.int32
        assert csr.has_canonical_format
        np.testing.assert_array_equal(csr.indptr, ref.indptr)
        np.testing.assert_array_equal(csr.indices, ref.indices)
        assert csr.data.tobytes() == ref.data.tobytes()

    def test_pair_reduced_mass_convention(self, dense_oracle):
        # Only the pair-12 term, beta V(sqrt(2) x), on a rectangle in x, y > 0:
        # the problem separates.  With phi12 = sqrt(2) x the kinetic term along
        # x is -(d/dphi12)^2, twice the two-body one, because every particle
        # carries the pair reduced mass.  So the lowest level is 2 E2(beta/2)
        # on phi spacing sqrt(2) h plus the lowest y-box level.  Particles of
        # the full mass m would give E2(beta) instead.
        n_x, n_y, h, beta = 30, 4, 0.1, 2.0
        index = -np.ones((n_x + 1, n_y + 1), dtype=np.int32)
        index[1:-1, 1:-1] = np.arange((n_x - 1) * (n_y - 1)).reshape(n_x - 1, n_y - 1)
        pot = beta * reduced_potential(math.sqrt(2.0) * h * np.arange(1, n_x), 1.0)
        op = SymmetricSparseOperator.on_lattice(index, h, np.repeat(pot, n_y - 1))
        e0 = dense_oracle(op, 1).values[0]
        length = n_x * math.sqrt(2.0) * h
        pair = solve_two_body(Grid1D(length, length / n_x), beta / 2.0, 1.0, 1)
        e_y = (1.0 - math.cos(math.pi / n_y)) / h**2
        assert e0 == pytest.approx(2.0 * pair.energies[0] + e_y, rel=0.0, abs=1e-12)

    def test_free_wedge_spectrum_positive(self):
        grid = WedgeGrid2D(12.0, 16.0, 0.4)
        op = assemble_hamiltonian_2d(grid, 0.0, 1.0)
        res = lowest_eigenpairs(op, 4)
        assert np.all(res.values > 0.0)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_nonfinite_beta_rejected(self, beta):
        # rejected by solve_three_body's request checks, before any assembly
        with pytest.raises(ValueError, match="finite"):
            solve_three_body(WedgeGrid2D(12.0, 16.0, 0.4), beta, 1.0, 1,
                             allow_small_box=True)

    def test_coarsened_grid(self):
        grid = WedgeGrid2D(12.0, 16.0, 0.2)
        coarse = grid.coarsened()
        assert (coarse.x_max, coarse.y_max, coarse.spacing) == (12.0, 16.0, 0.8)
        assert 1 < coarse.n_active < grid.n_active // 10
        # 2.0 / 0.8 rounds to 2 cells: no grid
        assert WedgeGrid2D(2.0, 16.0, 0.2).coarsened() is None

    def test_k_checked_before_assembly(self, monkeypatch):
        def no_assembly(*args, **kwargs):
            raise AssertionError("wedge assembled before the k check")

        monkeypatch.setattr(threebody, "assemble_hamiltonian_2d", no_assembly)
        grid = WedgeGrid2D(12.0, 16.0, 0.4)
        for k in (0, grid.n_active // 4 + 1):
            with pytest.raises(DimensionError, match=f"k={k} outside"):
                solve_three_body(grid, 1.0, 1.0, k, allow_small_box=True)

    def test_forced_dense_rejected_before_assembly(self, monkeypatch):
        def no_assembly(*args, **kwargs):
            raise AssertionError("wedge assembled before the request check")

        monkeypatch.setattr(threebody, "assemble_hamiltonian_2d", no_assembly)
        grid = WedgeGrid2D(12.0, 16.0, 0.2)
        with pytest.raises(ValueError, match="unknown method 'dense'"):
            solve_three_body(grid, 1.0, 1.0, 1, method="dense", allow_small_box=True)

    @given(st.integers(-10**6, 0) | st.integers(MINI_N // 4 + 1, 10**6))
    @example(0)
    @example(MINI_N // 4 + 1)
    def test_k_outside_range_rejected_before_assembly(self, k):
        grid = WedgeGrid2D(12.0, 16.0, 0.4)
        assert grid.n_active == MINI_N

        def no_assembly(*args, **kwargs):
            raise AssertionError("wedge assembled before the k check")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(threebody, "assemble_hamiltonian_2d", no_assembly)
            with pytest.raises(DimensionError, match=f"k={k} outside"):
                solve_three_body(grid, 1.0, 1.0, k, allow_small_box=True)


class TestCoarseEstimate:
    @pytest.fixture
    def solves(self, monkeypatch):
        """Every eigensolve a three-body request makes: (n, method, estimate)."""
        calls = []

        def recorded(op, k, **kwargs):
            calls.append((op.n, kwargs.get("method", "auto"), kwargs.get("estimate")))
            return lowest_eigenpairs(op, k, **kwargs)

        monkeypatch.setattr(threebody, "lowest_eigenpairs", recorded)
        return calls

    @pytest.mark.parametrize("method", ["auto"])  # the one choice that takes shift-invert
    def test_shift_invert_solves_the_coarse_box_first(self, solves, method):
        grid = WedgeGrid2D(12.0, 16.0, 0.2)
        sol = solve_three_body(grid, 1.0, 1.0, 2, method=method, allow_small_box=True)
        coarse = grid.coarsened()
        assert [(n, m) for n, m, _ in solves] == [(coarse.n_active, "auto"),
                                                  (grid.n_active, method)]
        # the coarse E0 lies above the fine one here; the shift below it still does not
        assert solves[0][2] is None and solves[1][2] > sol.energies[0]
        assert sol.eigen.shift_source == "estimate"
        assert sol.eigen.shift < sol.energies[0]
        np.testing.assert_allclose(sol.energies, MINI_E_DX02[:2], atol=1e-8)

    @pytest.mark.parametrize("method", ["lanczos"])
    def test_forced_paths_run_no_coarse_solve(self, solves, method):
        grid = WedgeGrid2D(12.0, 16.0, 0.4)
        sol = solve_three_body(grid, 1.0, 1.0, 2, method=method, allow_small_box=True)
        assert solves == [(grid.n_active, method, None)]
        assert sol.eigen.shift is None
        np.testing.assert_allclose(sol.energies, MINI_E_DX04[:2], atol=1e-8)

    def test_unbuildable_coarse_grid_skipped(self, solves):
        grid = WedgeGrid2D(2.0, 3.0, 0.2)
        assert grid.coarsened() is None
        sol = solve_three_body(grid, 1.0, 1.0, 1, allow_small_box=True)
        assert solves == [(grid.n_active, "auto", None)]
        assert sol.eigen.shift_source == "gershgorin"


class TestMiniWedgeReferences:
    def test_dense_reference_dx05(self, dense_oracle):
        grid = WedgeGrid2D(12.0, 16.0, 0.5)
        op = assemble_hamiltonian_2d(grid, 1.0, 1.0)
        res = dense_oracle(op, 4)
        np.testing.assert_allclose(res.values, MINI_E_DX05, atol=1e-8)

    def test_dense_reference_dx04(self, mini_wedge_solves):
        _, dense, _ = mini_wedge_solves
        np.testing.assert_allclose(dense.values, MINI_E_DX04, atol=1e-8)

    def test_lanczos_reference_dx02(self):
        # cross-route: package Lanczos against the frozen dense reference
        grid = WedgeGrid2D(12.0, 16.0, 0.2)
        op = assemble_hamiltonian_2d(grid, 1.0, 1.0)
        res = lowest_eigenpairs(op, 4, method="lanczos")
        np.testing.assert_allclose(res.values, MINI_E_DX02, atol=1e-8)

    def test_iterative_matches_dense(self, mini_wedge_solves):
        _, dense, lanczos = mini_wedge_solves
        np.testing.assert_allclose(lanczos.values, dense.values, atol=1e-9)
        for i in range(4):
            du, dl = dense.vectors[:, i], lanczos.vectors[:, i]
            assert min(np.linalg.norm(du - dl), np.linalg.norm(du + dl)) < 1e-6


def test_hellmann_feynman_central_difference():
    """<V>0 of the three pair potentials is dE0/dbeta at beta = 2.

    The central difference (E0(b + d) - E0(b - d)) / 2d errs from E0'(b) by
    d^2 E0'''(b) / 6 + O(d^4), and E0''' = d^2 <V>0 / dbeta^2 comes from the
    same three solves.  Twice that term is the tolerance: 4.0e-6 at d = 0.01,
    against the 1.1e-2 gap of a potential mis-scaled by 1%.
    """
    grid = WedgeGrid2D(20.0, 26.0, 0.2)
    v = sum(reduced_potential(phi, 1.0) for phi in pair_separations(grid.x, grid.y))
    d = 0.01
    sols = [solve_three_body(grid, beta, 1.0, 1, allow_small_box=True)
            for beta in (2.0 - d, 2.0, 2.0 + d)]
    e_lo, _, e_hi = (sol.energies[0] for sol in sols)
    v_lo, v_mid, v_hi = (sol.expectation(v) for sol in sols)
    third = (v_hi - 2.0 * v_mid + v_lo) / d**2
    assert abs((e_hi - e_lo) / (2.0 * d) - v_mid) <= 2.0 * d**2 * abs(third) / 6.0


class TestProductionSolves:
    @pytest.mark.parametrize("fixture", ["three_body_beta1", "three_body_beta2",
                                         "three_body_beta025"])
    def test_shift_invert_residuals(self, fixture, request):
        # ARPACK's shift-invert mode purifies the Ritz vectors of (H - sigma)^-1
        sol = request.getfixturevalue(fixture)
        assert sol.eigen.method == "shift-invert"
        assert sol.eigen.residual_norms.max() < 2e-9

    def test_beta1_energies_and_distances(self, three_body_beta1):
        np.testing.assert_allclose(three_body_beta1.energies, PROD_BETA1_E, atol=1e-6)
        np.testing.assert_allclose(three_body_beta1.distances, PROD_BETA1_D, atol=5e-4)

    def test_beta1_peak_at_chain_configuration(self, three_body_beta1):
        grid = three_body_beta1.grid
        psi0 = three_body_beta1.wavefunction(0)
        peak = int(np.argmax(np.abs(psi0)))
        x0, y0 = FIRST_MINIMUM_XY
        assert abs(grid.x[peak] - x0) <= 0.1
        assert abs(grid.y[peak] - y0) <= 0.1

    def test_beta1_first_excited_sign_change(self, three_body_beta1):
        # amplitude near the one-winding chain has the opposite sign of the
        # amplitude where one outer particle sits two windings away
        grid = three_body_beta1.grid
        psi1 = three_body_beta1.wavefunction(1)

        def value_at(px, py):
            return psi1[int(np.argmin((grid.x - px) ** 2 + (grid.y - py) ** 2))]

        one_winding = value_at(*FIRST_MINIMUM_XY)
        two_windings_a = value_at(4.0 * math.pi / math.sqrt(2.0),
                                  8.0 * math.pi / math.sqrt(6.0))
        two_windings_b = value_at(math.sqrt(2.0) * math.pi,
                                  10.0 * math.pi / math.sqrt(6.0))
        assert one_winding * two_windings_a < 0.0
        assert one_winding * two_windings_b < 0.0

    def test_beta2(self, three_body_beta2):
        assert three_body_beta2.energies[0] == pytest.approx(PROD_BETA2_E0, abs=1e-6)
        np.testing.assert_allclose(three_body_beta2.distances, PROD_BETA2_D, atol=5e-4)

    def test_beta025(self, three_body_beta025):
        assert three_body_beta025.energies[0] == pytest.approx(PROD_BETA025_E0, abs=1e-6)
        np.testing.assert_allclose(three_body_beta025.distances, PROD_BETA025_D, atol=5e-4)

    def test_distance_additivity_and_positivity(self, three_body_beta1,
                                                three_body_beta2, three_body_beta025):
        for sol in (three_body_beta1, three_body_beta2, three_body_beta025):
            d12, d23, d13 = sol.distances
            assert d13 == pytest.approx(d12 + d23, abs=1e-10)
            assert d12 > 0.0 and d23 > 0.0

    def test_chain_mirror_symmetry(self, three_body_beta1, three_body_beta2):
        for sol in (three_body_beta1, three_body_beta2):
            d12, d23, _ = sol.distances
            assert abs(d12 - d23) < 0.02

    def test_wedge_dirichlet_suppression(self, three_body_beta1):
        # the repulsive cores push amplitude away from the mask edges
        grid = three_body_beta1.grid
        psi0 = np.abs(three_body_beta1.wavefunction(0))
        ii, jj = np.nonzero(grid.index >= 0)
        edge = np.zeros(grid.n_active, dtype=bool)
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            edge |= grid.index[ii + di, jj + dj] < 0
        assert psi0[edge].max() < 0.05 * psi0.max()

    def test_quadrature_norm(self, three_body_beta1):
        sol = three_body_beta1
        assert sol.grid.weight == sol.grid.spacing**2
        norms = [sol.grid.weight * np.sum(sol.wavefunction(m) ** 2) for m in range(2)]
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)


class TestUnreducedPlane:
    """The wedge against the relative Jacobi plane it reduces, solved without an edge.

    The plane is a disk about the origin on a lattice offset by half a cell, so
    that no node lies on a coincidence line; its operator comes from
    ``on_lattice``, ``pair_separations`` and ``reduced_potential`` alone.  Its
    lowest level is the bosonic ground state, nearly six-fold degenerate, and
    its mean of max|phi_ij| / 2pi is the wedge's d13.  Wedge minus plane at
    h = 0.2 on a 20 x 26 wedge and a disk of radius 23, measured: E0 -1.32e-6
    (beta = 2) and -1.17e-6 (beta = 1), d13 +3.4e-7 and -3.8e-6.  That is the
    reduction's own error: a disk of radius 26 moves neither by more than
    1.4e-7, and the residual norms are near 1e-11.  The bounds 2e-6 in E0 and
    6e-6 in d13 are 1.5 times the largest measured, room for the box and for
    another BLAS's rounding.  At h = 0.4 the energies already part by 3.0e-3
    (beta = 1) and 1.4e-2 (beta = 2).
    """

    SPACING, RADIUS = 0.2, 23.0

    def plane(self, beta, estimate):
        h, r = self.SPACING, self.RADIUS
        half = math.ceil(r / h)
        c = (np.arange(-half, half) + 0.5) * h
        x, y = np.meshgrid(c, c, indexing="ij")
        inside = x**2 + y**2 < r**2
        index = -np.ones((2 * half + 2, 2 * half + 2), dtype=np.int32)
        index[1:-1, 1:-1][inside] = np.arange(np.count_nonzero(inside))
        phis = pair_separations(x[inside], y[inside])
        pot = beta * sum(reduced_potential(phi, 1.0) for phi in phis)
        op = SymmetricSparseOperator.on_lattice(index, h, pot)
        eigen = lowest_eigenpairs(op, 1, estimate=estimate)
        farthest = np.max(np.abs(phis), axis=0) / TWO_PI
        return eigen.values[0], Solution(None, eigen).expectation(farthest)

    @pytest.mark.parametrize("beta", [2.0, 1.0])
    def test_wedge_matches_the_plane(self, beta):
        wedge = solve_three_body(WedgeGrid2D(20.0, 26.0, self.SPACING), beta, 1.0, 1,
                                 allow_small_box=True)
        e0, d13 = self.plane(beta, wedge.energies[0])
        assert abs(wedge.energies[0] - e0) < 2e-6
        assert abs(wedge.distances[2] - d13) < 6e-6


class TestMonotonicLocalization:
    def test_pair_distance_decreases_with_coupling(self):
        grid = WedgeGrid2D(60.0, 60.0, 0.25)
        d12 = []
        for beta in (0.25, 0.5, 1.0, 2.0):
            sol = solve_three_body(grid, beta, 1.0, 1)
            d12.append(sol.distances[0])
        assert all(a > b for a, b in zip(d12, d12[1:]))


class TestSymmetrization:
    @pytest.mark.parametrize("statistics", ["boson", "fermion"])
    def test_even_or_odd_under_exchange(self, three_body_beta1, statistics):
        # bosons keep their value at every image, fermions take its parity
        rng = np.random.default_rng(17)
        pts = rng.uniform(-15.0, 15.0, size=(2, 500))
        base, _ = symmetrize_wavefunction(three_body_beta1, statistics, pts[0], pts[1])
        for gx, gy, parity in list(exchange_images(*pts))[1:]:
            moved, _ = symmetrize_wavefunction(three_body_beta1, statistics, gx, gy)
            sign = parity if statistics == "fermion" else 1.0
            np.testing.assert_allclose(moved, sign * base, atol=1e-6)

    def test_fermion_vanishes_on_coincidence_lines(self, three_body_beta1):
        t = np.linspace(0.5, 12.0, 40)
        on_line_x = np.zeros_like(t)  # the line x = 0
        psi, _ = symmetrize_wavefunction(three_body_beta1, "fermion", on_line_x, t)
        assert np.max(np.abs(psi)) < 1e-9
        # the line y = x / sqrt(3)
        psi2, _ = symmetrize_wavefunction(
            three_body_beta1, "fermion", t, t / math.sqrt(3.0)
        )
        assert np.max(np.abs(psi2)) < 1e-9

    def test_three_copy_structure(self, three_body_beta1):
        # the in-wedge peak reappears at its rotated images with equal value
        x0, y0 = FIRST_MINIMUM_XY
        val0 = symmetrize_wavefunction(three_body_beta1, "boson", x0, y0)[0]
        assert val0 > 0.0
        cyclic = [(gx, gy) for gx, gy, parity in exchange_images(x0, y0) if parity > 0][1:]
        assert len(cyclic) == 2
        for gx, gy in cyclic:
            val = symmetrize_wavefunction(three_body_beta1, "boson", gx, gy)[0]
            assert val == pytest.approx(val0, rel=1e-10)

    def test_outside_box_flagged(self, three_body_beta1):
        psi, n_outside = symmetrize_wavefunction(
            three_body_beta1, "boson", np.array([100.0]), np.array([5.0])
        )
        assert n_outside == 1
        assert psi.shape == (1,) and psi[0] == 0.0

    def test_outer_wall_images_not_flagged(self, three_body_beta1, three_body_beta2):
        # exchange images of points exactly on x = x_max and y = y_max
        # lie on the box, not outside it, whatever the image map's rounding
        grid = three_body_beta1.grid
        t = np.linspace(0.0, 1.0, 401)
        corner = grid.x_max / math.sqrt(3.0)
        walls = np.hstack([[np.full_like(t, grid.x_max), corner + t * (grid.y_max - corner)],
                           [t * grid.x_max, np.full_like(t, grid.y_max)]])
        for gx, gy, _ in exchange_images(*walls):
            psi, n_outside = symmetrize_wavefunction(three_body_beta1, "boson", gx, gy)
            assert n_outside == 0
            assert np.max(np.abs(psi)) < 1e-12
        outward = np.kron(np.eye(2), np.ones(len(t)))  # +x on x_max, +y on y_max
        _, n_beyond = symmetrize_wavefunction(three_body_beta1, "boson",
                                              *(walls + 1e-9 * outward))
        assert n_beyond == 2 * len(t)
        # nor is any sample of the CLI's default grid on the default beta=2 box
        cfg = RunConfig(beta=2.0)
        box = three_body_beta2.grid
        assert (box.x_max, box.y_max, box.spacing) == cfg.resolved_box()
        samples = np.arange(-cfg.sample_extent, cfg.sample_extent + 0.5 * cfg.sample_spacing,
                            cfg.sample_spacing)
        psi, n_outside = symmetrize_wavefunction(three_body_beta2, "fermion",
                                                 samples[:, None], samples[None, :])
        assert psi.shape == (samples.size,) * 2 and n_outside == 0

    def test_points_broadcast_together(self, three_body_beta1):
        # a column of x against a row of y samples the product grid
        x, y = np.linspace(-8.0, 8.0, 5), np.linspace(-6.0, 9.0, 4)
        grid_psi, n_grid = symmetrize_wavefunction(three_body_beta1, "fermion",
                                                   x[:, None], y[None, :])
        xg, yg = np.meshgrid(x, y, indexing="ij")
        psi, n = symmetrize_wavefunction(three_body_beta1, "fermion", xg, yg)
        assert grid_psi.shape == psi.shape == (5, 4) and n_grid == n
        np.testing.assert_array_equal(grid_psi, psi)

    def test_statistics_validated(self, three_body_beta1):
        with pytest.raises(ValueError, match=r", got 'majorana'$"):
            symmetrize_wavefunction(three_body_beta1, "majorana",
                                    np.array([1.0]), np.array([2.0]))
