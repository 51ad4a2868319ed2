import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from helixdipoles import threebody
from helixdipoles.errors import DimensionError, GridError
from helixdipoles.linalg import DENSE_CUTOFF, SymmetricSparseOperator, lowest_eigenpairs
from helixdipoles.potential import reduced_potential
from helixdipoles.threebody import (
    EXCHANGE_GROUP,
    FIRST_MINIMUM_XY,
    JacobiAngles,
    WedgeGrid2D,
    angles_from_jacobi,
    assemble_hamiltonian_2d,
    jacobi_from_angles,
    pair_distance_expectations,
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

# production-box references from an independent shift-invert solver run
# before the build (same operator definition)
PROD_BETA1_E = [-0.4754838, -0.2441071]
PROD_BETA1_D = (1.0137, 1.0137, 2.0273)
PROD_BETA2_E0 = -1.4391000
PROD_BETA2_D = (0.9987, 0.9987, 1.9973)
PROD_BETA025_E0 = -0.0285792
PROD_BETA025_D = (1.5454, 1.5468, 3.0922)

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def coo_reference(grid, beta, ratio):
    """The wedge operator assembled from COO triplets, one stencil arm at a time."""
    dx = grid.spacing
    phi12, phi23, phi13 = pair_separations(grid.x, grid.y)
    pot = beta * (reduced_potential(phi12, ratio) + reduced_potential(phi23, ratio)
                  + reduced_potential(phi13, ratio))
    n = grid.n_active
    rows, cols, vals = [np.arange(n)], [np.arange(n)], [2.0 / dx**2 + pot]
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        neighbor = grid._index[grid.ii + di, grid.jj + dj].astype(np.int64)
        has = neighbor >= 0
        rows.append(np.flatnonzero(has))
        cols.append(neighbor[has])
        vals.append(np.full(int(has.sum()), -0.5 / dx**2))
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n)).tocsr()


class TestJacobiTransform:
    def test_chain_configuration(self):
        j = jacobi_from_angles(2.0 * TWO_PI, TWO_PI, 0.0)
        assert j.x == pytest.approx(math.sqrt(2.0) * math.pi, rel=1e-14)
        assert j.y == pytest.approx(math.sqrt(6.0) * math.pi, rel=1e-14)

    def test_coincident_particles_map_to_origin(self):
        j = jacobi_from_angles(3.3, 3.3, 3.3)
        assert (j.x, j.y) == (0.0, 0.0)
        assert j.z == pytest.approx(math.sqrt(3.0) * 3.3, rel=1e-14)

    @given(st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50))
    def test_orthogonality(self, p1, p2, p3):
        j = jacobi_from_angles(p1, p2, p3)
        assert j.x**2 + j.y**2 + j.z**2 == pytest.approx(
            p1**2 + p2**2 + p3**2, rel=1e-12, abs=1e-12
        )

    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            angles = rng.uniform(-40.0, 40.0, size=3)
            back = angles_from_jacobi(jacobi_from_angles(*angles))
            np.testing.assert_allclose(back, angles, atol=1e-12)

    def test_zero_maps_to_zero(self):
        assert angles_from_jacobi(JacobiAngles(0.0, 0.0, 0.0)) == (0.0, 0.0, 0.0)

    @given(st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50))
    def test_pair_separations_invert_the_map(self, p1, p2, p3):
        j = jacobi_from_angles(p1, p2, p3)
        np.testing.assert_allclose(pair_separations(j.x, j.y),
                                   (p1 - p2, p2 - p3, p1 - p3), rtol=0.0, atol=1e-12)

    def test_exchange_group_is_the_angle_permutations(self):
        # each element, with its parity, is one permutation P of the angles
        # seen through the Jacobi map: the (x, y) block of J P J^T
        jac = np.array([[getattr(jacobi_from_angles(*e), c) for e in np.eye(3)]
                        for c in "xyz"])
        matched = []
        for perm in itertools.permutations(range(3)):
            p = np.eye(3)[list(perm)]
            moved = jac @ p @ jac.T
            np.testing.assert_allclose(moved[:2, 2], 0.0, atol=1e-15)  # z decouples
            parity = round(np.linalg.det(p))
            matched += [i for i, (mat, sign) in enumerate(EXCHANGE_GROUP)
                        if sign == parity and np.allclose(mat, moved[:2, :2], rtol=0.0,
                                                          atol=1e-15)]
        assert sorted(matched) == list(range(len(EXCHANGE_GROUP))) == list(range(6))

    @given(st.floats(-50, 50), st.floats(-50, 50))
    def test_ordered_angles_give_the_wedge_image(self, x, y):
        # symmetrize_wavefunction finds a sample's wedge representative by
        # ordering the particle angles phi1 >= phi2 >= phi3
        ordered = np.sort(angles_from_jacobi(JacobiAngles(x, y, 0.0)))[::-1]
        rep = jacobi_from_angles(*ordered)
        gaps = [math.hypot(*(mat @ (x, y) - (rep.x, rep.y))) for mat, _ in EXCHANGE_GROUP]
        assert min(gaps) < 1e-12
        assert rep.x >= 0.0 and rep.y >= rep.x / math.sqrt(3.0) - 1e-12

    def test_pair_separations_at_peak(self):
        x, y = FIRST_MINIMUM_XY
        phi12, phi23, phi13 = pair_separations(x, y)
        assert phi12 == pytest.approx(TWO_PI, rel=1e-14)
        assert phi23 == pytest.approx(TWO_PI, rel=1e-14)
        assert phi13 == pytest.approx(2.0 * TWO_PI, rel=1e-14)


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

    def test_small_box_rejected_unless_allowed(self):
        grid = WedgeGrid2D(12.0, 16.0, 0.4)
        with pytest.raises(GridError):
            assemble_hamiltonian_2d(grid, 1.0, 1.0)
        assemble_hamiltonian_2d(grid, 1.0, 1.0, allow_small_box=True)

    def test_invalid(self):
        with pytest.raises(GridError):
            WedgeGrid2D(-1.0, 16.0, 0.4)

    @given(NON_FINITE, st.integers(0, 2))
    def test_non_finite_box_rejected(self, bad, position):
        args = [12.0, 16.0, 0.4]
        args[position] = bad
        with pytest.raises(GridError, match="finite"):
            WedgeGrid2D(*args)

    @given(st.floats(3.0, 40.0), st.floats(3.0, 50.0))
    def test_margin_violation_needs_allow_small_box(self, x_max, y_max):
        grid = WedgeGrid2D(x_max, y_max, 1.0)  # coarse: at most ~1,000 nodes
        # the one-winding chain sits at (sqrt2 pi, sqrt6 pi); a winding is
        # 2 pi / sqrt2 along x and 2 pi / sqrt(3/2) along y
        clear_x = (x_max - math.sqrt(2.0) * math.pi) / (TWO_PI / math.sqrt(2.0))
        clear_y = (y_max - math.sqrt(6.0) * math.pi) / (TWO_PI / math.sqrt(1.5))
        if min(clear_x, clear_y) < 5.0:
            with pytest.raises(GridError, match="allow_small_box"):
                assemble_hamiltonian_2d(grid, 1.0, 1.0)
        else:
            assemble_hamiltonian_2d(grid, 1.0, 1.0)
        assert assemble_hamiltonian_2d(grid, 1.0, 1.0, allow_small_box=True).n == grid.n_active


class TestAssembly2D:
    def test_diagonal_at_chain_peak(self):
        # adjacent pairs sit one winding apart (V = -1 each); the outer pair
        # is two windings apart where V(4 pi) = -1/8 exactly
        grid = WedgeGrid2D(30.0, 40.0, 0.1)
        op = assemble_hamiltonian_2d(grid, 1.0, 1.0)
        x0, y0 = FIRST_MINIMUM_XY
        i = int(np.argmin((grid.x - x0) ** 2 + (grid.y - y0) ** 2))
        potential_part = op.diagonal()[i] - 2.0 / grid.spacing**2
        assert potential_part == pytest.approx(-2.125, abs=0.05)

    def test_symmetry(self):
        grid = WedgeGrid2D(12.0, 16.0, 0.4)
        op = assemble_hamiltonian_2d(grid, 1.0, 1.0, allow_small_box=True)
        op.validate()

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_stencil_csr_equals_coo_reference(self, beta):
        grid = WedgeGrid2D(12.0, 16.0, 0.4)
        csr = assemble_hamiltonian_2d(grid, beta, 1.0, allow_small_box=True).csr
        ref = coo_reference(grid, beta, 1.0)
        assert csr.indices.dtype == np.int32 and csr.indptr.dtype == np.int32
        assert csr.has_canonical_format
        np.testing.assert_array_equal(csr.indptr, ref.indptr)
        np.testing.assert_array_equal(csr.indices, ref.indices)
        assert csr.data.tobytes() == ref.data.tobytes()

    def test_pair_reduced_mass_convention(self):
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
        e0 = lowest_eigenpairs(op, 1, 1e-12, method="dense").values[0]
        pair = solve_two_body(Grid1D(n_x * math.sqrt(2.0) * h, n_x - 1), beta / 2.0, 1.0, 1,
                              method="dense")
        e_y = (1.0 - math.cos(math.pi / n_y)) / h**2
        assert e0 == pytest.approx(2.0 * pair.energies[0] + e_y, rel=0.0, abs=1e-12)

    def test_free_wedge_spectrum_positive(self):
        grid = WedgeGrid2D(12.0, 16.0, 0.4)
        op = assemble_hamiltonian_2d(grid, 0.0, 1.0, allow_small_box=True)
        res = lowest_eigenpairs(op, 4, 1e-11)
        assert np.all(res.values > 0.0)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_nonfinite_beta_rejected(self, beta):
        # rejected by the assembly, before any solve
        with pytest.raises(ValueError, match="finite"):
            solve_three_body(WedgeGrid2D(12.0, 16.0, 0.4), beta, 1.0, 1,
                             allow_small_box=True)

    def test_coarsened_grid(self):
        grid = WedgeGrid2D(12.0, 16.0, 0.2)
        coarse = grid.coarsened(4)
        assert (coarse.x_max, coarse.y_max, coarse.spacing) == (12.0, 16.0, 0.8)
        assert 1 < coarse.n_active < grid.n_active // 10
        # 2.0 / 0.8 rounds to 2 cells: no grid
        assert WedgeGrid2D(2.0, 16.0, 0.2).coarsened(4) is None

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
        assert grid.n_active > DENSE_CUTOFF
        with pytest.raises(DimensionError, match="dense"):
            solve_three_body(grid, 1.0, 1.0, 1, method="dense", allow_small_box=True)
        with pytest.raises(ValueError, match="tol"):
            solve_three_body(grid, 1.0, 1.0, 1, tol=1.0, allow_small_box=True)

    @given(st.data())
    def test_k_outside_range_rejected_before_assembly(self, data):
        grid = WedgeGrid2D(12.0, 16.0, 0.4)
        k = data.draw(st.integers(-10**6, 0) | st.integers(grid.n_active // 4 + 1, 10**6))

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

        def recorded(op, k, tol, **kwargs):
            calls.append((op.n, kwargs.get("method", "auto"), kwargs.get("estimate")))
            return lowest_eigenpairs(op, k, tol, **kwargs)

        monkeypatch.setattr(threebody, "lowest_eigenpairs", recorded)
        return calls

    @pytest.mark.parametrize("method", ["auto", "shift-invert"])
    def test_shift_invert_solves_the_coarse_box_first(self, solves, method):
        grid = WedgeGrid2D(12.0, 16.0, 0.2)
        sol = solve_three_body(grid, 1.0, 1.0, 2, method=method, allow_small_box=True)
        coarse = grid.coarsened(threebody.COARSE_FACTOR)
        assert [(n, m) for n, m, _ in solves] == [(coarse.n_active, "auto"),
                                                  (grid.n_active, method)]
        # the coarse E0 lies above the fine one here; the shift below it still does not
        assert solves[0][2] is None and solves[1][2] > sol.energies[0]
        assert sol.eigen.shift_source == "estimate"
        assert sol.eigen.shift < sol.energies[0]
        np.testing.assert_allclose(sol.energies, MINI_E_DX02[:2], atol=1e-8)

    @pytest.mark.parametrize("method", ["dense", "lanczos"])
    def test_forced_paths_run_no_coarse_solve(self, solves, method):
        grid = WedgeGrid2D(12.0, 16.0, 0.4)
        sol = solve_three_body(grid, 1.0, 1.0, 2, method=method, allow_small_box=True)
        assert solves == [(grid.n_active, method, None)]
        assert sol.eigen.shift is None
        np.testing.assert_allclose(sol.energies, MINI_E_DX04[:2], atol=1e-8)

    def test_unbuildable_coarse_grid_skipped(self, solves):
        grid = WedgeGrid2D(2.0, 3.0, 0.2)
        assert grid.coarsened(threebody.COARSE_FACTOR) is None
        sol = solve_three_body(grid, 1.0, 1.0, 1, allow_small_box=True)
        assert solves == [(grid.n_active, "auto", None)]
        assert sol.eigen.shift_source == "gershgorin"


class TestMiniWedgeReferences:
    def test_dense_reference_dx05(self):
        grid = WedgeGrid2D(12.0, 16.0, 0.5)
        op = assemble_hamiltonian_2d(grid, 1.0, 1.0, allow_small_box=True)
        res = lowest_eigenpairs(op, 4, 1e-12, method="dense")
        np.testing.assert_allclose(res.values, MINI_E_DX05, atol=1e-8)

    def test_dense_reference_dx04(self, mini_wedge_solves):
        _, dense, _ = mini_wedge_solves
        np.testing.assert_allclose(dense.values, MINI_E_DX04, atol=1e-8)

    def test_lanczos_reference_dx02(self):
        # cross-route: package Lanczos against the frozen dense reference
        grid = WedgeGrid2D(12.0, 16.0, 0.2)
        op = assemble_hamiltonian_2d(grid, 1.0, 1.0, allow_small_box=True)
        res = lowest_eigenpairs(op, 4, 1e-11, method="lanczos")
        np.testing.assert_allclose(res.values, MINI_E_DX02, atol=1e-8)

    def test_iterative_matches_dense(self, mini_wedge_solves):
        grid, dense, lanczos = mini_wedge_solves
        np.testing.assert_allclose(lanczos.values, dense.values, atol=1e-9)
        w = grid.spacing  # rescale quadrature-normalized columns to unit 2-norm
        for i in range(4):
            du, dl = dense.vectors[:, i] * w, lanczos.vectors[:, i] * w
            assert min(np.linalg.norm(du - dl), np.linalg.norm(du + dl)) < 1e-6


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

    def test_excited_state_distances(self, three_body_beta1):
        d12, d23, d13 = pair_distance_expectations(three_body_beta1, state=1)
        assert d13 == pytest.approx(d12 + d23, abs=1e-10)
        assert d12 > 0.0 and d23 > 0.0

    def test_wedge_dirichlet_suppression(self, three_body_beta1):
        # the repulsive cores push amplitude away from the mask edges
        grid = three_body_beta1.grid
        psi0 = np.abs(three_body_beta1.wavefunction(0))
        edge = np.zeros(grid.n_active, dtype=bool)
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            edge |= grid._index[grid.ii + di, grid.jj + dj] < 0
        assert psi0[edge].max() < 0.05 * psi0.max()

    def test_quadrature_norm(self, three_body_beta1):
        w = three_body_beta1.grid.spacing**2
        norms = w * np.sum(three_body_beta1.eigen.vectors**2, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)


class TestMonotonicLocalization:
    def test_pair_distance_decreases_with_coupling(self):
        grid = WedgeGrid2D(60.0, 60.0, 0.25)
        d12 = []
        for beta in (0.25, 0.5, 1.0, 2.0):
            sol = solve_three_body(grid, beta, 1.0, 1, tol=1e-8)
            d12.append(sol.distances[0])
        assert all(a > b for a, b in zip(d12, d12[1:]))


class TestSymmetrization:
    def test_boson_invariant_under_group(self, three_body_beta1):
        rng = np.random.default_rng(17)
        pts = rng.uniform(-15.0, 15.0, size=(2, 500))
        base, _ = symmetrize_wavefunction(three_body_beta1, "boson", pts[0], pts[1])
        for mat, _ in EXCHANGE_GROUP[1:]:
            gx, gy = mat @ pts
            moved, _ = symmetrize_wavefunction(three_body_beta1, "boson", gx, gy)
            np.testing.assert_allclose(moved, base, atol=1e-6)

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
        for mat, _ in EXCHANGE_GROUP[1:3]:
            gx, gy = mat @ np.array([x0, y0])
            val = symmetrize_wavefunction(three_body_beta1, "boson", gx, gy)[0]
            assert val == pytest.approx(val0, rel=1e-10)

    def test_outside_box_flagged(self, three_body_beta1):
        psi, n_outside = symmetrize_wavefunction(
            three_body_beta1, "boson", np.array([100.0]), np.array([5.0])
        )
        assert n_outside == 1
        assert psi.shape == (1,) and psi[0] == 0.0

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
        with pytest.raises(ValueError):
            symmetrize_wavefunction(three_body_beta1, "majorana",
                                    np.array([1.0]), np.array([2.0]))
