import functools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from helixdipoles.errors import ConvergenceError, DimensionError
from helixdipoles.linalg import (
    DENSE_CUTOFF,
    ESTIMATE_SHIFT_MARGIN,
    SymmetricSparseOperator,
    lowest_eigenpairs,
)
from helixdipoles.potential import reduced_potential
from helixdipoles.threebody import WedgeGrid2D, assemble_hamiltonian_2d
from helixdipoles.twobody import Grid1D, assemble_hamiltonian_1d


def tridiagonal(diag, off):
    return SymmetricSparseOperator(sp.diags([off, diag, off], offsets=[-1, 0, 1], format="csr"))


def random_sparse_symmetric(n, density=0.02, seed=7, diag_lift=1.0):
    rng = np.random.default_rng(seed)
    mat = sp.random(n, n, density=density, random_state=seed)
    mat = mat + mat.T + sp.diags(diag_lift + rng.uniform(0.0, 1.0, n))
    return SymmetricSparseOperator(mat.tocsr())


def dirichlet_box(length, n, potential=None):
    dx = length / (n + 1)
    nodes = dx * np.arange(1, n + 1)
    diag = np.full(n, 1.0 / dx**2)
    if potential is not None:
        diag = diag + potential(nodes)
    off = np.full(n - 1, -0.5 / dx**2)
    return tridiagonal(diag, off), nodes, dx


def align(u, v):
    """Minimal 2-norm difference over the sign ambiguity."""
    return min(np.linalg.norm(u - v), np.linalg.norm(u + v))


class TestOperator:
    def test_identity_matvec(self):
        op = tridiagonal(np.ones(10), np.zeros(9))
        v = np.arange(10.0)
        np.testing.assert_array_equal(op.matvec(v), v)

    def test_laplacian_stencil_row(self):
        n, dx = 11, 0.5
        op = tridiagonal(np.full(n, 1.0 / dx**2), np.full(n - 1, -0.5 / dx**2))
        v = np.random.default_rng(0).normal(size=n)
        out = op.matvec(v)
        i = 5
        expected = -0.5 * (v[i - 1] - 2.0 * v[i] + v[i + 1]) / dx**2
        assert out[i] == pytest.approx(expected, rel=1e-14)

    def test_symmetry_bilinear(self):
        op = random_sparse_symmetric(300)
        rng = np.random.default_rng(1)
        u, v = rng.normal(size=300), rng.normal(size=300)
        assert u @ op.matvec(v) == pytest.approx(op.matvec(u) @ v, rel=1e-12)

    def test_dimension_mismatch(self):
        op = random_sparse_symmetric(50)
        with pytest.raises(DimensionError):
            op.matvec(np.ones(49))

    def test_validate_rejects_asymmetric(self):
        mat = sp.csr_matrix(np.array([[1.0, 2.0], [0.5, 1.0]]))
        with pytest.raises(DimensionError):
            SymmetricSparseOperator(mat).validate()

    def test_validate_rejects_pattern_asymmetric(self):
        # (0, 1) stored, (1, 0) absent: the transposed pattern differs
        mat = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(DimensionError, match="not symmetric"):
            SymmetricSparseOperator(mat).validate()

    def test_validate_requires_diagonal(self):
        mat = sp.coo_matrix(([1.0, 1.0], ([0, 1], [1, 0])), shape=(2, 2)).tocsr()
        with pytest.raises(DimensionError):
            SymmetricSparseOperator(mat).validate()

    def test_tridiagonal_detection(self):
        op = tridiagonal(np.ones(6), -np.ones(5))
        assert op.is_tridiagonal()
        assert not random_sparse_symmetric(60).is_tridiagonal()


def lattice_coo_reference(index, spacing, potential):
    """The lattice operator from COO triplets, one stencil arm at a time."""
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


def numbered(mask):
    """Lattice index of ``mask`` inside a one-node border of -1."""
    index = -np.ones(np.add(mask.shape, 2), dtype=np.int32)
    inner = index[(slice(1, -1),) * mask.ndim]
    inner[mask] = np.arange(int(mask.sum()))
    return index


class TestOnLattice:
    def test_half_line_bytes_match_tridiagonal_build(self):
        # the formulas of the former hand-written tridiagonal two-body build
        grid = Grid1D()
        dx = grid.spacing
        diag = 1.0 / dx**2 + 1.5 * reduced_potential(grid.nodes, 1.0)
        off = np.full(grid.n_points - 1, -0.5 / dx**2)
        ref = sp.diags([off, diag, off], offsets=[-1, 0, 1], format="csr")
        csr = assemble_hamiltonian_1d(grid, 1.5, 1.0).csr
        for got, want in ((csr.data, ref.data), (csr.indices, ref.indices),
                          (csr.indptr, ref.indptr)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(bool, hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=9)),
           st.floats(0.05, 2.0), st.integers(0, 2**32 - 1))
    def test_random_masks_match_coo_build(self, mask, spacing, seed):
        index = numbered(mask)
        potential = np.random.default_rng(seed).uniform(-3.0, 3.0, int(mask.sum()))
        op = SymmetricSparseOperator.on_lattice(index, spacing, potential)
        ref = lattice_coo_reference(index, spacing, potential)
        assert op.csr.indices.dtype == op.csr.indptr.dtype == np.int32
        assert op.csr.has_sorted_indices
        np.testing.assert_array_equal(op.csr.indptr, ref.indptr)
        np.testing.assert_array_equal(op.csr.indices, ref.indices)
        np.testing.assert_array_equal(op.csr.data, ref.data)
        op.validate()


class TestLowestEigenpairs:
    def test_box_spectrum_all_paths(self):
        length, n = 10.0, 999
        op, _, dx = dirichlet_box(length, n)
        # the discrete Dirichlet Laplacian spectrum is known in closed form
        m = np.arange(1, 6)
        discrete = (1.0 - np.cos(m * math.pi * dx / length)) / dx**2
        continuum = m**2 * math.pi**2 / (2.0 * length**2)
        # second-order stencil: continuum error E_m (m pi dx / L)^2 / 12
        bound = 1.5 * continuum * (m * math.pi * dx / length) ** 2 / 12.0
        for method in ("dense", "auto", "shift-invert", "lanczos"):
            res = lowest_eigenpairs(op, 5, 1e-11, method=method)
            np.testing.assert_allclose(res.values, discrete, rtol=1e-10)
            assert np.all(np.abs(res.values - continuum) < bound)
            assert res.method == {"auto": "tridiagonal"}.get(method, method)

    def test_harmonic_oscillator_vs_dense_oracle(self):
        length, n, omega, center = 20.0, 999, 1.0, 10.0
        op, _, dx = dirichlet_box(length, n, lambda x: 0.5 * omega**2 * (x - center) ** 2)
        dense = lowest_eigenpairs(op, 4, 1e-12, method="dense")
        lanczos = lowest_eigenpairs(op, 4, 1e-12, method="lanczos")
        np.testing.assert_allclose(lanczos.values, dense.values, atol=1e-9)
        ladder = omega * (np.arange(4) + 0.5)
        np.testing.assert_allclose(dense.values, ladder, atol=5e-4)

    def test_random_operator_iterative_matches_dense(self):
        op = random_sparse_symmetric(500)
        dense = lowest_eigenpairs(op, 5, 1e-12, method="dense")
        lanczos = lowest_eigenpairs(op, 5, 1e-12, method="lanczos")
        np.testing.assert_allclose(lanczos.values, dense.values, atol=1e-9)
        for i in range(5):
            assert align(dense.vectors[:, i], lanczos.vectors[:, i]) < 1e-6

    def test_values_sorted_and_normalized(self):
        op = random_sparse_symmetric(400, seed=3)
        res = lowest_eigenpairs(op, 6, 1e-10, method="lanczos", quadrature_weight=0.25)
        assert np.all(np.diff(res.values) >= 0.0)
        norms = 0.25 * np.sum(res.vectors**2, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)

    def test_orthonormality(self):
        op = random_sparse_symmetric(400, seed=5)
        res = lowest_eigenpairs(op, 6, 1e-11, method="lanczos", quadrature_weight=0.1)
        gram = 0.1 * res.vectors.T @ res.vectors
        off_diag = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off_diag)) < 1e-8

    def test_residual_norms(self):
        op = random_sparse_symmetric(500, seed=9)
        res = lowest_eigenpairs(op, 4, 1e-11, method="lanczos")
        norm_est = float(np.abs(res.values).max())
        assert np.all(res.residual_norms <= 1e-11 * max(norm_est, 1.0) * 50)

    def test_dirichlet_convergence_order(self):
        length = 10.0
        errors = []
        for n in (199, 399, 799):
            op, _, _ = dirichlet_box(length, n)
            res = lowest_eigenpairs(op, 1, 1e-12)
            errors.append(abs(res.values[0] - math.pi**2 / (2.0 * length**2)))
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 < coarse / fine < 4.5

    def test_determinism(self):
        op = random_sparse_symmetric(600, seed=13)
        a = lowest_eigenpairs(op, 3, 1e-10, method="lanczos", seed=123)
        b = lowest_eigenpairs(op, 3, 1e-10, method="lanczos", seed=123)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.vectors, b.vectors)
        assert a.seed == 123

    def test_shift_invert_determinism(self):
        op = random_sparse_symmetric(600, seed=13)
        a = lowest_eigenpairs(op, 3, 1e-10, method="shift-invert", seed=123)
        b = lowest_eigenpairs(op, 3, 1e-10, method="shift-invert", seed=123)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.vectors, b.vectors)
        assert a.seed == 123 and a.method == "shift-invert"
        assert a.n_matvec > 3  # LU solves plus the k residual matvecs
        assert a.factor_nnz == b.factor_nnz >= op.nnz  # L and U hold A's pattern

    @pytest.mark.parametrize("method", ["dense", "lanczos"])
    def test_factor_nnz_zero_off_the_lu_path(self, method):
        op = random_sparse_symmetric(400, seed=3)
        assert lowest_eigenpairs(op, 2, 1e-10, method=method).factor_nnz == 0

    def test_shift_invert_below_diagonal_spectrum(self):
        # the Gershgorin bound of a diagonal operator is its lowest eigenvalue,
        # so the shift must sit strictly below it for the factor to exist
        diag = np.linspace(-2.0, 5.0, 200)
        op = SymmetricSparseOperator(sp.diags(diag, format="csr"))
        res = lowest_eigenpairs(op, 3, 1e-10, method="shift-invert")
        np.testing.assert_allclose(res.values, diag[:3], atol=1e-10)

    def test_auto_routes_wedge_to_shift_invert(self):
        grid = WedgeGrid2D(12.0, 16.0, 0.2)
        op = assemble_hamiltonian_2d(grid, 1.0, 1.0, allow_small_box=True)
        assert op.n > DENSE_CUTOFF
        res = lowest_eigenpairs(op, 2, 1e-10)
        assert res.method == "shift-invert"
        lanczos = lowest_eigenpairs(op, 2, 1e-11, method="lanczos")
        np.testing.assert_allclose(res.values, lanczos.values, atol=1e-9)

    @pytest.mark.parametrize("method, maxiter", [("shift-invert", 5), ("lanczos", 2)],
                             ids=["shift-invert", "lanczos"])
    def test_nonconvergence_reports_converged_pairs(self, monkeypatch, method, maxiter):
        # a real ARPACK stop: too few restarts to converge all k pairs at tol 1e-12
        import scipy.sparse.linalg as spla

        monkeypatch.setattr(spla, "eigsh", functools.partial(spla.eigsh, maxiter=maxiter))
        op = random_sparse_symmetric(800, seed=21)
        with pytest.raises(ConvergenceError) as err:
            lowest_eigenpairs(op, 4, 1e-12, method=method)
        values, vectors = err.value.result
        assert 1 <= values.size <= 4
        assert vectors.shape == (800, values.size)
        dense = np.linalg.eigvalsh(op.to_dense())[:4]
        np.testing.assert_allclose(np.sort(values), dense[:values.size], atol=1e-8)
        residuals = np.linalg.norm(op.csr @ vectors - vectors * values, axis=0)
        assert residuals.max() < 1e-6

    @pytest.mark.parametrize("method", ["shift-invert", "lanczos"])
    def test_arpack_failure_mapped(self, monkeypatch, method):
        import scipy.sparse.linalg as spla

        def stalled(A, k, **kwargs):
            raise spla.ArpackNoConvergence("stalled", np.array([2.0]), np.ones((A.shape[0], 1)))

        monkeypatch.setattr(spla, "eigsh", stalled)
        op = random_sparse_symmetric(200)
        with pytest.raises(ConvergenceError) as err:
            lowest_eigenpairs(op, 2, 1e-9, method=method)
        values, vectors = err.value.result
        assert values.shape == (1,) and vectors.shape == (200, 1)

    @pytest.mark.parametrize("method", ["shift-invert", "lanczos"])
    def test_arpack_rejects_bad_operators(self, method):
        mat = sp.diags([np.r_[1.0, np.nan, np.ones(98)]], [0], format="csr")
        with pytest.raises(ValueError):
            lowest_eigenpairs(SymmetricSparseOperator(mat), 2, 1e-9, method=method)
        one = SymmetricSparseOperator(sp.identity(1, format="csr"))
        with pytest.raises(DimensionError):
            lowest_eigenpairs(one, 1, 1e-9, method=method)

    def test_input_validation(self):
        op = random_sparse_symmetric(100)
        with pytest.raises(DimensionError):
            lowest_eigenpairs(op, 26, 1e-9)  # k > n/4
        with pytest.raises(DimensionError):
            lowest_eigenpairs(op, 0, 1e-9)
        with pytest.raises(ValueError):
            lowest_eigenpairs(op, 2, 1e-3)
        with pytest.raises(ValueError):
            lowest_eigenpairs(op, 2, 1e-13)

    def test_forced_tridiagonal_on_general_operator_rejected(self):
        # the banded route is taken by auto alone, never forced
        op = random_sparse_symmetric(300)
        with pytest.raises(ValueError, match="unknown method"):
            lowest_eigenpairs(op, 2, 1e-9, method="tridiagonal")

    def test_forced_dense_capped(self):
        op, _, _ = dirichlet_box(10.0, DENSE_CUTOFF + 1)
        with pytest.raises(DimensionError, match="dense"):
            lowest_eigenpairs(op, 1, 1e-9, method="dense")
        assert lowest_eigenpairs(op, 1, 1e-9).method == "tridiagonal"

    def test_unknown_method_rejected(self):
        op, _, _ = dirichlet_box(10.0, 99)
        with pytest.raises(ValueError, match="unknown method"):
            lowest_eigenpairs(op, 1, 1e-9, method="qr")


class TestRouting:
    def test_small_tridiagonal_takes_banded_solver(self):
        op, _, _ = dirichlet_box(10.0, 999)
        assert lowest_eigenpairs(op, 2, 1e-9).method == "tridiagonal"

    def test_small_wedge_takes_shift_invert(self):
        grid = WedgeGrid2D(12.0, 16.0, 0.4)
        op = assemble_hamiltonian_2d(grid, 1.0, 1.0, allow_small_box=True)
        assert op.n == 879
        assert lowest_eigenpairs(op, 2, 1e-9).method == "shift-invert"

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 60), st.data(), st.integers(0, 2**32 - 1))
    def test_auto_matches_dense_oracle(self, n, data, seed):
        # random couplings plus a corner entry, so the operator is never tridiagonal
        k = data.draw(st.integers(1, max(1, n // 4)))
        rng = np.random.default_rng(seed)
        mat = sp.random(n, n, density=0.3, rng=rng) + sp.diags(rng.uniform(-1.0, 1.0, n))
        mat = (mat + mat.T + sp.coo_matrix(([1.0, 1.0], ([0, n - 1], [n - 1, 0])),
                                           shape=(n, n))).tocsr()
        op = SymmetricSparseOperator(mat)
        res = lowest_eigenpairs(op, k, 1e-9)
        assert res.method == "shift-invert"
        dense = lowest_eigenpairs(op, k, 1e-12, method="dense")
        np.testing.assert_allclose(res.values, dense.values, rtol=0.0, atol=1e-8)


def gershgorin_bound(op):
    radii = np.asarray(abs(op.csr).sum(axis=1)).ravel()
    return float(np.min(2.0 * op.diagonal() - radii))


class TestNearShift:
    """Shift-invert with an ``estimate`` of the lowest eigenvalue."""

    @pytest.fixture(scope="class")
    def mini(self, mini_wedge_solves):
        grid, dense, _ = mini_wedge_solves
        op = assemble_hamiltonian_2d(grid, 1.0, 1.0, allow_small_box=True)
        return op, grid.spacing**2, dense

    def test_wedge_operators_are_z_matrices(self, mini):
        assert mini[0].is_z_matrix()
        assert not random_sparse_symmetric(300).is_z_matrix()

    @pytest.mark.parametrize("above", [1e-3, 0.05, 0.3])
    def test_shift_above_ground_rejected(self, mini, above):
        # the estimate that puts sigma `above` E0 (between E0 and E1 for the
        # first two, between E1 and E2 for the last) is refused by the certificate
        op, weight, dense = mini
        lower = gershgorin_bound(op)
        sigma = dense.values[0] + above
        estimate = (sigma - ESTIMATE_SHIFT_MARGIN * lower) / (1.0 - ESTIMATE_SHIFT_MARGIN)
        res = lowest_eigenpairs(op, 4, 1e-10, estimate=estimate, quadrature_weight=weight)
        assert res.shift_source == "gershgorin"
        assert res.shift < lower < dense.values[0]
        np.testing.assert_allclose(res.values, dense.values, rtol=0.0, atol=1e-9)
        for i in range(4):
            assert align(res.vectors[:, i], dense.vectors[:, i]) * math.sqrt(weight) < 1e-6

    def test_estimate_just_above_ground_keeps_a_shift_below_it(self, mini):
        # an estimate 0.05 above E0 gives sigma = e - 0.05 (e - g), here 0.03 below E0
        op, weight, dense = mini
        res = lowest_eigenpairs(op, 4, 1e-10, estimate=dense.values[0] + 0.05,
                                quadrature_weight=weight)
        assert res.shift_source == "estimate"
        assert gershgorin_bound(op) < res.shift < dense.values[0]
        np.testing.assert_allclose(res.values, dense.values, rtol=0.0, atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-3.0, 1.0))
    def test_kept_shift_always_below_spectrum(self, mini, estimate):
        op, weight, dense = mini
        res = lowest_eigenpairs(op, 2, 1e-10, estimate=estimate, quadrature_weight=weight)
        if res.shift_source == "estimate":
            assert res.shift < dense.values[0]
        np.testing.assert_allclose(res.values, dense.values[:2], rtol=0.0, atol=1e-9)

    def test_good_estimate_saves_solves(self):
        grid = WedgeGrid2D(12.0, 16.0, 0.2)
        op = assemble_hamiltonian_2d(grid, 2.0, 1.0, allow_small_box=True)
        coarse = assemble_hamiltonian_2d(grid.coarsened(4), 2.0, 1.0, allow_small_box=True)
        estimate = lowest_eigenpairs(coarse, 1, 1e-9).values[0]
        near = lowest_eigenpairs(op, 2, 1e-9, estimate=estimate)
        far = lowest_eigenpairs(op, 2, 1e-9)
        assert (near.shift_source, far.shift_source) == ("estimate", "gershgorin")
        assert far.shift < near.shift < near.values[0]
        bound = near.residual_norms + far.residual_norms  # symmetric residual bound
        assert np.all(np.abs(near.values - far.values) <= bound)
        assert near.n_matvec < far.n_matvec

    def test_non_z_matrix_estimate_ignored(self):
        op = random_sparse_symmetric(400, seed=11)
        e0 = lowest_eigenpairs(op, 1, 1e-12, method="dense").values[0]
        plain = lowest_eigenpairs(op, 2, 1e-10, method="shift-invert")
        hinted = lowest_eigenpairs(op, 2, 1e-10, method="shift-invert", estimate=e0 - 1e-3)
        assert hinted.shift_source == plain.shift_source == "gershgorin"
        assert hinted.shift == plain.shift
        assert hinted.n_matvec == plain.n_matvec  # no certificate solve was spent
        np.testing.assert_array_equal(hinted.values, plain.values)

    def test_exactly_singular_shift_falls_back(self):
        # sigma lands on the eigenvalue 2 of a diagonal operator (Gershgorin bound 0)
        op = SymmetricSparseOperator(sp.diags(np.arange(40.0), format="csr"))
        estimate = 2.0 / (1.0 - ESTIMATE_SHIFT_MARGIN)
        assert estimate - ESTIMATE_SHIFT_MARGIN * estimate == 2.0
        res = lowest_eigenpairs(op, 3, 1e-10, method="shift-invert", estimate=estimate)
        assert res.shift_source == "gershgorin" and res.shift < 0.0
        np.testing.assert_allclose(res.values, [0.0, 1.0, 2.0], rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("estimate", [math.nan, math.inf, -math.inf, -1e9])
    def test_unusable_estimate_ignored(self, mini, estimate):
        # NaN, infinities and estimates at or below the Gershgorin bound
        op, _, _ = mini
        plain = lowest_eigenpairs(op, 1, 1e-10)
        hinted = lowest_eigenpairs(op, 1, 1e-10, estimate=estimate)
        assert hinted.shift_source == "gershgorin"
        assert hinted.n_matvec == plain.n_matvec

    @pytest.mark.parametrize("method", ["dense", pytest.param("auto", id="tridiagonal"),
                                        "lanczos"])
    def test_estimate_unused_off_shift_invert(self, method):
        op, _, _ = dirichlet_box(10.0, 199)
        res = lowest_eigenpairs(op, 2, 1e-10, method=method, estimate=0.0)
        assert res.shift is None and res.shift_source is None
