import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from helixdipoles import linalg
from helixdipoles.errors import ConvergenceError, DimensionError
from helixdipoles.linalg import (
    ESTIMATE_SHIFT_MARGIN,
    Solution,
    SymmetricSparseOperator,
    lowest_eigenpairs,
)
from helixdipoles.potential import reduced_potential
from helixdipoles.threebody import WedgeGrid2D, assemble_hamiltonian_2d, solve_three_body
from helixdipoles.twobody import BOUND_THRESHOLD, Grid1D, assemble_hamiltonian_1d


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


def with_corner_zeros(diag):
    """A diagonal operator that also stores zeros at (0, n-1) and (n-1, 0).

    Its spectrum and Gershgorin bound are the diagonal's, zeros on it
    included, but it is not tridiagonal, so ``auto`` takes shift-invert.
    """
    n = len(diag)
    rows, cols = np.r_[np.arange(n), 0, n - 1], np.r_[np.arange(n), n - 1, 0]
    return SymmetricSparseOperator(sp.csr_matrix((np.r_[diag, 0.0, 0.0], (rows, cols)),
                                                 shape=(n, n)))


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

    def test_tridiagonal_detection(self):
        op = tridiagonal(np.ones(6), -np.ones(5))
        assert op.is_tridiagonal()
        assert not random_sparse_symmetric(60).is_tridiagonal()

    def test_far_pair_within_tridiagonal_entry_count(self):
        # nnz <= 3n - 2 passes the entry count; the row scan still finds the
        # pair (0, n-1) and auto takes shift-invert, not the banded solve
        n = 40
        mat = sp.diags(np.arange(1.0, n + 1.0)).tolil()
        mat[0, n - 1] = mat[n - 1, 0] = -0.5
        op = SymmetricSparseOperator(mat.tocsr())
        assert op.nnz == n + 2 <= 3 * n - 2
        assert op.is_tridiagonal() is False
        assert lowest_eigenpairs(op, 2).method == "shift-invert"


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
    def test_random_masks_match_coo_build(self, lattice_coo_reference, mask, spacing, seed):
        index = numbered(mask)
        potential = np.random.default_rng(seed).uniform(-3.0, 3.0, int(mask.sum()))
        op = SymmetricSparseOperator.on_lattice(index, spacing, potential)
        ref = lattice_coo_reference(index, spacing, potential)
        assert op.csr.indices.dtype == op.csr.indptr.dtype == np.int32
        assert op.csr.has_sorted_indices
        np.testing.assert_array_equal(op.csr.indptr, ref.indptr)
        np.testing.assert_array_equal(op.csr.indices, ref.indices)
        np.testing.assert_array_equal(op.csr.data, ref.data)
        csr = op.csr
        assert (csr != csr.T).nnz == 0
        rows = np.repeat(np.arange(op.n), np.diff(csr.indptr))  # every row stores its diagonal
        assert np.array_equal(np.unique(rows[rows == csr.indices]), np.arange(op.n))

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(bool, hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=9)),
           st.floats(0.05, 2.0), st.integers(0, 2**32 - 1))
    def test_gershgorin_bound_matches_the_row_sums(self, mask, spacing, seed):
        # the segment sums over the stored entries against a row sum of |H|
        assume(mask.any())
        potential = np.random.default_rng(seed).uniform(-3.0, 3.0, int(mask.sum()))
        op = SymmetricSparseOperator.on_lattice(numbered(mask), spacing, potential)
        lower, floor = linalg._gershgorin(op)
        assert lower == gershgorin_bound(op)
        assert floor < lower

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(bool, hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=9)),
           st.floats(0.05, 2.0), st.integers(0, 2**32 - 1))
    def test_gershgorin_bound_lies_below_the_spectrum(self, dense_oracle, mask, spacing, seed):
        assume(mask.any())
        potential = np.random.default_rng(seed).uniform(-3.0, 3.0, int(mask.sum()))
        op = SymmetricSparseOperator.on_lattice(numbered(mask), spacing, potential)
        assert_below_spectrum(op, dense_oracle)


def assert_below_spectrum(op, dense_oracle):
    """No eigenvalue lies below the Gershgorin bound, and the floor is strictly below all."""
    lower, floor = linalg._gershgorin(op)
    lowest = dense_oracle(op, 1).values[0]
    assert lower <= lowest
    assert floor < lowest


class TestLowestEigenpairs:
    def test_box_spectrum_all_paths(self, dense_oracle):
        length, n = 10.0, 999
        op, _, dx = dirichlet_box(length, n)
        # the discrete Dirichlet Laplacian spectrum is known in closed form
        m = np.arange(1, 6)
        discrete = (1.0 - np.cos(m * math.pi * dx / length)) / dx**2
        continuum = m**2 * math.pi**2 / (2.0 * length**2)
        # second-order stencil: continuum error E_m (m pi dx / L)^2 / 12
        bound = 1.5 * continuum * (m * math.pi * dx / length) ** 2 / 12.0
        solves = {method: lowest_eigenpairs(op, 5, method=method) for method in linalg.METHODS}
        solves["dense"] = dense_oracle(op, 5)
        for method, res in solves.items():
            np.testing.assert_allclose(res.values, discrete, rtol=1e-10)
            assert np.all(np.abs(res.values - continuum) < bound)
            assert res.method == {"auto": "tridiagonal"}.get(method, method)

    def test_harmonic_oscillator_vs_dense_oracle(self, dense_oracle):
        length, n, omega, center = 20.0, 999, 1.0, 10.0
        op, _, dx = dirichlet_box(length, n, lambda x: 0.5 * omega**2 * (x - center) ** 2)
        dense = dense_oracle(op, 4)
        lanczos = lowest_eigenpairs(op, 4, method="lanczos")
        np.testing.assert_allclose(lanczos.values, dense.values, atol=1e-9)
        ladder = omega * (np.arange(4) + 0.5)
        np.testing.assert_allclose(dense.values, ladder, atol=5e-4)

    def test_random_operator_iterative_matches_dense(self, dense_oracle):
        op = random_sparse_symmetric(500)
        dense = dense_oracle(op, 5)
        lanczos = lowest_eigenpairs(op, 5, method="lanczos")
        np.testing.assert_allclose(lanczos.values, dense.values, atol=1e-9)
        for i in range(5):
            assert align(dense.vectors[:, i], lanczos.vectors[:, i]) < 1e-6

    def test_values_sorted_and_normalized(self):
        op = random_sparse_symmetric(400, seed=3)
        res = lowest_eigenpairs(op, 6, method="lanczos")
        assert np.all(np.diff(res.values) >= 0.0)
        norms = np.sum(res.vectors**2, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)

    def test_orthonormality(self):
        op = random_sparse_symmetric(400, seed=5)
        res = lowest_eigenpairs(op, 6, method="lanczos")
        gram = res.vectors.T @ res.vectors
        off_diag = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off_diag)) < 1e-8

    def test_residual_norms(self):
        op = random_sparse_symmetric(500, seed=9)
        res = lowest_eigenpairs(op, 4, method="lanczos")
        norm_est = float(np.abs(res.values).max())
        assert np.all(res.residual_norms <= linalg.ARPACK_TOL * max(norm_est, 1.0) * 50)

    def test_dirichlet_convergence_order(self):
        length = 10.0
        errors = []
        for n in (199, 399, 799):
            op, _, _ = dirichlet_box(length, n)
            res = lowest_eigenpairs(op, 1)
            errors.append(abs(res.values[0] - math.pi**2 / (2.0 * length**2)))
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 < coarse / fine < 4.5

    def test_determinism(self):
        op = random_sparse_symmetric(600, seed=13)
        a = lowest_eigenpairs(op, 3, method="lanczos", seed=123)
        b = lowest_eigenpairs(op, 3, method="lanczos", seed=123)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.vectors, b.vectors)
        assert a.seed == 123

    def test_shift_invert_determinism(self):
        op = random_sparse_symmetric(600, seed=13)
        a = lowest_eigenpairs(op, 3, seed=123)
        b = lowest_eigenpairs(op, 3, seed=123)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.vectors, b.vectors)
        assert a.seed == 123 and a.method == "shift-invert"
        assert a.n_matvec > 3  # LU solves plus the k residual matvecs
        assert a.factor_nnz == b.factor_nnz >= op.nnz  # L and U hold A's pattern

    @pytest.mark.parametrize("method", ["tridiagonal", "lanczos"])
    def test_factor_nnz_zero_off_the_lu_path(self, method):
        op = (dirichlet_box(10.0, 99)[0] if method == "tridiagonal"
              else random_sparse_symmetric(400, seed=3))
        res = lowest_eigenpairs(op, 2, method="lanczos" if method == "lanczos" else "auto")
        assert res.method == method and res.factor_nnz == 0

    def test_shift_invert_below_diagonal_spectrum(self):
        # the Gershgorin bound of a diagonal operator is its lowest eigenvalue,
        # so the shift must sit strictly below it for the factor to exist
        diag = np.linspace(-2.0, 5.0, 200)
        res = lowest_eigenpairs(with_corner_zeros(diag), 3)
        assert res.method == "shift-invert"
        np.testing.assert_allclose(res.values, diag[:3], atol=1e-10)

    def test_auto_routes_wedge_to_shift_invert(self):
        grid = WedgeGrid2D(12.0, 16.0, 0.2)
        op = assemble_hamiltonian_2d(grid, 1.0, 1.0)
        res = lowest_eigenpairs(op, 2)
        assert res.method == "shift-invert"
        lanczos = lowest_eigenpairs(op, 2, method="lanczos")
        np.testing.assert_allclose(res.values, lanczos.values, atol=1e-9)

    @pytest.mark.parametrize("method, maxiter", [("auto", 5), ("lanczos", 2)],
                             ids=["shift-invert", "lanczos"])
    def test_nonconvergence_reports_converged_pairs(self, monkeypatch, dense_oracle, method,
                                                    maxiter):
        # a real ARPACK stop: too few restarts to converge all k pairs at ARPACK_TOL
        import scipy.sparse.linalg as spla

        monkeypatch.setattr(spla, "eigsh", functools.partial(spla.eigsh, maxiter=maxiter))
        op = random_sparse_symmetric(800, seed=21)
        with pytest.raises(ConvergenceError) as err:
            lowest_eigenpairs(op, 4, method=method)
        values, vectors = err.value.result
        assert 1 <= values.size <= 4
        assert vectors.shape == (800, values.size)
        dense = dense_oracle(op, 4).values
        np.testing.assert_allclose(np.sort(values), dense[:values.size], atol=1e-8)
        residuals = np.linalg.norm(op.csr @ vectors - vectors * values, axis=0)
        assert residuals.max() < 1e-6

    @pytest.mark.parametrize("method, stop", [("auto", "stalled"),
                                              ("lanczos", "stalled"),
                                              ("lanczos", "failed")],
                             ids=["shift-invert", "lanczos", "arpack-error"])
    def test_arpack_failure_mapped(self, monkeypatch, method, stop):
        import scipy.sparse.linalg as spla

        def stalled(A, k, **kwargs):
            if stop == "failed":
                raise spla.ArpackError(-9999)
            raise spla.ArpackNoConvergence("stalled", np.array([2.0]), np.ones((A.shape[0], 1)))

        monkeypatch.setattr(spla, "eigsh", stalled)
        op = random_sparse_symmetric(200)
        with pytest.raises(ConvergenceError) as err:
            lowest_eigenpairs(op, 2, method=method)
        if stop == "failed":  # nothing converged: no partial result
            assert err.value.result is None and "ARPACK failed" in str(err.value)
            return
        values, vectors = err.value.result
        assert values.shape == (1,) and vectors.shape == (200, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("method", ["auto", "shift-invert", "lanczos"])
    def test_non_finite_operator_rejected(self, method, bad):
        # "shift-invert": auto on an operator it does not take for tridiagonal
        diag = np.r_[1.0, bad, np.ones(98)]
        op = (with_corner_zeros(diag) if method == "shift-invert"
              else SymmetricSparseOperator(sp.diags([diag], [0], format="csr")))
        with pytest.raises(ValueError, match="non-finite"):
            lowest_eigenpairs(op, 2, method="lanczos" if method == "lanczos" else "auto")

    @pytest.mark.parametrize("method", ["lanczos"])
    def test_arpack_rejects_bad_operators(self, method):
        # every 1x1 operator is tridiagonal, so only a forced Lanczos run reaches ARPACK
        one = SymmetricSparseOperator(sp.identity(1, format="csr"))
        with pytest.raises(DimensionError):
            lowest_eigenpairs(one, 1, method=method)

    def test_input_validation(self):
        op = random_sparse_symmetric(100)
        with pytest.raises(DimensionError):
            lowest_eigenpairs(op, 26)  # k > n/4
        with pytest.raises(DimensionError):
            lowest_eigenpairs(op, 0)

    @pytest.mark.parametrize("operator, k, kwargs, error", [
        ("wedge", 2.5, {}, DimensionError),
        ("tridiagonal", 1.5, {}, DimensionError),
        ("wedge", 1, dict(method="dense"), ValueError),  # unknown method
        ("wedge", True, {}, DimensionError),
        ("tridiagonal", True, {}, DimensionError),
        ("wedge", 2, dict(seed=1.5), ValueError),
        ("wedge", 2, dict(seed=True), ValueError),
        ("tridiagonal", 2, dict(seed=np.float64(3.0)), ValueError),
    ])
    def test_non_integer_k_or_seed_rejected_before_the_solve(self, operator, k, kwargs,
                                                             error, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved a non-integer request")

        for name in ("eigh_tridiagonal", "_arpack"):
            monkeypatch.setattr(linalg, name, no_solve)
        op = mini_wedge_operator() if operator == "wedge" else dirichlet_box(10.0, 99)[0]
        with pytest.raises(error):
            lowest_eigenpairs(op, k, **kwargs)

    def test_numpy_integer_k_and_seed_accepted(self):
        op = mini_wedge_operator()
        plain = lowest_eigenpairs(op, 2, seed=3)
        numpy_ints = lowest_eigenpairs(op, np.int64(2), seed=np.uint32(3))
        np.testing.assert_array_equal(numpy_ints.vectors, plain.vectors)
        assert lowest_eigenpairs(dirichlet_box(10.0, 99)[0], np.int32(2)).values.shape == (2,)

    def test_forced_tridiagonal_on_general_operator_rejected(self):
        # the banded route is taken by auto alone, never forced
        op = random_sparse_symmetric(300)
        with pytest.raises(ValueError, match="unknown method"):
            lowest_eigenpairs(op, 2, method="tridiagonal")

    def test_unknown_method_rejected(self):
        # the dense oracle lives in the tests, and auto alone takes shift-invert
        op, _, _ = dirichlet_box(10.0, 99)
        for method in ("qr", "dense", "shift-invert"):
            with pytest.raises(ValueError, match="unknown method"):
                lowest_eigenpairs(op, 1, method=method)


class _CountedLU:
    """A sparse LU factor that counts its solves."""

    def __init__(self, lu):
        self.lu, self.nnz, self.solves = lu, lu.nnz, 0

    def solve(self, b):
        self.solves += 1
        return self.lu.solve(b)


class TestSolverContract:
    @pytest.mark.parametrize("method", ["auto", "shift-invert", "lanczos"])
    def test_values_are_rayleigh_quotients_and_matvecs_counted(self, method, monkeypatch):
        # beta=20 puts 1.1e6 on the first diagonal, far above every state
        # here; LAPACK's default bisection tolerance scales with it.
        # "shift-invert": auto on the mini wedge, the route it takes there
        if method == "shift-invert":
            grid = WedgeGrid2D(12.0, 16.0, 0.4)
            op = assemble_hamiltonian_2d(grid, 1.0, 1.0)
        else:
            grid = Grid1D(20.0, 0.02)
            op = assemble_hamiltonian_1d(grid, 20.0, 1.0)
        k = 4
        matvec, shifted_factor = SymmetricSparseOperator.matvec, linalg._shifted_factor
        calls, factors = [], []

        def counted_matvec(self, v):
            calls.append(1)
            return matvec(self, v)

        def counted_factor(*args):
            lu, sigma, source, x = shifted_factor(*args)
            factors.append(_CountedLU(lu))
            return factors[-1], sigma, source, x

        monkeypatch.setattr(SymmetricSparseOperator, "matvec", counted_matvec)
        monkeypatch.setattr(linalg, "_shifted_factor", counted_factor)
        res = lowest_eigenpairs(op, k, method="lanczos" if method == "lanczos" else "auto")
        assert res.method == {"auto": "tridiagonal"}.get(method, method)
        v = res.vectors
        norms = np.einsum("ij,ij->j", v, v)
        np.testing.assert_allclose(norms, 1.0, rtol=0.0, atol=1e-12)  # unit on every route
        assert abs(Solution(grid, res).expectation(np.ones(op.n)) - 1.0) <= 1e-12
        quotients = np.einsum("ij,ij->j", v, op.csr @ v) / norms
        # the rounding of v'Hv: a few eps times |v|'|H||v|
        rounding = 4.0 * np.finfo(float).eps * np.einsum(
            "ij,ij->j", abs(v), abs(op.csr) @ abs(v)) / norms
        assert np.all(np.abs(res.values - quotients) <= rounding)
        assert np.all(np.diff(res.values) > 0.0)
        # beyond the solver's own work, exactly one residual matvec per pair
        own = {"lanczos": len(calls) - k,
               "shift-invert": sum(lu.solves for lu in factors)}.get(method, 0)
        assert res.n_matvec == own + k
        if method != "lanczos":
            assert len(calls) == k

    def test_every_arpack_run_gets_the_one_tolerance(self, monkeypatch):
        import scipy.sparse.linalg as spla

        eigsh, tols = spla.eigsh, []

        def recorded(*args, tol, **kwargs):
            tols.append(tol)
            return eigsh(*args, tol=tol, **kwargs)

        monkeypatch.setattr(spla, "eigsh", recorded)
        grid = WedgeGrid2D(12.0, 16.0, 0.2)
        sol = solve_three_body(grid, 1.0, 1.0, 2, allow_small_box=True)
        assert sol.eigen.shift_source == "estimate"  # coarse solve, then near-shift fine solve
        assert tols == [linalg.ARPACK_TOL] * 2
        lowest_eigenpairs(random_sparse_symmetric(300), 2, method="lanczos")
        assert tols == [linalg.ARPACK_TOL] * 3


def blas_threads():
    return [get() for get, _ in linalg._openblas_threads()]


@pytest.fixture
def two_blas_threads():
    """scipy's OpenBLAS at two threads for the test; yields the counts it reads back."""
    found = linalg._openblas_threads()
    if not found:
        pytest.skip("scipy brings no OpenBLAS of its own")
    saved = blas_threads()
    for _, put in found:
        put(2)
    yield blas_threads()
    for (_, put), count in zip(found, saved):
        put(count)


def mini_wedge_operator():
    return assemble_hamiltonian_2d(WedgeGrid2D(12.0, 16.0, 0.4), 1.0, 1.0)


def threads_inside(monkeypatch, owner, solver, op, method):
    """Thread counts ``owner.<solver>`` sees, once per call, in one solve of ``op``."""
    solve, inside = getattr(owner, solver), []

    def recorded(*args, **kwargs):
        inside.append(blas_threads())
        return solve(*args, **kwargs)

    monkeypatch.setattr(owner, solver, recorded)
    lowest_eigenpairs(op, 2, method=method)
    return inside


class TestOneBlasThread:
    @pytest.mark.parametrize("method", [pytest.param("auto", id="shift-invert"), "lanczos"])
    def test_arpack_runs_on_one_thread_and_restores(self, monkeypatch, two_blas_threads,
                                                    method):
        import scipy.sparse.linalg as spla

        inside = threads_inside(monkeypatch, spla, "eigsh", mini_wedge_operator(), method)
        assert inside == [[1] * len(two_blas_threads)]
        assert blas_threads() == two_blas_threads

    def test_banded_runs_on_one_thread_and_restores(self, monkeypatch, two_blas_threads):
        op = dirichlet_box(10.0, 99)[0]
        inside = threads_inside(monkeypatch, linalg, "eigh_tridiagonal", op, "auto")
        assert inside == [[1] * len(two_blas_threads)]
        assert blas_threads() == two_blas_threads

    def test_pair_distances_do_not_depend_on_the_thread_count(self):
        # numpy's OpenBLAS, which no scope here drives, would serve a BLAS call
        # in the distances, so each count gets its own interpreter; a seeded
        # random state on the default wedge (n = 93,406) needs no eigensolve
        code = ("import numpy as np\n"
                "from helixdipoles.linalg import EigenResult, Solution\n"
                "from helixdipoles.threebody import WedgeGrid2D, pair_distance_expectations\n"
                "grid = WedgeGrid2D()\n"
                "psi = np.random.default_rng(0).standard_normal((grid.n_active, 1))\n"
                "psi /= np.sqrt(np.sum(psi**2))  # a unit vector, as every solve returns\n"
                "sol = Solution(grid, EigenResult(np.zeros(1), psi, np.zeros(1), 'given'))\n"
                "print(repr(pair_distance_expectations(sol)))\n")
        src = str(Path(linalg.__file__).resolve().parents[1])
        distances = {
            subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                           text=True, timeout=60,
                           env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads),
                           ).stdout
            for threads in ("1", "2")
        }
        assert len(distances) == 1

    def test_counts_restored_when_arpack_stops(self, monkeypatch, two_blas_threads):
        import scipy.sparse.linalg as spla

        def stalled(A, k, **kwargs):
            raise spla.ArpackNoConvergence("stalled", np.array([2.0]), np.ones((A.shape[0], 1)))

        monkeypatch.setattr(spla, "eigsh", stalled)
        with pytest.raises(ConvergenceError):
            lowest_eigenpairs(mini_wedge_operator(), 2)
        assert blas_threads() == two_blas_threads

    def test_overlapping_users_restore_once_the_last_leaves(self, two_blas_threads):
        first, second = linalg._one_blas_thread(), linalg._one_blas_thread()
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        try:  # the second user still runs at one thread
            assert blas_threads() == [1] * len(two_blas_threads)
        finally:
            second.__exit__(None, None, None)
        assert blas_threads() == two_blas_threads

    def test_no_openblas_found_gives_the_same_pairs(self, monkeypatch):
        op = mini_wedge_operator()
        limited = lowest_eigenpairs(op, 2)
        monkeypatch.setattr(linalg, "_openblas_threads", lambda: ())
        plain = lowest_eigenpairs(op, 2)
        np.testing.assert_array_equal(plain.values, limited.values)
        np.testing.assert_array_equal(plain.vectors, limited.vectors)


class TestBandedAccuracy:
    @pytest.mark.parametrize("grid", [Grid1D(), Grid1D(1000.0, 0.01)],
                             ids=["L100", "L1000"])
    @pytest.mark.parametrize("beta", [0.1, 1.0, 20.0])
    def test_residuals_and_full_precision_oracle(self, grid, beta):
        # on the L=1000 box a fixed bisection tolerance of 1e-6 leaves residuals
        # up to 5e-10; the gap-scaled one keeps them near 1e-12 at every size
        op = assemble_hamiltonian_1d(grid, beta, 1.0)
        res = lowest_eigenpairs(op, 4)
        assert res.method == "tridiagonal"
        assert res.residual_norms.max() <= 1e-11
        vals, vecs = eigh_tridiagonal(op.csr.diagonal(), op.csr.diagonal(1),
                                      select="i", select_range=(0, 3))
        oracle_residuals = np.linalg.norm(op.csr @ vecs - vals * vecs, axis=0)
        assert np.all(np.abs(res.values - vals) <= res.residual_norms + oracle_residuals)


class TestCountBelow:
    """The Sturm count of the banded route against every eigenvalue of the dense matrix,
    read through ``lowest_eigenpairs(below=)``, its one caller."""

    @pytest.fixture(scope="class")
    def small(self, dense_oracle):
        op = assemble_hamiltonian_1d(Grid1D(20.0, 0.1), 5.0, 1.0)
        return op, dense_oracle(op, op.n).values

    @pytest.fixture
    def sturm_counts(self, monkeypatch):
        """Every count ``_banded`` takes, in call order."""
        counts, sturm = [], linalg._sturm_count

        def counted(*args):
            counts.append(sturm(*args))
            return counts[-1]

        monkeypatch.setattr(linalg, "_sturm_count", counted)
        return counts

    def test_counts_match_the_dense_oracle(self, small, sturm_counts):
        op, levels = small
        below_all = levels[0] - 1.0
        between = 0.5 * (levels[2] + levels[3])
        above_many = 0.5 * (levels[9] + levels[10])
        # -1e6 lies below LAPACK's own Gershgorin interval, so stebz counts none there
        for energy, count in ((-1e6, 0), (below_all, 0), (between, 3), (above_many, 10),
                              (BOUND_THRESHOLD, int(np.sum(levels < BOUND_THRESHOLD)))):
            # k = n/4 holds every count, so the states below come back by value
            res = lowest_eigenpairs(op, op.n // 4, below=energy)
            assert sturm_counts[-1] == count == int(np.sum(levels <= energy))
            kept = max(count, 1)  # none below: the lowest one
            np.testing.assert_allclose(res.values, levels[:kept], rtol=0.0, atol=1e-10)

    def test_off_the_banded_route_refused(self):
        with pytest.raises(ValueError, match="banded route"):
            lowest_eigenpairs(mini_wedge_operator(), 1, below=0.0)
        with pytest.raises(ValueError, match="banded route"):
            lowest_eigenpairs(dirichlet_box(10.0, 99)[0], 1, method="lanczos", below=0.0)

    def test_by_value_matches_by_index(self, sturm_counts):
        # beta=1.898 of the benchmark pool holds exactly four bound states, so
        # below= bisects them by value on the bound bracket
        op = assemble_hamiltonian_1d(Grid1D(), 1.898, 1.0)
        by_value = lowest_eigenpairs(op, 4, below=BOUND_THRESHOLD)
        assert sturm_counts == [4]
        by_index = lowest_eigenpairs(op, 4)
        np.testing.assert_allclose(by_value.values, by_index.values, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(np.abs(by_value.vectors), np.abs(by_index.vectors),
                                   rtol=0.0, atol=1e-9)

    def test_below_keeps_the_levels_under_it_at_most_k_or_the_lowest_one(self, small):
        op, levels = small
        between = 0.5 * (levels[2] + levels[3])
        for below, k, kept in ((between, 5, 3), (between, 2, 2), (levels[0] - 1.0, 3, 1)):
            res = lowest_eigenpairs(op, k, below=below)
            np.testing.assert_allclose(res.values, levels[:kept], rtol=0.0, atol=1e-10)


class TestRouting:
    def test_small_tridiagonal_takes_banded_solver(self):
        op, _, _ = dirichlet_box(10.0, 999)
        assert lowest_eigenpairs(op, 2).method == "tridiagonal"

    def test_small_wedge_takes_shift_invert(self):
        grid = WedgeGrid2D(12.0, 16.0, 0.4)
        op = assemble_hamiltonian_2d(grid, 1.0, 1.0)
        assert op.n == 879
        assert lowest_eigenpairs(op, 2).method == "shift-invert"

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 60), st.data(), st.integers(0, 2**32 - 1))
    def test_auto_matches_dense_oracle(self, dense_oracle, n, data, seed):
        # random couplings plus a corner entry, so the operator is never tridiagonal
        k = data.draw(st.integers(1, max(1, n // 4)))
        rng = np.random.default_rng(seed)
        mat = sp.random(n, n, density=0.3, rng=rng) + sp.diags(rng.uniform(-1.0, 1.0, n))
        mat = (mat + mat.T + sp.coo_matrix(([1.0, 1.0], ([0, n - 1], [n - 1, 0])),
                                           shape=(n, n))).tocsr()
        op = SymmetricSparseOperator(mat)
        res = lowest_eigenpairs(op, k)
        assert res.method == "shift-invert"
        dense = dense_oracle(op, k)
        np.testing.assert_allclose(res.values, dense.values, rtol=0.0, atol=1e-8)


def gershgorin_bound(op):
    radii = np.asarray(abs(op.csr).sum(axis=1)).ravel()
    return float(np.min(2.0 * op.csr.diagonal() - radii))


def with_empty_last_row(n=40):
    """A random symmetric operator whose last row and column store no entry."""
    mat = random_sparse_symmetric(n, density=0.1).csr.tolil()
    mat[n - 1, :] = 0.0
    mat[:, n - 1] = 0.0
    return SymmetricSparseOperator(mat.tocsr())


def with_duplicate_entries():
    """[[2, -2, 0], [-2, 2, 0], [0, 0, 1]], each -2 stored as -3 and +1 (spectrum 0, 1, 4)."""
    data = [2.0, -3.0, 1.0, 1.0, -3.0, 2.0, 1.0]
    return SymmetricSparseOperator(sp.csr_matrix((data, [0, 1, 1, 0, 0, 1, 2], [0, 3, 6, 7]),
                                                 shape=(3, 3)))


def with_split_entries(n=40):
    """A random symmetric operator with each entry stored as two halves: the same
    matrix, two duplicates per stored entry."""
    csr = random_sparse_symmetric(n, density=0.1).csr
    return SymmetricSparseOperator(sp.csr_matrix(
        (np.repeat(csr.data / 2.0, 2), np.repeat(csr.indices, 2), 2 * csr.indptr),
        shape=csr.shape))


def stored_entries(op):
    return op.nnz, op.csr.data.copy(), op.csr.indices.copy(), op.csr.indptr.copy()


@pytest.mark.parametrize("build", [with_duplicate_entries, with_split_entries],
                         ids=["duplicate-entries", "split-entries"])
def test_gershgorin_leaves_a_hand_built_csr_as_stored(build):
    # scipy's abs() sums the duplicates of a CSR in place, under the caller's operator
    op = build()
    before = stored_entries(op)
    linalg._gershgorin(op)
    if op.n >= 4:  # a solve needs k = 1 <= n/4
        assert lowest_eigenpairs(op, 1).shift_source == "gershgorin"
    for got, want in zip(stored_entries(op), before):
        np.testing.assert_array_equal(got, want)


#: Hand-built operators that leave a row empty: no diagonal entry stored.
EMPTY_ROW_OPERATORS = {
    "dropped-zero-diagonal": SymmetricSparseOperator(sp.diags(np.arange(40.0), format="csr")),
    "empty-last-row": with_empty_last_row(),
}


@pytest.mark.parametrize("op", [
    *EMPTY_ROW_OPERATORS.values(), random_sparse_symmetric(300), with_duplicate_entries(),
], ids=[*EMPTY_ROW_OPERATORS, "random", "duplicate-entries"])
def test_gershgorin_bound_lies_below_the_spectrum(op, dense_oracle):
    assert_below_spectrum(op, dense_oracle)


class TestRowsWithoutEntries:
    """Hand-built operators may leave a row empty: no diagonal entry stored."""

    @pytest.mark.parametrize("op", EMPTY_ROW_OPERATORS.values(), ids=EMPTY_ROW_OPERATORS.keys())
    def test_gershgorin_bound_matches_the_row_sums(self, op):
        assert np.diff(op.csr.indptr).min() == 0
        lower, floor = linalg._gershgorin(op)
        assert lower == gershgorin_bound(op)
        assert floor < lower

    def test_empty_last_row_matches_dense_oracle(self, dense_oracle):
        op = with_empty_last_row()
        assert np.diff(op.csr.indptr)[-1] == 0
        res = lowest_eigenpairs(op, 3)
        assert res.method == "shift-invert"
        dense = dense_oracle(op, 3)
        np.testing.assert_allclose(res.values, dense.values, rtol=0.0, atol=1e-9)
        for i in range(3):
            assert align(res.vectors[:, i], dense.vectors[:, i]) < 1e-6


class TestNearShift:
    """Shift-invert with an ``estimate`` of the lowest eigenvalue."""

    @pytest.fixture(scope="class")
    def mini(self, mini_wedge_solves):
        grid, dense, _ = mini_wedge_solves
        op = assemble_hamiltonian_2d(grid, 1.0, 1.0)
        return op, dense

    def test_wedge_operators_are_z_matrices(self, mini):
        assert mini[0].is_z_matrix()
        assert not random_sparse_symmetric(300).is_z_matrix()

    @pytest.mark.parametrize("above", [1e-3, 0.05, 0.3])
    def test_shift_above_ground_rejected(self, mini, above):
        # the estimate that puts sigma `above` E0 (between E0 and E1 for the
        # first two, between E1 and E2 for the last) is refused by the certificate
        op, dense = mini
        lower = gershgorin_bound(op)
        sigma = dense.values[0] + above
        estimate = (sigma - ESTIMATE_SHIFT_MARGIN * lower) / (1.0 - ESTIMATE_SHIFT_MARGIN)
        res = lowest_eigenpairs(op, 4, estimate=estimate)
        assert res.shift_source == "gershgorin"
        assert res.shift < lower < dense.values[0]
        np.testing.assert_allclose(res.values, dense.values, rtol=0.0, atol=1e-9)
        for i in range(4):
            assert align(res.vectors[:, i], dense.vectors[:, i]) < 1e-6

    def test_estimate_just_above_ground_keeps_a_shift_below_it(self, mini):
        # an estimate 0.05 above E0 gives sigma = e - 0.05 (e - g), here 0.03 below E0
        op, dense = mini
        res = lowest_eigenpairs(op, 4, estimate=dense.values[0] + 0.05)
        assert res.shift_source == "estimate"
        assert gershgorin_bound(op) < res.shift < dense.values[0]
        np.testing.assert_allclose(res.values, dense.values, rtol=0.0, atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-3.0, 1.0))
    def test_kept_shift_always_below_spectrum(self, mini, estimate):
        op, dense = mini
        res = lowest_eigenpairs(op, 2, estimate=estimate)
        if res.shift_source == "estimate":
            assert res.shift < dense.values[0]
        np.testing.assert_allclose(res.values, dense.values[:2], rtol=0.0, atol=1e-9)

    def test_good_estimate_saves_solves(self):
        grid = WedgeGrid2D(12.0, 16.0, 0.2)
        op = assemble_hamiltonian_2d(grid, 2.0, 1.0)
        coarse = assemble_hamiltonian_2d(grid.coarsened(), 2.0, 1.0)
        estimate = lowest_eigenpairs(coarse, 1).values[0]
        near = lowest_eigenpairs(op, 2, estimate=estimate)
        far = lowest_eigenpairs(op, 2)
        assert (near.shift_source, far.shift_source) == ("estimate", "gershgorin")
        assert far.shift < near.shift < near.values[0]
        bound = near.residual_norms + far.residual_norms  # symmetric residual bound
        assert np.all(np.abs(near.values - far.values) <= bound)
        assert near.n_matvec < far.n_matvec

    @pytest.fixture(scope="class")
    def beta2(self):
        grid = WedgeGrid2D(12.0, 16.0, 0.2)
        coarse = assemble_hamiltonian_2d(grid.coarsened(), 2.0, 1.0)
        estimate = lowest_eigenpairs(coarse, 1).values[0]
        return assemble_hamiltonian_2d(grid, 2.0, 1.0), estimate

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_near_shift_start_is_the_certificate_solve(self, beta2, k):
        # the run starts from (H - sigma)^-1 1, not from a seeded vector
        op, estimate = beta2
        one, two = (lowest_eigenpairs(op, k, estimate=estimate, seed=s) for s in (1, 2))
        assert one.shift_source == "estimate"
        np.testing.assert_array_equal(one.values, two.values)
        np.testing.assert_array_equal(one.vectors, two.vectors)
        assert one.residual_norms.max() <= 1e-9

    @pytest.mark.parametrize("k, random_start", [(2, 34), (4, 37)])
    def test_near_shift_basis_grows_with_k(self, beta2, k, random_start):
        # random_start: the fewer solves of seeds 1 and 2 from a seeded start
        # vector at max(2k + 1, 6) vectors; 2k + 4 from the certificate's solve
        # takes 27 (k=2) and 32 (k=4)
        op, estimate = beta2
        assert lowest_eigenpairs(op, k, estimate=estimate).n_matvec < random_start

    def test_non_z_matrix_estimate_ignored(self, dense_oracle):
        op = random_sparse_symmetric(400, seed=11)
        e0 = dense_oracle(op, 1).values[0]
        plain = lowest_eigenpairs(op, 2)
        hinted = lowest_eigenpairs(op, 2, estimate=e0 - 1e-3)
        assert hinted.shift_source == plain.shift_source == "gershgorin"
        assert hinted.shift == plain.shift
        assert hinted.n_matvec == plain.n_matvec  # no certificate solve was spent
        np.testing.assert_array_equal(hinted.values, plain.values)

    def test_exactly_singular_shift_falls_back(self):
        # sigma lands on the eigenvalue 2 of a diagonal operator (Gershgorin bound 0)
        op = with_corner_zeros(np.arange(40.0))
        estimate = 2.0 / (1.0 - ESTIMATE_SHIFT_MARGIN)
        assert estimate - ESTIMATE_SHIFT_MARGIN * estimate == 2.0
        res = lowest_eigenpairs(op, 3, estimate=estimate)
        assert res.method == "shift-invert"
        assert res.shift_source == "gershgorin" and res.shift < 0.0
        np.testing.assert_allclose(res.values, [0.0, 1.0, 2.0], rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("estimate", [math.nan, math.inf, -math.inf, -1e9])
    def test_unusable_estimate_ignored(self, mini, estimate):
        # NaN, infinities and estimates at or below the Gershgorin bound
        op, _ = mini
        plain = lowest_eigenpairs(op, 1)
        hinted = lowest_eigenpairs(op, 1, estimate=estimate)
        assert hinted.shift_source == "gershgorin"
        assert hinted.n_matvec == plain.n_matvec

    @pytest.mark.parametrize("method", [pytest.param("auto", id="tridiagonal"), "lanczos"])
    def test_estimate_unused_off_shift_invert(self, method):
        op, _, _ = dirichlet_box(10.0, 199)
        res = lowest_eigenpairs(op, 2, method=method, estimate=0.0)
        assert res.shift is None and res.shift_source is None
