"""Symmetric sparse lattice operators and extraction of their lowest eigenpairs.

Every Hamiltonian of the package is built row-compressed by
:meth:`SymmetricSparseOperator.on_lattice`, symmetric by construction; that
is not re-checked.  Solves are routed by structure alone: tridiagonal
operators go to a direct banded solver (LAPACK bisection, to a tolerance
scaled by the operator's own level spacing, then inverse iteration),
everything else to ARPACK's own shift-invert mode, with ``H - sigma``
factored once by sparse LU.  Asked only for the states below an energy, the
banded route first counts them by one Sturm count (:func:`_sturm_count`)
and, when they are at most ``k``, bisects them by value up to that energy
instead of by index over the whole Gershgorin interval; LAPACK bounds both
searches from below by its own Gershgorin interval.  ``sigma`` sits just
below a caller's estimate of the lowest eigenvalue when one LU solve
certifies that ``H - sigma`` is a nonsingular M-matrix (so ``sigma`` lies
below the whole spectrum), and below the Gershgorin bound otherwise.  Each
Gershgorin radius is scipy's row sum of ``|H|`` over the stored entries, 0
on a row that stores none.  The one other choice, plain Lanczos on the
operator (``lanczos``), is only taken when forced; the dense oracle the
routes are checked against lives in the test suite.  ARPACK's own restart
limit bounds the iteration; when it stops short, the pairs it did converge
travel on the :class:`ConvergenceError`.  Whatever the route, the energies
returned are the Rayleigh quotients of the returned eigenvectors, taken with
the matvecs of the residual check.  A near-shift run starts from the
certificate's solve; other start and restart vectors come from a seeded
generator whose seed the result carries, so repeated runs are reproducible.

Every solve runs in one scope, on scipy's bundled OpenBLAS (the PyPI
wheel's) at one thread, and restores the count after; every route calls
only scipy's LAPACK and BLAS.  A Lanczos run makes tens of skinny BLAS-2
calls, which threads only stall: on the beta=2 wedge (n = 93,406, 2 vCPU)
ARPACK's 11 ``dsaupd`` calls took 162-176 ms on two threads against
21-23 ms on one, and ``dseupd`` 11-15 ms against 1 ms.  Threads also
change the rounding, so at one thread the outputs no longer depend on the
ambient count.  The limit is process-wide: a concurrent caller's scipy
BLAS runs single-threaded while a solve runs.  Where scipy brings no
OpenBLAS of its own (MKL, Accelerate, a system BLAS) nothing is limited.
"""

from __future__ import annotations

import ctypes
import functools
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal

from .errors import (ConvergenceError, DimensionError, check_count, check_finite,
                     is_integer, is_real)

#: Eigensolver choices: ``auto`` picks the banded solve or shift-invert by the
#: operator's structure; ``lanczos`` forces plain Lanczos on the operator.
METHODS = ("auto", "lanczos")

#: Default seed of the iterative paths' random start and restart vectors.
DEFAULT_SEED = 20177

#: Relative accuracy every ARPACK run asks of its Ritz values: ``E`` under
#: ``lanczos``, ``mu = 1/(E - sigma)`` under shift-invert; the banded route
#: never reads it.  The grid and the box, not this, set the error of the
#: spectra; each result's residual norms carry the evidence.
ARPACK_TOL = 1e-9

#: The banded route bisects each eigenvalue to this fraction of the
#: operator's free-lattice gap ``3 pi^2 max|H_i,i+1| / (n+1)^2`` (about 1.5e-6
#: at h = 0.01), far coarser than LAPACK's default ``eps ||H||``.  Its
#: inverse-iteration vectors still converge, and the reported energy is
#: their Rayleigh quotient, whose error is quadratic in theirs.
BISECTION_GAP_FRACTION = 1e-3

#: A shift taken from an estimate ``e`` of the lowest eigenvalue sits this
#: fraction of the way from ``e`` down to the Gershgorin bound.
ESTIMATE_SHIFT_MARGIN = 0.05

#: Columns SuperLU factors together.  Its panel workspace grows as
#: panel_size x n: scipy's default width added 31 MB to the beta=2 wedge
#: factor, while widths 2 to 5 factor as fast (2 vCPU) with the same fill.
SUPERLU_PANEL_SIZE = 3


@dataclass(frozen=True)
class SymmetricSparseOperator:
    """Row-compressed real symmetric operator.

    Symmetry is a precondition on ``csr``, not checked: :meth:`on_lattice`
    guarantees it, and an operator built by hand must meet it.
    """

    csr: sp.csr_matrix

    @property
    def n(self) -> int:
        return self.csr.shape[0]

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    @classmethod
    def on_lattice(cls, index, spacing: float, potential) -> "SymmetricSparseOperator":
        """-1/2 times the second-difference Laplacian plus a diagonal ``potential``.

        The kinetic term of every Hamiltonian here, in the unit hbar^2/(mu alpha^2).
        ``index`` must number the active nodes of an N-dimensional lattice of
        uniform ``spacing`` in row-major order and hold -1 elsewhere, on a
        border at least one node wide (implied Dirichlet zeros); it is not
        checked.  Stencil offsets are visited in row-major order, so every
        CSR row is sorted.
        """
        index = np.asarray(index, dtype=np.int32)
        flat = index.ravel()
        nodes = np.flatnonzero(flat >= 0)
        n = nodes.size
        strides = np.cumprod((1,) + index.shape[:0:-1])[::-1]  # in nodes, row-major
        offsets = np.concatenate([-strides, [0], strides[::-1]])
        cols = np.stack([flat[nodes + step] for step in offsets], axis=1)
        vals = np.full(cols.shape, -0.5 / spacing**2)
        vals[:, index.ndim] = index.ndim / spacing**2 + potential
        present = cols >= 0
        indptr = np.zeros(n + 1, dtype=np.int32)
        indptr[1:] = np.cumsum(present, dtype=np.int32)[offsets.size - 1::offsets.size]
        return cls(sp.csr_matrix((vals[present], cols[present], indptr), shape=(n, n)))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        if v.shape != (self.n,):
            raise DimensionError(f"expected vector of length {self.n}, got {v.shape}")
        return self.csr @ v

    def is_tridiagonal(self) -> bool:
        if self.nnz > 3 * self.n - 2:  # more entries than three diagonals hold
            return False
        rows = np.repeat(np.arange(self.n), np.diff(self.csr.indptr))
        return bool(np.all(np.abs(rows - self.csr.indices) <= 1))

    def is_z_matrix(self) -> bool:
        """Whether no off-diagonal entry is positive, as in every ``on_lattice`` operator."""
        rows = np.repeat(np.arange(self.n), np.diff(self.csr.indptr))
        return bool(np.all(self.csr.data[rows != self.csr.indices] <= 0.0))


@dataclass
class EigenResult:
    """Lowest eigenpairs of a symmetric operator.

    ``vectors[:, i]`` has unit 2-norm, on every route; residual norms are
    the 2-norms ``|H v - E v|`` of these vectors.  ``shift`` is the
    ``sigma`` of the shift-invert path and ``shift_source`` where it came
    from, ``estimate`` or ``gershgorin`` (both None on the other paths).
    """

    values: np.ndarray
    vectors: np.ndarray
    residual_norms: np.ndarray
    method: str
    seed: int | None = None
    n_matvec: int = 0
    factor_nnz: int = 0
    shift: float | None = None
    shift_source: str | None = None


@dataclass
class Solution:
    """Eigenpairs ``eigen`` of a Hamiltonian assembled on ``grid``."""

    grid: object
    eigen: EigenResult

    @property
    def energies(self) -> np.ndarray:
        return self.eigen.values

    def wavefunction(self, state: int = 0) -> np.ndarray:
        """State ``state`` in [0, k) as a grid function: ``grid.weight * sum(psi**2) == 1``."""
        check_count(DimensionError, 0, state=state)
        if state >= self.eigen.vectors.shape[1]:
            raise DimensionError(f"state {state} >= k={self.eigen.vectors.shape[1]}")
        return self.eigen.vectors[:, state] / math.sqrt(self.grid.weight)

    def expectation(self, values) -> float:
        """Ground-state mean ``sum(values * v**2)`` of node ``values``; elementwise, no BLAS."""
        return float(np.sum(values * self.eigen.vectors[:, 0] ** 2))


def _canonical_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    idx = np.argmax(np.abs(vectors), axis=0)
    return vectors * np.sign(vectors[idx, np.arange(vectors.shape[1])])


def _package(op, vecs, method, seed, n_matvec, **shifted):
    """Result for the solver's eigenvectors ``vecs``, energies their Rayleigh quotients.

    ``v' H v`` of a unit vector errs only quadratically in the vector's error
    (Parlett, *The Symmetric Eigenvalue Problem*, ch. 4), so it does not
    carry the error of the value the solver paired with ``v``.  The ``H v``
    it needs is the one the residual check applies, one ``op.matvec`` per
    column.
    """
    vecs = np.array(vecs, dtype=float)
    vecs /= np.linalg.norm(vecs, axis=0)
    hv = np.column_stack([op.matvec(vecs[:, i]) for i in range(vecs.shape[1])])
    vals = np.einsum("ij,ij->j", vecs, hv)
    residuals = np.linalg.norm(hv - vals * vecs, axis=0)
    order = np.argsort(vals)
    return EigenResult(
        values=vals[order],
        vectors=_canonical_signs(vecs[:, order]),
        residual_norms=residuals[order],
        method=method,
        seed=seed,
        n_matvec=n_matvec + len(vals),
        **shifted,
    )


def check_request(k: int, n: int, method: str = "auto", seed: int = DEFAULT_SEED) -> None:
    """Reject a solve request for ``k`` pairs of an ``n``-unknown operator.

    Raises :class:`DimensionError` unless ``k`` is an integer in ``[1, max(1, n/4)]``;
    ``ValueError`` unless ``method`` is one of :data:`METHODS` and ``seed`` an integer
    ``>= 0`` (every route, seedless ones too).
    """
    if not is_integer(k) or not 1 <= k <= max(1, n // 4):
        raise DimensionError(f"k={k!r} outside the integers in [1, n/4] for n={n}")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    check_count(ValueError, 0, seed=seed)


def lowest_eigenpairs(
    op: SymmetricSparseOperator,
    k: int,
    *,
    method: str = "auto",
    seed: int = DEFAULT_SEED,
    estimate: float | None = None,
    below: float | None = None,
) -> EigenResult:
    """Compute the ``k`` lowest eigenpairs of a symmetric sparse operator.

    Args:
        op: operator to diagonalize.
        k: number of eigenpairs, ``1 <= k <= n/4``.
        method: ``auto`` (direct banded solve, reported as ``tridiagonal``,
            for tridiagonal operators; ``shift-invert`` otherwise), or
            ``lanczos`` to force plain Lanczos on the operator.
        seed: seeds the start vector (a near shift starts from the
            certificate's solve instead) and any restart vector.
        estimate: a guess at the lowest eigenvalue, such as the ground
            energy of a coarser grid.  Only the shift-invert path reads it:
            it places ``sigma`` just below the guess when a one-solve
            certificate shows that ``sigma`` still lies below the whole
            spectrum, and falls back to the Gershgorin shift otherwise, NaN
            and +-inf included (see :func:`_shifted_factor`).  A wrong guess
            costs one extra factorization, never a wrong answer.
        below: a finite energy; only the banded route takes it.  Given, the
            result holds only the eigenpairs below it, at most ``k`` of them,
            and at least the lowest one, whatever its energy (see
            :func:`_banded`).

    On every route each returned eigenvector has unit 2-norm, and each energy
    is its Rayleigh quotient ``v' H v``, not the value the solver paired with
    it; the pairs come sorted by it.

    ``n_matvec`` of the result counts the iterative operator applications
    (matvecs for ``lanczos``; for ``shift-invert``, the sparse LU solves,
    the certificate's included) plus the ``k`` matvecs of the final
    residual check; ``factor_nnz`` is the fill of the sparse LU factor on
    the shift-invert path and 0 on the others, where ``shift`` and
    ``shift_source`` are None.

    Raises:
        DimensionError, ValueError: the request fails :func:`check_request`, or
            (``ValueError``) ``estimate`` is neither None nor :func:`.errors.is_real`,
            ``below`` is neither None nor finite or is given off the banded
            route, or the operator holds a NaN or an infinity.
        ConvergenceError: ARPACK spent its restart limit (scipy's default
            ``maxiter``, 10 n) before reaching :data:`ARPACK_TOL`; the pairs it
            did converge are attached to the exception as energies and vectors.
    """
    check_request(k, op.n, method, seed)
    if not (estimate is None or is_real(estimate)):
        raise ValueError(f"estimate must be a real number or None, got {estimate!r}")
    if not np.all(np.isfinite(op.csr.data)):
        raise ValueError("operator has non-finite entries")
    if method == "auto":
        method = "tridiagonal" if op.is_tridiagonal() else "shift-invert"
    if below is not None:
        check_finite(ValueError, below=below)
        if method != "tridiagonal":
            raise ValueError(f"below takes the banded route of a tridiagonal operator, "
                             f"not {method!r}")

    with _one_blas_thread():
        if method == "tridiagonal":
            return _package(op, _banded(op, k, below), "tridiagonal", None, 0)
        vecs, n_mv, shifted = _arpack(op, k, seed, shift_invert=method == "shift-invert",
                                      estimate=estimate)
        return _package(op, vecs, method, seed, n_mv, **shifted)


def _gershgorin(op) -> tuple[float, float]:
    """The Gershgorin bound ``g = min_i (2 a_ii - sum_j |a_ij|)``, below which no
    eigenvalue of ``op`` lies, and the floor ``g - 1e-3 max(1, |g|)`` below every disc.
    Each radius is scipy's row sum of ``|op|``, 0 on a row that stores no entry,
    on a copy where scipy's ``abs`` would sum duplicates in the caller's CSR."""
    csr = op.csr if op.csr.has_canonical_format else op.csr.copy()
    radii = np.ravel(abs(csr).sum(axis=1))
    lower = float(np.min(2.0 * op.csr.diagonal() - radii))
    return lower, lower - 1e-3 * max(1.0, abs(lower))


def _sturm_count(d, e, energy) -> int:
    """Eigenvalues of the tridiagonal (``d``, ``e``) at or below ``energy``.

    ``stebz`` by value on (-inf, ``energy``] intersects the range with its own
    Gershgorin interval, and an infinite absolute tolerance stops it
    bisecting at once, so the count is that of the Sturm sequences at the
    ends (Barth, Martin & Wilkinson, Numer. Math. 9, 1967).
    """
    return eigh_tridiagonal(d, e, eigvals_only=True, select="v",
                            select_range=(-math.inf, energy), tol=math.inf).size


def _banded(op, k, below):
    """Eigenvectors of a tridiagonal ``op``: ``stebz`` bisection, then ``stein``.

    Each eigenvalue is bisected to :data:`BISECTION_GAP_FRACTION` of the
    free-lattice gap, then inverse iteration gives its vector.  Without
    ``below`` these are the ``k`` lowest, found by index, which searches the
    whole Gershgorin interval (up to the repulsive core's diagonal on the
    two-body operator).  With it, one Sturm count of the states below
    ``below`` comes first: when there are at most ``k``, they are bisected by
    value on (-inf, ``below``], which ``stebz`` cuts to its own Gershgorin
    interval; when there are more, the ``k`` lowest by index; when there
    are none, the lowest one by index.
    """
    d, e = op.csr.diagonal(), op.csr.diagonal(1)
    # the free-lattice gap between the two lowest levels of an n-node chain
    gap = 3.0 * math.pi**2 * np.max(np.abs(e), initial=0.0) / (op.n + 1) ** 2
    select, bounds = "i", (0, k - 1)
    if below is not None:
        count = _sturm_count(d, e, below)
        if count <= k:
            select, bounds = ("v", (-math.inf, below)) if count else ("i", (0, 0))
    return eigh_tridiagonal(d, e, select=select, select_range=bounds,
                            tol=BISECTION_GAP_FRACTION * gap)[1]


def _shifted_factor(op, estimate):
    """Sparse LU of ``H - sigma`` for a ``sigma`` below the whole spectrum of ``H``.

    With an ``estimate`` ``e`` of the lowest eigenvalue above the Gershgorin
    bound ``g = min_i (2 a_ii - sum_j |a_ij|)``, ``sigma = e - 0.05 (e - g)``
    (:data:`ESTIMATE_SHIFT_MARGIN`) is factored first.  It is kept only when
    ``H`` is a Z-matrix (no positive off-diagonal entry) and one LU solve
    ``x = (H - sigma)^-1 1`` gives ``x > 0`` and ``(H - sigma) x > 1/2``
    entrywise: a Z-matrix with such an ``x`` is a nonsingular M-matrix
    (Berman & Plemmons, *Nonnegative Matrices*, ch. 6), and a symmetric one
    is positive definite, so ``sigma`` lies below every eigenvalue.
    Otherwise that factor is dropped and ``H`` is factored at
    ``g - 1e-3 max(1, |g|)``, below every Gershgorin disc.  Either way
    ``H - sigma`` is positive definite and its LU factor needs no pivoting.
    The symmetric minimum-degree ordering of ``A' + A`` keeps the factor's
    fill (and memory) about half of splu's default COLAMD ordering on the
    wedge stencil.  ``H - sigma`` is symmetric, so the CSC matrix splu wants
    is the transpose view of its CSR arrays; the shifted matrix is dropped
    once factored.  Returns the factor, ``sigma``, its source (``estimate``
    or ``gershgorin``) and the certificate's solve ``x`` (None if none ran).
    """
    from scipy.sparse.linalg import splu

    n = op.n

    def factor(sigma):
        return splu((op.csr - sigma * sp.identity(n, format="csr")).T,
                    permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    panel_size=SUPERLU_PANEL_SIZE, options={"SymmetricMode": True})

    lower, floor = _gershgorin(op)
    x = None
    if estimate is not None and lower < estimate < math.inf and op.is_z_matrix():
        sigma = estimate - ESTIMATE_SHIFT_MARGIN * (estimate - lower)
        try:
            lu = factor(sigma)
        except RuntimeError:  # SuperLU: H - sigma exactly singular, sigma an eigenvalue
            lu = None
        if lu is not None:
            x = lu.solve(np.ones(n))
            if np.all(x > 0.0) and np.all(op.csr @ x - sigma * x > 0.5):
                return lu, sigma, "estimate", x
            del lu  # drop the rejected factor before building the next
    return factor(floor), floor, "gershgorin", x


@functools.cache
def _openblas_threads():
    """(get, set) thread-count functions of the OpenBLAS scipy loads.

    Searched once, in the wheel's ``scipy.libs`` directory; empty where scipy
    brings no OpenBLAS of its own (MKL, Accelerate, a system BLAS).
    """
    found = []
    for path in sorted((Path(scipy.__file__).resolve().parent.parent / "scipy.libs")
                       .glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        get = getattr(lib, "scipy_openblas_get_num_threads", None)
        put = getattr(lib, "scipy_openblas_set_num_threads", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            found.append((get, put))
    return tuple(found)


_one_thread_lock = threading.Lock()
_one_thread_users = 0
_ambient_threads = ()


@contextmanager
def _one_blas_thread():
    """Run the block with scipy's OpenBLAS at one thread, then restore the counts.

    The first of overlapping users saves the ambient counts and the last one
    out restores them, so concurrent solves neither leave the process at one
    thread nor lift the limit under one another.
    """
    global _one_thread_users, _ambient_threads
    with _one_thread_lock:
        if _one_thread_users == 0:
            _ambient_threads = tuple((put, get()) for get, put in _openblas_threads())
            for put, _ in _ambient_threads:
                put(1)
        _one_thread_users += 1
    try:
        yield
    finally:
        with _one_thread_lock:
            _one_thread_users -= 1
            if _one_thread_users == 0:
                for put, count in _ambient_threads:
                    put(count)


def _arpack(op, k, seed, shift_invert, estimate=None):
    """ARPACK's implicitly restarted Lanczos for the ``k`` lowest eigenpairs.

    Plain mode iterates on ``H`` for its smallest eigenvalues.  Shift-invert
    runs ARPACK's own mode: it iterates on ``(H - sigma)^-1``, applied by the
    LU solve of :func:`_shifted_factor` given as ``OPinv``, for its largest
    eigenvalues ``mu``, and ``dseupd`` maps them back by
    ``E = sigma + 1/mu`` and purifies the Ritz vectors, the partial pairs of
    an ``ArpackNoConvergence`` included.  Returns the Ritz vectors (their
    energies are taken by :func:`_package`), the operator-application count
    and the shift-invert fields of :class:`EigenResult` (``factor_nnz``,
    ``shift``, ``shift_source``; empty in plain mode).
    """
    from scipy.sparse.linalg import (ArpackError, ArpackNoConvergence,
                                     LinearOperator, eigsh)

    n = op.n
    check_count(DimensionError, 2, unknowns=n)  # what an iterative eigensolver needs
    if shift_invert:
        lu, sigma, source, x = _shifted_factor(op, estimate)
        apply, n_apply = lu.solve, int(x is not None)
        shifted = dict(factor_nnz=lu.nnz, shift=sigma, shift_source=source)
        # wedge at ARPACK_TOL: a certified near shift, started from the certificate's
        # solve at 2k + 4 vectors, takes 10 solves at k=1 (beta=2; 16 at beta=0.25)
        # and 73 at k=4; the Gershgorin shift needs 20 (beta=0.25: 71 solves, 97 at 6)
        v0, ncv = (x, 2 * k + 4) if source == "estimate" else (None, 20)
    else:
        apply, n_apply, shifted, v0 = op.matvec, 0, {}, None
        # plain Lanczos restarts less in a larger space (beta=2 wedge at
        # ARPACK_TOL: 1,142 matvecs at 60, 2,602 at 20)
        ncv = 60
    ncv = min(n, max(2 * k + 1, ncv))

    def counted(x):
        nonlocal n_apply
        n_apply += 1
        return apply(x)

    # the seeded generator also draws any restart vector ARPACK asks for
    # after a Lanczos breakdown; unseeded, those would differ run to run
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n) if v0 is None else v0
    applied = LinearOperator((n, n), matvec=counted, dtype=float)
    mode = (dict(A=op.csr, sigma=sigma, which="LM", OPinv=applied) if shift_invert
            else dict(A=applied, which="SA"))
    try:
        vecs = eigsh(k=k, ncv=ncv, tol=ARPACK_TOL, v0=v0, rng=rng, **mode)[1]
    except ArpackNoConvergence as exc:
        raise ConvergenceError(f"ARPACK did not converge: {exc}",
                               result=(exc.eigenvalues, exc.eigenvectors)) from None
    except ArpackError as exc:
        raise ConvergenceError(f"ARPACK failed: {exc}") from None
    return vecs, n_apply, shifted
