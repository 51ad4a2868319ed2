"""Symmetric sparse lattice operators and extraction of their lowest eigenpairs.

Every Hamiltonian of the package is built row-compressed by
:meth:`SymmetricSparseOperator.on_lattice`.  Solves are routed by structure
alone: tridiagonal operators go to a direct banded solver, everything else
to ARPACK's own shift-invert mode, with ``H - sigma`` factored once by
sparse LU.  ``sigma`` sits just below a caller's estimate of the lowest
eigenvalue when one LU solve certifies that ``H - sigma`` is a nonsingular
M-matrix (so ``sigma`` lies below the whole spectrum), and below the
Gershgorin bound otherwise.  Dense LAPACK and plain Lanczos on the
operator (``lanczos``) are only taken when forced; dense is capped at
``DENSE_CUTOFF`` unknowns.  ARPACK's own restart limit bounds the iteration;
when it stops short, the pairs it did converge travel on the
:class:`ConvergenceError`.  Start vectors come from a seeded generator whose
seed is carried in the result, so repeated runs are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal

from .errors import ConvergenceError, DimensionError

#: Largest operator a forced dense solve accepts (n^2 doubles: 32 MB).
DENSE_CUTOFF = 2000

#: Eigensolver paths; ``auto`` picks the banded solve or ``shift-invert``.
METHODS = ("auto", "dense", "shift-invert", "lanczos")

#: Default start-vector seed for the iterative path.
DEFAULT_SEED = 20177

#: A shift taken from an estimate ``e`` of the lowest eigenvalue sits this
#: fraction of the way from ``e`` down to the Gershgorin bound.
ESTIMATE_SHIFT_MARGIN = 0.05

#: Columns SuperLU factors together.  Its panel workspace grows as
#: panel_size x n: scipy's default width added 31 MB to the beta=2 wedge
#: factor, while widths 2 to 5 factor as fast (2 vCPU) with the same fill.
SUPERLU_PANEL_SIZE = 3


@dataclass(frozen=True)
class SymmetricSparseOperator:
    """Row-compressed real symmetric operator with an explicit full diagonal."""

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

    def diagonal(self) -> np.ndarray:
        return self.csr.diagonal()

    def to_dense(self) -> np.ndarray:
        return self.csr.toarray()

    def is_tridiagonal(self) -> bool:
        rows = np.repeat(np.arange(self.n), np.diff(self.csr.indptr))
        return bool(np.all(np.abs(rows - self.csr.indices) <= 1))

    def is_z_matrix(self) -> bool:
        """Whether no off-diagonal entry is positive, as in every ``on_lattice`` operator."""
        rows = np.repeat(np.arange(self.n), np.diff(self.csr.indptr))
        return bool(np.all(self.csr.data[rows != self.csr.indices] <= 0.0))

    def validate(self) -> None:
        """Check value symmetry (to 1e-15, relative) and diagonal presence."""
        csr = self.csr
        t = csr.T.tocsr()
        if (csr.has_canonical_format and np.array_equal(csr.indptr, t.indptr)
                and np.array_equal(csr.indices, t.indices)):
            asym = np.abs(csr.data - t.data)  # same pattern: compare entry by entry
        else:
            asym = abs(csr - t).data
        scale = max(1.0, -csr.data.min(initial=0.0), csr.data.max(initial=0.0))
        if asym.size and asym.max() > 1e-15 * scale:
            raise DimensionError("operator is not symmetric")
        # every diagonal entry must be stored explicitly
        rows = np.repeat(np.arange(self.n, dtype=np.int32), np.diff(csr.indptr))
        stored = np.zeros(self.n, dtype=bool)
        stored[rows[rows == csr.indices]] = True
        if not stored.all():
            raise DimensionError(f"diagonal entry {int(np.argmin(stored))} not stored")


@dataclass
class EigenResult:
    """Lowest eigenpairs of a symmetric operator.

    ``vectors[:, i]`` is normalized as a grid function, so that
    ``w * sum(vectors[:, i]**2) == 1`` for the quadrature weight ``w`` given
    to :func:`lowest_eigenpairs`; residual norms are plain 2-norms
    ``|H v - E v|`` of the unit-2-norm eigenvectors.  ``shift`` is the
    ``sigma`` of the shift-invert path and ``shift_source`` where it came
    from, ``estimate`` or ``gershgorin`` (both None on the other paths).
    """

    values: np.ndarray
    vectors: np.ndarray
    residual_norms: np.ndarray
    method: str = "dense"
    seed: int | None = None
    n_matvec: int = 0
    factor_nnz: int = 0
    shift: float | None = None
    shift_source: str | None = None


def _canonical_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def _package(op, vals, vecs, weight, method, seed, n_matvec, factor_nnz=0,
             shift=None, shift_source=None):
    order = np.argsort(vals)
    vals = np.asarray(vals, dtype=float)[order]
    vecs = np.asarray(vecs, dtype=float)[:, order]
    vecs /= np.linalg.norm(vecs, axis=0)
    vecs = _canonical_signs(vecs)
    residuals = np.array(
        [np.linalg.norm(op.matvec(vecs[:, i]) - vals[i] * vecs[:, i]) for i in range(len(vals))]
    )
    return EigenResult(
        values=vals,
        vectors=vecs / np.sqrt(weight),
        residual_norms=residuals,
        method=method,
        seed=seed,
        n_matvec=n_matvec + len(vals),
        factor_nnz=factor_nnz,
        shift=shift,
        shift_source=shift_source,
    )


def check_request(k: int, n: int, tol: float, method: str) -> None:
    """Reject a solve request for ``k`` pairs of an ``n``-unknown operator.

    Raises :class:`DimensionError` unless ``1 <= k <= max(1, n/4)``, and
    unless ``n <= DENSE_CUTOFF`` for ``method="dense"``; ``ValueError``
    unless ``tol`` lies in ``[1e-12, 1e-4]`` and ``method`` is one of
    :data:`METHODS`.
    """
    if not 1 <= k <= max(1, n // 4):
        raise DimensionError(f"k={k} outside [1, n/4] for n={n}")
    if not 1e-12 <= tol <= 1e-4:
        raise ValueError("tol must lie in [1e-12, 1e-4]")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "dense" and n > DENSE_CUTOFF:
        raise DimensionError(f"dense solves take at most {DENSE_CUTOFF} unknowns, got n={n}")


def lowest_eigenpairs(
    op: SymmetricSparseOperator,
    k: int,
    tol: float = 1e-9,
    *,
    method: str = "auto",
    seed: int = DEFAULT_SEED,
    quadrature_weight: float = 1.0,
    estimate: float | None = None,
) -> EigenResult:
    """Compute the ``k`` lowest eigenpairs of a symmetric sparse operator.

    Args:
        op: operator to diagonalize.
        k: number of eigenpairs, ``1 <= k <= n/4``.
        tol: iterative convergence target within ``[1e-12, 1e-4]``, passed
            to ARPACK as the relative accuracy of the Ritz values it
            iterates on: ``E`` for ``lanczos``, ``mu = 1/(E - sigma)`` for
            ``shift-invert``.
        method: ``auto`` (direct banded solve, reported as ``tridiagonal``,
            for tridiagonal operators; shift-invert otherwise), or one of
            ``dense`` (at most ``DENSE_CUTOFF`` unknowns) / ``shift-invert`` /
            ``lanczos`` to force a path.
        seed: start-vector seed for the shift-invert and Lanczos paths.
        quadrature_weight: per-node quadrature weight used to normalize the
            returned eigenvectors as grid functions.
        estimate: a guess at the lowest eigenvalue, such as the ground
            energy of a coarser grid.  Only the shift-invert path reads it:
            it places ``sigma`` just below the guess when a one-solve
            certificate shows that ``sigma`` still lies below the whole
            spectrum, and falls back to the Gershgorin shift otherwise (see
            :func:`_shifted_factor`).  A wrong guess costs one extra
            factorization, never a wrong answer.

    ``n_matvec`` of the result counts the iterative operator applications
    (matvecs for ``lanczos``; for ``shift-invert``, the sparse LU solves,
    the certificate's included) plus the ``k`` matvecs of the final
    residual check; ``factor_nnz`` is the fill of the sparse LU factor on
    the shift-invert path and 0 on the others, where ``shift`` and
    ``shift_source`` are None.

    Raises:
        DimensionError, ValueError: the request fails :func:`check_request`.
        ConvergenceError: ARPACK spent its restart limit (scipy's default
            ``maxiter``, 10 n) before reaching ``tol``; the pairs it did
            converge are attached to the exception as energies and vectors.
    """
    check_request(k, op.n, tol, method)
    if method == "auto":
        method = "tridiagonal" if op.is_tridiagonal() else "shift-invert"

    if method == "dense":
        vals, vecs = np.linalg.eigh(op.to_dense())
        return _package(op, vals[:k], vecs[:, :k], quadrature_weight,
                        "dense", None, 0)
    if method == "tridiagonal":
        vals, vecs = eigh_tridiagonal(op.diagonal(), op.csr.diagonal(1),
                                      select="i", select_range=(0, k - 1))
        return _package(op, vals, vecs, quadrature_weight,
                        "tridiagonal", None, 0)
    vals, vecs, n_mv, shifted = _arpack(op, k, tol, seed,
                                        shift_invert=method == "shift-invert",
                                        estimate=estimate)
    return _package(op, vals, vecs, quadrature_weight, method, seed, n_mv, **shifted)


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
    or ``gershgorin``) and the LU solves the certificate spent (0 or 1).
    """
    from scipy.sparse.linalg import splu

    n = op.n

    def factor(sigma):
        return splu((op.csr - sigma * sp.identity(n, format="csr")).T,
                    permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    panel_size=SUPERLU_PANEL_SIZE, options={"SymmetricMode": True})

    radii = np.asarray(abs(op.csr).sum(axis=1)).ravel()
    lower = float(np.min(2.0 * op.diagonal() - radii))
    checks = 0
    if estimate is not None and lower < estimate < math.inf and op.is_z_matrix():
        sigma = estimate - ESTIMATE_SHIFT_MARGIN * (estimate - lower)
        try:
            lu = factor(sigma)
        except RuntimeError:  # SuperLU: H - sigma exactly singular, sigma an eigenvalue
            lu = None
        if lu is not None:
            x = lu.solve(np.ones(n))
            checks = 1
            if np.all(x > 0.0) and np.all(op.csr @ x - sigma * x > 0.5):
                return lu, sigma, "estimate", checks
            del lu  # drop the rejected factor before building the next
    sigma = lower - 1e-3 * max(1.0, abs(lower))
    return factor(sigma), sigma, "gershgorin", checks


def _arpack(op, k, tol, seed, shift_invert, estimate=None):
    """ARPACK's implicitly restarted Lanczos for the ``k`` lowest eigenpairs.

    Plain mode iterates on ``H`` for its smallest eigenvalues.  Shift-invert
    runs ARPACK's own mode: it iterates on ``(H - sigma)^-1``, applied by the
    LU solve of :func:`_shifted_factor` given as ``OPinv``, for its largest
    eigenvalues ``mu``, and ``dseupd`` maps them back by
    ``E = sigma + 1/mu`` and purifies the Ritz vectors, the partial pairs of
    an ``ArpackNoConvergence`` included.  Returns values, vectors, the
    operator-application count and the shift-invert fields of
    :class:`EigenResult` (``factor_nnz``, ``shift``, ``shift_source``; empty
    in plain mode).
    """
    from scipy.sparse.linalg import (ArpackError, ArpackNoConvergence,
                                     LinearOperator, eigsh)

    n = op.n
    if n < 2:
        raise DimensionError("iterative eigensolvers need at least 2 unknowns")
    if not np.all(np.isfinite(op.csr.data)):
        raise ValueError("operator has non-finite entries")
    if shift_invert:
        lu, sigma, source, n_apply = _shifted_factor(op, estimate)
        apply = lu.solve
        shifted = dict(factor_nnz=lu.nnz, shift=sigma, shift_source=source)
        # wedge, tol 1e-9: a certified near shift converges in 13 solves at
        # 6 vectors (beta=2; 19 at beta=0.25); the Gershgorin shift needs 20
        # (beta=0.25: 71 solves, 97 at 6)
        ncv = 6 if source == "estimate" else 20
    else:
        apply, n_apply, shifted = op.matvec, 0, {}
        # plain Lanczos restarts less in a larger space (beta=2 wedge,
        # tol 1e-9: 1,142 matvecs at 60, 2,602 at 20)
        ncv = 60
    ncv = min(n, max(2 * k + 1, ncv))

    def counted(x):
        nonlocal n_apply
        n_apply += 1
        return apply(x)

    # the seeded generator also draws any restart vector ARPACK asks for
    # after a Lanczos breakdown; unseeded, those would differ run to run
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    applied = LinearOperator((n, n), matvec=counted, dtype=float)
    mode = (dict(A=op.csr, sigma=sigma, which="LM", OPinv=applied) if shift_invert
            else dict(A=applied, which="SA"))
    try:
        vals, vecs = eigsh(k=k, ncv=ncv, tol=tol, v0=v0, rng=rng, **mode)
    except ArpackNoConvergence as exc:
        raise ConvergenceError(f"ARPACK did not converge: {exc}",
                               result=(exc.eigenvalues, exc.eigenvectors)) from None
    except ArpackError as exc:
        raise ConvergenceError(f"ARPACK failed: {exc}") from None
    return vals, vecs, n_apply, shifted
