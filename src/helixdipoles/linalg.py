"""Symmetric sparse operators and extraction of their lowest eigenpairs.

The discretized Hamiltonians of this package are real symmetric with local
stencils, so they are stored row-compressed and routed by structure alone:
tridiagonal operators go to a direct banded solver, everything else to
ARPACK's implicitly restarted Lanczos in its own shift-invert mode.  The
shift sits strictly below the operator's Gershgorin bound, ``H - sigma`` is
factored once by sparse LU, and ARPACK maps the Ritz values of the inverse
back to the lowest energies and purifies the Ritz vectors.  Dense LAPACK
diagonalization and plain Lanczos on the operator (``lanczos``) are only
taken when forced; dense is capped at ``DENSE_CUTOFF`` unknowns.  ARPACK's
own restart limit bounds the iteration; when it stops short, the pairs it
did converge travel on the :class:`ConvergenceError`.  The iterative start
vectors are drawn from a seeded generator and the seed is carried in the
result, so repeated runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal

from .errors import ConvergenceError, DimensionError

#: Largest operator a forced dense solve accepts (n^2 doubles: 32 MB).
DENSE_CUTOFF = 2000

#: Eigensolver paths; ``auto`` picks ``tridiagonal`` or ``shift-invert``.
METHODS = ("auto", "dense", "tridiagonal", "shift-invert", "lanczos")

#: Default start-vector seed for the iterative path.
DEFAULT_SEED = 20177

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
    def from_tridiagonal(cls, diag: np.ndarray, off: np.ndarray) -> "SymmetricSparseOperator":
        """Build from a main diagonal and its (symmetric) first off-diagonal."""
        diag = np.asarray(diag, dtype=float)
        off = np.asarray(off, dtype=float)
        if off.shape[0] != diag.shape[0] - 1:
            raise DimensionError("off-diagonal must have length n - 1")
        mat = sp.diags([off, diag, off], offsets=[-1, 0, 1], format="csr")
        return cls(mat)

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
    ``|H v - E v|`` of the unit-2-norm eigenvectors.
    """

    values: np.ndarray
    vectors: np.ndarray
    residual_norms: np.ndarray
    method: str = "dense"
    seed: int | None = None
    n_matvec: int = 0
    factor_nnz: int = 0


def _canonical_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def _package(op, vals, vecs, weight, method, seed, n_matvec, factor_nnz=0):
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
) -> EigenResult:
    """Compute the ``k`` lowest eigenpairs of a symmetric sparse operator.

    Args:
        op: operator to diagonalize.
        k: number of eigenpairs, ``1 <= k <= n/4``.
        tol: iterative convergence target within ``[1e-12, 1e-4]``, passed
            to ARPACK as the relative accuracy of the Ritz values it
            iterates on: ``E`` for ``lanczos``, ``mu = 1/(E - sigma)`` for
            ``shift-invert``.
        method: ``auto`` (direct banded solve for tridiagonal operators,
            shift-invert otherwise), or one of ``dense`` (at most
            ``DENSE_CUTOFF`` unknowns) / ``tridiagonal`` / ``shift-invert`` /
            ``lanczos`` to force a path.
        seed: start-vector seed for the shift-invert and Lanczos paths.
        quadrature_weight: per-node quadrature weight used to normalize the
            returned eigenvectors as grid functions.

    ``n_matvec`` of the result counts the iterative operator applications
    (matvecs for ``lanczos``, sparse LU solves for ``shift-invert``) plus
    the ``k`` matvecs of the final residual check; ``factor_nnz`` is the
    fill of the sparse LU factor on the shift-invert path and 0 on the
    others.

    Raises:
        DimensionError, ValueError: the request fails :func:`check_request`,
            or ``tridiagonal`` is forced on an operator that is not.
        ConvergenceError: ARPACK spent its restart limit (scipy's default
            ``maxiter``, 10 n) before reaching ``tol``; the pairs it did
            converge are attached to the exception as energies and vectors.
    """
    check_request(k, op.n, tol, method)
    if method == "auto":
        method = "tridiagonal" if op.is_tridiagonal() else "shift-invert"
    elif method == "tridiagonal" and not op.is_tridiagonal():
        raise DimensionError("operator is not tridiagonal")

    if method == "dense":
        vals, vecs = np.linalg.eigh(op.to_dense())
        return _package(op, vals[:k], vecs[:, :k], quadrature_weight,
                        "dense", None, 0)
    if method == "tridiagonal":
        vals, vecs = eigh_tridiagonal(op.diagonal(), op.csr.diagonal(1),
                                      select="i", select_range=(0, k - 1))
        return _package(op, vals, vecs, quadrature_weight,
                        "tridiagonal", None, 0)
    vals, vecs, n_mv, fill = _arpack(op, k, tol, seed,
                                     shift_invert=method == "shift-invert")
    return _package(op, vals, vecs, quadrature_weight, method, seed, n_mv, fill)


def _arpack(op, k, tol, seed, shift_invert):
    """ARPACK's implicitly restarted Lanczos for the ``k`` lowest eigenpairs.

    Plain mode iterates on ``H`` for its smallest eigenvalues.  Shift-invert
    runs ARPACK's own mode: it iterates on ``(H - sigma)^-1``, applied by the
    LU solve given as ``OPinv``, for its largest eigenvalues ``mu``, and
    ``dseupd`` maps them back by ``E = sigma + 1/mu`` and purifies the Ritz
    vectors, the partial pairs of an ``ArpackNoConvergence`` included.
    ``sigma`` sits below the Gershgorin bound ``min_i (2 a_ii - sum_j |a_ij|)``,
    so ``H - sigma`` is positive definite and its LU factor needs no
    pivoting.  The symmetric minimum-degree ordering of ``A' + A`` keeps the
    factor's fill (and memory) about half of splu's default COLAMD ordering
    on the wedge stencil.  ``H - sigma`` is symmetric, so the CSC matrix
    splu wants is the transpose view of its CSR arrays; the shifted matrix
    is dropped once factored.  Returns values, vectors, the
    operator-application count and the factor's fill (0 in plain mode).
    """
    from scipy.sparse.linalg import (ArpackError, ArpackNoConvergence,
                                     LinearOperator, eigsh, splu)

    n = op.n
    if n < 2:
        raise DimensionError("iterative eigensolvers need at least 2 unknowns")
    if not np.all(np.isfinite(op.csr.data)):
        raise ValueError("operator has non-finite entries")
    if shift_invert:
        radii = np.asarray(abs(op.csr).sum(axis=1)).ravel()
        lower = float(np.min(2.0 * op.diagonal() - radii))
        sigma = lower - 1e-3 * max(1.0, abs(lower))
        lu = splu((op.csr - sigma * sp.identity(n, format="csr")).T,
                  permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  panel_size=SUPERLU_PANEL_SIZE, options={"SymmetricMode": True})
        apply, fill = lu.solve, lu.nnz
    else:
        apply, fill = op.matvec, 0

    # shift-invert converges in about 30 solves; plain Lanczos restarts less in
    # a larger space (beta=2 wedge, tol 1e-9: 1,142 matvecs at 60, 2,602 at 20)
    ncv = min(n, max(2 * k + 1, 20 if shift_invert else 60))
    n_apply = 0

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
    return vals, vecs, n_apply, fill
