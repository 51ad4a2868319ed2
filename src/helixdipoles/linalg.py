"""Symmetric sparse operators and extraction of their lowest eigenpairs.

The discretized Hamiltonians of this package are real symmetric with local
stencils, so they are stored row-compressed and diagonalized either densely
(small problems), by a direct banded solver (tridiagonal operators), or by
ARPACK's implicitly restarted Lanczos in shift-invert mode (everything
else): the operator is shifted strictly below its Gershgorin bound,
factored once by sparse LU, and the largest eigenvalues of the inverse are
mapped back to the lowest of the operator.  The same ARPACK driver can be
forced to iterate on the operator itself (``lanczos``).  The iterative
start vectors are drawn from a seeded generator and the seed is carried in
the result, so repeated runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal

from .errors import ConvergenceError, DimensionError

#: Problems up to this size go through dense diagonalization.
DENSE_CUTOFF = 2000

#: Default start-vector seed for the iterative path.
DEFAULT_SEED = 20177

#: Iteration cap for the iterative path, counted in operator applications.
DEFAULT_MAX_MATVECS = 100_000


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

    @classmethod
    def from_coo(cls, n: int, rows, cols, vals) -> "SymmetricSparseOperator":
        """Build from triplets; duplicate entries are summed.

        The triplets must describe a symmetric pattern including every
        diagonal entry (explicit zeros are kept so the diagonal stays
        addressable).
        """
        mat = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        op = cls(mat)
        op.validate()
        return op

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

    def tridiagonal_bands(self) -> tuple[np.ndarray, np.ndarray]:
        dense_off = self.csr.diagonal(1)
        return self.diagonal(), dense_off

    def validate(self, tol: float = 1e-15) -> None:
        """Check value symmetry (to ``tol``, relative) and diagonal presence."""
        asym = abs(self.csr - self.csr.T)
        scale = max(1.0, abs(self.csr).max())
        if asym.nnz and asym.max() > tol * scale:
            raise DimensionError("operator is not symmetric")
        # every diagonal entry must be stored explicitly
        rows = np.repeat(np.arange(self.n), np.diff(self.csr.indptr))
        diag_rows = rows[rows == self.csr.indices]
        if diag_rows.size < self.n:
            missing = int(np.flatnonzero(np.bincount(diag_rows, minlength=self.n) == 0)[0])
            raise DimensionError(f"diagonal entry {missing} not stored")


def matvec(op: SymmetricSparseOperator, v: np.ndarray) -> np.ndarray:
    """Sparse product ``op @ v`` (deterministic for a fixed thread setup)."""
    return op.matvec(np.asarray(v, dtype=float))


@dataclass
class EigenResult:
    """Lowest eigenpairs of a symmetric operator.

    ``vectors[:, i]`` is normalized so that
    ``quadrature_weight * sum(vectors[:, i]**2) == 1``; residual norms are
    plain 2-norms ``|H v - E v|`` of the unit-2-norm eigenvectors.
    """

    values: np.ndarray
    vectors: np.ndarray
    residual_norms: np.ndarray
    quadrature_weight: float = 1.0
    method: str = "dense"
    seed: int | None = None
    n_matvec: int = 0


def _canonical_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def _package(op, vals, vecs, weight, method, seed, n_matvec):
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
        quadrature_weight=weight,
        method=method,
        seed=seed,
        n_matvec=n_matvec + len(vals),
    )


def check_k(k: int, n: int) -> None:
    """Raise :class:`DimensionError` unless ``1 <= k <= max(1, n/4)``."""
    if not 1 <= k <= max(1, n // 4):
        raise DimensionError(f"k={k} outside [1, n/4] for n={n}")


def lowest_eigenpairs(
    op: SymmetricSparseOperator,
    k: int,
    tol: float = 1e-9,
    *,
    method: str = "auto",
    seed: int = DEFAULT_SEED,
    quadrature_weight: float = 1.0,
    max_matvecs: int = DEFAULT_MAX_MATVECS,
) -> EigenResult:
    """Compute the ``k`` lowest eigenpairs of a symmetric sparse operator.

    Args:
        op: operator to diagonalize.
        k: number of eigenpairs, ``1 <= k <= n/4``.
        tol: iterative convergence target within ``[1e-12, 1e-4]``, passed
            to ARPACK as the relative accuracy of the Ritz values it
            iterates on: ``E`` for ``lanczos``, ``mu = 1/(E - sigma)`` for
            ``shift-invert``.
        method: ``auto`` (dense up to ``DENSE_CUTOFF`` unknowns, direct
            banded solve for tridiagonal operators, shift-invert otherwise),
            or one of ``dense`` / ``tridiagonal`` / ``shift-invert`` /
            ``lanczos`` to force a path.
        seed: start-vector seed for the shift-invert and Lanczos paths.
        quadrature_weight: per-node quadrature weight used to normalize the
            returned eigenvectors as grid functions.
        max_matvecs: cap on the iterative operator applications: matvecs
            for ``lanczos``, sparse LU solves for ``shift-invert``.

    ``n_matvec`` of the result counts those applications plus the ``k``
    matvecs of the final residual check.

    Raises:
        ConvergenceError: an iterative path hit ``max_matvecs`` or stopped
            before reaching ``tol`` (best pairs are attached to the
            exception).
    """
    n = op.n
    check_k(k, n)
    if not 1e-12 <= tol <= 1e-4:
        raise ValueError("tol must lie in [1e-12, 1e-4]")
    if max_matvecs < 1:
        raise ValueError("max_matvecs must be >= 1")

    if method == "auto":
        if n <= DENSE_CUTOFF:
            method = "dense"
        elif op.is_tridiagonal():
            method = "tridiagonal"
        else:
            method = "shift-invert"

    if method == "dense":
        vals, vecs = np.linalg.eigh(op.to_dense())
        return _package(op, vals[:k], vecs[:, :k], quadrature_weight,
                        "dense", None, 0)
    if method == "tridiagonal":
        if not op.is_tridiagonal():
            raise DimensionError("operator is not tridiagonal")
        diag, off = op.tridiagonal_bands()
        vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1))
        return _package(op, vals, vecs, quadrature_weight,
                        "tridiagonal", None, 0)
    if method in ("shift-invert", "lanczos"):
        vals, vecs, n_mv = _arpack(op, k, tol, seed, max_matvecs,
                                   shift_invert=method == "shift-invert")
        return _package(op, vals, vecs, quadrature_weight, method, seed, n_mv)
    raise ValueError(f"unknown method {method!r}")


class _MatvecCapReached(Exception):
    """Raised from inside ARPACK when the operator-application budget is spent."""


def _arpack(op, k, tol, seed, max_matvecs, shift_invert):
    """ARPACK's implicitly restarted Lanczos for the ``k`` lowest eigenpairs.

    Plain mode iterates on ``H`` for its smallest eigenvalues.  Shift-invert
    mode iterates on ``(H - sigma)^-1`` for its largest eigenvalues ``mu``
    and maps them back by ``E = sigma + 1/mu``: ``sigma`` sits below the
    Gershgorin bound ``min_i (2 a_ii - sum_j |a_ij|)``, so ``H - sigma`` is
    positive definite and its LU factor needs no pivoting.  The symmetric
    minimum-degree ordering of ``A' + A`` keeps the factor's fill (and
    memory) about half of splu's default COLAMD ordering on the wedge
    stencil.  Returns values, vectors and the operator-application count.
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
        lu = splu((op.csr - sigma * sp.identity(n, format="csr")).tocsc(),
                  permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
        apply, which = lu.solve, "LA"
    else:
        apply, which, sigma = op.matvec, "SA", None

    def to_energy(ritz):
        return ritz if sigma is None else sigma + 1.0 / ritz

    # shift-invert converges in about 30 solves; plain Lanczos restarts less in
    # a larger space (beta=2 wedge, tol 1e-9: 1,142 matvecs at 60, 2,602 at 20)
    ncv = min(n, max(2 * k + 1, 20 if shift_invert else 60))
    n_apply = 0
    last = []  # the final ncv outputs before the cap, for Ritz pairs

    def counted(x):
        nonlocal n_apply
        if n_apply >= max_matvecs:
            raise _MatvecCapReached
        n_apply += 1
        y = apply(x)
        if n_apply > max_matvecs - ncv:
            last.append(y)
        return y

    # the seeded generator also draws any restart vector ARPACK asks for
    # after a Lanczos breakdown; unseeded, those would differ run to run
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    try:
        vals, vecs = eigsh(LinearOperator((n, n), matvec=counted, dtype=float),
                           k=k, which=which, ncv=ncv, tol=tol, v0=v0, rng=rng)
    except _MatvecCapReached:
        # Rayleigh-Ritz on the span of the last outputs
        q = np.linalg.qr(np.column_stack(last))[0]
        theta, y = np.linalg.eigh(q.T @ (op.csr @ q))
        kk = min(k, theta.size)
        raise ConvergenceError(
            f"ARPACK did not reach tol={tol:g} within {max_matvecs} "
            "operator applications",
            result=(theta[:kk], q @ y[:, :kk]),
        ) from None
    except ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"ARPACK did not converge: {exc}",
            result=(to_energy(exc.eigenvalues), exc.eigenvectors),
        ) from None
    except ArpackError as exc:
        raise ConvergenceError(f"ARPACK failed: {exc}") from None
    return to_energy(vals), vecs, n_apply
