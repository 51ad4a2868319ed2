"""Symmetric sparse operators and extraction of their lowest eigenpairs.

The discretized Hamiltonians of this package are real symmetric with local
stencils, so they are stored row-compressed and diagonalized either densely
(small problems), by a direct banded solver (tridiagonal operators), or by
ARPACK in shift-invert mode (everything else): the operator is shifted
strictly below its Gershgorin bound, factored once by sparse LU, and the
largest eigenvalues of the inverse are mapped back to the lowest of the
operator.  Thick-restart Lanczos with full reorthogonalization remains
available as a forced path.  The iterative start vectors are drawn from a
seeded generator and the seed is carried in the result, so repeated runs
are reproducible.
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


def lowest_eigenpairs(
    op: SymmetricSparseOperator,
    k: int,
    tol: float = 1e-9,
    *,
    method: str = "auto",
    seed: int = DEFAULT_SEED,
    quadrature_weight: float = 1.0,
    max_basis: int | None = None,
    max_matvecs: int = DEFAULT_MAX_MATVECS,
) -> EigenResult:
    """Compute the ``k`` lowest eigenpairs of a symmetric sparse operator.

    Args:
        op: operator to diagonalize.
        k: number of eigenpairs, ``1 <= k <= n/4``.
        tol: iterative convergence target within ``[1e-12, 1e-4]``: the
            Lanczos residual relative to the operator-norm estimate, or
            ARPACK's relative accuracy of the shift-inverted eigenvalues.
        method: ``auto`` (dense up to ``DENSE_CUTOFF`` unknowns, direct
            banded solve for tridiagonal operators, shift-invert otherwise),
            or one of ``dense`` / ``tridiagonal`` / ``shift-invert`` /
            ``lanczos`` to force a path.
        seed: start-vector seed for the shift-invert and Lanczos paths.
        quadrature_weight: per-node quadrature weight used to normalize the
            returned eigenvectors as grid functions.
        max_basis: Lanczos basis size (Lanczos only).
        max_matvecs: cap on the iterative operator applications: matvecs
            for Lanczos, sparse LU solves for shift-invert.

    ``n_matvec`` of the result counts those applications plus the ``k``
    matvecs of the final residual check.

    Raises:
        ConvergenceError: an iterative path hit ``max_matvecs`` or stopped
            before reaching ``tol`` (best pairs are attached to the
            exception).
    """
    n = op.n
    if not 1 <= k <= max(1, n // 4):
        raise DimensionError(f"k={k} outside [1, n/4] for n={n}")
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
    if method == "shift-invert":
        vals, vecs, n_mv = _shift_invert_arpack(op, k, tol, seed, max_matvecs)
        return _package(op, vals, vecs, quadrature_weight,
                        "shift-invert", seed, n_mv)
    if method == "lanczos":
        vals, vecs, n_mv = _thick_restart_lanczos(op, k, tol, seed, max_basis, max_matvecs)
        return _package(op, vals, vecs, quadrature_weight,
                        "lanczos", seed, n_mv)
    raise ValueError(f"unknown method {method!r}")


class _SolveCapReached(Exception):
    """Raised from inside ARPACK when the LU-solve budget is spent."""


def _shift_invert_arpack(op, k, tol, seed, max_matvecs):
    """ARPACK on ``(H - sigma)^-1`` with ``sigma`` strictly below the spectrum.

    ``sigma`` sits below the Gershgorin bound ``min_i (2 a_ii - sum_j |a_ij|)``,
    so ``H - sigma`` is positive definite and its LU factor needs no
    pivoting.  The symmetric minimum-degree ordering of ``A' + A`` keeps the
    factor's fill (and memory) about half of splu's default COLAMD ordering
    on the wedge stencil.  The largest eigenvalues ``mu`` of the inverse give
    ``E = sigma + 1/mu``.  Returns values, vectors and the LU-solve count.
    """
    from scipy.sparse.linalg import (ArpackError, ArpackNoConvergence,
                                     LinearOperator, eigsh, splu)

    n = op.n
    if n < 2:
        raise DimensionError("shift-invert needs at least 2 unknowns")
    if not np.all(np.isfinite(op.csr.data)):
        raise ValueError("operator has non-finite entries")
    radii = np.asarray(abs(op.csr).sum(axis=1)).ravel()
    lower = float(np.min(2.0 * op.diagonal() - radii))
    sigma = lower - 1e-3 * max(1.0, abs(lower))
    lu = splu((op.csr - sigma * sp.identity(n, format="csr")).tocsc(),
              permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})

    ncv = min(n, max(2 * k + 1, 20))
    n_solve = 0
    last = []  # outputs of the final ncv solves before the cap, for Ritz pairs

    def solve(x):
        nonlocal n_solve
        if n_solve >= max_matvecs:
            raise _SolveCapReached
        n_solve += 1
        y = lu.solve(x)
        if n_solve > max_matvecs - ncv:
            last.append(y)
        return y

    inverse = LinearOperator((n, n), matvec=solve, dtype=float)
    v0 = np.random.default_rng(seed).standard_normal(n)
    try:
        mu, vecs = eigsh(inverse, k=k, which="LA", ncv=ncv, tol=tol, v0=v0)
    except _SolveCapReached:
        # Rayleigh-Ritz on the span of the last solve outputs
        q = np.linalg.qr(np.column_stack(last))[0]
        theta, y = np.linalg.eigh(q.T @ (op.csr @ q))
        kk = min(k, theta.size)
        raise ConvergenceError(
            f"shift-invert did not reach tol={tol:g} within {max_matvecs} LU solves",
            result=(theta[:kk], q @ y[:, :kk]),
        ) from None
    except ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"shift-invert ARPACK did not converge: {exc}",
            result=(sigma + 1.0 / exc.eigenvalues, exc.eigenvectors),
        ) from None
    except ArpackError as exc:
        raise ConvergenceError(f"shift-invert ARPACK failed: {exc}") from None
    return sigma + 1.0 / mu, vecs, n_solve


def _thick_restart_lanczos(op, k, tol, seed, max_basis, max_matvecs,
                           check_every: int = 8):
    """Thick-restart Lanczos with full (two-pass) reorthogonalization.

    Maintains the projected matrix T = V' A V explicitly; when the basis is
    full it is compressed to the ``keep`` lowest Ritz vectors plus the
    running residual direction, which couples to them through an arrowhead
    row of T.  Convergence is declared from the standard residual estimates
    ``|beta * y_last|`` against ``tol`` times the running operator-norm
    estimate.
    """
    n = op.n
    if max_basis is None:
        max_basis = min(n, max(120, 10 * k + 60))
    max_basis = min(max_basis, n)
    keep = min(k + 10, max_basis // 2)

    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)

    V = np.empty((n, max_basis))
    T = np.zeros((max_basis, max_basis))
    V[:, 0] = v
    j = 0  # index of the newest basis column
    n_mv = 0
    norm_est = 0.0

    def ritz(m):
        theta, Y = np.linalg.eigh(T[:m, :m])
        return theta, Y

    while n_mv < max_matvecs:
        w = op.matvec(V[:, j])
        n_mv += 1
        T[j, j] = float(V[:, j] @ w)
        # full reorthogonalization, two passes
        for _ in range(2):
            w -= V[:, : j + 1] @ (V[:, : j + 1].T @ w)
        beta = float(np.linalg.norm(w))

        m = j + 1
        basis_full = m >= max_basis
        breakdown = beta < 1e-13 * max(norm_est, 1.0)
        check = m >= k + 2 and (basis_full or breakdown or m % check_every == 0
                                or n_mv >= max_matvecs)
        if check:
            theta, Y = ritz(m)
            norm_est = max(norm_est, float(np.abs(theta).max()))
            res_est = np.abs(beta * Y[m - 1, :k])
            if np.all(res_est <= tol * max(norm_est, 1e-30)):
                return theta[:k], V[:, :m] @ Y[:, :k], n_mv

        if basis_full or breakdown:
            theta, Y = ritz(m)
            norm_est = max(norm_est, float(np.abs(theta).max()))
            if breakdown:
                # invariant subspace reached: inject a fresh random direction
                w = rng.standard_normal(n)
                for _ in range(2):
                    w -= V[:, :m] @ (V[:, :m].T @ w)
                wnorm = float(np.linalg.norm(w))
                if wnorm < 1e-14 or m >= n:
                    kk = min(k, m)
                    return theta[:kk], V[:, :m] @ Y[:, :kk], n_mv
                w /= wnorm
                beta = 0.0
            else:
                w /= beta
            nk = min(keep, m - 1) if m > 1 else 1
            V[:, :nk] = V[:, :m] @ Y[:, :nk]
            V[:, nk] = w
            T[: nk + 1, : nk + 1] = 0.0
            T[np.arange(nk), np.arange(nk)] = theta[:nk]
            T[nk, :nk] = beta * Y[m - 1, :nk]
            T[:nk, nk] = T[nk, :nk]
            j = nk
        else:
            w /= beta
            T[j + 1, j] = T[j, j + 1] = beta
            j += 1
            V[:, j] = w

    m = j + 1
    theta, Y = ritz(m)
    kk = min(k, m)
    X = V[:, :m] @ Y[:, :kk]
    res = np.array([np.linalg.norm(op.matvec(X[:, i]) - theta[i] * X[:, i])
                    for i in range(kk)])
    raise ConvergenceError(
        f"Lanczos did not reach tol={tol:g} within {max_matvecs} matvecs "
        f"(best residual norms {res})",
        result=(theta[:kk], X),
    )
