"""Small dense kernels: symmetric eigendecomposition and Cholesky.

These back the Rayleigh-Ritz projection step and the dense verification
oracle; the solvers call the unvalidated ``*_kernel`` forms on Gram
matrices they symmetrize themselves.  Matrices are plain float64
``numpy.ndarray`` objects of shape ``(rows, cols)``; only indexing
semantics matter, storage order is numpy's business.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DenseCapExceededError,
    DimensionMismatchError,
    NoConvergenceError,
    NonSymmetricError,
    NotPositiveDefiniteError,
)

#: Largest dimension the dense kernels accept.
DENSE_CAP = 2000

#: Relative symmetry slack: |M - M.T| <= SYM_RTOL * max(1, max|M|).
SYM_RTOL = 1e-12

#: Cholesky pivot threshold factor: pivot <= n * PIVOT_RTOL * max|M| fails.
PIVOT_RTOL = 1e-14


@dataclass(frozen=True)
class SymEigResult:
    """All eigenpairs of a symmetric matrix, eigenvalues ascending.

    ``vectors[:, k]`` is the unit eigenvector for ``values[k]``.  For
    degenerate eigenvalues only the spanned invariant subspace is
    meaningful, not the individual columns.
    """

    values: np.ndarray
    vectors: np.ndarray


def _as_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionMismatchError(f"expected a 2-d matrix, got shape {m.shape}")
    return m


def require_symmetric(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Validate the symmetry contract and return the input as float64."""
    m = _as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise NonSymmetricError(f"{what} is not square: shape {m.shape}")
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 1.0)
    skew = float(np.max(np.abs(m - m.T)))
    if skew > SYM_RTOL * scale:
        raise NonSymmetricError(
            f"{what} fails symmetry check: max|M - M.T| = {skew:.3e} > {SYM_RTOL * scale:.3e}"
        )
    return m


def sym_eig(m: np.ndarray) -> SymEigResult:
    """Full eigendecomposition of a symmetric matrix, values ascending.

    Ties keep the kernel's internal ordering (no secondary sort key).
    Deterministic for a fixed input.
    """
    m = _capped(require_symmetric(m))
    # Work on the exactly symmetrized matrix so the decomposition is
    # independent of which triangle LAPACK reads.
    return sym_eig_kernel(0.5 * (m + m.T))


def sym_eig_kernel(sym: np.ndarray) -> SymEigResult:
    """:func:`sym_eig` of an exactly symmetric matrix, unvalidated."""
    try:
        values, vectors = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:  # defect signal, see module tests
        raise NoConvergenceError(f"eigendecomposition did not converge: {exc}") from exc
    return SymEigResult(values=values, vectors=vectors)


def cholesky(m: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L^T = M and strictly positive diagonal.

    Raises NotPositiveDefiniteError at the first pivot L_jj^2 at or below
    ``n * 1e-14 * max|M|``, or when LAPACK finds M not positive definite;
    callers treat that as a rank-deficiency signal and switch to their
    eigendecomposition-based fallback.
    """
    return cholesky_kernel(_capped(require_symmetric(m)))


def cholesky_kernel(m: np.ndarray) -> np.ndarray:
    """:func:`cholesky` of a symmetric matrix, unvalidated; the pivot rule
    still applies."""
    lower, low = cholesky_stack(m)
    if low.any():
        j = np.flatnonzero(low)[0]
        raise NotPositiveDefiniteError(
            f"pivot {lower[j, j] ** 2:.3e} at column {j} is at or below the pivot floor"
        )
    return lower


def cholesky_stack(stack: np.ndarray):
    """The Cholesky factors of a symmetric matrix, or of a ``(k, m, m)``
    stack in one LAPACK call, and the mask of pivots L_jj^2 at or below
    ``m * 1e-14 * max|M|`` (per matrix), which fail :func:`cholesky`'s rule.
    Raises NotPositiveDefiniteError when LAPACK finds a matrix not positive
    definite."""
    pivot_floor = stack.shape[-1] * PIVOT_RTOL * np.abs(stack).max(axis=(-2, -1))
    try:
        lower = np.linalg.cholesky(stack)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"matrix is not positive definite: {exc}") from None
    return lower, lower.diagonal(axis1=-2, axis2=-1) ** 2 <= pivot_floor[..., None]


def _capped(m: np.ndarray) -> np.ndarray:
    if m.shape[0] > DENSE_CAP:
        raise DenseCapExceededError(f"dimension {m.shape[0]} exceeds dense cap {DENSE_CAP}")
    return m
