"""Symmetric linear operators: sparse matrices, metrics, preconditioners.

Everything the solvers touch is a :class:`LinearOperator`: a symmetric map
of fixed dimension applied to an ``(n, m)`` block of column vectors.
Operators are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .dense import DENSE_CAP, cholesky
from .errors import (
    AsymmetricValuesError,
    DenseCapExceededError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    NegativeWeightError,
    SelfLoopError,
)

#: Relative tolerance for declaring two mirrored entries "the same value".
MIRROR_RTOL = 1e-12


class LinearOperator:
    """Symmetric operator contract: ``apply`` maps (n, m) blocks to (n, m).

    ``kind`` is one of ``identity``, ``diagonal``, ``sparse_sym`` or
    ``composite`` and steers norm estimation and densification shortcuts.
    """

    kind = "composite"

    def __init__(self, dim: int):
        if dim < 1:
            raise DimensionMismatchError(f"operator dimension must be >= 1, got {dim}")
        self.dim = int(dim)

    def apply(self, block: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def to_dense(self) -> np.ndarray:
        """Materialize the operator by applying it to identity columns."""
        if self.dim > DENSE_CAP:
            raise DenseCapExceededError(
                f"dimension {self.dim} exceeds dense cap {DENSE_CAP}"
            )
        return self.apply(np.eye(self.dim))


class IdentityOperator(LinearOperator):
    kind = "identity"

    def apply(self, block: np.ndarray) -> np.ndarray:
        return np.array(block, dtype=float, copy=True)


class DiagonalOperator(LinearOperator):
    kind = "diagonal"

    def __init__(self, diagonal: Sequence[float]):
        diagonal = np.asarray(diagonal, dtype=float)
        super().__init__(diagonal.shape[0])
        self.diagonal_values = diagonal

    def apply(self, block: np.ndarray) -> np.ndarray:
        return self.diagonal_values[:, None] * block

    def diagonal(self) -> np.ndarray:
        return self.diagonal_values.copy()


class CallableOperator(LinearOperator):
    """Matrix-free operator wrapping a user callable on (n, m) blocks."""

    kind = "composite"

    def __init__(self, dim: int, func: Callable[[np.ndarray], np.ndarray]):
        super().__init__(dim)
        self._func = func

    def apply(self, block: np.ndarray) -> np.ndarray:
        out = np.asarray(self._func(np.asarray(block, dtype=float)), dtype=float)
        if out.shape != block.shape:
            raise DimensionMismatchError(
                f"operator callable returned shape {out.shape}, expected {block.shape}"
            )
        return out


class SparseSymMatrix(LinearOperator):
    """CSR storage of the full symmetric pattern (both triangles).

    ``row_offsets`` has ``dim + 1`` entries; ``col_indices`` are strictly
    increasing within each row; the pattern and values are symmetric.
    Construct through :func:`csr_from_coo`.
    """

    kind = "sparse_sym"

    def __init__(self, dim: int, row_offsets: np.ndarray, col_indices: np.ndarray,
                 values: np.ndarray):
        super().__init__(dim)
        self.row_offsets = np.asarray(row_offsets, dtype=np.int64)
        self.col_indices = np.asarray(col_indices, dtype=np.int64)
        self.values = np.asarray(values, dtype=float)

    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    def apply(self, block: np.ndarray) -> np.ndarray:
        block = np.asarray(block, dtype=float)
        single = block.ndim == 1
        if single:
            block = block[:, None]
        out = np.zeros((self.dim, block.shape[1]))
        if self.nnz:
            products = self.values[:, None] * block[self.col_indices, :]
            counts = np.diff(self.row_offsets)
            nonempty = np.flatnonzero(counts)
            starts = self.row_offsets[:-1][nonempty]
            out[nonempty] = np.add.reduceat(products, starts, axis=0)
        return out[:, 0] if single else out

    def diagonal(self) -> np.ndarray:
        diag = np.zeros(self.dim)
        for i in range(self.dim):
            lo, hi = self.row_offsets[i], self.row_offsets[i + 1]
            hits = np.searchsorted(self.col_indices[lo:hi], i)
            if hits < hi - lo and self.col_indices[lo + hits] == i:
                diag[i] = self.values[lo + hits]
        return diag

    def max_row_l1(self) -> float:
        if not self.nnz:
            return 0.0
        sums = np.add.reduceat(
            np.abs(self.values),
            self.row_offsets[:-1][np.flatnonzero(np.diff(self.row_offsets))],
        )
        return float(np.max(sums))

    def entries(self) -> Iterable[tuple[int, int, float]]:
        """Yield (row, col, value) over the stored full pattern."""
        for i in range(self.dim):
            for k in range(self.row_offsets[i], self.row_offsets[i + 1]):
                yield i, int(self.col_indices[k]), float(self.values[k])


def csr_from_coo(n: int, triplets: Iterable[tuple[int, int, float]]) -> SparseSymMatrix:
    """Assemble a symmetric CSR matrix from (i, j, value) triplets.

    Duplicates are summed.  When only one of (i, j) / (j, i) is supplied
    the entry is mirrored; when both are supplied their (duplicate-summed)
    values must agree to 1e-12 relative or AsymmetricValuesError is raised.
    """
    if n < 1:
        raise IndexOutOfRangeError(f"matrix dimension must be >= 1, got {n}")
    accum: dict[tuple[int, int], float] = {}
    for i, j, v in triplets:
        i, j = int(i), int(j)
        if not (0 <= i < n and 0 <= j < n):
            raise IndexOutOfRangeError(f"entry ({i}, {j}) outside [0, {n})")
        accum[(i, j)] = accum.get((i, j), 0.0) + float(v)

    sym: dict[tuple[int, int], float] = {}
    for (i, j), v in accum.items():
        if i == j:
            sym[(i, j)] = v
            continue
        mirrored = accum.get((j, i))
        if mirrored is None:
            sym[(i, j)] = v
            sym[(j, i)] = v
        else:
            if abs(v - mirrored) > MIRROR_RTOL * max(abs(v), abs(mirrored)):
                raise AsymmetricValuesError(
                    f"entries ({i},{j})={v!r} and ({j},{i})={mirrored!r} disagree"
                )
            avg = 0.5 * (v + mirrored)
            sym[(i, j)] = avg
            sym[(j, i)] = avg

    keys = sorted(sym)
    rows = np.array([k[0] for k in keys], dtype=np.int64)
    cols = np.array([k[1] for k in keys], dtype=np.int64)
    vals = np.array([sym[k] for k in keys], dtype=float)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.add.at(offsets, rows + 1, 1)
    offsets = np.cumsum(offsets)
    return SparseSymMatrix(n, offsets, cols, vals)


def op_apply(op: LinearOperator, block: np.ndarray) -> np.ndarray:
    """Apply ``op`` column-by-column to a block vector.

    A 1-d input is treated as a single column and returned 1-d.
    """
    block = np.asarray(block, dtype=float)
    single = block.ndim == 1
    if single:
        block = block[:, None]
    if block.shape[0] != op.dim:
        raise DimensionMismatchError(
            f"operator dimension {op.dim} does not match block rows {block.shape[0]}"
        )
    out = op.apply(block)
    return out[:, 0] if single else out


class Preconditioner:
    """SPD operator applied to residual blocks to speed convergence.

    Kinds: ``none`` (identity), ``jacobi`` (reciprocal diagonal) and
    ``exact_inverse`` (dense Cholesky solve, test scale only).
    """

    def __init__(self, dim: int, kind: str, apply_func: Callable[[np.ndarray], np.ndarray],
                 nonpositive_diagonal: bool = False):
        self.dim = int(dim)
        self.kind = kind
        self._apply = apply_func
        #: Warning flag: the source diagonal had zero/negative entries and
        #: the unit fallback was used for them.
        self.nonpositive_diagonal = nonpositive_diagonal

    def apply(self, block: np.ndarray) -> np.ndarray:
        block = np.asarray(block, dtype=float)
        if block.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"preconditioner dimension {self.dim} does not match block rows {block.shape[0]}"
            )
        return self._apply(block)


def identity_precond(dim: int) -> Preconditioner:
    return Preconditioner(dim, "none", lambda block: np.array(block, copy=True))


def jacobi_precond(matrix) -> Preconditioner:
    """Inverse-diagonal preconditioner with a unit fallback.

    ``matrix`` is an operator with a ``diagonal()`` method or the 1-d
    diagonal itself.  Entries with diagonal <= 1e-300 (zero or negative)
    get reciprocal 1 and set the ``nonpositive_diagonal`` warning flag on
    the result.
    """
    if isinstance(matrix, LinearOperator):
        diag = np.asarray(matrix.diagonal(), dtype=float)
    else:
        diag = np.asarray(matrix, dtype=float)
        if diag.ndim != 1:
            raise DimensionMismatchError(f"expected a 1-d diagonal, got shape {diag.shape}")
    usable = diag > 1e-300
    recip = np.where(usable, 1.0 / np.where(usable, diag, 1.0), 1.0)
    pre = Preconditioner(
        diag.shape[0],
        "jacobi",
        lambda block: recip[:, None] * block,
        nonpositive_diagonal=bool(np.any(~usable)),
    )
    pre.diagonal_reciprocals = recip
    return pre


def exact_inverse_precond(op: LinearOperator) -> Preconditioner:
    """Dense A^{-1} via Cholesky; only valid up to the dense cap.

    Meant for tests and acceptance runs as the "ideal" preconditioner.
    """
    dense = op.to_dense()
    lower = cholesky(0.5 * (dense + dense.T))

    def solve(block: np.ndarray) -> np.ndarray:
        halfway = np.linalg.solve(lower, block)
        return np.linalg.solve(lower.T, halfway)

    return Preconditioner(op.dim, "exact_inverse", solve)


def laplacian_from_edges(n: int, edges: Iterable[tuple[int, int, float]]) -> SparseSymMatrix:
    """Weighted graph Laplacian L = D - W from an undirected edge list.

    Parallel edges are summed.  L is symmetric positive semidefinite and
    annihilates the constant vector.
    """
    triplets: list[tuple[int, int, float]] = []
    for u, v, w in edges:
        u, v, w = int(u), int(v), float(w)
        if u == v:
            raise SelfLoopError(f"self loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise IndexOutOfRangeError(f"edge ({u}, {v}) outside [0, {n})")
        if w < 0:
            raise NegativeWeightError(f"edge ({u}, {v}) has negative weight {w}")
        triplets += [(u, v, -w), (v, u, -w), (u, u, w), (v, v, w)]
    if not triplets:
        # Edgeless graph: the all-zero Laplacian.
        triplets = [(0, 0, 0.0)]
    return csr_from_coo(n, triplets)
