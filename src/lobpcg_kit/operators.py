"""Symmetric linear operators: sparse matrices, metrics, preconditioners.

Everything the solvers touch is a :class:`LinearOperator`: a symmetric map
of fixed dimension applied to an ``(n, m)`` block of column vectors.  The
solvers hold blocks column-major (each vector contiguous), so ``apply``
may receive an F-ordered block, and so may a :class:`CallableOperator`'s
function.  The sparse, diagonal and identity operators accept either order
and return an F-ordered block for F-ordered input.  Operators are
immutable after construction and safe to share across threads.
Preconditioners are operators too: :func:`jacobi_precond` returns a
:class:`DiagonalOperator`, :func:`exact_inverse_precond` a
:class:`CallableOperator`.
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

#: A jagged-diagonal slot of fewer rows joins the CSR tail: the measured
#: crossover of the two paths, which README gives.
TAIL_ROWS = 1024

#: Entries per pass over the CSR tail, cut at row ends: bounds its gather.
TAIL_PASS_ENTRIES = 1 << 16

#: The diagonal layout is taken while its slots, padding included, number
#: at most this many times nnz: the measured crossover, which README gives.
DIAGONAL_FILL = 2.0


class LinearOperator:
    """Symmetric operator contract: ``apply`` maps (n, m) blocks to (n, m).

    A subclass defines ``apply``; :func:`norm_estimates` estimates the
    identity, diagonal and sparse classes without applying them.
    """

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
    def apply(self, block: np.ndarray) -> np.ndarray:
        return np.array(block, dtype=float, copy=True)


class DiagonalOperator(LinearOperator):
    def __init__(self, diagonal: Sequence[float]):
        diagonal = np.asarray(diagonal, dtype=float)
        super().__init__(diagonal.shape[0])
        self.diagonal_values = diagonal

    def apply(self, block: np.ndarray) -> np.ndarray:
        return (self.diagonal_values[:, None] if block.ndim == 2 else self.diagonal_values) * block

    def diagonal(self) -> np.ndarray:
        return self.diagonal_values.copy()


class CallableOperator(LinearOperator):
    """Matrix-free operator wrapping a user callable on (n, m) blocks."""

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

    ``apply`` runs on a copy of the entries built here in one of two
    layouts, named by ``layout`` and chosen from the pattern alone.  It
    accumulates ``(m, n)``, each column contiguous, in passes, and returns
    the column-major view.

    * ``"diagonal"``, for a pattern on few, nearly full diagonals (a
      stencil or finite-element matrix): one value array per offset
      k = j - i, over rows ``[max(0, -k), min(n, n - k))``, zero where a
      row has no entry at that offset.  A pass adds ``d_k`` times the block
      shifted by k, in ascending k, so each row is summed in column order
      from +0.0 with plain slices.  It is taken when the offsets are no
      more than the longest row's entries and their diagonals hold at most
      :data:`DIAGONAL_FILL` times ``nnz`` slots.  A padded zero meets the
      block too: a NaN or infinity in the block may spread, through
      0 * inf, to rows within the band that A does not couple to it.
    * ``"jagged"``, otherwise: rows sorted by descending length, then
      jagged-diagonal slots (slot k holds the k-th entry of every row
      longer than k, a prefix of the order) of :data:`TAIL_ROWS` rows or
      more, then the thinner slots' entries as one row-sorted CSR tail,
      summed by ``np.add.reduceat`` in passes of about
      :data:`TAIL_PASS_ENTRIES`; a final gather restores the row order.
    """

    def __init__(self, dim: int, row_offsets: np.ndarray, col_indices: np.ndarray,
                 values: np.ndarray):
        super().__init__(dim)
        self.row_offsets = np.asarray(row_offsets, dtype=np.int64)
        self.col_indices = np.asarray(col_indices, dtype=np.int64)
        self.values = np.asarray(values, dtype=float)
        lengths = np.diff(self.row_offsets)
        # a pass is (first row, end row, values, source, row starts): the
        # source is an offset to slice at or columns to gather; row starts
        # only in the jagged tail
        self._passes, self._inverse = self._diagonal_passes(lengths), None
        self.layout = "jagged" if self._passes is None else "diagonal"
        if self._passes is None:
            self._passes, self._inverse = self._jagged_passes(lengths)

    def _diagonal_passes(self, lengths: np.ndarray) -> list | None:
        """The passes of the diagonal layout, or None where the rule of the
        class docstring rejects the pattern."""
        n, longest = self.dim, int(lengths.max())
        # rows mostly far shorter than the longest cannot fill its diagonals
        if longest > DIAGONAL_FILL * self.nnz / n:
            return None
        rows = self.row_indices()
        shifted = self.col_indices - rows + (n - 1)  # offset + n - 1 >= 0
        present = np.flatnonzero(np.bincount(shifted, minlength=2 * n - 1))
        offsets = present - (n - 1)
        spans = n - np.abs(offsets)
        if present.size > longest or spans.sum() > DIAGONAL_FILL * self.nnz:
            return None
        firsts = np.maximum(0, -offsets)
        starts = np.cumsum(spans) - spans
        base = np.zeros(2 * n - 1, dtype=np.int64)
        base[present] = starts - firsts
        slots = np.zeros(int(spans.sum()))
        slots[base[shifted] + rows] = self.values
        return [(int(lo), int(lo + span), slots[at:at + span], int(k), None)
                for lo, span, at, k in zip(firsts, spans, starts, offsets)]

    def _jagged_passes(self, lengths: np.ndarray) -> tuple[list, np.ndarray]:
        """The passes of the jagged layout and the gather that restores
        the row order."""
        order = np.argsort(-lengths, kind="stable")
        inverse = np.empty_like(order)
        inverse[order] = np.arange(self.dim)
        # rows longer than k, for each slot k; non-increasing in k
        counts = self.dim - np.cumsum(np.bincount(lengths))[:-1]
        n_head = int(np.count_nonzero(counts >= TAIL_ROWS))
        slot_ptr = np.concatenate(([0], np.cumsum(counts[:n_head])))
        slot = np.repeat(np.arange(n_head), counts[:n_head])
        at = self.row_offsets[order][np.arange(slot_ptr[-1]) - slot_ptr[slot]] + slot
        jd_cols, jd_vals = self.col_indices[at], self.values[at]
        passes = [(0, int(hi - lo), jd_vals[lo:hi], jd_cols[lo:hi], None)
                  for lo, hi in zip(slot_ptr[:-1], slot_ptr[1:])]
        if n_head < counts.size:  # the longest rows' entries past the head slots
            rows = order[:counts[n_head]]
            tail = lengths[rows] - n_head
            starts = np.cumsum(tail) - tail
            at = np.repeat(self.row_offsets[rows] + n_head - starts, tail) + np.arange(tail.sum())
            vals, cols, ptr = self.values[at], self.col_indices[at], np.r_[starts, at.size]
            cuts = np.r_[0, np.flatnonzero(np.diff(starts // TAIL_PASS_ENTRIES)) + 1, rows.size]
            passes += [(lo, hi, vals[ptr[lo]:ptr[hi]], cols[ptr[lo]:ptr[hi]],
                        starts[lo:hi] - starts[lo]) for lo, hi in zip(cuts[:-1], cuts[1:])]
        return passes, inverse

    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    def apply(self, block: np.ndarray) -> np.ndarray:
        block = np.asarray(block, dtype=float)
        by_column = block.reshape(block.shape[0], -1).T  # (m, n)
        acc = np.zeros((by_column.shape[0], self.dim))
        for lo, hi, vals, source, starts in self._passes:
            # in place through a view: `acc[:, lo:hi] +=` would copy it back
            rows = acc[:, lo:hi]
            rows += _pass_terms(by_column, lo, hi, vals, source, starts)
        out = (acc if self._inverse is None else acc.take(self._inverse, axis=1)).T
        return out[:, 0] if block.ndim == 1 else out

    def row_indices(self) -> np.ndarray:
        """Row of every stored entry, aligned with ``col_indices``."""
        return np.repeat(np.arange(self.dim), np.diff(self.row_offsets))

    def diagonal(self) -> np.ndarray:
        rows = self.row_indices()
        on_diag = rows == self.col_indices
        diag = np.zeros(self.dim)
        diag[rows[on_diag]] = self.values[on_diag]
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
        yield from zip(self.row_indices().tolist(), self.col_indices.tolist(),
                       self.values.tolist())


def _pass_terms(by_column: np.ndarray, lo: int, hi: int, vals: np.ndarray, source,
                starts: np.ndarray | None) -> np.ndarray:
    """A pass's terms for rows ``lo:hi`` of an ``(m, n)`` block: ``vals``
    times the block sliced at offset ``source`` (an int), or gathered at
    columns ``source`` and, with row ``starts``, summed per row.  Returned
    for the caller to add, so that it is freed before the next pass."""
    if isinstance(source, int):
        return by_column[:, lo + source:hi + source] * vals
    terms = by_column.take(source, axis=1)
    terms *= vals
    return terms if starts is None else np.add.reduceat(terms, starts, axis=1)


#: One (i, j, value) record of coordinate input.
_TRIPLET = np.dtype([("i", np.int64), ("j", np.int64), ("v", float)])
#: The same record as read from an iterable: float indices keep a fraction,
#: a NaN or an infinity visible instead of casting it away.
_RAW_TRIPLET = np.dtype([("i", float), ("j", float), ("v", float)])


def _coo_columns(records: Iterable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, column and value arrays of (i, j, value) records: a ``_TRIPLET``
    array as it is, or any iterable of triples, whose indices must be
    integers in the int64 range (IndexOutOfRangeError names the first
    record with another index)."""
    if isinstance(records, np.ndarray) and records.dtype == _TRIPLET:
        return records["i"], records["j"], records["v"]
    records = records if isinstance(records, list) else list(records)
    try:
        raw = np.fromiter(map(tuple, records), _RAW_TRIPLET, len(records))
    except OverflowError:  # an integer beyond the float range: as an index, inf
        raw = np.array([(*(x if abs(x) < 2**63 else np.inf for x in r[:2]), r[2])
                        for r in map(tuple, records)], _RAW_TRIPLET)
    i, j = raw["i"], raw["j"]
    bad = (np.trunc(i) != i) | (np.trunc(j) != j) | ~(np.maximum(abs(i), abs(j)) < 2.0**63)
    if bad.any():
        i, j = tuple(records[int(np.argmax(bad))])[:2]
        raise IndexOutOfRangeError(
            f"entry ({i}, {j}) has an index that is not an integer in the int64 range")
    return i.astype(np.int64), j.astype(np.int64), raw["v"]


def _merge_duplicates(n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray):
    """Sum duplicate entries and pair every distinct entry with its mirror.

    Returns ``(keys, inverse, sums, mirror_sums, paired)``: the distinct keys
    ``i * n + j`` ascending (so in CSR order), each input entry's position
    among them, their values summed in input order, the summed value at the
    mirrored key and whether that key was supplied.  A diagonal key is its
    own mirror.
    """
    keys, inverse = np.unique(rows * n + cols, return_inverse=True)
    sums = np.bincount(inverse, weights=vals, minlength=keys.size)
    mirror = (keys % n) * n + keys // n
    at = np.minimum(np.searchsorted(keys, mirror), keys.size - 1)
    paired = keys[at] == mirror
    return keys, inverse, sums, sums[at], paired


def _mirrors_disagree(sums: np.ndarray, mirror_sums: np.ndarray, rtol: float) -> np.ndarray:
    """Where two mirrored values differ by more than ``rtol`` relative; a
    value that is not finite agrees only with an equal one."""
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, huge - -huge
        gap = np.abs(sums - mirror_sums)
    close = gap <= rtol * np.maximum(np.abs(sums), np.abs(mirror_sums))
    return ~(close & np.isfinite(gap) | (sums == mirror_sums))


def _assemble(n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> SparseSymMatrix:
    """The array core of :func:`csr_from_coo` (see there)."""
    if n < 1:
        raise IndexOutOfRangeError(f"matrix dimension must be >= 1, got {n}")
    outside = (rows < 0) | (rows >= n) | (cols < 0) | (cols >= n)
    if outside.any():
        k = int(np.argmax(outside))
        raise IndexOutOfRangeError(f"entry ({rows[k]}, {cols[k]}) outside [0, {n})")
    keys, inverse, sums, mirror_sums, paired = _merge_duplicates(n, rows, cols, vals)
    two_sided = paired & (keys % n != keys // n)
    clash = two_sided & _mirrors_disagree(sums, mirror_sums, MIRROR_RTOL)
    if clash.any():
        k = inverse[np.argmax(clash[inverse])]
        raise AsymmetricValuesError(
            f"entries ({keys[k] // n},{keys[k] % n})={float(sums[k])!r} and "
            f"({keys[k] % n},{keys[k] // n})={float(mirror_sums[k])!r} disagree"
        )
    # equal pairs are kept exactly; others are halved first, so cannot overflow
    values = np.where(two_sided & (sums != mirror_sums), 0.5 * sums + 0.5 * mirror_sums, sums)
    # an entry supplied on one side only is copied across
    mirrored = keys[~paired]
    keys = np.concatenate([keys, (mirrored % n) * n + mirrored // n])
    values = np.concatenate([values, sums[~paired]])
    order = np.argsort(keys)
    rows, cols = np.divmod(keys[order], n)
    return SparseSymMatrix(n, np.searchsorted(rows, np.arange(n + 1)), cols, values[order])


def csr_from_coo(n: int, triplets: Iterable[tuple[int, int, float]]) -> SparseSymMatrix:
    """Assemble a symmetric CSR matrix from (i, j, value) triplets, or the
    record array a reader returns.

    Duplicates are summed in input order.  When only one of (i, j) / (j, i)
    is supplied the entry is mirrored; when both are supplied their
    (duplicate-summed) values must agree to 1e-12 relative or
    AsymmetricValuesError is raised, and are averaged.  Errors name the
    first offending entry in input order.
    """
    return _assemble(n, *_coo_columns(triplets))


def op_apply(op: LinearOperator, block: np.ndarray) -> np.ndarray:
    """Apply ``op`` to a block vector after checking its row count.

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


def norm_estimates(op: LinearOperator) -> float:
    """Cheap 2-norm estimate by operator class: 1 for the identity, the
    largest magnitude of a diagonal, the max row 1-norm of a sparse matrix,
    and a short deterministic power iteration for any other operator.

    Guaranteed within a factor of the dimension of the true 2-norm.
    """
    if isinstance(op, IdentityOperator):
        return 1.0
    if isinstance(op, DiagonalOperator):
        return float(np.max(np.abs(op.diagonal_values)))
    if isinstance(op, SparseSymMatrix):
        return op.max_row_l1()
    rng = np.random.default_rng(1905)
    vec = rng.standard_normal((op.dim, 1))
    vec /= np.linalg.norm(vec)
    estimate = 0.0
    for _ in range(10):
        nxt = op.apply(vec)
        estimate = float(np.linalg.norm(nxt))
        if estimate == 0.0:
            return 0.0
        vec = nxt / estimate
    return estimate


def jacobi_precond(matrix) -> DiagonalOperator:
    """Inverse-diagonal preconditioner with a unit fallback.

    ``matrix`` is an operator with a ``diagonal()`` method or the 1-d
    diagonal itself.  Every positive entry whose reciprocal is finite, however
    small, gets that reciprocal; a zero, negative or NaN entry, or one whose
    reciprocal overflows, gets 1 and sets the ``nonpositive_diagonal``
    warning flag on the result.  The reciprocals are its ``diagonal_values``.
    """
    if isinstance(matrix, LinearOperator):
        diag = np.asarray(matrix.diagonal(), dtype=float)
    else:
        diag = np.asarray(matrix, dtype=float)
        if diag.ndim != 1:
            raise DimensionMismatchError(f"expected a 1-d diagonal, got shape {diag.shape}")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inverse = 1.0 / diag
    usable = (diag > 0) & np.isfinite(inverse)
    pre = DiagonalOperator(np.where(usable, inverse, 1.0))
    pre.nonpositive_diagonal = bool(np.any(~usable))
    return pre


def exact_inverse_precond(op: LinearOperator) -> CallableOperator:
    """Dense A^{-1} via Cholesky; only valid up to the dense cap.

    Meant for tests and acceptance runs as the "ideal" preconditioner.
    """
    dense = op.to_dense()
    lower = cholesky(0.5 * (dense + dense.T))

    def solve(block: np.ndarray) -> np.ndarray:
        halfway = np.linalg.solve(lower, block)
        return np.linalg.solve(lower.T, halfway)

    return CallableOperator(op.dim, solve)


def laplacian_from_edges(n: int, edges: Iterable[tuple[int, int, float]]) -> SparseSymMatrix:
    """Weighted graph Laplacian L = D - W from an undirected edge list.

    Parallel edges are summed in input order.  L is symmetric positive
    semidefinite and annihilates the constant vector.  Errors name the
    first bad edge in input order; a weight must be finite and not
    negative.
    """
    u, v, w = _coo_columns(edges)
    bad = (u == v) | (u < 0) | (u >= n) | (v < 0) | (v >= n) | ~((w >= 0) & (w < np.inf))
    if bad.any():
        k = int(np.argmax(bad))
        uk, vk, wk = int(u[k]), int(v[k]), float(w[k])
        if uk == vk:
            raise SelfLoopError(f"self loop at vertex {uk}")
        if not (0 <= uk < n and 0 <= vk < n):
            raise IndexOutOfRangeError(f"edge ({uk}, {vk}) outside [0, {n})")
        kind = "negative" if wk < 0 else "non-finite"
        raise NegativeWeightError(f"edge ({uk}, {vk}) has {kind} weight {wk}")
    if not u.size:
        # Edgeless graph: the all-zero Laplacian.
        return _assemble(n, np.zeros(1, np.int64), np.zeros(1, np.int64), np.zeros(1))
    return SparseSymMatrix(n, *_laplacian_csr(n, u, v, w))


def _radix_order(keys: np.ndarray, top: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` of non-negative int64 keys of at
    most ``top``: stable argsorts of their 16-bit digits, least significant
    first, which numpy runs as radix sorts, as many as ``top`` needs."""
    order = np.arange(keys.size)
    for shift in range(0, max(int(top).bit_length(), 1), 16):
        digit = (keys >> shift).astype(np.uint16)  # the low 16 bits
        order = order[np.argsort(digit[order], kind="stable")]
    return order


def _laplacian_csr(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray):
    """Row offsets, columns and values of the Laplacian of valid edges.

    The input is symmetric by construction, so there is no mirror search:
    per edge, in input order, keys (u, v) and (v, u) hold -w, and one
    diagonal key per vertex with an edge holds its degree; they are put in
    CSR order by :func:`_radix_order`.  ``np.bincount``
    sums in input order from +0.0, so every entry is bit for bit the sum
    :func:`csr_from_coo` forms from the four triplets per edge.  Its
    temporaries are freed before :class:`SparseSymMatrix` builds its copy.
    """
    ends = np.column_stack([u, v]).ravel()
    touched = np.flatnonzero(np.bincount(ends, minlength=n))
    degree = np.bincount(ends, weights=np.repeat(w, 2), minlength=n)[touched]
    keys = np.concatenate([ends * n + np.column_stack([v, u]).ravel(), touched * (n + 1)])
    order = _radix_order(keys, n * n - 1)
    keys = keys[order]
    fresh = np.r_[True, keys[1:] != keys[:-1]]
    values = np.bincount(np.cumsum(fresh) - 1,
                         weights=np.concatenate([np.repeat(-w, 2), degree])[order])
    rows, cols = np.divmod(keys[fresh], n)
    return np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n)))), cols, values
