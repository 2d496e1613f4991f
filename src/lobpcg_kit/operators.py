"""Symmetric linear operators: sparse matrices, metrics, preconditioners.

Everything the solvers touch is a :class:`LinearOperator`: a symmetric map
of fixed dimension applied to an ``(n, m)`` block of column vectors.  The
solvers hold blocks column-major (each vector contiguous), so ``apply``
may receive an F-ordered block, and so may a :class:`CallableOperator`'s
function.  The sparse, diagonal and identity operators accept either order
and return an F-ordered block for F-ordered input.  ``apply_into`` writes
the same product into a block the caller holds, such as a member of a
solver's stack.  Operators are immutable after construction and safe to
share across threads.
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
    InvalidConfigError,
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
    identity, diagonal and sparse classes without applying them.  A class
    whose ``apply`` is backed by a product kernel also defines
    ``_write_product(block, out)``, which :meth:`apply_into` then runs.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise DimensionMismatchError(f"operator dimension must be >= 1, got {dim}")
        self.dim = int(dim)

    def apply(self, block: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply_into(self, block: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write ``apply(block)`` into ``out`` and return ``out``, as BLOPEX
        operators write into an output multivector the caller holds.

        ``out`` is a float64 array of the block's shape, in either order,
        that shares no memory with the block (DimensionMismatchError
        otherwise).  The class's product kernel writes it directly when
        the class that defines ``apply`` defines the kernel too; otherwise,
        as for an instance whose ``apply`` was replaced or a subclass that
        overrides it, the product goes through ``apply`` and is copied in.
        """
        block = np.asarray(block, dtype=float)
        if block.shape[0] != self.dim or out.shape != block.shape or out.dtype != float:
            raise DimensionMismatchError(
                f"operator dimension {self.dim}: cannot write the product of a "
                f"{block.shape} block into a {out.dtype} {out.shape} one")
        if np.shares_memory(block, out):
            raise DimensionMismatchError("out shares memory with the block")
        if "apply" not in vars(self) and _writes_natively(type(self)):
            self._write_product(block, out)
        else:
            out[...] = self.apply(block)
        return out

    def to_dense(self) -> np.ndarray:
        """Materialize the operator by applying it to identity columns."""
        if self.dim > DENSE_CAP:
            raise DenseCapExceededError(
                f"dimension {self.dim} exceeds dense cap {DENSE_CAP}"
            )
        return self.apply(np.eye(self.dim))


def _writes_natively(cls: type) -> bool:
    """Whether the class that gives ``cls`` its ``apply`` defines the
    product kernel behind it, ``_write_product``."""
    return "_write_product" in vars(next(k for k in cls.__mro__ if "apply" in vars(k)))


class IdentityOperator(LinearOperator):
    def apply(self, block: np.ndarray) -> np.ndarray:
        return np.array(block, dtype=float, copy=True)

    def _write_product(self, block: np.ndarray, out: np.ndarray) -> None:
        np.copyto(out, block)


class DiagonalOperator(LinearOperator):
    def __init__(self, diagonal: Sequence[float]):
        diagonal = np.asarray(diagonal, dtype=float)
        if diagonal.ndim != 1:
            raise DimensionMismatchError(f"expected a 1-d diagonal, got shape {diagonal.shape}")
        super().__init__(diagonal.shape[0])
        self.diagonal_values = diagonal

    def apply(self, block: np.ndarray) -> np.ndarray:
        out = np.empty_like(block, dtype=float)  # in the block's order
        self._write_product(block, out)
        return out

    def _write_product(self, block: np.ndarray, out: np.ndarray) -> None:
        diagonal = self.diagonal_values[:, None] if block.ndim == 2 else self.diagonal_values
        np.multiply(diagonal, block, out=out)

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
    """A symmetric sparse matrix that holds each stored entry once, in the
    layout its ``apply`` reads.

    It is built from CSR arrays of the full symmetric pattern (both
    triangles): ``row_offsets`` has ``dim + 1`` entries; ``col_indices``
    are strictly increasing within each row; the pattern and values are
    symmetric.  Construct through :func:`csr_from_coo`.  The CSR arrays
    stay readable as ``row_offsets``, ``col_indices`` and ``values``, bit
    for bit, but a layout that does not hold one rebuilds it on each read,
    at O(nnz) cost; ``diagonal()`` and ``max_row_l1()`` are computed once,
    on construction.

    ``apply`` and ``apply_into`` run one kernel: it accumulates the
    product's ``(m, n)`` transpose, each column contiguous, in passes over
    one of two layouts, named by ``layout`` and chosen from the pattern
    alone.  ``apply`` hands it a column-major block to write.

    * ``"diagonal"``, for a pattern on few, nearly full diagonals (a
      stencil or finite-element matrix): one value array per offset
      k = j - i, over rows ``[max(0, -k), min(n, n - k))``, zero where a
      row has no entry at that offset.  The kernel zeroes ``out`` and a
      pass adds ``d_k`` times the block shifted by k into it, in ascending
      k, so each row is summed in column order from +0.0 with plain
      slices.  It is taken when the offsets are no more than the longest
      row's entries and their diagonals hold at most
      :data:`DIAGONAL_FILL` times ``nnz`` slots.  A padded zero meets the
      block too: a NaN or infinity in the block may spread, through
      0 * inf, to rows within the band that A does not couple to it.
      Padding hides which zeros are stored, so this layout keeps
      ``row_offsets`` and ``col_indices`` besides its slots.
    * ``"jagged"``, otherwise: rows sorted by descending length, then
      jagged-diagonal slots (slot k holds the k-th entry of every row
      longer than k, a prefix of the order) of :data:`TAIL_ROWS` rows or
      more, then the thinner slots' entries as one row-sorted CSR tail,
      summed by ``np.add.reduceat`` in passes of about
      :data:`TAIL_PASS_ENTRIES`, into an accumulator of its own; a final
      gather into ``out`` restores the row order.
      It holds a value and a column per entry, the row order, and the
      tail's row starts, and no CSR array.
    """

    def __init__(self, dim: int, row_offsets: np.ndarray, col_indices: np.ndarray,
                 values: np.ndarray):
        super().__init__(dim)
        self._build([row_offsets, col_indices, values])

    @classmethod
    def _taking(cls, dim: int, csr: list) -> SparseSymMatrix:
        """The matrix of the CSR arrays in the list ``csr``, which it
        empties, so that an array held nowhere else is freed at its last
        read."""
        matrix = cls.__new__(cls)
        LinearOperator.__init__(matrix, dim)
        matrix._build(csr)
        return matrix

    def _build(self, csr: list) -> None:
        """Take the CSR arrays out of the list ``csr`` and lay them out."""
        values = np.asarray(csr.pop(), dtype=float)
        col_indices = np.asarray(csr.pop(), dtype=np.int64)
        row_offsets = np.asarray(csr.pop(), dtype=np.int64)
        self._nnz = int(values.shape[0])
        lengths = np.diff(row_offsets)
        self._max_row_l1 = 0.0 if not self._nnz else float(np.max(np.add.reduceat(
            np.abs(values), row_offsets[:-1][np.flatnonzero(lengths)])))
        rows = np.repeat(np.arange(self.dim), lengths)
        on_diag = np.flatnonzero(rows == col_indices)
        self._diagonal = np.zeros(self.dim)
        self._diagonal[rows[on_diag]] = values[on_diag]
        del on_diag
        # a pass is (first row, end row, values, source, row starts): the
        # source is an offset to slice at or columns to gather; row starts
        # only in the jagged tail
        diagonal = self._diagonal_passes(lengths, rows, col_indices, values)
        del rows
        self.layout = "jagged" if diagonal is None else "diagonal"
        if diagonal is not None:
            self._pattern = (row_offsets, col_indices)
            (self._passes, self._slots), self._inverse = diagonal, None
            return
        self._pattern = None  # the jagged layout derives the CSR pattern from its passes
        self._inverse, entries, spans = self._jagged_order(lengths, row_offsets)
        del row_offsets
        vals = values.take(entries)
        del values
        cols = np.take(col_indices, entries, out=entries, mode="clip")  # the order's last use
        del col_indices, entries
        self._passes = [(lo, hi, vals[at:end], cols[at:end], starts)
                        for lo, hi, at, end, starts in spans]

    def _diagonal_passes(self, lengths: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                         values: np.ndarray) -> tuple[list, np.ndarray] | None:
        """The passes of the diagonal layout over the CSR entries at
        ``rows``, ``cols`` and the slots they view, or None where the rule
        of the class docstring rejects the pattern."""
        n, longest = self.dim, int(lengths.max())
        # rows mostly far shorter than the longest cannot fill its diagonals
        if longest > DIAGONAL_FILL * self.nnz / n:
            return None
        shifted = cols - rows + (n - 1)  # offset + n - 1 >= 0
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
        slots[base[shifted] + rows] = values
        return [(int(lo), int(lo + span), slots[at:at + span], int(k), None)
                for lo, span, at, k in zip(firsts, spans, starts, offsets)], slots

    def _jagged_order(self, lengths: np.ndarray,
                      row_offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
        """The jagged layout's order: the gather that restores the row
        order, the CSR index of every entry in the order its passes store
        them, and each pass's (first row, end row, first entry, end entry,
        row starts) in that order."""
        order = np.argsort(-lengths, kind="stable")
        inverse = np.empty_like(order)
        inverse[order] = np.arange(self.dim)
        # rows longer than k, for each slot k; non-increasing in k
        counts = self.dim - np.cumsum(np.bincount(lengths))[:-1]
        n_head = int(np.count_nonzero(counts >= TAIL_ROWS))
        entries, spans, end = np.empty(self.nnz, dtype=np.int64), [], 0
        if n_head:
            at = row_offsets[order[:counts[0]]]  # each row's next entry, in order
            for count in counts[:n_head].tolist():  # slot k: at + k over its rows
                slot = at[:count]
                entries[end:end + count] = slot
                spans.append((0, count, end, end + count, None))
                slot += 1
                end += count
            del at
        if n_head < counts.size:  # the longest rows' entries past the head slots
            rows = order[:counts[n_head]]
            tail = lengths[rows] - n_head
            starts = np.cumsum(tail) - tail
            at = entries[end:]
            at[...] = np.repeat(row_offsets[rows] + n_head - starts, tail)
            at += np.arange(at.size)
            ptr = np.r_[starts, at.size] + end
            cuts = np.r_[0, np.flatnonzero(np.diff(starts // TAIL_PASS_ENTRIES)) + 1, rows.size]
            spans += [(lo, hi, ptr[lo], ptr[hi], starts[lo:hi] - starts[lo])
                      for lo, hi in zip(cuts[:-1], cuts[1:])]
        return inverse, entries, spans

    @property
    def nnz(self) -> int:
        return self._nnz

    def apply(self, block: np.ndarray) -> np.ndarray:
        block = np.asarray(block, dtype=float)
        out = np.empty(block.shape[::-1]).T  # column-major
        self._write_product(block, out)
        return out

    def _write_product(self, block: np.ndarray, out: np.ndarray) -> None:
        by_column = block.reshape(block.shape[0], -1).T  # (m, n)
        target = out.reshape(out.shape[0], -1).T
        acc = target if self._inverse is None else np.empty(by_column.shape)
        acc[...] = 0.0
        for lo, hi, vals, source, starts in self._passes:
            # in place through a view: `acc[:, lo:hi] +=` would copy it back
            rows = acc[:, lo:hi]
            rows += _pass_terms(by_column, lo, hi, vals, source, starts)
        if self._inverse is not None:  # "raise" would gather into a copy of out
            np.take(acc, self._inverse, axis=1, out=target, mode="clip")

    @property
    def row_offsets(self) -> np.ndarray:
        """CSR row offsets, ``dim + 1`` of them."""
        if self._pattern is not None:
            return self._pattern[0]
        lengths = np.zeros(self.dim, dtype=np.int64)  # by place in the row order
        for lo, hi, vals, _, starts in self._passes:
            lengths[lo:hi] += 1 if starts is None else np.diff(starts, append=vals.size)
        return np.concatenate(([0], np.cumsum(lengths[self._inverse])))

    @property
    def col_indices(self) -> np.ndarray:
        """CSR column of every stored entry."""
        return self._pattern[1] if self._pattern is not None else self._in_csr_order(1)

    @property
    def values(self) -> np.ndarray:
        """CSR value of every stored entry."""
        if self._pattern is None:
            return self._in_csr_order(0)
        n, base, at = self.dim, np.zeros(2 * self.dim - 1, dtype=np.int64), 0
        for lo, hi, _, k, _ in self._passes:  # slot of row i at offset k: base[k + n - 1] + i
            base[k + n - 1], at = at - lo, at + hi - lo
        rows = self.row_indices()
        return self._slots[base[self._pattern[1] - rows + (n - 1)] + rows]

    def _in_csr_order(self, field: int) -> np.ndarray:
        """The jagged layout's values (``field`` 0) or columns (1) in CSR order."""
        offsets = self.row_offsets
        out = np.empty(self.nnz, dtype=float if field == 0 else np.int64)
        for rows, ranks, *arrays in self._jagged_entries():
            out[offsets[rows] + ranks] = arrays[field]
        return out

    def _jagged_entries(self):
        """Per pass of the jagged layout: the rows of its entries, their
        places within their rows, their values and their columns."""
        order = np.empty_like(self._inverse)
        order[self._inverse] = np.arange(self.dim)
        head = 0
        for lo, hi, vals, cols, starts in self._passes:
            if starts is None:  # slot `head`: the head-th entry of rows lo:hi
                yield order[lo:hi], head, vals, cols
                head += 1
            else:
                lengths = np.diff(starts, append=vals.size)
                ranks = np.arange(head, head + vals.size) - np.repeat(starts, lengths)
                yield np.repeat(order[lo:hi], lengths), ranks, vals, cols

    def entry_passes(self):
        """Yield ``(rows, cols, values)`` over the stored entries, one pass
        of ``apply`` at a time, so that no array spans all of them.  The
        diagonal layout's passes yield its padding zeros too."""
        if self._pattern is None:
            for rows, _, vals, cols in self._jagged_entries():
                yield rows, cols, vals
            return
        for lo, hi, vals, k, _ in self._passes:
            rows = np.arange(lo, hi)
            yield rows, rows + k, vals

    def row_indices(self) -> np.ndarray:
        """Row of every stored entry, aligned with ``col_indices``."""
        return np.repeat(np.arange(self.dim), np.diff(self.row_offsets))

    def diagonal(self) -> np.ndarray:
        return self._diagonal.copy()

    def max_row_l1(self) -> float:
        return self._max_row_l1

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


def _raw_records(records: list) -> np.ndarray:
    """``records`` as a ``_RAW_TRIPLET`` array, each through ``tuple()``, so
    that a record that is not a triple raises."""
    try:
        return np.fromiter(map(tuple, records), _RAW_TRIPLET, len(records))
    except OverflowError:  # an integer beyond the float range: as an index, inf
        return np.array([(*(x if abs(x) < 2**63 else np.inf for x in r[:2]), r[2])
                         for r in map(tuple, records)], _RAW_TRIPLET)


def _coo_columns(records: Iterable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, column and value arrays of (i, j, value) records: a ``_TRIPLET``
    array as it is, or any iterable of triples, whose indices must be
    integers in the int64 range (IndexOutOfRangeError names the first
    record with another index)."""
    if isinstance(records, np.ndarray) and records.dtype == _TRIPLET:
        return records["i"], records["j"], records["v"]
    records = records if isinstance(records, list) else list(records)
    try:
        # tuples go in as they are; a list record raises, for _raw_records
        raw = np.fromiter(records, _RAW_TRIPLET, len(records))
        # numpy gives a scalar or a size-1 record to all three fields, so the
        # records whose fields agree bit for bit go through tuple() as well
        bits = raw.view(np.uint64).reshape(-1, 3)
        same = np.flatnonzero((bits[:, 0] == bits[:, 1]) & (bits[:, 1] == bits[:, 2]))
        if same.size:
            raw[same] = _raw_records([records[k] for k in same])
    except (ValueError, TypeError, OverflowError):
        raw = _raw_records(records)
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
    and the largest magnitude of the :func:`lanczos_ritz_values` of any
    other operator.

    The sparse estimate is at least the 2-norm and at most the dimension
    times it; the Lanczos one is at most the 2-norm, to rounding.
    """
    if isinstance(op, IdentityOperator):
        return 1.0
    if isinstance(op, DiagonalOperator):
        return float(np.max(np.abs(op.diagonal_values)))
    if isinstance(op, SparseSymMatrix):
        return op.max_row_l1()
    return float(np.max(np.abs(lanczos_ritz_values(op)[[0, -1]])))


def lanczos_ritz_values(op: LinearOperator) -> np.ndarray:
    """Ascending Ritz values of a symmetric operator over the Krylov space
    of a fixed random vector, by at most 10 Lanczos steps, each new vector
    orthogonalized twice against the earlier ones; fewer when the space is
    invariant to sqrt(eps).  The pencil of the basis' Gram matrices is
    solved through the Cholesky factor of ``V^T V``, so each value lies in
    the operator's spectral range to rounding: the largest magnitude is a
    norm estimate (:func:`norm_estimates`) and a negative value shows that
    the operator is not positive semidefinite (the solvers' probe of a
    metric).  NaN when the projection is not finite.
    """
    vec = np.random.default_rng(1905).standard_normal((op.dim, 1))
    basis, products = [vec / np.linalg.norm(vec)], []
    while True:
        products.append(op.apply(basis[-1]))
        if len(basis) == min(10, op.dim) or not np.isfinite(products[-1]).all():
            break
        known, vec = np.hstack(basis), products[-1]
        for _ in range(2):
            vec = vec - known @ (known.T @ vec)
        norm = np.linalg.norm(vec)
        if not norm > np.sqrt(np.finfo(float).eps) * np.linalg.norm(products[-1]):
            break  # the Krylov space is invariant
        basis.append(vec / norm)
    basis = np.hstack(basis)
    inverse = np.linalg.inv(np.linalg.cholesky(basis.T @ basis))
    gram = inverse @ (basis.T @ np.hstack(products)) @ inverse.T
    if not np.isfinite(gram).all():
        return np.full(basis.shape[1], np.nan)
    return np.linalg.eigvalsh(0.5 * (gram + gram.T))


def jacobi_precond(matrix) -> DiagonalOperator:
    """Inverse-diagonal preconditioner with a unit fallback.

    ``matrix`` is an operator with a ``diagonal()`` method (InvalidConfigError
    for one without) or the 1-d diagonal itself.  Every positive entry whose
    reciprocal is finite, however small, gets that reciprocal; a zero,
    negative or NaN entry, or one whose reciprocal overflows, gets 1 and sets
    the ``nonpositive_diagonal`` warning flag on the result.  The reciprocals
    are its ``diagonal_values``.
    """
    if isinstance(matrix, LinearOperator):
        if not hasattr(matrix, "diagonal"):
            raise InvalidConfigError(
                f"{type(matrix).__name__} has no diagonal() for a Jacobi preconditioner")
        matrix = matrix.diagonal()
    diag = np.asarray(matrix, dtype=float)
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
    return SparseSymMatrix._taking(n, _laplacian_csr(n, u, v, w))


def _radix_order(keys: np.ndarray, top: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` of non-negative int64 keys of at
    most ``top``: stable argsorts of their 16-bit digits, least significant
    first, which numpy runs as radix sorts, as many as ``top`` needs."""
    order = np.arange(keys.size)
    for shift in range(0, max(int(top).bit_length(), 1), 16):
        digit = (keys >> shift).astype(np.uint16)[order]  # the low 16 bits, in order so far
        ranks = np.argsort(digit, kind="stable")
        del digit
        order = order[ranks]
    return order


def _laplacian_csr(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray):
    """Row offsets, columns and values of the Laplacian of valid edges, in
    a list for :meth:`SparseSymMatrix._taking` to take over.

    The input is symmetric by construction, so there is no mirror search:
    per edge, in input order, keys (u, v) and (v, u) hold -w, and one
    diagonal key per vertex with an edge holds its degree; they are put in
    CSR order by :func:`_radix_order`.  ``np.bincount`` sums in input
    order from +0.0, so every entry is bit for bit the sum
    :func:`csr_from_coo` forms from the four triplets per edge.  The keys
    are written into one array, and each nnz-sized temporary is freed at
    its last use, so that at most four are live at once.
    """
    m = u.size
    touched = np.flatnonzero(np.bincount(u, minlength=n) + np.bincount(v, minlength=n))
    keys = np.empty(2 * m + touched.size, dtype=np.int64)
    ends = keys[:2 * m].reshape(m, 2)  # u, v per edge, in input order, until made keys
    ends[:, 0], ends[:, 1] = u, v
    degree = np.bincount(keys[:2 * m], weights=np.repeat(w, 2), minlength=n)[touched]
    ends *= n
    ends[:, 0] += v
    ends[:, 1] += u
    np.multiply(touched, n + 1, out=keys[2 * m:])
    del ends, touched
    order = _radix_order(keys, n * n - 1)
    keys = keys[order]
    # each sorted key's weight: -w of its edge, or the degree of its vertex
    on_diagonal = np.flatnonzero(order >= 2 * m)
    degree = degree[order[on_diagonal] - 2 * m]
    order //= 2
    weights = np.take(w, order, mode="clip")  # an edge's keys are 2k and 2k + 1
    del order
    np.negative(weights, out=weights)
    weights[on_diagonal] = degree
    del on_diagonal, degree
    fresh = np.empty(keys.size, dtype=bool)
    fresh[0] = True
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    cols = keys[fresh]
    offsets = np.searchsorted(cols, np.arange(n + 1) * n)
    ids = np.cumsum(fresh, out=keys)  # the sorted keys' last use
    ids -= 1
    del keys, fresh
    values = np.bincount(ids, weights=weights)
    del ids, weights
    cols %= n
    return [offsets, cols, values]
