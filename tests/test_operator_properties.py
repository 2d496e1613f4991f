"""Property tests of the sparse layer: the jagged-diagonal apply kernel, the
array assembly in csr_from_coo and the edge checks of laplacian_from_edges.

Assembly is compared bit for bit with a dict-based reference kept here,
which accumulates entry by entry in input order.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lobpcg_kit import (
    AsymmetricValuesError,
    DiagonalOperator,
    IdentityOperator,
    IndexOutOfRangeError,
    NegativeWeightError,
    SelfLoopError,
    SparseSymMatrix,
    csr_from_coo,
    laplacian_from_edges,
)
from lobpcg_kit.mmio import parse_matrix_market, write_matrix_market_symmetric
from lobpcg_kit.operators import TAIL_ROWS, _radix_order
from lobpcg_kit.partition import _cut_weight

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

EPS = np.finfo(float).eps


def reference_csr(n, triplets):
    """Dict-based assembly: (row_offsets, col_indices, values) or the error."""
    if n < 1:
        raise IndexOutOfRangeError(f"matrix dimension must be >= 1, got {n}")
    accum = {}
    for i, j, v in triplets:
        i, j = int(i), int(j)
        if not (0 <= i < n and 0 <= j < n):
            raise IndexOutOfRangeError(f"entry ({i}, {j}) outside [0, {n})")
        accum[(i, j)] = accum.get((i, j), 0.0) + float(v)
    sym = {}
    for (i, j), v in accum.items():
        mirrored = accum.get((j, i))
        if i == j:
            sym[(i, j)] = v
        elif mirrored is None:
            sym[(i, j)] = sym[(j, i)] = v
        else:
            if abs(v - mirrored) > 1e-12 * max(abs(v), abs(mirrored)):
                raise AsymmetricValuesError(
                    f"entries ({i},{j})={v!r} and ({j},{i})={mirrored!r} disagree"
                )
            sym[(i, j)] = sym[(j, i)] = 0.5 * (v + mirrored)
    keys = sorted(sym)
    offsets = np.zeros(n + 1, dtype=np.int64)
    for i, _ in keys:
        offsets[i + 1] += 1
    return (np.cumsum(offsets), np.array([j for _, j in keys], dtype=np.int64),
            np.array([sym[k] for k in keys], dtype=float))


def reference_laplacian(n, edges):
    triplets = []
    for u, v, w in edges:
        if u == v:
            raise SelfLoopError(f"self loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise IndexOutOfRangeError(f"edge ({u}, {v}) outside [0, {n})")
        if w < 0:
            raise NegativeWeightError(f"edge ({u}, {v}) has negative weight {w}")
        triplets += [(u, v, -w), (v, u, -w), (u, u, w), (v, v, w)]
    return reference_csr(n, triplets or [(0, 0, 0.0)])


def outcome(build, *args):
    """Arrays as bytes (so -0.0 and NaN compare exactly), or the error."""
    try:
        built = build(*args)
    except (AsymmetricValuesError, IndexOutOfRangeError, NegativeWeightError,
            SelfLoopError) as exc:
        return type(exc), str(exc)
    if not isinstance(built, tuple):
        built = (built.row_offsets, built.col_indices, built.values)
    return tuple(np.asarray(a).tobytes() for a in built)


@st.composite
def symmetric_matrices(draw):
    """A dense symmetric matrix with isolated (empty) rows and an optional
    hub row coupled to every other row that is not isolated."""
    n = draw(st.integers(1, 24))
    isolated = draw(st.sets(st.integers(0, n - 1), max_size=n // 3))
    value = st.floats(-1e3, 1e3, allow_nan=False).filter(lambda x: x != 0.0)
    live = [k for k in range(n) if k not in isolated]
    dense = np.zeros((n, n))
    if live:
        index = st.sampled_from(live)
        for i, j, v in draw(st.lists(st.tuples(index, index, value), max_size=3 * n)):
            dense[i, j] = dense[j, i] = v
        if draw(st.booleans()):
            hub = draw(index)
            for k in live:
                dense[hub, k] = dense[k, hub] = draw(value)
    return dense


def csr_of(dense):
    rows, cols = np.nonzero(dense)
    return csr_from_coo(dense.shape[0], zip(rows.tolist(), cols.tolist(),
                                            dense[rows, cols].tolist()))


class TestApplyProperties:
    @PROPERTY
    @given(dense=symmetric_matrices(), m=st.integers(1, 4), seed=st.integers(0, 2 ** 16))
    def test_matches_dense_product(self, dense, m, seed):
        matrix = csr_of(dense)
        block = np.random.default_rng(seed).uniform(-1.0, 1.0, (dense.shape[0], m))
        out = matrix.apply(block)
        # exactly rounded sums of the rounded products
        exact = np.array([[math.fsum(dense[i] * block[:, c]) for c in range(m)]
                          for i in range(dense.shape[0])])
        row_len = np.count_nonzero(dense, axis=1)[:, None]
        bound = (row_len + 1) * EPS * (np.abs(dense) @ np.abs(block))
        assert out.shape == block.shape
        assert np.all(np.abs(out - exact) <= bound)
        assert np.all(out[row_len[:, 0] == 0] == 0.0)
        # a 1-d vector is one column, for the diagonal and identity operators too
        for op in (matrix, DiagonalOperator(np.diag(dense)), IdentityOperator(dense.shape[0])):
            single = op.apply(block[:, 0])
            assert single.shape == (dense.shape[0],)
            np.testing.assert_array_equal(single, op.apply(block[:, :1])[:, 0])
        np.testing.assert_array_equal(out[:, :1], matrix.apply(block[:, :1]))

    @PROPERTY
    @given(dense=symmetric_matrices())
    def test_diagonal_and_entries(self, dense):
        matrix = csr_of(dense)
        np.testing.assert_array_equal(matrix.diagonal(), np.diag(dense))
        rows, cols = np.nonzero(dense)
        assert list(matrix.entries()) == list(zip(rows.tolist(), cols.tolist(),
                                                  dense[rows, cols].tolist()))


@st.composite
def triplet_lists(draw):
    """Triplets with duplicates, one-sided entries, mirrors split into parts
    (summing to nearly but not always exactly the mirror) and at most one
    out-of-range index."""
    n = draw(st.integers(1, 10))
    index = st.integers(0, n - 1)
    value = st.floats(-100.0, 100.0) | st.sampled_from([0.0, -0.0, 0.1, 1.0 / 3.0])
    how = st.sampled_from(["one", "both", "split"])
    triplets = []
    for i, j, v, kind in draw(st.lists(st.tuples(index, index, value, how), max_size=30)):
        if kind == "one":
            triplets.append((i, j, v))
        elif kind == "both":
            triplets += [(i, j, v), (j, i, v)]
        else:
            triplets += [(i, j, v / 3.0), (j, i, v), (i, j, v - v / 3.0)]
    triplets = [triplets[k] for k in draw(st.permutations(range(len(triplets))))]
    if draw(st.booleans()):
        bad = (draw(st.sampled_from([-1, n])), draw(index), 1.0)
        if draw(st.booleans()):
            bad = bad[1], bad[0], 1.0
        triplets.insert(draw(st.integers(0, len(triplets))), bad)
    return n, triplets


@st.composite
def edge_lists(draw):
    """Valid edges, weights 0.0 and -0.0 among them, some repeated as
    parallel edges in either orientation, in shuffled order."""
    n = draw(st.integers(2, 8))
    vertex = st.integers(0, n - 1)
    weight = st.floats(0.0, 10.0) | st.sampled_from([0.0, -0.0, 0.1, 1.0 / 3.0])
    edge = st.tuples(vertex, vertex, weight).filter(lambda e: e[0] != e[1])
    edges = []
    for u, v, w in draw(st.lists(edge, max_size=20)):
        edges.append((u, v, w))
        for flip, again in draw(st.lists(st.tuples(st.booleans(), weight), max_size=2)):
            edges.append((v, u, again) if flip else (u, v, again))
    return n, [edges[k] for k in draw(st.permutations(range(len(edges))))]


class TestAssemblyProperties:
    @PROPERTY
    @given(case=triplet_lists())
    def test_csr_from_coo_bit_identical_to_reference(self, case):
        n, triplets = case
        assert outcome(csr_from_coo, n, triplets) == outcome(reference_csr, n, triplets)

    @PROPERTY
    @given(n=st.integers(1, 8), data=st.data())
    def test_laplacian_raises_for_first_bad_edge(self, n, data):
        vertex = st.integers(-1, n)
        weight = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0, 0.1])
        edges = data.draw(st.lists(st.tuples(vertex, vertex, weight), max_size=12))
        assert outcome(laplacian_from_edges, n, edges) == outcome(reference_laplacian, n, edges)

    @PROPERTY
    @given(case=edge_lists())
    # summed as all (u, v) keys before all (v, u) keys, key (0, 1) would
    # take its terms out of input order and differ in the last bit
    @example(case=(2, [(0, 1, 1.6978613501641844), (1, 0, 1.6978613501641844), (0, 1, 7.0)]))
    def test_laplacian_bit_identical_to_reference(self, case):
        n, edges = case
        assert outcome(laplacian_from_edges, n, edges) == outcome(reference_laplacian, n, edges)


# a scalar or a size-1 array is not a record: numpy would assign it to every
# field of a structured element, so it must not reach ``np.fromiter`` as is
MALFORMED = [[(0, 1)], [(0, 1, 2.0, 3.0)], [(0, 1, "x")],
             [1, 2], [1.0], ["1"], [np.array([2.0])]]


@pytest.mark.parametrize("records", MALFORMED)
def test_malformed_triplets_rejected(records):
    with pytest.raises((ValueError, TypeError)):
        csr_from_coo(3, records)


@pytest.mark.parametrize("edges", MALFORMED)
def test_malformed_edges_rejected(edges):
    with pytest.raises((ValueError, TypeError)):
        laplacian_from_edges(3, edges)


@PROPERTY
@given(n=st.sampled_from([256, 257, 65536, 65537]), data=st.data())
def test_radix_order_is_the_stable_argsort(n, data):
    # 1, 2, 2 and 3 digits of 16 bits; the keys repeat, as the Laplacian's
    # do, so that stability shows
    top = n * n - 1
    distinct = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=40))
    picks = data.draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=200))
    keys = np.array([distinct[k] for k in picks], dtype=np.int64)
    np.testing.assert_array_equal(_radix_order(keys, top), np.argsort(keys, kind="stable"))


@st.composite
def stored_patterns(draw):
    """``(n, row_offsets, col_indices, values)`` of a random symmetric
    pattern: a band of a few diagonals with gaps (the diagonal layout), or
    scattered entries (the jagged layout), over TAIL_ROWS rows or fewer so
    that it has a head of jagged diagonals or not.  Some rows are empty,
    one hub row may couple to every other row, and about a tenth of the
    stored values are 0.0 or -0.0; the others are quarters, so that sums
    of a few hundred of them are exact."""
    kind = draw(st.sampled_from(["band", "scattered", "scattered past TAIL_ROWS"]))
    n = draw(st.integers(TAIL_ROWS + 1, TAIL_ROWS + 300) if kind.endswith("TAIL_ROWS")
             else st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "band":
        offsets = rng.permutation(max(1, n // 4))[:rng.integers(1, 4)]
        rows = np.concatenate([np.arange(n - k) for k in offsets])
        cols = rows + np.repeat(offsets, n - offsets)
        keep = rng.random(rows.size) < 0.95
        rows, cols = rows[keep], cols[keep]
    else:
        rows, cols = rng.integers(0, n, (2, rng.integers(0, 4 * n + 1)))
    if draw(st.booleans()):
        hub = rng.integers(n)
        rows, cols = np.r_[rows, np.full(n, hub)], np.r_[cols, np.arange(n)]
    empty = rng.random(n) < 0.1
    keep = ~(empty[rows] | empty[cols])
    keys = np.unique(np.r_[rows[keep] * n + cols[keep], cols[keep] * n + rows[keep]])
    rows, cols = np.divmod(keys, n)
    upper = rng.integers(-256, 257, keys.size) / 4.0
    upper[rng.random(keys.size) < 0.1] = rng.choice([0.0, -0.0])
    # (i, j) and (j, i) share the value drawn for the upper one
    values = upper[np.searchsorted(keys, np.minimum(rows, cols) * n + np.maximum(rows, cols))]
    row_offsets = np.searchsorted(rows, np.arange(n + 1))
    return n, row_offsets, cols, values


class TestStoredOnce:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(stored_patterns(), st.integers(0, 2 ** 16))
    def test_accessors_return_the_csr_it_was_built_from(self, case, seed):
        n, row_offsets, cols, values = case
        matrix = SparseSymMatrix(n, row_offsets, cols, values)
        rows = np.repeat(np.arange(n), np.diff(row_offsets))
        assert matrix.nnz == values.size
        for got, want in [(matrix.row_offsets, row_offsets), (matrix.col_indices, cols),
                          (matrix.values, values), (matrix.row_indices(), rows)]:
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())
        assert list(matrix.entries()) == list(zip(rows.tolist(), cols.tolist(),
                                                  values.tolist()))
        # the diagonal and the largest row 1-norm as they were read from CSR
        diagonal = np.zeros(n)
        on_diag = rows == cols
        diagonal[rows[on_diag]] = values[on_diag]
        assert matrix.diagonal().tobytes() == diagonal.tobytes()
        sums = np.add.reduceat(np.abs(values), row_offsets[:-1][np.diff(row_offsets) > 0])
        assert matrix.max_row_l1() == (float(sums.max()) if values.size else 0.0)
        # the crossing weight of any labelling, summed one pass at a time
        labels = np.random.default_rng(seed).integers(0, 2, n)
        crossing = (rows < cols) & (labels[rows] != labels[cols])
        assert _cut_weight(matrix, labels) == float(np.sum(-values[crossing]))

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(stored_patterns())
    def test_matrix_market_round_trip(self, case):
        n, row_offsets, cols, values = case
        matrix = SparseSymMatrix(n, row_offsets, cols, values)
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "matrix.mtx"
            write_matrix_market_symmetric(path, matrix)
            again = parse_matrix_market(path)
        # stored zeros keep their places; assembly sums from +0.0, so -0.0 reads back as 0.0
        assert again.dim == n
        assert again.row_offsets.tobytes() == row_offsets.tobytes()
        assert again.col_indices.tobytes() == cols.tobytes()
        assert again.values.tobytes() == (values + 0.0).tobytes()

    def test_the_patterns_take_each_layout(self):
        # the strategy reaches the diagonal layout, the all-tail jagged one
        # and the jagged one with a head
        shapes = set()

        @settings(max_examples=60, deadline=None, derandomize=True, database=None)
        @given(stored_patterns())
        def collect(case):
            matrix = SparseSymMatrix(*case)
            shapes.add((matrix.layout, any(p[4] is None for p in matrix._passes)))
        collect()
        assert {("diagonal", False), ("jagged", False), ("jagged", True)} <= shapes
