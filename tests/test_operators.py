"""Operator contracts: CSR assembly, block application, preconditioners,
graph Laplacians."""

import functools
import gc
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    dense_to_csr,
    fe_matrices_1d,
    grid_stencil,
    heavy_tailed_edges,
    laplacian_1d,
    peak_bytes,
)

from lobpcg_kit import (
    AsymmetricValuesError,
    CallableOperator,
    DiagonalOperator,
    DimensionMismatchError,
    IdentityOperator,
    IndexOutOfRangeError,
    InvalidConfigError,
    LinearOperator,
    NegativeWeightError,
    SelfLoopError,
    SparseSymMatrix,
    csr_from_coo,
    exact_inverse_precond,
    jacobi_precond,
    laplacian_from_edges,
    op_apply,
)
from lobpcg_kit.blocks import empty_stack
from lobpcg_kit.operators import DIAGONAL_FILL, TAIL_PASS_ENTRIES, TAIL_ROWS


def densify(matrix):
    return matrix.to_dense()


#: Indices of in-memory records that are no int64 integer, which must be
#: neither truncated nor let through as a bare ValueError or OverflowError.
BAD_INDICES = [1.7, float("nan"), float("inf"), -float("inf"), 2**63, 10**400]


@pytest.mark.parametrize("bad", BAD_INDICES,
                         ids=["fraction", "nan", "inf", "-inf", "2**63", "10**400"])
@pytest.mark.parametrize("assemble", [csr_from_coo, laplacian_from_edges])
def test_in_memory_index_that_is_no_integer_is_named(assemble, bad):
    records = [(0, 1, 1.0), (1, 2, 1.0), (0, bad, 2.0), (2, 0.5, 1.0)]
    with pytest.raises(IndexOutOfRangeError, match=rf"entry \(0, {re.escape(str(bad))}\)"):
        assemble(3, records)
    with pytest.raises(IndexOutOfRangeError, match=r"entry \(0, "):
        assemble(3, iter(records))


class TestCsrFromCoo:
    def test_diagonal_identity_pattern(self):
        m = csr_from_coo(2, [(0, 0, 1.0), (1, 1, 1.0)])
        np.testing.assert_array_equal(densify(m), np.eye(2))
        assert m.nnz == 2

    def test_single_triangle_mirrored(self):
        m = csr_from_coo(2, [(0, 1, -1.0), (0, 0, 1.0), (1, 1, 1.0)])
        np.testing.assert_array_equal(densify(m), [[1.0, -1.0], [-1.0, 1.0]])
        assert m.nnz == 4

    def test_duplicates_summed(self):
        m = csr_from_coo(3, [(0, 0, 1.0), (0, 0, 2.0)])
        assert densify(m)[0, 0] == 3.0

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            csr_from_coo(2, [(0, 2, 1.0)])

    def test_asymmetric_values_rejected(self):
        with pytest.raises(AsymmetricValuesError):
            csr_from_coo(2, [(0, 1, 1.0), (1, 0, 1.5)])

    @pytest.mark.parametrize("upper,lower", [(np.inf, -np.inf), (-np.inf, np.inf),
                                             (np.inf, 1.0), (2.0, -np.inf)])
    def test_non_finite_mismatch_rejected(self, upper, lower):
        with pytest.raises(AsymmetricValuesError):
            csr_from_coo(2, [(0, 1, upper), (1, 0, lower)])

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_mirrored_infinities_accepted(self, value):
        m = csr_from_coo(2, [(0, 1, value), (1, 0, value)])
        np.testing.assert_array_equal(m.values, [value, value])

    @pytest.mark.filterwarnings("error")  # an overflow warning fails the test
    @pytest.mark.parametrize("value", [1e308, -1e308, np.finfo(float).max, 5e-324, 3 * 5e-324])
    def test_mirrored_extreme_values_keep_their_value(self, value):
        m = csr_from_coo(2, [(0, 1, value), (1, 0, value)])
        np.testing.assert_array_equal(m.values, [value, value])

    def test_both_triangles_matching_ok(self):
        m = csr_from_coo(2, [(0, 1, 2.0), (1, 0, 2.0), (0, 0, 1.0), (1, 1, 1.0)])
        np.testing.assert_array_equal(densify(m), [[1.0, 2.0], [2.0, 1.0]])

    def test_columns_sorted_within_rows(self):
        m = csr_from_coo(3, [(0, 2, 1.0), (0, 1, 2.0), (0, 0, 3.0)])
        row0 = m.col_indices[m.row_offsets[0]:m.row_offsets[1]]
        assert np.all(np.diff(row0) > 0)


class TestOpApply:
    def test_identity(self, rng):
        v = rng.standard_normal((6, 3))
        np.testing.assert_array_equal(op_apply(IdentityOperator(6), v), v)

    def test_diagonal_on_basis_vector(self):
        op = DiagonalOperator([1.0, 2.0, 3.0])
        e2 = np.zeros((3, 1))
        e2[1, 0] = 1.0
        np.testing.assert_array_equal(op_apply(op, e2), 2.0 * e2)

    def test_sparse_block_equals_dense_product(self, rng):
        dense = rng.standard_normal((20, 20))
        dense = dense + dense.T
        matrix = dense_to_csr(dense)
        block = rng.standard_normal((20, 4))
        np.testing.assert_allclose(op_apply(matrix, block),
                                   densify(matrix) @ block, atol=1e-12)

    def test_block_equals_columnwise(self, rng):
        dense = rng.standard_normal((15, 15))
        matrix = dense_to_csr(dense + dense.T)
        block = rng.standard_normal((15, 5))
        out = op_apply(matrix, block)
        for k in range(5):
            col = op_apply(matrix, block[:, k:k + 1])
            assert np.max(np.abs(out[:, k:k + 1] - col)) <= 1e-13

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            op_apply(IdentityOperator(4), np.ones((5, 2)))

    def test_empty_rows_handled(self):
        m = csr_from_coo(4, [(1, 1, 5.0)])
        out = op_apply(m, np.ones((4, 2)))
        expected = np.zeros((4, 2))
        expected[1] = 5.0
        np.testing.assert_array_equal(out, expected)

    def test_symmetry_bilinear_identity(self, rng):
        dense = rng.standard_normal((25, 25))
        matrix = dense_to_csr(dense + dense.T)
        for _ in range(20):
            u = rng.standard_normal((25, 1))
            v = rng.standard_normal((25, 1))
            left = (u.T @ op_apply(matrix, v)).item()
            right = (v.T @ op_apply(matrix, u)).item()
            scale = matrix.max_row_l1() * np.linalg.norm(u) * np.linalg.norm(v)
            assert abs(left - right) <= 1e-10 * 25 * max(scale, 1.0)

    def test_linearity(self, rng):
        dense = rng.standard_normal((12, 12))
        matrix = dense_to_csr(dense + dense.T)
        u = rng.standard_normal((12, 1))
        v = rng.standard_normal((12, 1))
        combo = op_apply(matrix, 2.0 * u - 3.0 * v)
        parts = 2.0 * op_apply(matrix, u) - 3.0 * op_apply(matrix, v)
        assert np.max(np.abs(combo - parts)) <= 1e-10 * matrix.max_row_l1()


def gapped_band(n, width, dropped, rng):
    """A band of half-width ``width`` missing a ``dropped`` share of its
    off-diagonal pairs, none in the middle row: so the offsets are no more
    than that row's entries, and for n >= 8 * width the padding stays
    within DIAGONAL_FILL."""
    pairs = [(i, i + k) for k in range(1, width + 1) for i in range(n - k)]
    middle = n // 2
    droppable = [p for p in pairs if middle not in p]
    gone = {droppable[k] for k in rng.permutation(len(droppable))[:int(dropped * len(droppable))]}
    kept = [(i, i) for i in range(n)] + [p for p in pairs if p not in gone]
    return csr_from_coo(n, [(i, j, float(rng.uniform(-2.0, 2.0))) for i, j in kept])


#: Kinds of apply_cases; the last three always take the diagonal layout.
APPLY_KINDS = ("band", "scattered", "no entries", "edgeless laplacian")
DIAGONAL_KINDS = ("grid 2-d", "grid 3-d", "gapped band")


@st.composite
def apply_cases(draw, kinds=APPLY_KINDS + DIAGONAL_KINDS):
    """A symmetric matrix and an input to apply it to.

    Sizes reach past TAIL_ROWS, so that a banded or scattered pattern fills
    jagged-diagonal slots of the head and hub rows fill the CSR tail; below
    it every slot is in the tail.  Rows may be empty, and so may the whole
    pattern.  Grid stencils and gapped bands lie on a few diagonals, with
    padding at the faces of the box and at the band's gaps."""
    kind = draw(st.sampled_from(kinds))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    big = draw(st.booleans())
    if kind == "grid 2-d":
        sides = [(33, 36), (32, 34)] if big else [(3, 8)] * 2
        matrix = grid_stencil([draw(st.integers(*s)) for s in sides],
                              lambda size: rng.uniform(-2.0, 2.0, size))
    elif kind == "grid 3-d":
        sides = [(11, 12), (10, 11), (10, 11)] if big else [(3, 5)] * 3
        matrix = grid_stencil([draw(st.integers(*s)) for s in sides],
                              lambda size: rng.uniform(-2.0, 2.0, size))
    elif kind == "gapped band":
        width = draw(st.integers(1, 3))
        n = draw(st.integers(TAIL_ROWS, TAIL_ROWS + 60) if big else st.integers(8 * width, 40))
        matrix = gapped_band(n, width, draw(st.sampled_from([0.0, 0.1, 0.25])), rng)
    else:
        n = draw(st.integers(TAIL_ROWS, TAIL_ROWS + 60) if big else st.integers(1, 40))
    if kind == "no entries":
        matrix = csr_from_coo(n, [])
    elif kind == "edgeless laplacian":
        matrix = laplacian_from_edges(n, [])
    elif kind in ("band", "scattered"):
        live = np.flatnonzero(rng.random(n) >= draw(st.sampled_from([0.0, 0.01, 0.5])))
        pairs = [(i, i) for i in live]
        if kind == "band":
            pairs += list(zip(live[:-1], live[1:]))
        elif live.size:
            pairs += list(zip(rng.choice(live, 2 * n), rng.choice(live, 2 * n)))
        for hub in rng.choice(live, draw(st.integers(0, 3)) if live.size else 0):
            pairs += [(hub, k) for k in rng.choice(live, draw(st.integers(1, live.size)))]
        # one entry per unordered pair, mirrored by the assembly
        pairs = {(min(i, j), max(i, j)) for i, j in pairs}
        matrix = csr_from_coo(n, [(int(i), int(j), float(rng.uniform(-2.0, 2.0)))
                                  for i, j in sorted(pairs)])
    n = matrix.dim
    m = draw(st.sampled_from(range(1, 13)))
    layout = draw(st.sampled_from(["C", "F", "strided", "1-d", "1-d strided"]))
    wide = rng.uniform(-1.0, 1.0, (2 * n, 2 * m))
    block = {"C": np.ascontiguousarray(wide[:n, :m]), "F": np.asfortranarray(wide[:n, :m]),
             "strided": wide[::2, 1::2], "1-d": wide[:n, 0].copy(),
             "1-d strided": wide[::2, 0]}[layout]
    return matrix, block


def sequential_product(matrix, block):
    """A times the block, each row summed one entry at a time in CSR column
    order, from +0.0."""
    x = block.reshape(matrix.dim, -1)
    out = np.zeros(x.shape)
    lengths = np.diff(matrix.row_offsets)
    for k in range(int(lengths.max(initial=0))):
        rows = np.flatnonzero(lengths > k)
        at = matrix.row_offsets[rows] + k
        out[rows] += matrix.values[at][:, None] * x[matrix.col_indices[at]]
    return out


class TestApplyMatchesDense:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(apply_cases())
    def test_equals_dense_product_of_the_csr_arrays(self, case):
        matrix, block = case
        n = matrix.dim
        dense = np.zeros((n, n))
        rows = np.repeat(np.arange(n), np.diff(matrix.row_offsets))
        dense[rows, matrix.col_indices] = matrix.values
        out = matrix.apply(block)
        assert out.shape == block.shape
        row_len = np.diff(matrix.row_offsets)
        as_block = block.reshape(n, -1)
        bound = (row_len[:, None] + 1) * np.finfo(float).eps * (np.abs(dense) @ np.abs(as_block))
        assert np.all(np.abs(out.reshape(n, -1) - dense @ as_block) <= bound)
        assert np.all(out.reshape(n, -1)[row_len == 0] == 0.0)
        if block.ndim == 2:
            assert out.flags.f_contiguous

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(apply_cases(kinds=DIAGONAL_KINDS))
    def test_diagonal_layout_is_the_sequential_row_sum_bit_for_bit(self, case):
        matrix, block = case
        assert matrix.layout == "diagonal"
        out = matrix.apply(block)
        assert out.shape == block.shape
        expected = sequential_product(matrix, block)
        assert np.ascontiguousarray(out.reshape(matrix.dim, -1)).tobytes() == expected.tobytes()

    def test_tail_passes_bound_the_gather(self, rng):
        # a dense pattern under TAIL_ROWS rows is all tail, in several passes
        n, m = 600, 4
        dense = rng.standard_normal((n, n))
        dense += dense.T
        matrix = dense_to_csr(dense)
        tail_passes = [p for p in matrix._passes if p[4] is not None]
        assert len(tail_passes) == -(-n * n // TAIL_PASS_ENTRIES)
        block = np.asfortranarray(rng.standard_normal((n, m)))
        out, peak = peak_bytes(lambda: matrix.apply(block))
        np.testing.assert_allclose(out, dense @ block, rtol=1e-12, atol=1e-10)
        # about one pass's gather (a single pass would gather n * n * m)
        assert peak < 2 * 8 * m * TAIL_PASS_ENTRIES


def q1_pencil(nx, ny):
    """The Q1 finite-element pencil K(x)M + M(x)K, M(x)M on an nx-by-ny grid."""
    kx, mx = fe_matrices_1d(nx)
    ky, my = fe_matrices_1d(ny)
    return dense_to_csr(np.kron(kx, my) + np.kron(mx, ky)), dense_to_csr(np.kron(mx, my))


def scattered(n, per_row, seed):
    """A diagonal of 4 plus about ``per_row`` random off-diagonal pairs a row."""
    rng = np.random.default_rng(seed)
    pairs = np.unique(np.sort(rng.integers(0, n, (per_row * n, 2)), axis=1), axis=0)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    return csr_from_coo(n, [(i, i, 4.0) for i in range(n)]
                        + [(int(i), int(j), float(rng.uniform(-1.0, 1.0))) for i, j in pairs])


class TestApplyLayout:
    """The layout each pattern gets: the diagonal one for stencil and
    finite-element patterns, the jagged one for skewed or scattered rows
    and for dense patterns (2n - 1 offsets against n entries a row)."""

    def test_stencil_and_fe_patterns_take_the_diagonal_layout(self):
        n = 12 * 16 * 21
        stencil = grid_stencil((12, 16, 21),
                               lambda size: np.r_[np.full(n, 6.0), -np.ones(size - n)])
        assert stencil.layout == "diagonal"
        assert sorted(p[3] for p in stencil._passes) == [-336, -21, -1, 0, 1, 21, 336]
        a, b = q1_pencil(30, 40)
        assert (a.layout, b.layout) == ("diagonal", "diagonal")
        assert len(a._passes) == len(b._passes) == 9
        for matrix in (stencil, a, b):
            slots = sum(hi - lo for lo, hi, *_ in matrix._passes)
            assert matrix.nnz <= slots <= DIAGONAL_FILL * matrix.nnz
            assert matrix._inverse is None

    @pytest.mark.parametrize("build", [
        lambda: laplacian_from_edges(4000, heavy_tailed_edges(4000, seed=0)),
        lambda: scattered(1500, 3, seed=1),
        lambda: dense_to_csr(np.random.default_rng(2).standard_normal((600, 600))),
    ], ids=["heavy-tailed laplacian", "scattered", "dense"])
    def test_skewed_scattered_and_dense_patterns_stay_jagged(self, build):
        matrix = build()
        assert matrix.layout == "jagged"
        assert not any(isinstance(p[3], int) for p in matrix._passes)

    def test_diagonal_apply_holds_two_blocks(self, rng):
        matrix = grid_stencil((12, 16, 21), lambda size: rng.uniform(-1.0, 1.0, size))
        m = 10
        block = np.asfortranarray(rng.standard_normal((matrix.dim, m)))
        out, peak = peak_bytes(lambda: matrix.apply(block))
        assert out.flags.f_contiguous
        # the accumulator, which is returned, and one shifted product, plus
        # one ufunc buffer of numpy's
        assert peak <= 2 * block.nbytes + 8 * np.getbufsize() + 4096

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_reaches_every_coupled_row(self, rng, bad):
        dims = (9, 11)
        matrix = grid_stencil(dims, lambda size: rng.uniform(0.5, 2.0, size))
        assert matrix.layout == "diagonal"
        block = rng.standard_normal((matrix.dim, 3))
        j = 4 * dims[1]  # on the box's face: row j - 1 meets it through a padded slot
        block[j, 1] = bad
        out = matrix.apply(block)
        rows = matrix.row_indices()
        coupled = rows[matrix.col_indices == j]
        assert coupled.size == 4
        assert not np.isfinite(out[coupled, 1]).any()
        # beyond the band nothing is touched, nor in the other columns
        offsets = [p[3] for p in matrix._passes]
        in_band = np.isin(j - np.arange(matrix.dim), offsets)
        assert np.isfinite(out[~in_band, 1]).all()
        assert np.isfinite(out[:, [0, 2]]).all()


def periodic_laplacian(block):
    """The periodic second difference of a block's columns: symmetric."""
    return 2.0 * block - np.roll(block, 1, axis=0) - np.roll(block, -1, axis=0)


class OnlyApply(LinearOperator):
    """A user operator that defines ``apply`` and nothing else."""

    def apply(self, block):
        return periodic_laplacian(block)


class CountingDiagonal(DiagonalOperator):
    """A subclass whose ``apply`` overrides the one its kernel belongs to."""

    def apply(self, block):
        self.calls = getattr(self, "calls", 0) + 1
        return super().apply(block)


@functools.cache
def into_operator(kind, big):
    """One operator of each kind ``apply_into`` is checked on, built once:
    the sparse ones in both layouts, the jagged one with head slots when
    ``big``."""
    rng = np.random.default_rng(len(kind) + big)
    if kind == "stencil":
        dims = (12, 16, 21) if big else (3, 4, 5)
        return grid_stencil(dims, lambda size: rng.uniform(-2.0, 2.0, size))
    if kind in ("fe stiffness", "fe mass"):
        return q1_pencil(*((30, 40) if big else (4, 6)))[kind == "fe mass"]
    n = 1500 if big else 300
    if kind == "heavy-tailed laplacian":
        return laplacian_from_edges(n, heavy_tailed_edges(n, seed=int(big)))
    return {"diagonal": lambda: DiagonalOperator(rng.uniform(-2.0, 2.0, n)),
            "counting diagonal": lambda: CountingDiagonal(rng.uniform(-2.0, 2.0, n)),
            "identity": lambda: IdentityOperator(n),
            "callable": lambda: CallableOperator(n, periodic_laplacian),
            "only apply": lambda: OnlyApply(n)}[kind]()


INTO_KINDS = ("stencil", "fe stiffness", "fe mass", "heavy-tailed laplacian", "diagonal",
              "counting diagonal", "identity", "callable", "only apply")


class TestApplyInto:
    """``apply_into`` writes ``apply``'s product into a block the caller
    holds: a member of a column-major stack, as the solvers pass, or any
    other float64 block of the shape."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(INTO_KINDS), st.booleans(), st.integers(1, 12),
           st.sampled_from(["member", "F", "C"]), st.sampled_from(["member", "C"]),
           st.integers(0, 2 ** 32 - 1))
    def test_writes_the_bytes_apply_returns(self, kind, big, m, block_kind, out_kind, seed):
        op = into_operator(kind, big)
        if isinstance(op, SparseSymMatrix):  # both layouts are covered
            assert op.layout == ("jagged" if kind == "heavy-tailed laplacian" else "diagonal")
        n, rng = op.dim, np.random.default_rng(seed)
        stack = empty_stack(3, n, m)
        values = rng.uniform(-1.0, 1.0, (n, m))
        block = {"member": stack[1], "F": np.asfortranarray(values),
                 "C": np.ascontiguousarray(values)}[block_kind]
        block[...] = values
        expected = op.apply(block)
        out = stack[2] if out_kind == "member" else np.empty((n, m))
        out[...] = np.nan
        assert op.apply_into(block, out) is out
        assert np.ascontiguousarray(out).tobytes() == np.ascontiguousarray(expected).tobytes()
        assert np.array_equal(block, values)

        # an out that overlaps the block is refused before anything is written
        shifted = np.zeros((n + 1, m), order="F")
        with pytest.raises(DimensionMismatchError, match="shares memory"):
            op.apply_into(shifted[1:], shifted[:-1])
        with pytest.raises(DimensionMismatchError, match="shares memory"):
            op.apply_into(block, block)

        # an instance whose apply was replaced, as a tracer or a spy does, is
        # applied through the replacement
        seen, inner = [], op.apply

        def spy(spied):
            seen.append(spied.shape)
            return inner(spied)

        op.apply = spy
        try:
            out[...] = np.nan
            op.apply_into(block, out)
        finally:
            del op.apply
        assert seen == [(n, m)]
        assert np.ascontiguousarray(out).tobytes() == np.ascontiguousarray(expected).tobytes()

    def test_an_overriding_subclass_is_applied_through_its_apply(self):
        op = CountingDiagonal(np.arange(1.0, 6.0))
        out = op.apply_into(np.ones((5, 2)), np.empty((5, 2)))
        assert op.calls == 1
        assert np.array_equal(out, np.arange(1.0, 6.0)[:, None] * np.ones((5, 2)))

    @pytest.mark.parametrize("out", [np.empty((6, 2)), np.empty((5, 3)),
                                     np.empty((5, 2), dtype=np.float32)],
                             ids=["rows", "columns", "dtype"])
    def test_an_out_of_another_shape_or_type_is_refused(self, out):
        with pytest.raises(DimensionMismatchError):
            IdentityOperator(5).apply_into(np.ones((5, 2)), out)

    def test_sparse_apply_into_holds_one_block(self, rng):
        # lap3d_std's stencil at 10 columns, written into a stack member:
        # one shifted product beside the out it is added into, plus one
        # ufunc buffer of numpy's (apply holds its out as a second block)
        dims = (12, 16, 21)
        n = int(np.prod(dims))
        matrix = grid_stencil(dims, lambda size: np.r_[np.full(n, 6.0), -np.ones(size - n)])
        stack = empty_stack(2, n, 10)
        stack[1] = rng.standard_normal((n, 10))
        _, peak = peak_bytes(lambda: matrix.apply_into(stack[1], stack[0]))
        assert peak <= stack[1].nbytes + 8 * np.getbufsize() + 4096
        assert stack[0].tobytes() == matrix.apply(stack[1]).tobytes()


def test_laplacian_assembly_peak_per_stored_entry():
    # 35.5 bytes per stored entry, at the radix sort; 39.2 while the matrix
    # read the CSR arrays with the assembly still holding them and gathered
    # each slot apart, 58.4 while the assembly gathered into fresh
    # nnz-sized arrays and the matrix copied its CSR arrays, and 162
    # through csr_from_coo's checked path, from four triplets per edge
    n = 4000
    edges = heavy_tailed_edges(n, seed=0)
    lap, peak = peak_bytes(lambda: laplacian_from_edges(n, edges))
    assert peak < 39 * lap.nnz


def test_jagged_matrix_holds_each_entry_once():
    # a value and a column per entry, the row order and the diagonal per
    # row: 779,447 bytes here, against 1,481,670 while the matrix kept its
    # CSR arrays beside the jagged copy
    n = 4000
    lap = laplacian_from_edges(n, heavy_tailed_edges(n, seed=0))
    assert lap.layout == "jagged"
    gc.collect()
    tracemalloc.start()
    try:
        csr = [array.copy() for array in (lap.row_offsets, lap.col_indices, lap.values)]
        matrix = SparseSymMatrix(n, *csr)
        del csr
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert matrix.layout == "jagged"
    assert held <= 1.1 * (16 * matrix.nnz + 16 * n)


@pytest.mark.parametrize("diagonal", [np.ones((2, 2)), np.float64(2.0)], ids=["2-d", "0-d"])
def test_diagonal_operator_rejects_a_diagonal_that_is_not_1_d(diagonal):
    # a 2-d one used to be accepted, and its apply failed to broadcast
    with pytest.raises(DimensionMismatchError, match="1-d diagonal"):
        DiagonalOperator(diagonal)


class TestJacobiPrecond:
    def test_reciprocal_diagonal(self):
        a = csr_from_coo(2, [(0, 0, 2.0), (1, 1, 4.0)])
        pre = jacobi_precond(a)
        np.testing.assert_allclose(pre.diagonal_values, [0.5, 0.25])
        assert not pre.nonpositive_diagonal

    def test_zero_diagonal_fallback(self):
        a = csr_from_coo(2, [(0, 1, 1.0), (1, 1, 3.0)])  # A[0,0] = 0
        pre = jacobi_precond(a)
        assert pre.diagonal_values[0] == 1.0
        assert pre.nonpositive_diagonal

    def test_one_d_diagonal_array(self):
        pre = jacobi_precond(np.array([2.0, 4.0, 0.0, 1.0, 8.0]))
        np.testing.assert_allclose(pre.diagonal_values, [0.5, 0.25, 1.0, 1.0, 0.125])
        assert pre.nonpositive_diagonal
        with pytest.raises(DimensionMismatchError):
            jacobi_precond(np.eye(3))

    @pytest.mark.parametrize("op", [IdentityOperator(4), CallableOperator(4, np.copy)],
                             ids=["identity", "callable"])
    def test_operator_without_a_diagonal_rejected(self, op):
        # it used to fail with AttributeError: ... no attribute 'diagonal'
        with pytest.raises(InvalidConfigError, match="no diagonal"):
            jacobi_precond(op)

    def test_tiny_positive_entries_keep_their_reciprocal(self):
        # only the entry whose reciprocal overflows falls back to 1
        pre = jacobi_precond(np.array([1e-301, 2.0, 1e-310]))
        np.testing.assert_array_equal(pre.diagonal_values, [1.0 / 1e-301, 0.5, 1.0])
        assert pre.nonpositive_diagonal

    @pytest.mark.parametrize("exponent", [-305, -302, -250, -160, -100, 0, 100, 160, 250, 300])
    def test_scales_with_the_diagonal(self, exponent):
        c = 10.0 ** exponent
        diagonal = np.array([1.0, 2.5, 7.0, 1e3])
        pre = jacobi_precond(c * diagonal)
        np.testing.assert_allclose(pre.diagonal_values,
                                   jacobi_precond(diagonal).diagonal_values / c, rtol=1e-15)
        assert not pre.nonpositive_diagonal

    def test_uniform_laplacian_diagonal(self):
        pre = jacobi_precond(laplacian_1d(10))
        np.testing.assert_allclose(pre.diagonal_values, 0.5)

    def test_spd_as_operator(self, rng):
        dense = rng.standard_normal((10, 10))
        matrix = dense_to_csr(dense @ dense.T + 10 * np.eye(10))
        pre = jacobi_precond(matrix)
        for _ in range(100):
            r = rng.standard_normal((10, 1))
            assert (r.T @ pre.apply(r)).item() > 0.0


class TestExactInversePrecond:
    def test_inverts(self, rng):
        dense = rng.standard_normal((8, 8))
        spd = dense @ dense.T + 8 * np.eye(8)
        matrix = dense_to_csr(spd)
        pre = exact_inverse_precond(matrix)
        block = rng.standard_normal((8, 3))
        np.testing.assert_allclose(spd @ pre.apply(block), block, atol=1e-10)

    def test_spd_property(self, rng):
        dense = rng.standard_normal((9, 9))
        matrix = dense_to_csr(dense @ dense.T + 9 * np.eye(9))
        pre = exact_inverse_precond(matrix)
        for _ in range(100):
            r = rng.standard_normal((9, 1))
            assert (r.T @ pre.apply(r)).item() > 0.0


class TestLaplacian:
    def test_path_graph(self):
        lap = laplacian_from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        np.testing.assert_array_equal(
            densify(lap), [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]]
        )

    def test_single_weighted_edge(self):
        lap = laplacian_from_edges(2, [(0, 1, 3.0)])
        np.testing.assert_array_equal(densify(lap), [[3.0, -3.0], [-3.0, 3.0]])

    def test_annihilates_constant_and_psd(self, rng):
        n = 12
        edges = []
        for _ in range(30):
            u, v = rng.integers(0, n, size=2)
            if u != v:
                edges.append((int(u), int(v), float(rng.uniform(0.1, 2.0))))
        lap = laplacian_from_edges(n, edges)
        ones = np.ones((n, 1))
        max_degree = lap.max_row_l1()
        assert np.max(np.abs(op_apply(lap, ones))) <= 1e-12 * max(max_degree, 1.0)
        for _ in range(100):
            x = rng.standard_normal((n, 1))
            assert (x.T @ op_apply(lap, x)).item() >= -1e-12 * max_degree

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            laplacian_from_edges(3, [(1, 1, 1.0)])

    def test_bad_vertex_rejected(self):
        with pytest.raises(IndexOutOfRangeError):
            laplacian_from_edges(3, [(0, 3, 1.0)])

    def test_negative_weight_rejected(self):
        with pytest.raises(NegativeWeightError):
            laplacian_from_edges(3, [(0, 1, -1.0)])

    @pytest.mark.parametrize("weight,kind", [(float("nan"), "non-finite"),
                                             (float("inf"), "non-finite"),
                                             (float("-inf"), "negative")])
    def test_non_finite_weight_rejected(self, weight, kind):
        # NaN passes `w < 0`; the first such edge in input order is named
        edges = [(0, 1, 1.0), (1, 2, weight), (0, 2, -1.0)]
        with pytest.raises(NegativeWeightError, match=rf"edge \(1, 2\) has {kind} weight"):
            laplacian_from_edges(3, edges)

    def test_parallel_edges_summed(self):
        lap = laplacian_from_edges(2, [(0, 1, 1.0), (1, 0, 1.0)])
        np.testing.assert_array_equal(densify(lap), [[2.0, -2.0], [-2.0, 2.0]])


class TestCallableOperator:
    def test_matches_wrapped_matrix(self, rng):
        dense = rng.standard_normal((7, 7))
        dense = dense + dense.T
        op = CallableOperator(7, lambda block: dense @ block)
        block = rng.standard_normal((7, 2))
        np.testing.assert_allclose(op_apply(op, block), dense @ block)


class TestSingleVectorApply:
    def test_one_dimensional_input_round_trips(self, rng):
        vec = rng.standard_normal(5)
        diag = DiagonalOperator([1.0, 2.0, 3.0, 4.0, 5.0])
        out = op_apply(diag, vec)
        assert out.shape == (5,)
        np.testing.assert_allclose(out, vec * np.arange(1.0, 6.0))
        ident = op_apply(IdentityOperator(5), vec)
        assert ident.shape == (5,)
        sparse = dense_to_csr(np.diag(np.arange(1.0, 6.0)))
        np.testing.assert_allclose(op_apply(sparse, vec), out)
