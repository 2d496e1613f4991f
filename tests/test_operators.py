"""Operator contracts: CSR assembly, block application, preconditioners,
graph Laplacians."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_to_csr, heavy_tailed_edges, laplacian_1d

from lobpcg_kit import (
    AsymmetricValuesError,
    CallableOperator,
    DiagonalOperator,
    DimensionMismatchError,
    IdentityOperator,
    IndexOutOfRangeError,
    NegativeWeightError,
    SelfLoopError,
    csr_from_coo,
    exact_inverse_precond,
    jacobi_precond,
    laplacian_from_edges,
    op_apply,
)
from lobpcg_kit.operators import TAIL_PASS_ENTRIES, TAIL_ROWS


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


@st.composite
def apply_cases(draw):
    """A symmetric matrix and an input to apply it to.

    Sizes reach past TAIL_ROWS, so that a banded or scattered pattern fills
    jagged-diagonal slots of the head and hub rows fill the CSR tail; below
    it every slot is in the tail.  Rows may be empty, and so may the whole
    pattern."""
    n = draw(st.one_of(st.integers(1, 40), st.integers(TAIL_ROWS, TAIL_ROWS + 60)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["band", "scattered", "no entries", "edgeless laplacian"]))
    if kind == "no entries":
        matrix = csr_from_coo(n, [])
    elif kind == "edgeless laplacian":
        matrix = laplacian_from_edges(n, [])
    else:
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
    m = draw(st.sampled_from(range(1, 13)))
    layout = draw(st.sampled_from(["C", "F", "strided", "1-d", "1-d strided"]))
    wide = rng.uniform(-1.0, 1.0, (2 * n, 2 * m))
    block = {"C": np.ascontiguousarray(wide[:n, :m]), "F": np.asfortranarray(wide[:n, :m]),
             "strided": wide[::2, 1::2], "1-d": wide[:n, 0].copy(),
             "1-d strided": wide[::2, 0]}[layout]
    return matrix, block


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

    def test_tail_passes_bound_the_gather(self, rng):
        # a dense pattern under TAIL_ROWS rows is all tail, in several passes
        n, m = 600, 4
        dense = rng.standard_normal((n, n))
        dense += dense.T
        matrix = dense_to_csr(dense)
        tail_passes = [p for p in matrix._passes if p[4] is not None]
        assert len(tail_passes) == -(-n * n // TAIL_PASS_ENTRIES)
        block = np.asfortranarray(rng.standard_normal((n, m)))
        tracemalloc.start()
        out = matrix.apply(block)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        np.testing.assert_allclose(out, dense @ block, rtol=1e-12, atol=1e-10)
        # about one pass's gather (a single pass would gather n * n * m)
        assert peak < 2 * 8 * m * TAIL_PASS_ENTRIES


def test_laplacian_assembly_peak_per_stored_entry():
    # 58 bytes per stored entry; assembly through csr_from_coo's checked
    # path, from four triplets per edge, peaked at 162
    n = 4000
    edges = heavy_tailed_edges(n, seed=0)
    tracemalloc.start()
    lap = laplacian_from_edges(n, edges)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 70 * lap.nnz


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
