"""Operator contracts: CSR assembly, block application, preconditioners,
graph Laplacians."""

import numpy as np
import pytest

from conftest import dense_to_csr, laplacian_1d

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


def densify(matrix):
    return matrix.to_dense()


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


class TestJacobiPrecond:
    def test_reciprocal_diagonal(self):
        a = csr_from_coo(2, [(0, 0, 2.0), (1, 1, 4.0)])
        pre = jacobi_precond(a)
        np.testing.assert_allclose(pre.diagonal_reciprocals, [0.5, 0.25])
        assert not pre.nonpositive_diagonal

    def test_zero_diagonal_fallback(self):
        a = csr_from_coo(2, [(0, 1, 1.0), (1, 1, 3.0)])  # A[0,0] = 0
        pre = jacobi_precond(a)
        assert pre.diagonal_reciprocals[0] == 1.0
        assert pre.nonpositive_diagonal

    def test_one_d_diagonal_array(self):
        pre = jacobi_precond(np.array([2.0, 4.0, 0.0, 1.0, 8.0]))
        np.testing.assert_allclose(pre.diagonal_reciprocals, [0.5, 0.25, 1.0, 1.0, 0.125])
        assert pre.nonpositive_diagonal
        with pytest.raises(DimensionMismatchError):
            jacobi_precond(np.eye(3))

    def test_uniform_laplacian_diagonal(self):
        pre = jacobi_precond(laplacian_1d(10))
        np.testing.assert_allclose(pre.diagonal_reciprocals, 0.5)

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
