"""Dense kernel contracts: eigendecomposition and Cholesky."""

import math

import numpy as np
import pytest

from lobpcg_kit import (
    DenseCapExceededError,
    NonSymmetricError,
    NotPositiveDefiniteError,
    cholesky,
    sym_eig,
)


class TestSymEig:
    def test_identity(self):
        result = sym_eig(np.eye(2))
        np.testing.assert_allclose(result.values, [1.0, 1.0])
        np.testing.assert_allclose(result.vectors.T @ result.vectors, np.eye(2),
                                   atol=1e-12)

    def test_diagonal_sorted_ascending(self):
        result = sym_eig(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(result.values, [1.0, 3.0])
        # eigenvectors are e2, e1 up to sign
        assert abs(abs(result.vectors[1, 0]) - 1.0) < 1e-12
        assert abs(abs(result.vectors[0, 1]) - 1.0) < 1e-12

    def test_reconstruction_seeded_8x8(self):
        rng = np.random.default_rng(88)
        m = rng.standard_normal((8, 8))
        m = m + m.T
        result = sym_eig(m)
        recomposed = (result.vectors * result.values[None, :]) @ result.vectors.T
        bound = 1e-9 * 8 * np.max(np.abs(m))
        assert np.max(np.abs(m - recomposed)) <= bound

    def test_rejects_nonsymmetric(self):
        with pytest.raises(NonSymmetricError):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_oversize(self):
        with pytest.raises(DenseCapExceededError):
            sym_eig(np.eye(2001))

    def test_orthonormality_and_reconstruction_sweep(self):
        # 1000 random symmetric matrices, sizes 2..50
        rng = np.random.default_rng(1000)
        for _ in range(1000):
            n = int(rng.integers(2, 51))
            m = rng.standard_normal((n, n))
            m = m + m.T
            result = sym_eig(m)
            assert np.all(np.diff(result.values) >= 0)
            ortho = np.max(np.abs(result.vectors.T @ result.vectors - np.eye(n)))
            assert ortho <= 1e-10 * n
            recomposed = (result.vectors * result.values[None, :]) @ result.vectors.T
            assert np.max(np.abs(m - recomposed)) <= 1e-9 * n * np.max(np.abs(m))

    def test_shifted_gram_eigenvalues_bounded_below(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            g = rng.standard_normal((n, n))
            m = g.T @ g + n * np.eye(n)
            assert np.all(sym_eig(m).values >= n - 1e-8)


class TestCholesky:
    def test_identity(self):
        np.testing.assert_allclose(cholesky(np.eye(3)), np.eye(3))

    def test_known_2x2(self):
        m = np.array([[4.0, 2.0], [2.0, 3.0]])
        lower = cholesky(m)
        np.testing.assert_allclose(
            lower, [[2.0, 0.0], [1.0, math.sqrt(2.0)]], rtol=0, atol=1e-14
        )
        np.testing.assert_allclose(lower @ lower.T, m, atol=1e-14)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1

    def test_recompose_random_spd(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            g = rng.standard_normal((n, n))
            m = g.T @ g + n * np.eye(n)
            lower = cholesky(m)
            assert np.all(np.diag(lower) > 0)
            assert np.all(np.triu(lower, 1) == 0)
            bound = 1e-10 * n * np.max(np.abs(m))
            assert np.max(np.abs(lower @ lower.T - m)) <= bound

    def test_rejects_nonsymmetric(self):
        with pytest.raises(NonSymmetricError):
            cholesky(np.array([[1.0, 0.5], [0.1, 1.0]]))


def test_sym_eig_deterministic_for_fixed_input():
    rng = np.random.default_rng(12)
    m = rng.standard_normal((15, 15))
    m = m + m.T
    first = sym_eig(m)
    second = sym_eig(m.copy())
    np.testing.assert_array_equal(first.values, second.values)
    np.testing.assert_array_equal(first.vectors, second.vectors)


def test_cholesky_respects_dense_cap():
    with pytest.raises(DenseCapExceededError):
        cholesky(np.eye(2001))
