"""Spectral bisection behavior, verified against dense Fiedler vectors."""

import numpy as np
import pytest

from conftest import checked_laplacian, heavy_tailed_edges, peak_bytes

import lobpcg_kit.partition
from lobpcg_kit import (
    DisconnectedGraphError,
    IdentityOperator,
    dense_oracle,
    laplacian_from_edges,
    partition_graph,
)
from lobpcg_kit.operators import TAIL_ROWS


def clique(vertices, weight=1.0):
    return [(u, v, weight) for i, u in enumerate(vertices)
            for v in vertices[i + 1:]]


def two_cliques_with_bridge():
    edges = clique(range(4)) + clique(range(4, 8))
    edges.append((0, 4, 1.0))
    return edges


def oracle_fiedler(n, edges):
    lap = laplacian_from_edges(n, edges)
    result = dense_oracle(lap, IdentityOperator(n))
    return result.values, result.vectors


class TestBisection:
    def test_two_cliques_separated(self):
        edges = two_cliques_with_bridge()
        part = partition_graph(8, edges)
        assert set(part.labels[:4]) == {0}
        assert set(part.labels[4:]) == {1}
        assert part.cut_weight == pytest.approx(1.0)
        values, vectors = oracle_fiedler(8, edges)
        assert part.fiedler_value == pytest.approx(values[1], abs=1e-8)
        # oracle's Fiedler sign split gives the same partition
        oracle_split = (vectors[:, 1] > np.median(vectors[:, 1])).astype(int)
        same = np.array_equal(oracle_split, part.labels)
        flipped = np.array_equal(1 - oracle_split, part.labels)
        assert same or flipped

    def test_path_graph_splits_middle(self):
        part = partition_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        np.testing.assert_array_equal(part.labels, [0, 0, 1, 1])
        assert part.cut_weight == pytest.approx(1.0)
        values, vectors = oracle_fiedler(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        # the path's Fiedler vector is monotone along the path
        fiedler = vectors[:, 1]
        assert np.all(np.diff(fiedler) > 0) or np.all(np.diff(fiedler) < 0)

    def test_disconnected_rejected(self):
        edges = clique(range(3)) + clique(range(3, 6))
        with pytest.raises(DisconnectedGraphError):
            partition_graph(6, edges)

    def test_scale_invariant_labels(self):
        edges = two_cliques_with_bridge()
        base = partition_graph(8, edges)
        for factor in (0.25, 7.0, 1e3):
            scaled = partition_graph(8, [(u, v, w * factor) for u, v, w in edges])
            np.testing.assert_array_equal(scaled.labels, base.labels)

    def test_both_classes_nonempty_random_graphs(self, rng):
        for trial in range(10):
            n = int(rng.integers(5, 20))
            # random connected graph: a spanning path plus extras
            edges = [(i, i + 1, float(rng.uniform(0.5, 2.0))) for i in range(n - 1)]
            for _ in range(n):
                u, v = rng.integers(0, n, size=2)
                if u != v:
                    edges.append((int(u), int(v), float(rng.uniform(0.1, 1.0))))
            part = partition_graph(n, edges, seed=trial)
            assert 0 < part.labels.sum() < n
            assert part.cut_weight >= 0.0
            assert part.labels[0] == 0

    def test_weighted_cut(self):
        # bridge weight 3: the cut must report it
        edges = clique(range(3), 2.0) + clique(range(3, 6), 2.0) + [(0, 3, 3.0)]
        part = partition_graph(6, edges)
        assert part.cut_weight == pytest.approx(3.0)


def test_laplacian_and_bisection_match_the_checked_path_at_scale(monkeypatch):
    # laplacian_from_edges skips the mirror search of csr_from_coo's checked
    # path; on a graph over TAIL_ROWS (so applied through both the
    # jagged-diagonal head and the CSR tail) the two agree bit for bit
    n = 4000
    edges = heavy_tailed_edges(n, seed=3)
    lap, checked = laplacian_from_edges(n, edges), checked_laplacian(n, edges)
    assert n > TAIL_ROWS and {p[4] is None for p in lap._passes} == {True, False}
    for name in ("row_offsets", "col_indices", "values"):
        assert getattr(lap, name).tobytes() == getattr(checked, name).tobytes()
    fast = partition_graph(n, edges)
    monkeypatch.setattr(lobpcg_kit.partition, "laplacian_from_edges", checked_laplacian)
    slow = partition_graph(n, edges)
    assert fast.fiedler_vector.tobytes() == slow.fiedler_vector.tobytes()
    np.testing.assert_array_equal(fast.labels, slow.labels)
    assert fast.cut_weight == slow.cut_weight


def test_bisection_peak_per_stored_entry():
    # 35.4 bytes per entry of the Laplacian, set by its assembly (39.1
    # before the matrix took the assembly's arrays over); 62.4 while
    # the matrix kept its CSR arrays beside the jagged copy and the cut
    # weight gathered rows and labels over every stored entry
    n = 4000
    edges = heavy_tailed_edges(n, seed=0)
    partition_graph(n, edges)  # numpy's first-call set-up is not the bisection's
    part, peak = peak_bytes(lambda: partition_graph(n, edges))
    assert np.unique(part.labels).tolist() == [0, 1]
    assert peak < 39 * laplacian_from_edges(n, edges).nnz
