"""Shared builders for the test suite.

Problem generators are all seeded and deterministic; spectra are chosen
with separated bottom eigenvalues so gradient-type baselines converge
inside their iteration budgets.
"""

from __future__ import annotations

import gc
import math
import tracemalloc

import numpy as np
import pytest

from lobpcg_kit import SparseSymMatrix, csr_from_coo
from lobpcg_kit.operators import _TRIPLET


def dense_to_csr(dense: np.ndarray, drop_tol: float = 0.0) -> SparseSymMatrix:
    """Full-pattern CSR from a dense symmetric matrix (fast test fixture)."""
    dense = np.asarray(dense, dtype=float)
    n = dense.shape[0]
    sym = 0.5 * (dense + dense.T)
    rows, cols = np.nonzero(np.abs(sym) > drop_tol)
    values = sym[rows, cols]
    order = np.lexsort((cols, rows))
    rows, cols, values = rows[order], cols[order], values[order]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.add.at(offsets, rows + 1, 1)
    offsets = np.cumsum(offsets)
    return SparseSymMatrix(n, offsets, cols.astype(np.int64), values)


def laplacian_1d(n: int) -> SparseSymMatrix:
    """Dirichlet second-difference matrix tridiag(-1, 2, -1)."""
    triplets = [(i, i, 2.0) for i in range(n)]
    triplets += [(i, i + 1, -1.0) for i in range(n - 1)]
    return csr_from_coo(n, triplets)


def grid_stencil(dims, values):
    """The (2d + 1)-point stencil on a Dirichlet box: the diagonal and one
    entry per grid edge, so rows at the box's faces have gaps.  ``values``
    gives the diagonal, then one value per edge, axis by axis."""
    n = math.prod(dims)
    index = np.arange(n).reshape(dims)
    lower = [np.take(index, range(length - 1), axis=axis).ravel()
             for axis, length in enumerate(dims)]
    upper = [np.take(index, range(1, length), axis=axis).ravel()
             for axis, length in enumerate(dims)]
    rows = np.concatenate([index.ravel()] + lower)
    cols = np.concatenate([index.ravel()] + upper)
    return csr_from_coo(n, list(zip(rows.tolist(), cols.tolist(), values(rows.size).tolist())))


def peak_bytes(call):
    """``(call(), peak)``: what ``call`` returns and the most bytes that
    tracemalloc saw allocated while it ran, after a ``gc.collect()``.
    Tracing stops even when the call raises."""
    gc.collect()
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def peak_blocks(call, rows: int, width: int):
    """``(call(), peak)`` with the peak of :func:`peak_bytes` in float64
    blocks of ``rows x width``, after one warm-up call, so that first-call
    allocations such as imports are not counted."""
    call()
    result, peak = peak_bytes(call)
    return result, peak / (rows * width * 8)


def heavy_tailed_edges(n: int, seed: int) -> np.ndarray:
    """Shuffled (u, v, weight) records of a connected heavy-tailed graph.

    Chung-Lu draws with Pareto expected degrees plus a ring that keeps it
    connected.  Draws repeat pairs in both orientations, and the weights
    are thirds, so a parallel edge's sum depends on its order.
    """
    rng = np.random.default_rng(seed)
    expected = rng.pareto(2.5, n) + 1.0
    u, v = rng.choice(n, (2, 4 * n), p=expected / expected.sum())
    ring = np.arange(n)
    heads = np.concatenate([u[u != v], ring])
    tails = np.concatenate([v[u != v], (ring + 1) % n])
    edges = np.empty(heads.size, _TRIPLET)
    edges["i"], edges["j"] = heads, tails
    edges["v"] = rng.integers(1, 7, heads.size) / 3.0
    return edges[rng.permutation(heads.size)]


def checked_laplacian(n: int, edges: np.ndarray) -> SparseSymMatrix:
    """Laplacian of valid edge records through csr_from_coo's checked path,
    from the four triplets (u, v, -w), (v, u, -w), (u, u, w), (v, v, w) per
    edge, in input order."""
    u, v, w = edges["i"], edges["j"], edges["v"]
    triplets = np.empty((u.size, 4), _TRIPLET)
    triplets["i"] = np.column_stack([u, v, u, v])
    triplets["j"] = np.column_stack([v, u, u, v])
    triplets["v"] = np.column_stack([-w, -w, w, w])
    return csr_from_coo(n, triplets.ravel())


def laplacian_1d_eigenvalues(n: int, count: int) -> np.ndarray:
    k = np.arange(1, count + 1)
    return 4.0 * np.sin(k * np.pi / (2.0 * (n + 1))) ** 2


def fe_matrices_1d(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense 1-d Q1 stiffness and mass matrices on m interior nodes of (0, 1)."""
    h = 1.0 / (m + 1)
    off = np.diag(np.ones(m - 1), 1) + np.diag(np.ones(m - 1), -1)
    stiffness = (2.0 * np.eye(m) - off) / h
    mass = (4.0 * np.eye(m) + off) * (h / 6.0)
    return stiffness, mass


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))[None, :]


def spd_with_spectrum(rng: np.random.Generator, spectrum: np.ndarray) -> np.ndarray:
    """Dense SPD matrix with the given eigenvalues (unknown eigenvectors)."""
    spectrum = np.asarray(spectrum, dtype=float)
    q = random_orthogonal(rng, spectrum.shape[0])
    return (q * spectrum[None, :]) @ q.T


def easy_spd_problem(seed: int, n: int, head: int = 8) -> SparseSymMatrix:
    """SPD matrix whose lowest eigenvalues are well separated.

    Head eigenvalues run 1..10 with O(1) gaps, the bulk sits in [14, 40];
    every solver variant in the package converges on these quickly.
    """
    rng = np.random.default_rng(seed)
    head = min(head, n - 1)
    spectrum = np.concatenate([
        np.linspace(1.0, 10.0, head),
        np.linspace(14.0, 40.0, n - head),
    ])
    spectrum += rng.uniform(0.0, 0.05, size=n)
    return dense_to_csr(spd_with_spectrum(rng, spectrum))


def random_spd_metric(seed: int, n: int) -> SparseSymMatrix:
    """Well-conditioned random SPD metric, unit-scale diagonal."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) / np.sqrt(n)
    dense = g.T @ g + np.eye(n)
    dense /= np.mean(np.diag(dense))
    return dense_to_csr(dense)


def subspace_gap(u: np.ndarray, v: np.ndarray) -> float:
    """sin of the largest principal angle between equal-width spans.

    Computed from the projection residual, which stays accurate for tiny
    angles (the cosine-based formula bottoms out near sqrt(eps)).
    """
    qu, _ = np.linalg.qr(u)
    qv, _ = np.linalg.qr(v)
    resid = qv - qu @ (qu.T @ qv)
    return float(np.linalg.norm(resid, 2))


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo one line per acceptance criterion into the run summary."""
    import sys

    module = sys.modules.get("test_acceptance")
    results = getattr(module, "ACCEPTANCE_RESULTS", None) if module else None
    if not results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(results):
        title, ok, detail = results[number]
        line = f"ACCEPTANCE {number:2d} {title}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" [{detail}]"
        terminalreporter.write_line(line)
