"""Spectral graph bisection from the Laplacian's second eigenvector.

The constant vector is a known null vector of every graph Laplacian, so it
is deflated from all search directions and the solver targets the next
eigenpair directly.  Vertices are split at the median of that eigenvector,
which is robust to its arbitrary sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedGraphError, InvalidConfigError, NoConvergenceError
from .operators import SparseSymMatrix, jacobi_precond, laplacian_from_edges
from .solver import SolverConfig, lobpcg_solve, norm_estimates

#: Algebraic connectivity below CONNECTIVITY_RTOL * ||L|| means disconnected.
CONNECTIVITY_RTOL = 1e-10


@dataclass(frozen=True)
class PartitionResult:
    """Bisection of a connected weighted graph.

    ``labels[v]`` is 0 or 1; both classes are nonempty.  ``fiedler_value``
    is the Laplacian's second-smallest eigenvalue and ``cut_weight`` the
    total weight of edges crossing the partition.
    """

    labels: np.ndarray
    fiedler_value: float
    cut_weight: float
    fiedler_vector: np.ndarray


def _cut_weight(laplacian: SparseSymMatrix, labels: np.ndarray) -> float:
    rows, cols = laplacian.row_indices(), laplacian.col_indices
    crossing = (rows < cols) & (labels[rows] != labels[cols])
    # off-diagonal Laplacian entries are -weight
    return float(np.sum(-laplacian.values[crossing]))


def partition_graph(n: int, edges, *, tol: float = 1e-8, seed: int = 0,
                    max_iter: int = 500) -> PartitionResult:
    """Bisect the graph given by (u, v, weight) edges.

    Raises DisconnectedGraphError when the second Laplacian eigenvalue is
    numerically zero (no meaningful bisection exists).
    """
    if n < 2:
        raise InvalidConfigError(f"need at least 2 vertices to bisect, got {n}")
    laplacian = laplacian_from_edges(n, edges)
    norm_l = norm_estimates(laplacian)
    constant = np.full((n, 1), 1.0 / math.sqrt(n))
    block_size = 2 if math.ceil(n / 4) >= 2 else 1
    cfg = SolverConfig(nev=1, block_size=block_size, tol=tol, seed=seed,
                       max_iter=max_iter)
    result = lobpcg_solve(laplacian, cfg, precond=jacobi_precond(laplacian),
                          constraints=constant)
    fiedler_value = float(result.values[0])
    if fiedler_value <= CONNECTIVITY_RTOL * norm_l:
        raise DisconnectedGraphError(
            f"second eigenvalue {fiedler_value:.3e} is numerically zero: graph is disconnected"
        )
    if result.status != "converged":
        raise NoConvergenceError(
            f"eigensolver finished with status {result.status!r} after {result.iterations} iterations"
        )
    fiedler = result.vectors[:, 0]
    median = float(np.median(fiedler))
    labels = (fiedler > median).astype(int)
    if labels.sum() == 0:
        # Every value is at or below the median (mass of median ties).
        # Promote the vertex with the largest value, highest index first.
        promote = np.lexsort((np.arange(n), fiedler))[-1]
        labels[promote] = 1
    if labels[0] == 1:
        # Class names are arbitrary (the eigenvector sign is not
        # contractual); canonicalize so vertex 0 sits in class 0.
        labels = 1 - labels
    return PartitionResult(
        labels=labels,
        fiedler_value=fiedler_value,
        cut_weight=_cut_weight(laplacian, labels),
        fiedler_vector=fiedler.copy(),
    )
