"""The benchmark's workloads: generated problems, references, the library
set-up and solve calls, and the correctness gate.

Every workload draws its problem and its start vectors from one fixed
workload seed (``SEED``).  The ``--seed`` of a run only permutes the order
of the input records: the in-memory triplets, the Matrix Market entries and
the CSV rows.  All values assemble exactly (no entry is summed from
rounded parts), so every permutation gives bit-identical matrices and the
solver does the same arithmetic in every run.  A different start seed
would change the iteration count and add that change to the spread.

scipy is used here only, never from ``src/``: it builds the generated
matrices, recomputes residuals and supplies references.  README.md records
why each workload was chosen.
"""

from __future__ import annotations

import math
import warnings
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as sla

from lobpcg_kit import mmio, operators, partition, solver, solver2

#: Largest relative distance between a computed and a reference eigenvalue.
VALUE_RTOL = 1e-6
#: Largest entry of |X^T B X - I| for the returned vectors.
ORTHO_TOL = 1e-8
#: Solver tolerance used by every workload and by the scipy yardstick.
TOL = 1e-8


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _max_row_l1(matrix: sp.csr_matrix) -> float:
    return float(np.max(np.asarray(abs(matrix).sum(axis=1)).ravel()))


def check_pairs(values, vectors, status, ref_values, a_mat, b_mat, norm_a, norm_b):
    """Check one solve's pairs; return (passes, breaks_contract, details).

    A pass needs status ``converged``, values within VALUE_RTOL of the
    reference, B-orthonormal vectors and residuals, recomputed here, under
    the solver's own threshold.  The library promises B-orthonormal vectors
    whatever the status, and correct pairs whenever it reports
    ``converged``; breaking either breaks its contract.
    """
    values = np.asarray(values, dtype=float)
    bx = vectors if b_mat is None else b_mat @ vectors
    ortho = float(np.max(np.abs(vectors.T @ bx - np.eye(vectors.shape[1]))))
    value_err = float(np.max(np.abs(values - ref_values) / np.abs(ref_values)))
    residual = np.linalg.norm(a_mat @ vectors - bx * values[None, :], axis=0)
    threshold = TOL * (norm_a + np.abs(values) * norm_b) * np.linalg.norm(vectors, axis=0)
    residual_ratio = float(np.max(residual / threshold))
    pairs_ok = value_err <= VALUE_RTOL and ortho <= ORTHO_TOL and residual_ratio <= 1.0
    passes = status == solver.STATUS_CONVERGED and pairs_ok
    breaks = ortho > ORTHO_TOL or (status == solver.STATUS_CONVERGED and not pairs_ok)
    details = {"status": status, "value_err": value_err, "ortho_defect": ortho,
               "residual_ratio": residual_ratio}
    return passes, breaks, details


def scipy_lobpcg(a_mat, b_mat, precond_diag, nev, max_iter, seed):
    """The outside yardstick: scipy's LOBPCG at the same nev and tol."""
    start = np.random.default_rng(seed).standard_normal((a_mat.shape[0], nev))
    precond = sp.diags(precond_diag)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        began = perf_counter()
        _, _, history = sla.lobpcg(a_mat, start, B=b_mat, M=precond, tol=TOL,
                                   maxiter=max_iter, largest=False,
                                   retLambdaHistory=True)
        seconds = perf_counter() - began
    return seconds, len(history) - 1


class Lap3dStd:
    """Standard problem on the 3-D 7-point Dirichlet Laplacian of a box."""

    name = "lap3d_std"
    SEED = 0
    SIZES = {"full": (12, 16, 21), "tiny": (5, 6, 7)}
    NEV, BLOCK, MAX_ITER = 8, 10, 500

    def __init__(self, size: str, run_seed: int, workdir: Path):
        dims = self.SIZES[size]
        n = math.prod(dims)
        index = np.arange(n).reshape(dims)
        # Every stencil entry of every row, both triangles, as a stencil
        # assembly emits them.
        rows, cols = [index.ravel()], [index.ravel()]
        for axis, length in enumerate(dims):
            lower = np.take(index, range(length - 1), axis=axis).ravel()
            upper = np.take(index, range(1, length), axis=axis).ravel()
            rows += [lower, upper]
            cols += [upper, lower]
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        vals = np.where(rows == cols, 6.0, -1.0)
        order = np.random.default_rng(run_seed).permutation(rows.size)
        self.n = n
        self.triplets = list(zip(rows[order].tolist(), cols[order].tolist(),
                                 vals[order].tolist()))
        self.a_mat = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
        self.b_mat = None
        self.norm_a, self.norm_b = _max_row_l1(self.a_mat), 1.0
        # Closed form: sums of the 1-D eigenvalues 4 sin^2(k pi / (2 (m + 1))).
        spectra = [4.0 * np.sin(np.arange(1, m + 1) * np.pi / (2.0 * (m + 1))) ** 2
                   for m in dims]
        total = np.add.outer(np.add.outer(spectra[0], spectra[1]), spectra[2])
        self.ref_values = np.sort(total.ravel())[: self.NEV]

    def setup(self):
        a_op = operators.csr_from_coo(self.n, self.triplets)
        return {"a_op": a_op, "precond": operators.jacobi_precond(a_op)}

    def calls(self, state):
        cfg = solver.SolverConfig(nev=self.NEV, block_size=self.BLOCK, tol=TOL,
                                  max_iter=self.MAX_ITER, seed=self.SEED)
        return [lambda: solver.lobpcg_solve(state["a_op"], cfg, precond=state["precond"])]

    def check(self, result):
        return check_pairs(result.values, result.vectors, result.status, self.ref_values,
                           self.a_mat, self.b_mat, self.norm_a, self.norm_b)

    def scipy_reference(self):
        return scipy_lobpcg(self.a_mat, None, 1.0 / self.a_mat.diagonal(), self.NEV,
                            self.MAX_ITER, self.SEED)


class FePencilMany:
    """Q1 finite-element pencil A = K(x)M + M(x)K, B = M(x)M, solved by
    lobpcg2 for more pairs than its sub-block width, from two start seeds:
    one converges and one stops at ``MAX_ITER`` (README.md has the
    measurements)."""

    name = "fe_pencil_many"
    SEED = 0
    SIZES = {"full": (30, 40), "tiny": (8, 10)}
    NEV, SUB_BLOCK, RR_PERIOD, MAX_ITER = 12, 4, 25, 300
    #: Start seeds, as offsets from SEED.
    STARTS = (3, 12)

    def __init__(self, size: str, run_seed: int, workdir: Path):
        nx, ny = self.SIZES[size]
        kx, mx, mu_x = self._one_d(nx)
        ky, my, mu_y = self._one_d(ny)
        self.n = nx * ny
        self.a_mat = (sp.kron(kx, my) + sp.kron(mx, ky)).tocsr()
        self.b_mat = sp.kron(mx, my).tocsr()
        self.norm_a, self.norm_b = _max_row_l1(self.a_mat), _max_row_l1(self.b_mat)
        self.ref_values = np.sort(np.add.outer(mu_x, mu_y).ravel())[: self.NEV]
        rng = np.random.default_rng(run_seed)
        self.a_path = workdir / "A.mtx"
        self.b_path = workdir / "B.mtx"
        self._write_lower(self.a_path, self.a_mat, rng)
        self._write_lower(self.b_path, self.b_mat, rng)
        self.start_seeds = [self.SEED + k for k in self.STARTS]

    @staticmethod
    def _one_d(m: int):
        """1-D Q1 stiffness, mass and generalized eigenvalues on (0, 1)."""
        h = 1.0 / (m + 1)
        ones = np.ones(m - 1)
        stiff = sp.diags([-ones, np.full(m, 2.0), -ones], [-1, 0, 1]) / h
        mass = sp.diags([ones, np.full(m, 4.0), ones], [-1, 0, 1]) * (h / 6.0)
        cos = np.cos(np.arange(1, m + 1) * np.pi / (m + 1))
        return stiff, mass, (6.0 / h ** 2) * (1.0 - cos) / (2.0 + cos)

    @staticmethod
    def _write_lower(path: Path, matrix, rng) -> None:
        lower = sp.tril(matrix).tocoo()
        order = rng.permutation(lower.nnz)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("%%MatrixMarket matrix coordinate real symmetric\n")
            handle.write(f"{matrix.shape[0]} {matrix.shape[1]} {lower.nnz}\n")
            for k in order:
                handle.write(f"{lower.row[k] + 1} {lower.col[k] + 1} {_fmt(lower.data[k])}\n")

    def setup(self):
        a_op = mmio.parse_matrix_market(self.a_path)
        b_op = mmio.parse_matrix_market(self.b_path)
        return {"a_op": a_op, "b_op": b_op, "precond": operators.jacobi_precond(a_op)}

    def calls(self, state):
        def call(seed):
            cfg = solver2.Lobpcg2Config(nev=self.NEV, sub_block=self.SUB_BLOCK,
                                        rr_period=self.RR_PERIOD, tol=TOL,
                                        max_iter=self.MAX_ITER, seed=seed)
            return lambda: solver2.lobpcg2_solve(state["a_op"], cfg, b_op=state["b_op"],
                                                 precond=state["precond"])
        return [call(seed) for seed in self.start_seeds]

    def check(self, result):
        return check_pairs(result.values, result.vectors, result.status, self.ref_values,
                           self.a_mat, self.b_mat, self.norm_a, self.norm_b)

    def scipy_reference(self):
        return scipy_lobpcg(self.a_mat, self.b_mat, 1.0 / self.a_mat.diagonal(), self.NEV,
                            self.MAX_ITER, self.start_seeds[0])


class SbmBisect:
    """Spectral bisection of a two-community heavy-tailed block model."""

    name = "sbm_bisect"
    SEED = 0
    SIZES = {"full": 20000, "tiny": 300}
    MEAN_DEGREE, CROSS_ACCEPT, RING_WEIGHT = 8.4, 0.03, 0.125

    def __init__(self, size: str, run_seed: int, workdir: Path):
        n = self.SIZES[size]
        rng = np.random.default_rng(self.SEED)
        # Chung-Lu sampling with Pareto expected degrees; an edge between
        # the two communities is kept with probability CROSS_ACCEPT.  With
        # the ring, the mean degree comes out near MEAN_DEGREE.
        weight = rng.pareto(2.5, n) + 1.0
        community = rng.integers(0, 2, n)
        draws = int(n * self.MEAN_DEGREE * 0.7)
        u = rng.choice(n, draws, p=weight / weight.sum())
        v = rng.choice(n, draws, p=weight / weight.sum())
        keep = (u != v) & ((community[u] == community[v])
                           | (rng.random(draws) < self.CROSS_ACCEPT))
        key = np.unique(np.minimum(u, v)[keep] * n + np.maximum(u, v)[keep])
        ring = np.arange(n)
        # The light ring keeps the graph connected.  Edge weights are small
        # integers and the ring weight a power of two, so every sum the
        # library forms is exact whatever the row order.
        heads = np.concatenate([key // n, ring])
        tails = np.concatenate([key % n, (ring + 1) % n])
        weights = np.concatenate([rng.integers(1, 4, key.size).astype(float),
                                  np.full(n, self.RING_WEIGHT)])
        self.n = n
        self.heads, self.tails, self.weights = heads, tails, weights
        order = np.random.default_rng(run_seed).permutation(heads.size)
        self.csv_path = workdir / "edges.csv"
        with open(self.csv_path, "w", encoding="utf-8") as handle:
            handle.write("u,v,weight\n")
            for k in order:
                handle.write(f"{heads[k]},{tails[k]},{_fmt(weights[k])}\n")
        adjacency = sp.coo_matrix((np.r_[weights, weights],
                                   (np.r_[heads, tails], np.r_[tails, heads])), shape=(n, n))
        self.a_mat = (sp.diags(np.asarray(adjacency.sum(axis=1)).ravel()) - adjacency).tocsr()
        self.norm_a = _max_row_l1(self.a_mat)
        # Reference Fiedler value: scipy's LOBPCG with the constants as a
        # constraint, a wider block and a tighter tolerance.  ARPACK's
        # Lanczos took minutes on this graph and shift-invert fills in
        # around the hubs.
        start = np.random.default_rng(self.SEED).standard_normal((n, 4))
        lowest, _ = sla.lobpcg(self.a_mat, start, Y=np.ones((n, 1)),
                               M=sp.diags(1.0 / self.a_mat.diagonal()), tol=1e-10,
                               maxiter=1000, largest=False)
        self.ref_values = np.sort(lowest)[:1]

    def setup(self):
        n, edges = mmio.read_edge_csv(self.csv_path)
        return {"n": n, "edges": edges}

    def calls(self, state):
        return [lambda: partition.partition_graph(state["n"], state["edges"], tol=TOL,
                                                  seed=self.SEED)]

    def check(self, result):
        vectors = result.fiedler_vector[:, None]
        passes, breaks, details = check_pairs(
            [result.fiedler_value], vectors, solver.STATUS_CONVERGED, self.ref_values,
            self.a_mat, None, self.norm_a, 1.0)
        labels = result.labels
        cut = float(np.sum(self.weights[labels[self.heads] != labels[self.tails]]))
        details["cut_weight"] = result.cut_weight
        if cut != result.cut_weight:
            details["cut_recomputed"] = cut
            passes, breaks = False, True
        return passes, breaks, details

    def scipy_reference(self):
        return None


WORKLOADS = {cls.name: cls for cls in (Lap3dStd, FePencilMany, SbmBisect)}
