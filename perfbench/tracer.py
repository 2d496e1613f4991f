"""Per-layer spans recorded from outside the library.

A traced pass swaps the names the library's callers look up (a function
bound in a module, a method on a class, ``apply`` on one operator instance)
for wrappers that record a span around the original call, and puts the
originals back afterwards.  Nothing inside ``src/`` changes, so the traced
pass must do the same arithmetic as an untraced one; the harness checks
that the answers and counts are identical.

A span is ``[name, start, end, parent, cols]``; ``parent`` is the index of
the enclosing span (-1 at top level) and ``cols`` the number of block
columns an operator apply received.  A layer's self time is its spans'
duration minus the time their direct children cover.
"""

from __future__ import annotations

import json
import os
from time import perf_counter

from lobpcg_kit import blocks, mmio, operators, partition, solver, solver2

#: Solver entry points; their results are kept so that iteration counts
#: can be compared.
SOLVER_NAMES = [(solver, "lobpcg_solve"), (partition, "lobpcg_solve"),
                (solver2, "lobpcg2_solve")]

#: Span name -> the (owner, attribute) pairs where callers look the name up.
#: Operator applies are wrapped per instance (see ``Tracer.trace_apply``).
LAYER_NAMES = {
    "operators.assemble": [(operators, "csr_from_coo"), (mmio, "csr_from_coo")],
    "operators.diagonal": [(operators.SparseSymMatrix, "diagonal")],
    "blocks.ortho": [(blocks, "b_orthonormalize_full"), (solver, "b_orthonormalize_full"),
                     (solver2, "b_orthonormalize_full")],
    "blocks.rr": [(solver, "rayleigh_ritz"), (solver2, "rayleigh_ritz")],
    "blocks.project": [(solver, "b_project_out"), (solver2, "b_project_out")],
    "blocks.residual": [(solver, "residual_block"), (solver2, "residual_block")],
    "dense.eig": [(blocks, "sym_eig"), (solver, "sym_eig")],
    "dense.chol": [(blocks, "cholesky")],
    "solver.norm_est": [(solver, "norm_estimates"), (solver2, "norm_estimates"),
                        (partition, "norm_estimates")],
    "partition": [(partition, "partition_graph")],
    "solver": SOLVER_NAMES,
}

#: File readers; their spans are the ``mmio`` layer and their input bytes
#: give the parse rate.
READER_NAMES = {"mmio.parse": (mmio, "parse_matrix_market"),
                "mmio.edges": (mmio, "read_edge_csv")}


class SolveCapture:
    """Keep every SolveResult the solver entry points return, untimed.

    ``install`` replaces library names and ``restore`` puts the originals
    back.  Used alone on an untraced pass, so that the solve made inside
    ``partition_graph`` can still be compared with the traced one.
    """

    def __init__(self):
        self.results = []
        self._undo = []

    def replace(self, owner, attr, value) -> None:
        own = vars(owner)
        self._undo.append((owner, attr, own.get(attr), attr in own))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def install(self) -> None:
        for owner, attr in SOLVER_NAMES:
            self.replace(owner, attr, self._keep(vars(owner)[attr]))

    def _keep(self, func):
        def kept(*args, **kwargs):
            result = func(*args, **kwargs)
            self.results.append(result)
            return result
        return kept


class Tracer(SolveCapture):
    """Spans around every layer call of one traced pass."""

    def __init__(self):
        super().__init__()
        self.spans: list[list] = []
        self.nnz_a = 0
        self.bytes_read = 0
        self._stack: list[int] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str, cols: int = 0) -> list:
        row = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, cols]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        row[1] = perf_counter()
        return row

    def _close(self, row: list) -> None:
        row[2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, func):
        def traced(*args, **kwargs):
            row = self._open(name)
            try:
                return func(*args, **kwargs)
            finally:
                self._close(row)
        return traced

    def trace_apply(self, op, name: str) -> None:
        """Time ``op.apply`` and count its columns, keeping ``op.kind``."""
        inner = op.apply

        def traced(block):
            row = self._open(name, block.shape[1] if block.ndim == 2 else 1)
            try:
                return inner(block)
            finally:
                self._close(row)
        self.replace(op, "apply", traced)

    def trace_operators(self, a_op=None, b_op=None, precond=None) -> None:
        """Wrap the set-up objects the benchmark passes to a solver."""
        if a_op is not None:
            self.trace_apply(a_op, "operators.a_apply")
            self.nnz_a = a_op.nnz
        if b_op is not None:
            self.trace_apply(b_op, "operators.b_apply")
        if precond is not None:
            self.trace_apply(precond, "operators.precond")

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        super().install()
        for name, places in LAYER_NAMES.items():
            for owner, attr in places:
                self.replace(owner, attr, self.wrap(name, vars(owner)[attr]))
        for name, (owner, attr) in READER_NAMES.items():
            self.replace(owner, attr, self._reader(name, vars(owner)[attr]))
        entries = vars(operators.SparseSymMatrix)["entries"]
        self.replace(operators.SparseSymMatrix, "entries", self._entries(entries))
        # Objects built inside the library: the identity metric of a
        # standard problem, and the Laplacian and Jacobi preconditioner
        # partition_graph assembles for itself.
        for owner in (solver, solver2):
            self.replace(owner, "IdentityOperator", self._identity)
        self.replace(partition, "laplacian_from_edges",
                     self._laplacian(vars(partition)["laplacian_from_edges"]))
        self.replace(partition, "jacobi_precond",
                     self._precond(vars(partition)["jacobi_precond"]))

    def _reader(self, name: str, func):
        traced = self.wrap(name, func)

        def read(path):
            self.bytes_read += os.path.getsize(path)
            return traced(path)
        return read

    def _entries(self, gen_func):
        # The span stays open while the caller consumes the generator, so
        # it covers the caller's loop body as well.
        def entries(matrix):
            row = self._open("operators.entries")
            try:
                yield from gen_func(matrix)
            finally:
                self._close(row)
        return entries

    def _identity(self, dim: int):
        op = operators.IdentityOperator(dim)
        self.trace_apply(op, "operators.b_apply")
        return op

    def _laplacian(self, func):
        traced = self.wrap("operators.assemble", func)

        def laplacian(n, edges):
            matrix = traced(n, edges)
            self.trace_operators(a_op=matrix)
            return matrix
        return laplacian

    def _precond(self, func):
        def jacobi(matrix):
            pre = func(matrix)
            self.trace_operators(precond=pre)
            return pre
        return jacobi

    # -- results ---------------------------------------------------------

    def self_times(self) -> dict:
        """Per span name: summed self seconds, call count and columns."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, list] = {}
        for k, (name, start, end, _, cols) in enumerate(self.spans):
            entry = totals.setdefault(name, [0.0, 0, 0])
            entry[0] += end - start - child[k]
            entry[1] += 1
            entry[2] += cols
        return totals

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent, cols."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, cols in self.spans:
                handle.write(json.dumps([name, start - origin, end - origin, parent, cols]))
                handle.write("\n")
