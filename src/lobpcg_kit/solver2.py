"""Many-small-blocks variant: independent narrow recurrences plus a shared
Rayleigh-Ritz coupling step.

For ``nev`` requested pairs and a sub-block width ``nb``, ``nev / nb``
width-``nb`` LOBPCG recurrences advance in parallel as the column
sub-blocks of one :class:`~lobpcg_kit.solver.LobpcgEngine` state, a round
at a time, the state that every solver steps.  A round B-projects every
moving sub-block's active residuals off the whole iterate block (one
B-dual basis), so the recurrences do not collapse onto the same
eigenvectors, and applies the preconditioner, B and A once each.  Their
small dense work runs as stacked LAPACK calls over sub-blocks of one
width; their tall combinations, one sub-block at a time.  Every
``rr_period`` rounds one shared Rayleigh-Ritz over the whole span, on the
carried A X and B X, gives every sub-block its slice of the Ritz vectors
in ascending order, and its carried directions B-projected off them, so
every recurrence stays LOBPCG across couplings (a retry after a round in
which nothing moved drops them).  On explicit products it is the refresh
of :func:`~lobpcg_kit.solver.drive`, made before a convergence claim and
at ``max_iter``, as for every solver.  A coupling merges sub-blocks, so
with one sub-block (``sub_block >= nev``) lobpcg2 is block LOBPCG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidConfigError
from .operators import LinearOperator
# Unused here; bound because perfbench/tracer.py looks them up in this module.
from .blocks import b_orthonormalize_full  # noqa: F401
from .blocks import b_project_out, rayleigh_ritz, residual_block  # noqa: F401
from .operators import norm_estimates  # noqa: F401
from .solver import LobpcgEngine, SolveResult


@dataclass
class Lobpcg2Config:
    """Knobs for the many-small-blocks solver.

    ``nev`` is padded up to the next multiple of ``sub_block`` internally;
    padded pairs are discarded on return.  ``rr_period`` is the number of
    rounds between shared Rayleigh-Ritz couplings on carried products,
    made only when there are several sub-blocks.
    """

    nev: int
    sub_block: int = 1
    rr_period: int = 1
    tol: float = 1e-8
    max_iter: int = 500
    seed: int = 0
    record_history: bool = False

    def padded_nev(self) -> int:
        return self.sub_block * math.ceil(self.nev / self.sub_block)

    def validate(self, dim: int) -> None:
        if self.nev < 1 or self.sub_block < 1:
            raise InvalidConfigError("nev and sub_block must be >= 1")
        if self.rr_period < 1:
            raise InvalidConfigError(f"rr_period must be >= 1, got {self.rr_period}")
        if self.sub_block > math.ceil(dim / 4):
            raise InvalidConfigError(
                f"sub_block {self.sub_block} exceeds ceil(dim / 4) for dim {dim}"
            )
        if self.padded_nev() > dim:
            raise InvalidConfigError(
                f"padded width {self.padded_nev()} exceeds the dimension {dim}"
            )
        if not self.tol > 0:
            raise InvalidConfigError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise InvalidConfigError(f"max_iter must be >= 1, got {self.max_iter}")


def lobpcg2_solve(a_op: LinearOperator, cfg: Lobpcg2Config, *,
                  b_op: LinearOperator | None = None,
                  precond: LinearOperator | None = None) -> SolveResult:
    """Smallest ``cfg.nev`` eigenpairs via parallel narrow recurrences.

    Result contract matches :func:`~lobpcg_kit.solver.lobpcg_solve`.  With
    several sub-blocks the reported vectors pass through one terminal
    shared Rayleigh-Ritz, so they are jointly optimal and B-orthonormal
    regardless of status.  The start block follows the engine's rule
    (:class:`~lobpcg_kit.solver.LobpcgEngine`).
    """
    return LobpcgEngine(a_op, cfg, b_op=b_op, precond=precond).run()
