"""Many-small-blocks variant: independent narrow recurrences plus a shared
Rayleigh-Ritz coupling step.

For ``nev`` requested pairs and a sub-block width ``nb``, ``nev / nb``
width-``nb`` LOBPCG recurrences advance in parallel as the column
sub-blocks of one column-major state, a round at a time, through the
round that every solver steps with
(:meth:`~lobpcg_kit.solver.LobpcgEngine._advance_round`).  A round
B-projects every moving sub-block's active residuals off the whole
iterate block (one B-dual basis), so the recurrences do not collapse onto
the same eigenvectors, and applies the preconditioner, B and A once each.
Their small dense work runs as stacked LAPACK calls over sub-blocks of
one width; their tall combinations, one sub-block at a time.  Every
``rr_period`` rounds one shared Rayleigh-Ritz over the whole span, on the
carried A X and B X, gives every sub-block its slice of the Ritz vectors
in ascending order, and its carried directions B-projected off them, so
every recurrence stays LOBPCG across couplings (a retry after a round in
which nothing moved drops them).  On explicit products it is the refresh
of :func:`~lobpcg_kit.solver.drive`, made before a convergence claim and
at ``max_iter``, as for every solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import (
    b_apply,
    b_normalized,
    b_orthonormalize_full,
    carried_rayleigh_ritz,
    combine_parts,
)
from .errors import InsufficientRankError, InvalidConfigError, OrthonormalizationError
from .operators import LinearOperator, op_apply
# Unused here; bound because perfbench/tracer.py looks them up in this module.
from .blocks import b_project_out, rayleigh_ritz, residual_block  # noqa: F401
from .operators import norm_estimates  # noqa: F401
from .solver import (
    EXPLICIT_GRAM_RTOL,
    LobpcgEngine,
    SolveResult,
    _Breakdown,
    _require_finite,
    drive,
)


@dataclass
class Lobpcg2Config:
    """Knobs for the many-small-blocks solver.

    ``nev`` is padded up to the next multiple of ``sub_block`` internally;
    padded pairs are discarded on return.  ``rr_period`` is the number of
    rounds between shared Rayleigh-Ritz couplings on carried products.
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


class _Rounds(LobpcgEngine):
    """lobpcg2's state for :func:`~lobpcg_kit.solver.drive`: the engine's
    state, one recurrence per column sub-block, advanced a round at a time
    and coupled by a shared Rayleigh-Ritz, on explicit products as its
    refresh."""

    def __init__(self, a_op: LinearOperator, cfg: Lobpcg2Config, b_op, precond):
        self._setup(a_op, b_op, precond)
        self.cfg, self.padded, self.rr_period = cfg, cfg.padded_nev(), cfg.rr_period
        self._sub_blocks(self.padded, cfg.sub_block)
        self.rng, self.constraints = np.random.default_rng(cfg.seed), None
        self.P = np.zeros((self.dim, self.padded), order="F")
        self.AP = np.zeros_like(self.P)
        self.BP = self.P if self.b_op is None else np.zeros_like(self.P)

    def couple(self, x: np.ndarray, a_x: np.ndarray, b_x: np.ndarray, keep: bool = True) -> None:
        """Shared Rayleigh-Ritz; every sub-block keeps its P, B-projected off
        the new X, if ``keep``."""
        _require_finite(a_x, b_x)
        self.counters.rayleigh_ritz_calls += 1
        parts = [(x, a_x, b_x)]
        try:
            values, x, a_x, b_x, _, _ = carried_rayleigh_ritz(parts, self.padded)
        except InsufficientRankError:
            # recurrences collapsed: widen the span with random columns
            fill = self.rng.standard_normal((x.shape[0], self.padded))
            parts.append((fill, op_apply(self.a_op, fill), b_apply(self.b_op, fill)))
            _require_finite(*parts[1])
            values, x, a_x, b_x, _, _ = carried_rayleigh_ritz(parts, self.padded)
        del parts
        self.ritz_values, self.X, self.AX, self.BX = values, x, a_x, b_x
        for k in range(len(self.slices)):
            direction = None
            if keep and self.p_cols[k]:  # P -= X (B X)^T P, one sub-block at a time
                self.counters.orthonormalizations += 1
                p = self._parts(k)[1]
                direction = b_normalized(combine_parts(  # P may hold fewer than nb columns
                    [p, (x, a_x, b_x)], np.vstack([np.eye(p[0].shape[1]), -(b_x.T @ p[0])])))
            self._keep_direction(k, direction)
        self._update_residuals()

    def _refresh_products(self, keep: bool = True) -> None:
        self.couple(self.X, op_apply(self.a_op, self.X), b_apply(self.b_op, self.X), keep)
        self._fresh = True
        self._last_basis_cols += self.padded  # the round's columns, then the coupling's

    def step(self) -> None:
        """One round: every sub-block that has not converged steps once,
        after a coupling on carried products when the last round was an
        ``rr_period``-th one that drive did not refresh."""
        coupled = not self._fresh and self.iterations % self.rr_period == 0
        if coupled:
            self.couple(self.X, self.AX, self.BX)
        conv = self.converged_mask()
        explicit = self.residual_norms <= self.convergence_thresholds(EXPLICIT_GRAM_RTOL)
        moving = []  # (sub-block, its active columns)
        for k, cols in enumerate(self.slices):
            if conv[cols].all():
                continue  # a fully converged recurrence idles
            active = cols.start + np.flatnonzero(~conv[cols])
            if np.isfinite(self.residual_norms[active]).all():
                self._explicit_grams[k] |= bool(explicit[cols].all())
                moving.append((k, active))
        widths = self._advance_round(moving) if moving else []
        if not widths:
            # nothing moved: give up when no sub-block holds P; otherwise
            # couple without P, so that a stall does not repeat with it, and retry
            if self._fresh and not self.p_cols.any():
                raise _Breakdown
            self.iterations += 1
            self._refresh_products(keep=False)
            self._last_basis_cols = self.padded
            return
        self.iterations += 1
        self._update_residuals()
        self._fresh, self._last_basis_cols = False, self.padded * coupled + sum(widths)

    def salvage(self, in_step: bool) -> None:
        """After any breakdown, couple on the carried products unless fresh:
        an explicit product may be what is not finite."""
        if not self._fresh:
            try:
                self.couple(self.X, self.AX, self.BX, keep=False)
            except (_Breakdown, InsufficientRankError, OrthonormalizationError):
                pass


def lobpcg2_solve(a_op: LinearOperator, cfg: Lobpcg2Config, *,
                  b_op: LinearOperator | None = None,
                  precond: LinearOperator | None = None) -> SolveResult:
    """Smallest ``cfg.nev`` eigenpairs via parallel narrow recurrences.

    Result contract matches :func:`~lobpcg_kit.solver.lobpcg_solve`; the
    reported vectors always pass through one terminal shared Rayleigh-Ritz,
    so they are jointly optimal and B-orthonormal regardless of status.
    The start block follows the engine's rule (:class:`LobpcgEngine`).
    """
    cfg.validate(a_op.dim)
    rounds = _Rounds(a_op, cfg, b_op, precond)
    x, _, _, b_x = b_orthonormalize_full(rounds.rng.standard_normal((a_op.dim, rounds.padded)),
                                         rounds.b_op, rounds.counters)
    rounds._start(x, op_apply(rounds.a_op, x), b_x)
    del x, b_x  # the state holds the coupling's own blocks
    return drive(rounds, cfg.nev, cfg.max_iter, cfg.record_history)
