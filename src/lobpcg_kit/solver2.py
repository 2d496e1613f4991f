"""Many-small-blocks variant: independent narrow recurrences plus a shared
Rayleigh-Ritz coupling step.

For ``nev`` requested pairs and a sub-block width ``nb``, ``nev / nb``
width-``nb`` LOBPCG recurrences advance in parallel as the column
sub-blocks of one column-major state, a round at a time, through the two
phases of :meth:`~lobpcg_kit.solver.LobpcgEngine.step`.  A round B-projects
every moving sub-block's active residuals off the whole iterate block (one
B-dual basis), so the recurrences do not collapse onto the same
eigenvectors, and applies the preconditioner, B and A once each.  Their
small dense work runs as stacked LAPACK calls over sub-blocks of one width;
their tall combinations, one sub-block at a time.  Every ``rr_period``
rounds one shared Rayleigh-Ritz over the whole span, on the carried A X and
B X, gives every sub-block its slice of the Ritz vectors in ascending order,
and its carried directions B-projected off them, so every recurrence stays
LOBPCG across couplings (a retry after a round in which nothing moved drops
them).  On explicit products it is the refresh of
:func:`~lobpcg_kit.solver.drive`, on the schedule of every solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import (
    b_apply,
    b_dual_basis,
    b_normalized,
    b_orthonormalize_full,
    b_orthonormalize_spans,
    b_project_out,
    carried_rayleigh_ritz,
    combine_parts,
    part_grams,
    stacked_first_trials,
    sub_block_stack,
    unit_columns,
)
from .errors import InsufficientRankError, InvalidConfigError, OrthonormalizationError
from .operators import LinearOperator, op_apply
# Unused here; bound because perfbench/tracer.py looks them up in this module.
from .blocks import rayleigh_ritz, residual_block  # noqa: F401
from .operators import norm_estimates  # noqa: F401
from .solver import (
    EXPLICIT_GRAM_RTOL,
    RESTART_COND_LIMIT,
    STATUS_BREAKDOWN,
    LobpcgEngine,
    SolveResult,
    _Breakdown,
    _require_finite,
    drive,
    ritz_update,
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


def _columns(triple, cols):
    """Columns ``cols`` of a ``(V, A V, B V)`` triple; B V stays V itself."""
    v, a_v, b_v = triple
    block = v[:, cols]
    return block, a_v[:, cols], block if b_v is v else b_v[:, cols]


class _Rounds(LobpcgEngine):
    """lobpcg2's state for :func:`~lobpcg_kit.solver.drive`: the engine's
    state, one recurrence per column sub-block, advanced a round at a time
    and coupled by a shared Rayleigh-Ritz, on explicit products as its
    refresh.  Sub-block k's P is the first ``p_cols[k]`` columns of its
    slice of P (none at 0)."""

    def __init__(self, a_op: LinearOperator, cfg: Lobpcg2Config, b_op, precond):
        self._setup(a_op, b_op, precond)
        self.cfg, self.padded, self.rr_period = cfg, cfg.padded_nev(), cfg.rr_period
        self.slices = [slice(lo, lo + cfg.sub_block) for lo in range(0, self.padded, cfg.sub_block)]
        self.rng, self.constraints = np.random.default_rng(cfg.seed), None
        self.iterations, self._last_basis_cols = 0, self.padded
        self._fresh = True  # while the state holds a shared Rayleigh-Ritz on explicit products
        self._explicit_grams = np.zeros(len(self.slices), dtype=bool)  # per sub-block
        self.p_cols = np.zeros(len(self.slices), dtype=int)
        self.P = np.zeros((self.dim, self.padded), order="F")
        self.AP = np.zeros_like(self.P)
        self.BP = self.P if self.b_op is None else np.zeros_like(self.P)

    def _parts(self, k: int) -> list:
        """Sub-block k's ``(X, A X, B X)`` and, if it has one, its
        ``(P, A P, B P)``: views of the state."""
        cols = self.slices[k]
        parts = [_columns((self.X, self.AX, self.BX), cols)]
        if self.p_cols[k]:
            parts.append(_columns((self.P, self.AP, self.BP),
                                  slice(cols.start, cols.start + self.p_cols[k])))
        return parts

    def _keep_direction(self, k: int, direction) -> None:
        """Write sub-block k's carried ``(P, A P, B P)``, or None, into the state."""
        self.p_cols[k] = 0 if direction is None else direction[0].shape[1]
        if direction is not None:
            for state, block in zip(self._parts(k)[1], direction):
                state[...] = block

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
        self.iterations += 1
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
            self._refresh_products(keep=False)
            self._last_basis_cols = self.padded
            return
        self._update_residuals()
        self._fresh, self._last_basis_cols = False, self.padded * coupled + sum(widths)

    def _advance_round(self, moving: list) -> list:
        """Both phases of a step for every moving sub-block, ``(k, active
        columns)``, with one preconditioner, B and A apply each; returns
        the trial widths of the sub-blocks that moved."""
        edges = np.cumsum([0] + [active.size for _, active in moving])
        spans = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
        out = np.empty((self.dim, edges[-1]), order="F")
        dual = b_dual_basis(self.X, self.BX)
        for (_, active), span in zip(moving, spans):
            out[:, span] = b_project_out(self.R[:, active], self.X, dual)
        del dual
        directions = self.precond.apply(out)
        for (k, _), span in zip(moving, spans):
            x, _, b_x = self._parts(k)[0]
            out[:, span] = unit_columns(b_project_out(directions[:, span], x, b_x))[0]
        del directions
        steps = [(k, *step) for (k, _), step in zip(
            moving, b_orthonormalize_spans(out, spans, self.b_op, self.counters)) if step]
        del out
        if not steps:
            return []
        # W and B W move into the A apply's input, and the blocks of phase 1 are freed
        edges = np.cumsum([0] + [w.shape[1] for _, w, _ in steps])
        w_all = np.empty((self.dim, edges[-1]), order="F")
        b_w_all = w_all if self.b_op is None else np.empty_like(w_all)
        for (_, w, b_w), lo, hi in zip(steps, edges[:-1], edges[1:]):
            w_all[:, lo:hi], b_w_all[:, lo:hi] = w, b_w
        blocks = [k for k, _, _ in steps]
        del steps, w, b_w
        a_w_all = op_apply(self.a_op, w_all)
        return self._rayleigh_ritz_round(blocks, edges, (w_all, a_w_all, b_w_all))

    def _rayleigh_ritz_round(self, blocks: list, edges: np.ndarray, directions) -> list:
        """Phase 2 for the sub-blocks ``blocks``, whose W, A W and B W are
        the column spans between ``edges`` of ``directions``, with the first
        trials' small dense work stacked."""
        members, identity = [], directions[2] is directions[0]
        for k, lo, hi in zip(blocks, edges[:-1], edges[1:]):
            w, a_w, b_w = (block[:, lo:hi] for block in directions)
            members.append(self._parts(k))
            members[-1].insert(1, (w, a_w, w if identity else b_w))
        grams = self._stacked_grams(blocks, members, directions)
        pairs = list(zip(*grams)) if grams else [
            part_grams(parts, None if self._explicit_grams[k] else self.ritz_values[self.slices[k]])
            for k, parts in zip(blocks, members)]
        firsts = stacked_first_trials(
            pairs, [RESTART_COND_LIMIT if len(parts) == 3 else np.inf for parts in members],
            self.cfg.sub_block)
        return [width for width in map(self._update_sub_block, blocks, members, pairs, firsts)
                if width]

    def _stacked_grams(self, blocks: list, members: list, directions):
        """Every sub-block's Gram matrices, as ``(k, m, m)`` stacks formed
        over stacked views, when all of them move with one shape and one
        Gram rule; None otherwise."""
        shapes = {tuple(v.shape[1] for v, _, _ in parts) for parts in members}
        rule = {bool(self._explicit_grams[k]) for k in blocks}
        if len(blocks) < max(2, len(self.slices)) or len(shapes) > 1 or len(rule) > 1:
            return None
        (_, w_cols, *p_cols), width = shapes.pop(), self.cfg.sub_block
        stacks = [[sub_block_stack(b, width) for b in (self.X, self.AX, self.BX)],
                  [sub_block_stack(b, w_cols) for b in directions]]
        stacks += [[sub_block_stack(b, width, p_cols[0]) for b in (self.P, self.AP, self.BP)]
                   ] if p_cols else []
        return part_grams(stacks, None if rule.pop() else self.ritz_values.reshape(-1, width))

    def _update_sub_block(self, k: int, parts: list, grams, first) -> int:
        """Sub-block k's :func:`~lobpcg_kit.solver.ritz_update`, written into
        the state; returns its trial width, 0 when it did not move."""
        try:
            values, ritz, direction, width = ritz_update(
                parts, self.cfg.sub_block, self.counters, True, grams, first)
        except (_Breakdown, OrthonormalizationError):
            return 0
        self.ritz_values[self.slices[k]] = values
        for state, block in zip(parts[0], ritz):
            state[...] = block
        self._keep_direction(k, direction)
        return width

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
    When A is not finite on the start block, the B-orthonormal start
    columns are returned with NaN values and ``breakdown``.
    """
    cfg.validate(a_op.dim)
    rounds = _Rounds(a_op, cfg, b_op, precond)
    start = rounds.rng.standard_normal((a_op.dim, cfg.padded_nev()))
    x, _, _, b_x = b_orthonormalize_full(start, rounds.b_op, rounds.counters)
    a_x = op_apply(rounds.a_op, x)
    if not np.isfinite(a_x).all():
        nan = np.full(cfg.nev, np.nan)
        return SolveResult(values=nan, vectors=x[:, :cfg.nev].copy(), status=STATUS_BREAKDOWN,
                           iterations=0, residual_norms=nan.copy(), counters=rounds.counters)
    del start
    rounds.couple(x, a_x, b_x)
    del x, a_x, b_x  # the state holds the coupling's own blocks
    return drive(rounds, cfg.nev, cfg.max_iter, cfg.record_history)
