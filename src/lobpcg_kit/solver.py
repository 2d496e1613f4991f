"""Blocked locally optimal eigensolver with preconditioning and soft locking.

The iteration keeps a B-orthonormal block of Ritz vectors, augments it
with preconditioned residuals and an implicitly recurred previous-direction
block, and re-extracts the smallest Ritz pairs each step.  A steepest
descent variant (no previous-direction block) is provided as a baseline.
:class:`LobpcgEngine` is the state of both and of lobpcg2's narrow
recurrences: a step is a round of one sub-block
(:meth:`LobpcgEngine._advance_round`), and a round in which nothing moves
is retried once on explicit products without the previous directions.

The products A X, B X, A P and B P are carried alongside X and P and
updated with the same Ritz coefficients, so a step applies A only to the
new direction block; the carried-product algebra (Gram matrices, the
Rayleigh-Ritz projection, B-normalization from products) lives in
:mod:`lobpcg_kit.blocks`, and this module keeps the iteration.  Its loop,
:func:`drive`, runs every solver and recomputes A X and B X explicitly
before a convergence claim and at ``max_iter``, so statuses rest on
explicit products; in between, the carried products' drift stays at
rounding level.  Without a metric, B X, B W and B P are X, W and P
themselves.  X and P share the product of [W, P]; P is B-orthogonalized
to X and normalized in their coefficient space.
The Gram blocks known by construction (X^T A X = diag(theta),
X^T B X = W^T B W = P^T B P = I) are formed only once the residuals fall
below :data:`EXPLICIT_GRAM_RTOL` (scipy's ``explicitGramFlag``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .blocks import (
    ORTHO_POST_TOL,
    OpCounters,
    b_apply,
    b_dual_basis,
    b_normalized,
    b_orthonormalize_full,
    b_orthonormalize_spans,
    b_project_out,
    carried_rayleigh_ritz,
    column_norms,
    combine_parts,
    fix_signs,
    next_direction,
    ortho_defect,
    part_grams,
    stacked_first_trials,
    sub_block_stack,
    unit_columns,
)
# Unused here; bound because perfbench/tracer.py looks them up in this module.
from .blocks import rayleigh_ritz, residual_block  # noqa: F401
from .dense import sym_eig_kernel as sym_eig  # noqa: F401
from .errors import (
    DimensionMismatchError,
    InsufficientRankError,
    InvalidConfigError,
    NotPositiveDefiniteError,
    OrthonormalizationError,
    ZeroRankError,
)
from . import operators  # perfbench/tracer.py rebinds IdentityOperator in this module
from .operators import (
    CallableOperator,
    DiagonalOperator,
    LinearOperator,
    SparseSymMatrix,
    norm_estimates,
    op_apply,
)

STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max_iter"
STATUS_BREAKDOWN = "breakdown"

#: The restart guard: a step drops P when the Cholesky of the joint B-Gram
#: matrix of [X, W, P] fails or its pivot ratio squared exceeds this.
RESTART_COND_LIMIT = 1e12

#: Residual norms at or below their convergence thresholds at this tol make
#: the engine form every Gram block explicitly from then on.
EXPLICIT_GRAM_RTOL = math.sqrt(np.finfo(float).eps)


@dataclass
class SolverConfig:
    """Knobs for the blocked solver.

    ``block_size`` defaults to ``nev``; it may not exceed ceil(dim / 4) so
    the three-block trial basis keeps a plausible rank (violations raise,
    they are never clamped).  Locking is always soft: converged columns
    stay in the basis but stop generating search directions.
    """

    nev: int
    block_size: int | None = None
    tol: float = 1e-8
    max_iter: int = 500
    seed: int = 0
    record_history: bool = False

    def resolved_block_size(self) -> int:
        return self.nev if self.block_size is None else self.block_size

    def validate(self, dim: int) -> None:
        bs = self.resolved_block_size()
        if not 1 <= self.nev <= bs:
            raise InvalidConfigError(f"need 1 <= nev <= block_size, got {self.nev}, {bs}")
        if bs > math.ceil(dim / 4):
            raise InvalidConfigError(
                f"block_size {bs} exceeds ceil(dim / 4) = {math.ceil(dim / 4)} for dim {dim}"
            )
        if not self.tol > 0:
            raise InvalidConfigError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise InvalidConfigError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass
class IterationRecord:
    """Observability snapshot of one solver state."""

    iteration: int
    ritz_values: np.ndarray
    residual_norms: np.ndarray
    locked_count: int
    #: Number of columns that entered the Rayleigh-Ritz step which
    #: produced this state (block_size for the initial state).
    basis_cols: int


@dataclass
class SolveResult:
    """Final Ritz pairs plus run diagnostics.

    ``iterations`` counts subspace-update steps actually performed, so a
    start that is already converged reports 0.  ``vectors`` holds the
    ``nev`` B-orthonormal Ritz vectors even for ``max_iter``/``breakdown``
    outcomes (best so far, never discarded).
    """

    values: np.ndarray
    vectors: np.ndarray
    status: str
    iterations: int
    residual_norms: np.ndarray
    history: list[IterationRecord] = field(default_factory=list)
    counters: OpCounters = field(default_factory=OpCounters)


class _CountingOperator(LinearOperator):
    """Transparent wrapper adding the columns it is applied to onto one
    :class:`OpCounters` field (``a_matvecs``, ``b_matvecs`` or
    ``precond_applies``)."""

    def __init__(self, inner: LinearOperator, counters: OpCounters, tally: str):
        super().__init__(inner.dim)
        self._inner = inner
        self._counters = counters
        self._tally = tally

    def apply(self, block: np.ndarray) -> np.ndarray:
        cols = block.shape[1] if block.ndim == 2 else 1
        setattr(self._counters, self._tally, getattr(self._counters, self._tally) + cols)
        return self._inner.apply(block)


class _Breakdown(Exception):
    """Internal signal: no usable search directions remain, or an operator
    returned non-finite values."""


def _require_finite(*blocks: np.ndarray) -> None:
    if not all(np.isfinite(block).all() for block in blocks):
        raise _Breakdown


def _columns(triple, cols):
    """Columns ``cols`` of a ``(V, A V, B V)`` triple, the triple itself if
    they are all its columns; B V stays V itself."""
    v, a_v, b_v = triple
    if cols == slice(0, v.shape[1]):
        return triple
    block = v[:, cols]
    return block, a_v[:, cols], block if b_v is v else b_v[:, cols]


class LobpcgEngine:
    """The one solver state, stepped by :func:`drive` for
    :func:`lobpcg_solve`, :func:`psd_solve` and
    :func:`~lobpcg_kit.solver2.lobpcg2_solve`.

    Exposed so tests can drive individual update steps and compare a
    three-block step against a steepest-descent step from an identical
    state.  Regular callers should use the solve functions.

    ``cfg`` is a :class:`SolverConfig`, or lobpcg2's ``Lobpcg2Config``,
    whose ``sub_block`` and ``rr_period`` the state takes.  Its columns are
    the sub-blocks ``slices``, advanced together a round at a time: one
    sub-block of ``block_size`` columns for a :class:`SolverConfig`, and
    ``padded_nev() / sub_block`` for lobpcg2, coupled by a shared
    Rayleigh-Ritz every ``rr_period`` rounds.  A coupling merges
    sub-blocks, so a state of one sub-block couples only to restore its X's
    B-orthonormality.  ``AX``/``BX`` and ``AP``/``BP`` hold the carried operator
    products of the iterate block ``X`` and the previous-direction block
    ``P``, whose first ``p_cols[k]`` columns of slice k are sub-block k's
    (none at 0); with ``b_op=None`` there is no B and they are ``X``/``P``.

    A diagonal or sparse ``b_op`` with a diagonal entry <= 0 is not
    positive definite and raises :class:`NotPositiveDefiniteError` before
    any operator is applied.  When A is not finite on the start block, or
    its Rayleigh-Ritz fails, the engine keeps the B-orthonormal start block
    with NaN Ritz values, and its first step reports breakdown.
    """

    def __init__(self, a_op: LinearOperator, cfg, *,
                 b_op: LinearOperator | None = None,
                 precond: LinearOperator | None = None,
                 x0: np.ndarray | None = None,
                 constraints: np.ndarray | None = None,
                 use_history_direction: bool = True):
        cfg.validate(a_op.dim)
        self._setup(a_op, b_op, precond)
        self.cfg = cfg
        sub_block = getattr(cfg, "sub_block", None)  # set by lobpcg2's config only
        self.block_size = cfg.padded_nev() if sub_block else cfg.resolved_block_size()

        self._rng = np.random.default_rng(cfg.seed)
        if constraints is not None:
            constraints = np.asarray(constraints, dtype=float)
            if constraints.ndim == 1:
                constraints = constraints[:, None]
            self.constraints, _, _, self.b_constraints = b_orthonormalize_full(
                constraints, self.b_op, self.counters)
        else:
            self.constraints = self.b_constraints = None

        if x0 is not None:
            x0 = np.asarray(x0, dtype=float)
            if x0.shape != (self.dim, self.block_size):
                raise DimensionMismatchError(
                    f"x0 must be ({self.dim}, {self.block_size}), got {x0.shape}"
                )
            if not np.all(np.isfinite(x0)):
                raise InvalidConfigError("x0 contains non-finite entries")
            start = x0.copy()
        else:
            start = self._rng.standard_normal((self.dim, self.block_size))
        start, b_start = self._full_rank_start(start)

        # an empty state stepped as sub-blocks, none of which carries directions yet
        width, sub_block = self.block_size, sub_block or self.block_size
        self.use_history_direction = use_history_direction
        self.slices = [slice(lo, lo + sub_block) for lo in range(0, width, sub_block)]
        self.iterations, self._last_basis_cols = 0, width
        self._fresh = True  # while A X and B X are explicit products: from the start, on refresh
        self._explicit_grams = np.zeros(len(self.slices), dtype=bool)  # see EXPLICIT_GRAM_RTOL
        self.p_cols = np.zeros(len(self.slices), dtype=int)
        self.P = self.AP = self.BP = None
        if len(self.slices) > 1:  # the sub-blocks write their P into its columns
            self.P = np.zeros((self.dim, width), order="F")
            self.AP = np.zeros_like(self.P)
            self.BP = self.P if self.b_op is None else np.zeros_like(self.P)
        self._start(start, op_apply(self.a_op, start), b_start)

    # -- setup helpers -------------------------------------------------

    def _setup(self, a_op: LinearOperator, b_op: LinearOperator | None,
               precond: LinearOperator | None) -> None:
        """Check the operators, estimate their norms and wrap them to count
        their columns into a fresh :class:`OpCounters`."""
        if b_op is not None and a_op.dim != b_op.dim:
            raise DimensionMismatchError(
                f"operator dimensions disagree: {a_op.dim} vs {b_op.dim}"
            )
        b_op = None if isinstance(b_op, operators.IdentityOperator) else b_op  # never applied
        if isinstance(b_op, (DiagonalOperator, SparseSymMatrix)):
            # a positive definite B has a positive diagonal
            bad = np.flatnonzero(b_op.diagonal() <= 0)
            if bad.size:
                raise NotPositiveDefiniteError(f"metric diagonal entry {bad[0]} is <= 0")
        self.dim = a_op.dim
        self.counters = OpCounters()
        self.norm_a = norm_estimates(a_op)
        self.norm_b = 1.0 if b_op is None else norm_estimates(b_op)
        self.a_op = _CountingOperator(a_op, self.counters, "a_matvecs")
        self.b_op = None if b_op is None else _CountingOperator(b_op, self.counters, "b_matvecs")
        raw_precond = precond if precond is not None else CallableOperator(a_op.dim, np.copy)
        if raw_precond.dim != a_op.dim:
            raise DimensionMismatchError(
                f"preconditioner dimension {raw_precond.dim} does not match {a_op.dim}"
            )
        self.precond = _CountingOperator(raw_precond, self.counters, "precond_applies")

    def _deflate(self, block: np.ndarray) -> np.ndarray:
        if self.constraints is None:
            return block
        return b_project_out(block, self.constraints, self.b_constraints)

    def _full_rank_start(self, start: np.ndarray):
        """Deflate, orthonormalize, and pad a start block up to full rank.

        Returns the block and its B-product.
        """
        for _ in range(3):
            candidate = self._deflate(start)
            try:
                ortho, _, _, b_ortho = b_orthonormalize_full(candidate, self.b_op, self.counters)
            except ZeroRankError:
                ortho = np.zeros((self.dim, 0))
            if ortho.shape[1] >= self.block_size:
                return ortho, b_ortho
            pad = self._rng.standard_normal((self.dim, self.block_size - ortho.shape[1]))
            start = np.hstack([ortho, pad])
        raise InsufficientRankError(
            f"could not build a rank-{self.block_size} start block"
        )

    def _start(self, x: np.ndarray, a_x: np.ndarray, b_x: np.ndarray) -> None:
        """Couple on the B-orthonormal start block ``x`` and its products;
        when a product is not finite or the Rayleigh-Ritz fails, keep ``x``
        with NaN Ritz values instead, so that the first step breaks down."""
        try:
            self.couple(x, a_x, b_x)
        except (_Breakdown, InsufficientRankError, NotPositiveDefiniteError,
                OrthonormalizationError):
            self.ritz_values, self.X, self.AX, self.BX = np.full(x.shape[1], np.nan), x, a_x, b_x
            self._update_residuals()

    def couple(self, x: np.ndarray, a_x: np.ndarray, b_x: np.ndarray, keep: bool = True) -> None:
        """Make the Ritz pairs of span(x), from its products, the state: the
        shared Rayleigh-Ritz of every sub-block, widened by random columns
        when they collapse.  Every sub-block keeps its P, B-projected off
        the new X, if ``keep``."""
        _require_finite(a_x, b_x)
        self.counters.rayleigh_ritz_calls += 1
        parts = [(x, a_x, b_x)]
        try:
            values, x, a_x, b_x, _, _ = carried_rayleigh_ritz(parts, self.block_size)
        except InsufficientRankError:
            # recurrences collapsed: widen the span with random columns
            fill = self._deflate(self._rng.standard_normal((x.shape[0], self.block_size)))
            parts.append((fill, op_apply(self.a_op, fill), b_apply(self.b_op, fill)))
            _require_finite(*parts[1])
            values, x, a_x, b_x, _, _ = carried_rayleigh_ritz(parts, self.block_size)
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

    # -- state inspection ----------------------------------------------

    def _update_residuals(self) -> None:
        """Residuals and their norms, and X's column norms, of a new state."""
        self.R = self.AX - self.BX * self.ritz_values[None, :]
        if self.constraints is not None:  # the pencil's residual off span(Y)
            self.R = b_project_out(self.R, self.b_constraints, self.constraints)
        self.residual_norms = column_norms(self.R)
        self._x_norms = column_norms(self.X)

    def _refresh_products(self, keep: bool = True) -> None:
        """Recompute A X and B X explicitly, and the residuals from them.

        A state of several sub-blocks couples on them (:meth:`couple`), as
        does one whose max|X^T B X - I| exceeds :data:`ORTHO_POST_TOL`; a
        state of one sub-block otherwise adopts them.  P is kept if
        ``keep``.  Raises the internal breakdown signal, leaving the state
        untouched, when a product is not finite.
        """
        a_x, b_x = op_apply(self.a_op, self.X), b_apply(self.b_op, self.X)
        _require_finite(a_x, b_x)
        if len(self.slices) > 1 or ortho_defect(self.X.T @ b_x) > ORTHO_POST_TOL:
            self.couple(self.X, a_x, b_x, keep)
            self._last_basis_cols += self.block_size  # the round's columns, then the coupling's
        else:
            self.AX, self.BX = a_x, b_x
            if not keep:
                self._keep_direction(0, None)
            self._update_residuals()
        self._fresh = True

    def convergence_thresholds(self, tol: float | None = None) -> np.ndarray:
        """Each column's residual threshold at ``tol``, ``cfg.tol`` by default."""
        scale = self.norm_a + np.abs(self.ritz_values) * self.norm_b
        return (self.cfg.tol if tol is None else tol) * scale * self._x_norms

    def converged_mask(self) -> np.ndarray:
        return self.residual_norms <= self.convergence_thresholds()

    # -- the update step -------------------------------------------------

    def step(self) -> None:
        """One round: every sub-block steps once over its columns that have
        not converged (every column once all have), after a coupling on
        carried products when there are several sub-blocks and the last
        round was an ``rr_period``-th one that drive did not refresh.

        When nothing moves, the state refreshes its products and drops P
        (:meth:`_refresh_products`), so that a stall does not repeat with
        it, and counts that retry as the round once it succeeds; it raises
        the internal breakdown signal instead when its products are explicit
        and no sub-block holds a P.
        """
        # several sub-blocks come from lobpcg2's config, which sets rr_period
        coupled = (len(self.slices) > 1 and not self._fresh
                   and self.iterations % self.cfg.rr_period == 0)
        if coupled:
            self.couple(self.X, self.AX, self.BX)
        conv = self.converged_mask()
        if conv.all():
            conv[:] = False
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
            if self._fresh and not self.p_cols.any():
                raise _Breakdown
            self._refresh_products(keep=False)
            self.iterations, self._last_basis_cols = self.iterations + 1, self.block_size
            return
        self.iterations += 1
        self._update_residuals()
        self._fresh, self._last_basis_cols = False, self.block_size * coupled + sum(widths)

    def _parts(self, k: int) -> list:
        """Sub-block k's ``(X, A X, B X)`` and, if it has one and the state
        uses it, its ``(P, A P, B P)``: the state's blocks or views of them."""
        cols = self.slices[k]
        parts = [_columns((self.X, self.AX, self.BX), cols)]
        if self.p_cols[k] and self.use_history_direction:
            parts.append(_columns((self.P, self.AP, self.BP),
                                  slice(cols.start, cols.start + self.p_cols[k])))
        return parts

    def _keep(self, k: int, names: tuple, blocks) -> None:
        """Put sub-block k's ``blocks`` in the state's blocks ``names``: a
        state of one sub-block holds them by reference (None included), a
        state of several writes them into the sub-block's leading columns."""
        lo = self.slices[k].start
        for name, block in zip(names, blocks):
            if len(self.slices) == 1:
                setattr(self, name, block)
            elif block is not None:
                getattr(self, name)[:, lo:lo + block.shape[1]] = block

    def _keep_direction(self, k: int, direction) -> None:
        """Keep sub-block k's carried ``(P, A P, B P)``, or None, in the state."""
        self.p_cols[k] = 0 if direction is None else direction[0].shape[1]
        self._keep(k, ("P", "AP", "BP"), direction or (None,) * 3)

    def _join(self, widths: list, blocks) -> np.ndarray:
        """The ``blocks``, of ``widths`` columns, side by side in one
        column-major block, taken one at a time; the block itself if one."""
        if len(widths) == 1:
            return next(iter(blocks))
        out, edges = np.empty((self.dim, sum(widths)), order="F"), [0, *accumulate(widths)]
        for block, lo, hi in zip(blocks, edges[:-1], edges[1:]):
            out[:, lo:hi] = block
        return out

    def _advance_round(self, moving: list) -> list:
        """Both phases of a step for every moving sub-block, ``(k, active
        columns)``, with one preconditioner, B and A apply each; returns
        the trial widths of the sub-blocks that moved.  Phase 1 makes W from
        the active residuals: projected off the whole X (one B-dual basis)
        when there are several sub-blocks, preconditioned, deflated,
        B-projected off the sub-block's own X and B-orthonormalized."""
        widths = [active.size for _, active in moving]
        if len(self.slices) == 1:  # the sub-block's own X is the whole X
            residuals = self.R[:, moving[0][1]]
        else:
            dual = b_dual_basis(self.X, self.BX)
            residuals = self._join(widths, (b_project_out(self.R[:, active], self.X, dual)
                                            for _, active in moving))
            del dual
        directions = self.precond.apply(residuals)
        del residuals
        edges = [0, *accumulate(widths)]
        spans = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
        own = [_columns((self.X, self.AX, self.BX), self.slices[k]) for k, _ in moving]
        out = self._join(widths, (
            unit_columns(b_project_out(self._deflate(directions[:, span]), x, b_x))[0]
            for (x, _, b_x), span in zip(own, spans)))
        del directions, own
        steps = [(k, *step) for (k, _), step in zip(
            moving, b_orthonormalize_spans(out, spans, self.b_op, self.counters)) if step]
        del out
        if not steps:
            return []
        # W and B W join into the A apply's input, and the blocks of phase 1 are freed
        widths = [w.shape[1] for _, w, _ in steps]
        w_all = self._join(widths, (w for _, w, _ in steps))
        b_w_all = w_all if self.b_op is None else self._join(widths, (b_w for _, _, b_w in steps))
        blocks = [k for k, _, _ in steps]
        del steps
        a_w_all = op_apply(self.a_op, w_all)
        return self._rayleigh_ritz_round(blocks, [0, *accumulate(widths)],
                                         (w_all, a_w_all, b_w_all))

    def _rayleigh_ritz_round(self, blocks: list, edges: list, directions) -> list:
        """Phase 2 for the sub-blocks ``blocks``, whose W, A W and B W are
        the column spans between ``edges`` of ``directions``, with the first
        trials' small dense work stacked."""
        members = []
        for k, lo, hi in zip(blocks, edges[:-1], edges[1:]):
            members.append(self._parts(k))
            members[-1].insert(1, _columns(directions, slice(lo, hi)))
        grams = self._stacked_grams(blocks, members, directions) if len(blocks) > 1 else None
        pairs = list(zip(*grams)) if grams else [
            part_grams(parts, None if self._explicit_grams[k] else self.ritz_values[self.slices[k]])
            for k, parts in zip(blocks, members)]
        firsts = [None] if len(pairs) == 1 else stacked_first_trials(
            pairs, [RESTART_COND_LIMIT if len(parts) == 3 else np.inf for parts in members],
            members[0][0][0].shape[1])  # the sub-blocks' width
        return [width for width in map(self._update_sub_block, blocks, members, pairs, firsts)
                if width]

    def _stacked_grams(self, blocks: list, members: list, directions):
        """Every sub-block's Gram matrices, as ``(k, m, m)`` stacks formed
        over stacked views, when all of them move with one shape and one
        Gram rule; None otherwise."""
        shapes = {tuple(v.shape[1] for v, _, _ in parts) for parts in members}
        rule = {bool(self._explicit_grams[k]) for k in blocks}
        if len(blocks) < len(self.slices) or len(shapes) > 1 or len(rule) > 1:
            return None
        width, w_cols, *p_cols = shapes.pop()
        stacks = [[sub_block_stack(b, width) for b in (self.X, self.AX, self.BX)],
                  [sub_block_stack(b, w_cols) for b in directions]]
        stacks += [[sub_block_stack(b, width, p_cols[0]) for b in (self.P, self.AP, self.BP)]
                   ] if p_cols else []
        return part_grams(stacks, None if rule.pop() else self.ritz_values.reshape(-1, width))

    def _update_sub_block(self, k: int, parts: list, grams, first) -> int:
        """Phase 2 for sub-block k: the Rayleigh-Ritz over ``parts``, the
        ``(V, A V, B V)`` triples of its X, W and carried P if any, with
        their :func:`part_grams` ``grams``, and its next P, kept in the
        state.  Returns the trial's width; 0, and the state untouched, when
        the Gram matrices are not finite or the trial without P fails.
        The restart guard (a Cholesky failing :data:`RESTART_COND_LIMIT`)
        drops P, as does a trial with P that falls short of rank or fails
        its post-check.  ``first`` holds the first trial's
        :func:`~lobpcg_kit.blocks.ritz_coefficients` and, or None,
        :func:`~lobpcg_kit.blocks.direction_coefficients` if formed already.
        """
        gram_a, gram_b = grams
        if not (np.isfinite(gram_a).all() and np.isfinite(gram_b).all()):
            return 0
        for trial in [parts, parts[:2]] if len(parts) == 3 else [parts]:
            width = sum(block.shape[1] for block, _, _ in trial)
            self.counters.rayleigh_ritz_calls += 1
            try:
                values, x, a_x, b_x, coeff, tail = carried_rayleigh_ritz(
                    trial, parts[0][0].shape[1], gram_a[:width, :width], gram_b[:width, :width],
                    RESTART_COND_LIMIT if len(trial) == 3 else np.inf, first and first[:2])
                break
            except (InsufficientRankError, NotPositiveDefiniteError, OrthonormalizationError):
                first = None
        else:
            return 0
        keep_p = self.use_history_direction
        direction = None if tail is None or not keep_p else next_direction(
            (x, a_x, b_x), tail, coeff, gram_b[:width, :width], parts[0][0].shape[1],
            first and first[2])
        self.counters.orthonormalizations += int(keep_p)
        self.ritz_values[self.slices[k]] = values
        self._keep(k, ("X", "AX", "BX"), (x, a_x, b_x))
        self._keep_direction(k, direction)
        return width

    def salvage(self) -> None:
        """After any breakdown, a state of several sub-blocks couples on its
        carried products unless fresh: an explicit product may be what is
        not finite.  A state of one sub-block keeps its pairs, since its
        stall retry has tried explicit products already."""
        if len(self.slices) > 1 and not self._fresh:
            try:
                self.couple(self.X, self.AX, self.BX, keep=False)
            except (_Breakdown, InsufficientRankError, OrthonormalizationError):
                pass

    def run(self) -> SolveResult:
        return drive(self, self.cfg.nev, self.cfg.max_iter, self.cfg.record_history)


def drive(state, nev: int, max_iter: int, record_history: bool) -> SolveResult:
    """The iteration loop of every solver: claims, stopping and history.

    ``state`` is a :class:`LobpcgEngine`, the state of every solver.
    Carried products are refreshed in two cases only, before a convergence
    claim and at ``max_iter`` (one schedule for every solver), so statuses
    rest on explicit products.  Breakdown ends after ``salvage``.
    """
    history: list[IterationRecord] = []
    n_locked = 0
    status = None
    while status is None:
        try:
            conv = state.converged_mask()
            if not state._fresh and (np.all(conv[:nev]) or state.iterations >= max_iter):
                state._refresh_products()
                conv = state.converged_mask()
            n_locked = max(n_locked, int(np.cumprod(conv).sum()))  # leading converged
            if record_history:
                values, norms = state.ritz_values, state.residual_norms
                order = np.argsort(values, kind="stable")  # lobpcg2's sub-blocks step apart
                history.append(IterationRecord(state.iterations, values[order], norms[order],
                                               n_locked, state._last_basis_cols))
            if np.all(conv[:nev]):
                status = STATUS_CONVERGED
            elif state.iterations >= max_iter:
                status = STATUS_MAX_ITER
            else:
                state.step()
        except (_Breakdown, OrthonormalizationError):
            # a state is mutated only once fully assembled and finite, so
            # the best-so-far pairs are intact here
            status = STATUS_BREAKDOWN
            state.salvage()
    vectors = state.X[:, :nev].copy()
    fix_signs(vectors)
    return SolveResult(values=state.ritz_values[:nev].copy(), vectors=vectors,
                       status=status, iterations=state.iterations,
                       residual_norms=state.residual_norms[:nev].copy(), history=history,
                       counters=state.counters)


def lobpcg_solve(a_op: LinearOperator, cfg: SolverConfig, *,
                 b_op: LinearOperator | None = None,
                 precond: LinearOperator | None = None,
                 x0: np.ndarray | None = None,
                 constraints: np.ndarray | None = None) -> SolveResult:
    """Smallest ``cfg.nev`` eigenpairs of A x = lambda B x.

    B defaults to the identity metric and ``precond`` to none.  ``x0``
    (block_size columns) enables warm starts; ``constraints`` columns are
    known eigenvectors deflated from all search directions.  Breakdown is
    reported through ``result.status``, never raised.
    """
    engine = LobpcgEngine(a_op, cfg, b_op=b_op, precond=precond, x0=x0,
                          constraints=constraints, use_history_direction=True)
    return engine.run()


def psd_solve(a_op: LinearOperator, cfg: SolverConfig, *,
              b_op: LinearOperator | None = None,
              precond: LinearOperator | None = None,
              x0: np.ndarray | None = None,
              constraints: np.ndarray | None = None) -> SolveResult:
    """Preconditioned steepest descent baseline: trial basis [X | W] only."""
    engine = LobpcgEngine(a_op, cfg, b_op=b_op, precond=precond, x0=x0,
                          constraints=constraints, use_history_direction=False)
    return engine.run()
