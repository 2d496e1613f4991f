"""Blocked locally optimal eigensolver with preconditioning and soft locking.

The iteration keeps a B-orthonormal block of Ritz vectors, augments it
with preconditioned residuals and an implicitly recurred previous-direction
block, and re-extracts the smallest Ritz pairs each step.  A steepest
descent variant (no previous-direction block) is provided as a baseline.
lobpcg2 is block LOBPCG cut into narrow sub-blocks (``sub_block``), which
one :class:`SolverConfig` sets for every solver.  :class:`LobpcgEngine` is
the state of all three: a step is a round of its sub-blocks
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
rounding level.  Each of X, W and P is held with its products as one
:mod:`~lobpcg_kit.blocks` stack ``(A V, V, B V)``, so that one matmul
maps all of them; without a metric the stack is ``(A V, V)`` and B V is V
by layout.  X and P share the product of [W, P]; P is B-orthogonalized to
X and normalized in their coefficient space.
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
    product_stack,
    stack_of,
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
    LobpcgKitError,
    NotPositiveDefiniteError,
    ZeroRankError,
)
# read as operators.IdentityOperator: perfbench/tracer.py binds a factory
# function, which isinstance cannot take, to that name in this module
from . import operators
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
    """Knobs for every solver.

    The iterate block's :meth:`width` is ``block_size`` (``nev`` by
    default) rounded up to a multiple of ``sub_block``, one sub-block if
    None; pairs past ``nev`` are discarded on return.  A sub-block may not
    exceed ceil(dim / 4) so the three-block trial basis keeps a plausible
    rank (violations raise, they are never clamped).  Sub-blocks couple
    every ``rr_period`` rounds.  Locking is always soft: converged columns
    stay in the basis but stop generating search directions.
    """

    nev: int
    block_size: int | None = None
    sub_block: int | None = None
    rr_period: int = 1
    tol: float = 1e-8
    max_iter: int = 500
    seed: int = 0
    record_history: bool = False

    def width(self) -> int:
        size = self.nev if self.block_size is None else self.block_size
        step = self.sub_block or 1
        return step * math.ceil(size / step)

    def validate(self, dim: int) -> None:
        bs = self.nev if self.block_size is None else self.block_size
        name, cols = ("block_size", bs) if self.sub_block is None else ("sub_block", self.sub_block)
        for holds, message in [
            (1 <= self.nev <= bs, f"need 1 <= nev <= block_size, got {self.nev}, {bs}"),
            (cols >= 1, f"sub_block must be >= 1, got {cols}"),
            (self.rr_period >= 1, f"rr_period must be >= 1, got {self.rr_period}"),
            (cols <= math.ceil(dim / 4),
             f"{name} {cols} exceeds ceil(dim / 4) = {math.ceil(dim / 4)} for dim {dim}"),
            (self.width() <= dim, f"padded width {self.width()} exceeds the dimension {dim}"),
            (self.tol > 0, f"tol must be positive, got {self.tol}"),
            (self.max_iter >= 1, f"max_iter must be >= 1, got {self.max_iter}"),
        ]:
            if not holds:
                raise InvalidConfigError(message)


class Lobpcg2Config(SolverConfig):
    """A :class:`SolverConfig` whose sub-blocks default to one column."""

    def __init__(self, nev: int, sub_block: int | None = 1, **knobs):
        super().__init__(nev, sub_block=sub_block, **knobs)


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
    outcomes (best so far, never discarded).  ``cause`` names the class and
    message of the error that ended a run in ``breakdown``, and is None for
    any other status.
    """

    values: np.ndarray
    vectors: np.ndarray
    status: str
    iterations: int
    residual_norms: np.ndarray
    history: list[IterationRecord] = field(default_factory=list)
    counters: OpCounters = field(default_factory=OpCounters)
    cause: str | None = None


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


class _Breakdown(LobpcgKitError):
    """No usable search directions remain, or an operator returned
    non-finite values: like any error of this package, it ends a run."""


def _require_finite(stack: np.ndarray) -> None:
    if not np.isfinite(stack).all():
        raise _Breakdown("non-finite product")


class LobpcgEngine:
    """The one solver state, stepped by :func:`drive` for
    :func:`lobpcg_solve`, :func:`psd_solve` and :func:`lobpcg2_solve`.

    Exposed so tests can drive individual update steps and compare a
    three-block step against a steepest-descent step from an identical
    state.  Regular callers should use the solve functions.

    Its ``cfg.width()`` columns are the width-``cfg.sub_block`` sub-blocks
    ``slices`` (one if None): narrow LOBPCG recurrences advanced together,
    a round at a time.  A round B-projects the active residuals off the
    whole ``X`` (one B-dual basis), so that the recurrences do not collapse
    onto the same eigenvectors, and applies the preconditioner, B and A
    once each; the small dense work of sub-blocks of one width runs as
    stacked LAPACK calls.  Every ``rr_period`` rounds a shared
    Rayleigh-Ritz on carried products (:meth:`couple`) gives every
    sub-block its slice of the Ritz vectors, in ascending order, and its P
    B-projected off them.  A coupling merges sub-blocks, so a state of one
    sub-block, block LOBPCG, couples only to restore its X's
    B-orthonormality.  ``xs`` and ``ps`` are the stacks ``(A X, X, B X)``
    and ``(A P, P, B P)`` of the iterate block X and the previous-direction
    block P with their carried products, ``(A X, X)`` and ``(A P, P)``
    with ``b_op=None``; the first ``p_cols[k]`` columns of slice k of P are
    sub-block k's (none at 0).

    A diagonal or sparse ``b_op`` with a diagonal entry <= 0 is not
    positive definite and raises :class:`NotPositiveDefiniteError` before
    any operator is applied.  Once built, its :meth:`run` raises nothing.
    When A is not finite on the start block, or any error of this package
    arises in its coupling, it keeps the B-orthonormal start block with NaN
    Ritz values, and its first step reports breakdown.
    """

    def __init__(self, a_op: LinearOperator, cfg: SolverConfig, *,
                 b_op: LinearOperator | None = None,
                 precond: LinearOperator | None = None,
                 x0: np.ndarray | None = None,
                 constraints: np.ndarray | None = None,
                 use_history_direction: bool = True):
        cfg.validate(a_op.dim)
        self._setup(a_op, b_op, precond)
        self.cfg = cfg
        self.block_size = cfg.width()

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
        a_start = op_apply(self.a_op, start)
        start = stack_of(a_start, start, *(() if self.b_op is None else (b_start,)))
        del a_start, b_start

        # an empty state stepped as sub-blocks, none of which carries directions yet
        width, sub_block = self.block_size, cfg.sub_block or self.block_size
        self.use_history_direction = use_history_direction
        self.slices = [slice(lo, lo + sub_block) for lo in range(0, width, sub_block)]
        self.iterations, self._last_basis_cols = 0, width
        self._fresh = True  # while A X and B X are explicit products: from the start, on refresh
        self._explicit_grams = np.zeros(len(self.slices), dtype=bool)  # see EXPLICIT_GRAM_RTOL
        self.p_cols = np.zeros(len(self.slices), dtype=int)
        self.ps = None
        if len(self.slices) > 1:  # the sub-blocks write their P into its columns
            self.ps = np.zeros_like(start)
        self._start(start)

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

    def _start(self, xs: np.ndarray) -> None:
        """Couple on the stack ``xs`` of the B-orthonormal start block; when
        a product is not finite or the Rayleigh-Ritz fails, keep it with NaN
        Ritz values instead, so that the first step breaks down."""
        try:
            self.couple(xs)
        except LobpcgKitError:
            self.ritz_values, self.xs = np.full(xs.shape[-1], np.nan), xs
            self._update_residuals()

    def couple(self, xs: np.ndarray, keep: bool = True) -> None:
        """Make the Ritz pairs of span(X), from the stack ``xs`` of X and its
        products, the state: the shared Rayleigh-Ritz of every sub-block,
        widened by random columns when they collapse.  Every sub-block keeps
        its P, B-projected off the new X, if ``keep``."""
        _require_finite(xs)
        self.counters.rayleigh_ritz_calls += 1
        parts = [xs]
        try:
            values, xs, _, _ = carried_rayleigh_ritz(parts, self.block_size)
        except InsufficientRankError:
            # recurrences collapsed: widen the span with random columns
            fill = self._deflate(self._rng.standard_normal((self.dim, self.block_size)))
            parts.append(product_stack(fill, self.a_op, self.b_op))
            _require_finite(parts[1])
            values, xs, _, _ = carried_rayleigh_ritz(parts, self.block_size)
        del parts
        self.ritz_values, self.xs = values, xs
        for k in range(len(self.slices)):
            direction = None
            if keep and self.p_cols[k]:  # P -= X (B X)^T P, one sub-block at a time
                self.counters.orthonormalizations += 1
                p = self._parts(k)[1]
                direction = b_normalized(combine_parts(  # P may hold fewer than nb columns
                    [p, xs], np.vstack([np.eye(p.shape[-1]), -(xs[-1].T @ p[1])])))
            self._keep_direction(k, direction)
        self._update_residuals()

    # -- state inspection ----------------------------------------------

    def _update_residuals(self) -> None:
        """Residuals and their norms, and X's column norms, of a new state."""
        self.R = self.xs[0] - self.xs[-1] * self.ritz_values[None, :]
        if self.constraints is not None:  # the pencil's residual off span(Y)
            self.R = b_project_out(self.R, self.b_constraints, self.constraints)
        self.residual_norms = column_norms(self.R)
        self._x_norms = column_norms(self.xs[1])

    def _refresh_products(self, keep: bool = True) -> None:
        """Recompute A X and B X explicitly, and the residuals from them.

        A state of several sub-blocks couples on them (:meth:`couple`), as
        does one whose max|X^T B X - I| exceeds :data:`ORTHO_POST_TOL`; a
        state of one sub-block otherwise adopts them.  P is kept if
        ``keep``.  Raises the internal breakdown signal, leaving the state
        untouched, when a product is not finite.
        """
        xs = product_stack(self.xs[1], self.a_op, self.b_op)
        _require_finite(xs)
        if len(self.slices) > 1 or ortho_defect(xs[1].T @ xs[-1]) > ORTHO_POST_TOL:
            self.couple(xs, keep)
            self._last_basis_cols += self.block_size  # the round's columns, then the coupling's
        else:
            self.xs = xs
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
        coupled = (len(self.slices) > 1 and not self._fresh
                   and self.iterations % self.cfg.rr_period == 0)
        if coupled:
            self.couple(self.xs)
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
                raise _Breakdown("no sub-block moved on explicit products")
            self._refresh_products(keep=False)
            self.iterations, self._last_basis_cols = self.iterations + 1, self.block_size
            return
        self.iterations += 1
        self._update_residuals()
        self._fresh, self._last_basis_cols = False, self.block_size * coupled + sum(widths)

    def _parts(self, k: int) -> list:
        """Sub-block k's X stack and, if it has one and the state uses it,
        its P stack: views of the state's stacks."""
        cols = self.slices[k]
        parts = [self.xs[..., cols]]
        if self.p_cols[k] and self.use_history_direction:
            parts.append(self.ps[..., cols.start:cols.start + self.p_cols[k]])
        return parts

    def _keep(self, k: int, name: str, stack) -> None:
        """Put sub-block k's ``stack`` in the state's stack ``name``: a state
        of one sub-block holds it by reference (None included), a state of
        several writes it into the sub-block's leading columns."""
        if len(self.slices) == 1:
            setattr(self, name, stack)
        elif stack is not None:
            lo = self.slices[k].start
            getattr(self, name)[..., lo:lo + stack.shape[-1]] = stack

    def _keep_direction(self, k: int, direction) -> None:
        """Keep sub-block k's carried P stack, or None, in the state."""
        self.p_cols[k] = 0 if direction is None else direction.shape[-1]
        self._keep(k, "ps", direction)

    def _join(self, widths: list, blocks) -> np.ndarray:
        """The ``blocks``, of ``widths`` columns, side by side in one
        column-major block, taken one at a time (a ``(k, n, w)`` stack
        member by member); the block itself if one."""
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
        the active residuals (:meth:`_unit_directions`) and
        B-orthonormalizes it, into one stack for phase 2."""
        widths = [active.size for _, active in moving]
        edges = [0, *accumulate(widths)]
        spans = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
        ws, kept = b_orthonormalize_spans(self._unit_directions(moving, widths, spans), spans,
                                          self.b_op, self.counters)
        if ws is None:
            return []
        blocks = [k for (k, _), cols in zip(moving, kept) if cols]
        ws[0] = op_apply(self.a_op, ws[1])
        return self._rayleigh_ritz_round(blocks, [0, *accumulate(filter(None, kept))], ws)

    def _unit_directions(self, moving: list, widths: list, spans: list) -> np.ndarray:
        """Phase 1 up to W's orthonormalization, side by side in one block:
        the active residuals, projected off the whole X (one B-dual basis)
        when there are several sub-blocks, preconditioned, deflated,
        B-projected off each sub-block's own X and scaled to unit columns.
        When every column of several sub-blocks moves, each projection is
        one batched call over the sub-blocks."""
        whole = len(self.slices) > 1 and sum(widths) == self.block_size
        width = self.slices[0].stop
        if len(self.slices) == 1:  # the sub-block's own X is the whole X
            residuals = self.R[:, moving[0][1]]
        else:
            x = self.xs[1]
            dual = b_dual_basis(x, self.xs[-1])
            residuals = self._join(widths, b_project_out(sub_block_stack(self.R, width), x, dual)
                                   if whole else (b_project_out(self.R[:, active], x, dual)
                                                  for _, active in moving))
            del x, dual
        directions = self.precond.apply(residuals)
        del residuals
        if whole:
            own = sub_block_stack(self.xs, width)
            return unit_columns(self._join(widths, b_project_out(
                self._deflate(sub_block_stack(directions, width)), own[1], own[-1])))[0]
        own = [self.xs[..., self.slices[k]] for k, _ in moving]
        return self._join(widths, (
            unit_columns(b_project_out(self._deflate(directions[:, span]), x[1], x[-1]))[0]
            for x, span in zip(own, spans)))

    def _rayleigh_ritz_round(self, blocks: list, edges: list, ws: np.ndarray) -> list:
        """Phase 2 for the sub-blocks ``blocks``, whose W stacks are the
        column spans between ``edges`` of ``ws``, with the first trials'
        small dense work stacked."""
        members = []
        for k, lo, hi in zip(blocks, edges[:-1], edges[1:]):
            members.append(self._parts(k))
            members[-1].insert(1, ws[..., lo:hi])
        grams = self._stacked_grams(blocks, members, ws) if len(blocks) > 1 else None
        pairs = list(zip(*grams)) if grams else [
            part_grams(parts, None if self._explicit_grams[k] else self.ritz_values[self.slices[k]])
            for k, parts in zip(blocks, members)]
        firsts = [None] if len(pairs) == 1 else stacked_first_trials(
            pairs, [RESTART_COND_LIMIT if len(parts) == 3 else np.inf for parts in members],
            members[0][0].shape[-1])  # the sub-blocks' width
        return [width for width in map(self._update_sub_block, blocks, members, pairs, firsts)
                if width]

    def _stacked_grams(self, blocks: list, members: list, ws: np.ndarray):
        """Every sub-block's Gram matrices, as ``(k, m, m)`` stacks formed
        over stacked views, when all of them move with one shape and one
        Gram rule; None otherwise."""
        shapes = {tuple(part.shape[-1] for part in parts) for parts in members}
        rule = {bool(self._explicit_grams[k]) for k in blocks}
        if len(blocks) < len(self.slices) or len(shapes) > 1 or len(rule) > 1:
            return None
        width, w_cols, *p_cols = shapes.pop()
        stacks = [sub_block_stack(self.xs, width), sub_block_stack(ws, w_cols)]
        stacks += [sub_block_stack(self.ps, width, p_cols[0])] if p_cols else []
        return part_grams(stacks, None if rule.pop() else self.ritz_values.reshape(-1, width))

    def _update_sub_block(self, k: int, parts: list, grams, first) -> int:
        """Phase 2 for sub-block k: the Rayleigh-Ritz over ``parts``, the
        stacks of its X, W and carried P if any, with their
        :func:`part_grams` ``grams``, and its next P, kept in the state.
        Returns the trial's width; 0, and the state untouched, when the Gram
        matrices are not finite or the trial without P fails.  A trial fails
        on any error of this package: the restart guard (a Cholesky failing
        :data:`RESTART_COND_LIMIT`), a rank shortfall, a failed post-check.
        ``first`` holds the first trial's
        :func:`~lobpcg_kit.blocks.ritz_coefficients` and, or None,
        :func:`~lobpcg_kit.blocks.direction_coefficients` if formed already.
        """
        gram_a, gram_b = grams
        if not (np.isfinite(gram_a).all() and np.isfinite(gram_b).all()):
            return 0
        rows = parts[0].shape[-1]
        for trial in [parts, parts[:2]] if len(parts) == 3 else [parts]:
            width = sum(part.shape[-1] for part in trial)
            self.counters.rayleigh_ritz_calls += 1
            try:
                values, xs, coeff, tail = carried_rayleigh_ritz(
                    trial, rows, gram_a[:width, :width], gram_b[:width, :width],
                    RESTART_COND_LIMIT if len(trial) == 3 else np.inf, first and first[:2])
                break
            except LobpcgKitError:
                first = None
        else:
            return 0
        keep_p = self.use_history_direction
        direction = next_direction(xs, tail, coeff, gram_b[:width, :width], rows,
                                   first and first[2]) if keep_p else None
        self.counters.orthonormalizations += int(keep_p)
        self.ritz_values[self.slices[k]] = values
        self._keep(k, "xs", xs)
        self._keep_direction(k, direction)
        return width

    def salvage(self) -> None:
        """After any breakdown, a state of several sub-blocks couples on its
        carried products unless fresh: an explicit product may be what is
        not finite.  A state of one sub-block keeps its pairs, since its
        stall retry has tried explicit products already."""
        if len(self.slices) > 1 and not self._fresh:
            try:
                self.couple(self.xs, keep=False)
            except LobpcgKitError:
                pass

    def run(self) -> SolveResult:
        return drive(self, self.cfg.nev, self.cfg.max_iter, self.cfg.record_history)


def drive(state, nev: int, max_iter: int, record_history: bool) -> SolveResult:
    """The iteration loop of every solver: claims, stopping and history.

    ``state`` is a :class:`LobpcgEngine`, the state of every solver.
    Carried products are refreshed only before a convergence claim and at
    ``max_iter``, so statuses rest on explicit products.  Any error of this
    package ends the run in breakdown, after ``salvage``; the result's
    ``cause`` names that error.
    """
    history: list[IterationRecord] = []
    n_locked = 0
    status = cause = None
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
        except LobpcgKitError as error:
            # a state is mutated only once fully assembled and finite, so
            # the best-so-far pairs are intact here
            status, cause = STATUS_BREAKDOWN, f"{type(error).__name__}: {error}"
            state.salvage()
    vectors = state.xs[1][:, :nev].copy()
    fix_signs(vectors)
    return SolveResult(values=state.ritz_values[:nev].copy(), vectors=vectors,
                       status=status, iterations=state.iterations,
                       residual_norms=state.residual_norms[:nev].copy(), history=history,
                       counters=state.counters, cause=cause)


def lobpcg_solve(a_op: LinearOperator, cfg: SolverConfig, *,
                 b_op: LinearOperator | None = None,
                 precond: LinearOperator | None = None,
                 x0: np.ndarray | None = None,
                 constraints: np.ndarray | None = None) -> SolveResult:
    """Smallest ``cfg.nev`` eigenpairs of A x = lambda B x.

    B defaults to the identity metric and ``precond`` to none.  ``x0``
    (``cfg.width()`` columns) enables warm starts; ``constraints`` columns are
    known eigenvectors deflated from all search directions.  Once the solver
    is built, breakdown is reported through ``result.status``, never raised.
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


def lobpcg2_solve(a_op: LinearOperator, cfg: SolverConfig, *,
                  b_op: LinearOperator | None = None,
                  precond: LinearOperator | None = None) -> SolveResult:
    """:func:`lobpcg_solve` with sub-blocks (a :class:`Lobpcg2Config`), no
    start block and no constraints.  With several sub-blocks the vectors
    pass through a terminal shared Rayleigh-Ritz, so they are B-orthonormal
    regardless of status."""
    return LobpcgEngine(a_op, cfg, b_op=b_op, precond=precond).run()
