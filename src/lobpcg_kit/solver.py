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
by layout.  X is one stack over every sub-block; each sub-block holds its
own P stack.  X and P share the product of [W, P]; P is B-orthogonalized
to X and normalized in their coefficient space.  A step holds only the
blocks it still needs, each freed after its last product: the residual
block once phase 1 has copied its active columns; a sub-block's P once
its share of [W, P]'s product (the tail) is formed, before W's; W once
the last sub-block's Ritz block is formed; the tail once its share of the
next P is formed.  A refresh writes the explicit A X and B X into the
state's stack, so no second X stack is held.
The Gram blocks known by construction (X^T A X = diag(theta),
X^T B X = W^T B W = P^T B P = I) are formed only once the residuals fall
below :data:`EXPLICIT_GRAM_RTOL` (scipy's ``explicitGramFlag``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from numbers import Integral, Real

import numpy as np

from .blocks import (
    ORTHO_POST_TOL,
    RANK_DROP_RTOL,
    OpCounters,
    b_orthonormal_stack,
    b_orthonormalize_full,
    b_project_out,
    block_mul,
    carried_rayleigh_ritz,
    column_norms,
    combine_parts,
    fix_signs,
    gram_transform,
    identity,
    next_direction,
    ortho_defect,
    part_grams,
    product_stack,
    stacked_first_trials,
    sym,
    unit_pair,
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
    lanczos_ritz_values,
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
        for name in ("nev", "block_size", "sub_block", "rr_period", "max_iter", "tol", "seed"):
            if isinstance(value := getattr(self, name), (bool, np.bool_)):
                raise InvalidConfigError(f"{name} must not be a bool, got {value!r}")
        if not isinstance(self.record_history, (bool, np.bool_)):
            raise InvalidConfigError(f"record_history must be a bool, got {self.record_history!r}")
        for name in ("nev", "block_size", "sub_block", "rr_period", "max_iter"):
            value, optional = getattr(self, name), name in ("block_size", "sub_block")
            if not (isinstance(value, Integral) or optional and value is None):
                raise InvalidConfigError(f"{name} must be an integer, got {value!r}")
        if not (isinstance(self.tol, Real) and math.isfinite(self.tol)):
            raise InvalidConfigError(f"tol must be a finite number, got {self.tol!r}")
        try:
            np.random.default_rng(self.seed)
        except (TypeError, ValueError) as error:
            raise InvalidConfigError(f"seed {self.seed!r} is not a valid seed: {error}") from None
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
        self._count(block)
        return self._inner.apply(block)

    def apply_into(self, block: np.ndarray, out: np.ndarray) -> np.ndarray:
        self._count(block)
        return self._inner.apply_into(block, out)

    def _count(self, block: np.ndarray) -> None:
        cols = block.shape[1] if block.ndim == 2 else 1
        setattr(self._counters, self._tally, getattr(self._counters, self._tally) + cols)


class _Breakdown(LobpcgKitError):
    """No usable search directions remain, or an operator returned
    non-finite values: like any error of this package, it ends a run."""


def _matrix_free(op: LinearOperator) -> bool:
    """Whether ``op`` is known by its apply alone, with no diagonal or
    entries to read a norm or a sign from."""
    return not isinstance(op, (operators.IdentityOperator, DiagonalOperator, SparseSymMatrix))


def _require_finite(stack: np.ndarray) -> None:
    if not np.isfinite(stack).all():
        raise _Breakdown("non-finite product")


def _real_input(name: str, block) -> np.ndarray:
    """A caller's block as a float array; InvalidConfigError when it is
    complex, whose imaginary part a cast would drop, or not finite."""
    block = np.asarray(block)
    if np.iscomplexobj(block):
        raise InvalidConfigError(f"{name} must be real, got dtype {block.dtype}")
    block = block.astype(float, copy=False)
    if not np.isfinite(block).all():
        raise InvalidConfigError(f"{name} contains non-finite entries")
    return block


class LobpcgEngine:
    """The one solver state, stepped by :func:`drive` for
    :func:`lobpcg_solve`, :func:`psd_solve` and :func:`lobpcg2_solve`.

    Exposed so tests can drive individual update steps and compare a
    three-block step against a steepest-descent step from an identical
    state.  Regular callers should use the solve functions.

    Its ``cfg.width()`` columns are the width-``cfg.sub_block`` sub-blocks
    ``slices`` (one if None): narrow LOBPCG recurrences advanced together,
    a round at a time.  A round B-projects the active residuals off the
    whole ``X``, through the inverse of its B-Gram matrix, so that the
    recurrences do not collapse onto the same eigenvectors, and each new
    direction off its own sub-block's ``X`` by one masked product; it
    applies the preconditioner, B and A once each.  Each sub-block's Gram
    matrices are formed apart; the small dense work of their first trials
    runs as stacked LAPACK calls.  Every ``rr_period`` rounds a shared
    Rayleigh-Ritz on carried products (:meth:`couple`) gives every
    sub-block its slice of the Ritz vectors, in ascending order, and its P
    B-projected off them.  A coupling merges sub-blocks, so a state of one
    sub-block, block LOBPCG, couples only to restore its X's
    B-orthonormality.  ``xs`` is the stack ``(A X, X, B X)`` of the
    iterate block X with its carried products, ``(A X, X)`` with
    ``b_op=None``; slice k of it is sub-block k's.  ``ps[k]`` is sub-block
    k's previous-direction stack ``(A P, P, B P)`` (``(A P, P)``), at most
    as wide as the sub-block, or None.

    A ``b_op`` that is not positive definite raises
    :class:`NotPositiveDefiniteError` before A is applied: a diagonal or
    sparse one with a diagonal entry <= 0, or a sparse or matrix-free one
    that its Lanczos probe proves indefinite (:meth:`_probe_metric`).
    Once built, its :meth:`run` raises nothing.
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
            constraints = _real_input("constraints", constraints)
            if constraints.ndim == 1:
                constraints = constraints[:, None]
            if constraints.ndim != 2 or constraints.shape[0] != self.dim:
                raise DimensionMismatchError(
                    f"constraints must have {self.dim} rows, got shape {constraints.shape}")
            stack = b_orthonormal_stack(constraints, self.b_op, self.counters)[0]
            self.constraints = stack[1].copy(order="F")  # so that the unformed A V is freed
            self.b_constraints = self.constraints if self.b_op is None else stack[2].copy(order="F")
        else:
            self.constraints = self.b_constraints = None

        if x0 is not None:
            x0 = _real_input("x0", x0)
            if x0.shape != (self.dim, self.block_size):
                raise DimensionMismatchError(
                    f"x0 must be ({self.dim}, {self.block_size}), got {x0.shape}"
                )
            start = x0.copy()
        else:
            start = self._rng.standard_normal((self.dim, self.block_size))
        start = self._full_rank_start(start)
        self.a_op.apply_into(start[1], start[0])

        # an empty state stepped as sub-blocks, none of which carries directions yet
        width, sub_block = self.block_size, cfg.sub_block or self.block_size
        self.use_history_direction = use_history_direction
        self.slices = [slice(lo, lo + sub_block) for lo in range(0, width, sub_block)]
        self.iterations, self._last_basis_cols = 0, width
        self._fresh = True  # while A X and B X are explicit products: from the start, on refresh
        self._explicit_grams = np.zeros(len(self.slices), dtype=bool)  # see EXPLICIT_GRAM_RTOL
        self.ps = [None] * len(self.slices)
        self._start(start)

    # -- setup helpers -------------------------------------------------

    def _setup(self, a_op: LinearOperator, b_op: LinearOperator | None,
               precond: LinearOperator | None) -> None:
        """Check the operators, the metric's definiteness by
        :meth:`_probe_metric` before A is applied, estimate their norms and
        wrap them to count their columns into a fresh :class:`OpCounters`."""
        if b_op is not None and a_op.dim != b_op.dim:
            raise DimensionMismatchError(
                f"operator dimensions disagree: {a_op.dim} vs {b_op.dim}"
            )
        b_op = None if isinstance(b_op, operators.IdentityOperator) else b_op  # never applied
        self.dim = a_op.dim
        self.counters = OpCounters()
        self.a_op = _CountingOperator(a_op, self.counters, "a_matvecs")
        self.b_op = None if b_op is None else _CountingOperator(b_op, self.counters, "b_matvecs")
        self.norm_b = 1.0 if b_op is None else self._probe_metric(b_op)
        self.norm_a = norm_estimates(_CountingOperator(a_op, self.counters, "estimate_matvecs")
                                     if _matrix_free(a_op) else a_op)
        raw_precond = precond if precond is not None else CallableOperator(a_op.dim, np.copy)
        if raw_precond.dim != a_op.dim:
            raise DimensionMismatchError(
                f"preconditioner dimension {raw_precond.dim} does not match {a_op.dim}"
            )
        self.precond = _CountingOperator(raw_precond, self.counters, "precond_applies")

    def _probe_metric(self, b_op: LinearOperator) -> float:
        """The norm estimate of the metric ``b_op``; raises
        :class:`NotPositiveDefiniteError` when it is not positive definite.

        A positive diagonal proves only a diagonal metric definite.  Any
        other is probed by one Lanczos run
        (:func:`~lobpcg_kit.operators.lanczos_ritz_values`): a Ritz value
        below -k * RANK_DROP_RTOL times the largest of its k proves it
        indefinite.  A sparse metric's probe applies count as B's, and its
        norm is read off its rows; a matrix-free one's count apart, and the
        same run gives its norm, as :func:`norm_estimates` would.
        """
        if isinstance(b_op, (DiagonalOperator, SparseSymMatrix)):
            bad = np.flatnonzero(b_op.diagonal() <= 0)
            if bad.size:
                raise NotPositiveDefiniteError(f"metric diagonal entry {bad[0]} is <= 0")
        if isinstance(b_op, DiagonalOperator):
            return norm_estimates(b_op)
        matrix_free = _matrix_free(b_op)
        values = lanczos_ritz_values(_CountingOperator(b_op, self.counters, "estimate_matvecs")
                                     if matrix_free else self.b_op)
        if values[0] < -values.size * RANK_DROP_RTOL * max(values[-1], 0.0):
            raise NotPositiveDefiniteError(
                f"metric has a Ritz value {values[0]:.3e} against a largest of "
                f"{values[-1]:.3e}: it is indefinite")
        return float(np.max(np.abs(values[[0, -1]]))) if matrix_free else norm_estimates(b_op)

    def _deflate(self, block: np.ndarray) -> np.ndarray:
        if self.constraints is None:
            return block
        return b_project_out(block, self.constraints, self.b_constraints)

    def _full_rank_start(self, start: np.ndarray):
        """Deflate, orthonormalize, and pad a start block up to full rank.

        Returns the block's stack ``(A X, X, B X)``, A X unformed.
        """
        for _ in range(3):
            try:
                ortho = b_orthonormal_stack(self._deflate(start), self.b_op, self.counters)[0]
            except ZeroRankError:
                ortho = np.zeros((2, self.dim, 0))
            if ortho.shape[-1] >= self.block_size:
                return ortho
            pad = self._rng.standard_normal((self.dim, self.block_size - ortho.shape[-1]))
            start = np.hstack([ortho[1], pad])
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
        for k, p in enumerate(self.ps):
            if keep and p is not None:  # P -= X (B X)^T P, one sub-block at a time
                p = b_orthonormalize_full(combine_parts(  # P may hold fewer than nb columns
                    [p, xs], np.vstack([identity(p.shape[-1]), -(xs[-1].T @ p[1])])),
                    True, self.counters)[0]
            self.ps[k] = p if keep else None
        self._update_residuals()

    # -- state inspection ----------------------------------------------

    def _update_residuals(self) -> None:
        """Residuals and their norms, X's column norms and the scale of the
        convergence thresholds, of a new state; the old residual block is
        released before the new one is formed, in one buffer."""
        self.R = None
        self.R = self.xs[-1] * self.ritz_values[None, :]
        np.subtract(self.xs[0], self.R, out=self.R)
        if self.constraints is not None:  # the pencil's residual off span(Y)
            self.R = b_project_out(self.R, self.b_constraints, self.constraints)
        self.residual_norms = column_norms(self.R)
        self._x_norms = column_norms(self.xs[1])
        self._threshold_scale = self.norm_a + np.abs(self.ritz_values) * self.norm_b

    def _refresh_products(self, keep: bool = True) -> None:
        """Recompute A X and B X explicitly, check that both are finite and
        write them into the state's stack, then the residuals from them.

        A state of several sub-blocks couples on that stack
        (:meth:`couple`), as does one whose max|X^T B X - I| exceeds
        :data:`ORTHO_POST_TOL`; a state of one sub-block otherwise keeps
        it.  No second X stack is formed.  P is kept if ``keep``.  Raises
        the internal breakdown signal, leaving the state untouched, when a
        product is not finite.
        """
        products = [op_apply(op, self.xs[1]) for op in (self.a_op, self.b_op) if op is not None]
        for product in products:
            _require_finite(product)
        for member, product in zip((0, 2), products):  # A X, then B X
            self.xs[member] = product
        del products, product
        if len(self.slices) > 1 or ortho_defect(self.xs[1].T @ self.xs[-1]) > ORTHO_POST_TOL:
            self.couple(self.xs, keep)
            self._last_basis_cols += self.block_size  # the round's columns, then the coupling's
        else:
            if not keep:
                self.ps[0] = None
            self._update_residuals()
        self._fresh = True

    def convergence_thresholds(self, tol: float | None = None) -> np.ndarray:
        """Each column's residual threshold at ``tol``, ``cfg.tol`` by default."""
        return (self.cfg.tol if tol is None else tol) * self._threshold_scale * self._x_norms

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
        # per sub-block, one row: a fully converged recurrence idles, and
        # one with an active residual that is not finite stalls
        rows, norms = (len(self.slices), -1), self.residual_norms
        moves = (~conv.reshape(rows).all(axis=1)
                 & (conv | np.isfinite(norms)).reshape(rows).all(axis=1))
        explicit = norms <= self.convergence_thresholds(EXPLICIT_GRAM_RTOL)
        self._explicit_grams |= moves & explicit.reshape(rows).all(axis=1)
        moving = [(k, self.slices[k].start + np.flatnonzero(~conv[self.slices[k]]))
                  for k in np.flatnonzero(moves).tolist()]  # (sub-block, its active columns)
        carried = any(p is not None for p in self.ps)  # a sub-block starts the round with a P
        widths = self._advance_round(moving) if moving else []
        if not widths:
            if self._fresh and not carried:
                raise _Breakdown("no sub-block moved on explicit products")
            self._refresh_products(keep=False)
            self.iterations, self._last_basis_cols = self.iterations + 1, self.block_size
            return
        self.iterations += 1
        self._update_residuals()
        self._fresh, self._last_basis_cols = False, self.block_size * coupled + sum(widths)

    def _parts(self, k: int) -> list:
        """Sub-block k's X stack, a view of the state's, and, if it has one
        and the state uses it, its P stack."""
        parts = [self.xs[..., self.slices[k]]]
        if self.ps[k] is not None and self.use_history_direction:
            parts.append(self.ps[k])
        return parts

    def _advance_round(self, moving: list) -> list:
        """Both phases of a step for every moving sub-block, ``(k, active
        columns)``, with one preconditioner, B and A apply each; returns
        the trial widths of the sub-blocks that moved.  Phase 1 makes W from
        the active residuals (:meth:`_directions`), scaled to unit columns
        into the stack of it and its B-product, and B-orthonormalizes each
        sub-block's span of it, into one stack for phase 2, whose
        sub-blocks' views of it are then its only references; a span that
        fails is dropped."""
        edges = [0, *accumulate(active.size for _, active in moving)]
        spans = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
        ws, outcomes = b_orthonormalize_full(unit_pair(self._directions(moving), self.b_op)[0],
                                             False, self.counters, spans)
        if ws is None:
            return []
        kept = [len(outcome[0]) if isinstance(outcome, tuple) else 0 for outcome in outcomes]
        del outcomes  # and its transforms, before A W is formed at the step's peak
        blocks = [k for (k, _), cols in zip(moving, kept) if cols]
        self.a_op.apply_into(ws[1], ws[0])
        w_edges = [0, *accumulate(filter(None, kept))]
        members = []
        for k, lo, hi in zip(blocks, w_edges[:-1], w_edges[1:]):
            members.append(self._parts(k))
            members[-1].insert(1, ws[..., lo:hi])
        del ws
        return self._rayleigh_ritz_round(blocks, members)

    def _directions(self, moving: list) -> np.ndarray:
        """Phase 1 up to W's scaling, the active columns side by side in
        round order: the residuals, B-projected off the whole X in its
        coefficient space when there are several sub-blocks,
        preconditioned, deflated and B-projected off each column's own
        sub-block's X.  The state's residual block is released once its
        active columns are copied; the round's end forms the next one.  The
        result is written into the projection's buffer, so that no third
        block of directions is held."""
        active = np.concatenate([cols for _, cols in moving])
        x, b_x = self.xs[1], self.xs[-1]
        residuals, self.R = self.R[:, active], None
        if len(self.slices) > 1:  # sub-blocks are B-orthogonal only after a coupling
            transform, _ = gram_transform(sym(x.T @ b_x))
            residuals -= block_mul(x, transform @ (transform.T @ (b_x.T @ residuals)))
        directions = self._deflate(self.precond.apply(residuals))
        del residuals
        width = self.slices[0].stop
        own = np.arange(self.block_size)[:, None] // width == active // width
        projection = block_mul(x, own * (b_x.T @ directions))
        return np.subtract(directions, projection, out=projection)

    def _rayleigh_ritz_round(self, blocks: list, members: list) -> list:
        """Phase 2 for the sub-blocks ``blocks``, whose part stacks are
        ``members`` (X, W and P if any): each sub-block's Gram matrices
        formed apart, its first trial's small dense work stacked with the
        others'.  A sub-block whose Gram matrices are not finite is left as
        it is, its P kept."""
        pairs = [part_grams(parts, None if self._explicit_grams[k]
                            else self.ritz_values[self.slices[k]])
                 for k, parts in zip(blocks, members)]
        finite = [i for i, pair in enumerate(pairs) if np.isfinite(pair).all()]
        blocks, members, pairs = ([each[i] for i in finite] for each in (blocks, members, pairs))
        if not pairs:
            return []
        firsts = stacked_first_trials(
            pairs, [RESTART_COND_LIMIT if len(parts) == 3 else np.inf for parts in members],
            members[0][0].shape[-1], self.use_history_direction)  # the sub-blocks' width
        return [width for width in map(self._update_sub_block, blocks, members, pairs, firsts)
                if width]

    def _update_sub_block(self, k: int, parts: list, grams, first) -> int:
        """Phase 2 for sub-block k: the Rayleigh-Ritz over ``parts``, the
        stacks of its X, W and carried P if any, with their finite
        :func:`part_grams` ``grams``, and its next P, kept in the state.
        ``first`` is the first trial from
        :func:`~lobpcg_kit.blocks.stacked_first_trials`, None where that call
        rejected it (the restart guard, for ``[X, W, P]``): a rejected
        ``[X, W, P]`` is counted and skipped, a rejected ``[X, W]`` made
        again off the Cholesky path (SVQB).  A trial also fails on any error
        of this package: a rank shortfall, a failed post-check.  Returns the
        trial's width; 0 when the trial without P fails, the sub-block's X
        and Ritz values untouched and its P, handed to the trial, dropped.
        Each block is freed after its last product: the trial takes
        ``parts`` over, so that P goes once its share of the tail is formed,
        before W's; a Ritz block that passes is written with its values into
        the state's columns at once and read back from them; the tail goes
        once its share of the next P is formed.  A next P that cannot be
        formed leaves the sub-block without one.
        """
        gram_a, gram_b = grams
        rows = parts[0].shape[-1]
        self.ps[k] = None  # the trial then holds the sub-block's only P
        for trial in [parts, parts[:2]] if len(parts) == 3 else [parts]:
            width = sum(part.shape[-1] for part in trial)
            self.counters.rayleigh_ritz_calls += 1
            if first is None and len(trial) == 3:
                trial.clear()  # P is read no more
                continue
            try:
                values, xs, coeff, tail = carried_rayleigh_ritz(
                    trial, rows, gram_a[:width, :width], gram_b[:width, :width],
                    first and first[:2])
                break
            except LobpcgKitError:
                first = None
        else:
            return 0
        self.ritz_values[self.slices[k]] = values
        self.xs[..., self.slices[k]] = xs
        del xs
        if self.use_history_direction:
            basis = [self.xs[..., self.slices[k]], tail]
            del tail
            self.ps[k] = next_direction(basis, coeff, gram_b[:width, :width], rows,
                                        first and first[2], self.counters)
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
            if not state._fresh and (conv[:nev].all() or state.iterations >= max_iter):
                state._refresh_products()
                conv = state.converged_mask()
            if record_history:
                n_locked = max(n_locked, int(np.cumprod(conv).sum()))  # leading converged
                values, norms = state.ritz_values, state.residual_norms
                order = np.argsort(values, kind="stable")  # lobpcg2's sub-blocks step apart
                history.append(IterationRecord(state.iterations, values[order], norms[order],
                                               n_locked, state._last_basis_cols))
            if conv[:nev].all():
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
