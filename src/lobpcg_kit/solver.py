"""Blocked locally optimal eigensolver with preconditioning and soft locking.

The iteration keeps a B-orthonormal block of Ritz vectors, augments it
with preconditioned residuals and an implicitly recurred previous-direction
block, and re-extracts the smallest Ritz pairs each step.  A steepest
descent variant (no previous-direction block) is provided as a baseline.

The products A X, B X, A P and B P are carried alongside X and P and
updated with the same Ritz coefficients, so a step applies A only to the
new direction block; the carried-product algebra (Gram matrices, the
Rayleigh-Ritz projection, B-normalization from products) lives in
:mod:`lobpcg_kit.blocks`, and this module keeps the iteration.  Its loop,
:func:`drive`, runs every solver and recomputes A X and B X explicitly
before a convergence claim, at ``max_iter`` and every
:data:`REFRESH_PERIOD` steps, so statuses rest on explicit products.  Without a
metric, B X, B W and B P are X, W and P themselves.  P is B-orthogonalized
against X in coefficient space and B-normalized from its mapped products.
The Gram blocks known by construction (X^T A X = diag(theta),
X^T B X = W^T B W = P^T B P = I) are formed only once the residuals fall
below :data:`EXPLICIT_GRAM_RTOL` (scipy's ``explicitGramFlag``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blocks import (
    ORTHO_POST_TOL,
    OpCounters,
    b_apply,
    b_normalized,
    b_orthonormalize_full,
    b_project_out,
    carried_rayleigh_ritz,
    combine_parts,
    ortho_defect,
    part_grams,
)
# Unused here; bound because perfbench/tracer.py looks them up in this module.
from .blocks import rayleigh_ritz, residual_block  # noqa: F401
from .dense import sym_eig_kernel as sym_eig
from .errors import (
    DimensionMismatchError,
    InsufficientRankError,
    InvalidConfigError,
    NotPositiveDefiniteError,
    OrthonormalizationError,
    ZeroRankError,
)
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

#: Steps between explicit recomputations of A X and B X.  In between, the
#: carried products are only updated with the Ritz coefficients, and their
#: rounding drift grows with the number of updates.
REFRESH_PERIOD = 50

#: The restart guard: a step drops the previous-direction block when the
#: joint B-Gram matrix of [X, W, P] has a condition number above this.
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


def _next_direction(parts, coeff: np.ndarray, gram_b: np.ndarray):
    """Previous-direction block ``(P, A P, B P)`` for the next step, or None:
    the Ritz coefficients ``coeff`` with the rows of the iterate block
    ``parts[0]`` zeroed, B-orthogonalized against ``coeff`` through the
    basis' B-Gram matrix ``gram_b``, then
    :func:`~lobpcg_kit.blocks.b_normalized`."""
    tail = coeff.copy()
    tail[:parts[0][0].shape[1]] = 0.0
    tail -= coeff @ (coeff.T @ gram_b @ tail)
    return b_normalized(combine_parts(parts, tail))


class LobpcgEngine:
    """Stepping core shared by :func:`lobpcg_solve`, :func:`psd_solve` and
    :func:`~lobpcg_kit.solver2.lobpcg2_solve`.

    Exposed so tests can drive individual update steps and compare a
    three-block step against a steepest-descent step from an identical
    state.  Regular callers should use the solve functions.

    ``AX``/``BX`` and ``AP``/``BP`` hold the carried operator products of
    the iterate block ``X`` and the previous-direction block ``P``; with
    ``b_op=None`` the engine holds no B and they are ``X``/``P`` themselves.

    A diagonal or sparse ``b_op`` with a diagonal entry <= 0 is not
    positive definite and raises :class:`NotPositiveDefiniteError` before
    any operator is applied.  When A is not finite on the start block, the
    engine keeps the B-orthonormal start block with NaN Ritz values, and
    its first step reports breakdown.
    """

    def __init__(self, a_op: LinearOperator, cfg: SolverConfig, *,
                 b_op: LinearOperator | None = None,
                 precond: LinearOperator | None = None,
                 x0: np.ndarray | None = None,
                 constraints: np.ndarray | None = None,
                 use_history_direction: bool = True):
        if b_op is not None and a_op.dim != b_op.dim:
            raise DimensionMismatchError(
                f"operator dimensions disagree: {a_op.dim} vs {b_op.dim}"
            )
        cfg.validate(a_op.dim)
        if isinstance(b_op, (DiagonalOperator, SparseSymMatrix)):
            # a positive definite B has a positive diagonal
            bad = np.flatnonzero(b_op.diagonal() <= 0)
            if bad.size:
                raise NotPositiveDefiniteError(f"metric diagonal entry {bad[0]} is <= 0")
        self.cfg = cfg
        self.dim = a_op.dim
        self.block_size = cfg.resolved_block_size()
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
        self.use_history_direction = use_history_direction

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

        self.iterations = 0
        self._last_basis_cols = self.block_size
        self._explicit_grams = False  # see EXPLICIT_GRAM_RTOL
        if np.isfinite(a_start).all():
            self.counters.rayleigh_ritz_calls += 1
            self._adopt(*carried_rayleigh_ritz([(start, a_start, b_start)], self.block_size)[:4])
        else:
            self._adopt(np.full(self.block_size, np.nan), start, a_start, b_start)

    # -- setup helpers -------------------------------------------------

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

    # -- state inspection ----------------------------------------------

    def _adopt(self, values: np.ndarray, x: np.ndarray, a_x: np.ndarray,
               b_x: np.ndarray, direction=None) -> None:
        """Take ``x`` as the iterate block with its Ritz values and explicit
        products, and ``direction``, a ``(P, A P, B P)`` or None, as P."""
        self.ritz_values, self.X, self.AX, self.BX = values, x, a_x, b_x
        self.P, self.AP, self.BP = direction or (None, None, None)
        #: True while AX and BX derive from explicit applies to the current X.
        self._fresh = True
        self._update_residuals()

    def _update_residuals(self) -> None:
        """Residuals and their norms, and X's column norms, of a new state."""
        self.R = self.AX - self.BX * self.ritz_values[None, :]
        self.residual_norms = np.sqrt(np.einsum("ij,ij->j", self.R, self.R))
        self._x_norms = np.sqrt(np.einsum("ij,ij->j", self.X, self.X))

    def _refresh_products(self) -> None:
        """Recompute A X and B X explicitly, and the residuals from them.

        When max|X^T B X - I| exceeds :data:`ORTHO_POST_TOL`, X is replaced
        by the Ritz vectors of its own span.  Raises the internal breakdown
        signal, leaving the state untouched, when a product is not finite.
        """
        a_x = op_apply(self.a_op, self.X)
        b_x = b_apply(self.b_op, self.X)
        _require_finite(a_x, b_x)
        x, values = self.X, self.ritz_values
        if ortho_defect(x.T @ b_x) > ORTHO_POST_TOL:
            self.counters.orthonormalizations += 1
            values, x, a_x, b_x, _ = carried_rayleigh_ritz([(x, a_x, b_x)], self.block_size)
        self.X, self.AX, self.BX, self.ritz_values = x, a_x, b_x, values
        self._fresh = True
        self._update_residuals()

    def convergence_thresholds(self, tol: float | None = None) -> np.ndarray:
        """Each column's residual threshold at ``tol``, ``cfg.tol`` by default."""
        scale = self.norm_a + np.abs(self.ritz_values) * self.norm_b
        return (self.cfg.tol if tol is None else tol) * scale * self._x_norms

    def converged_mask(self) -> np.ndarray:
        return self.residual_norms <= self.convergence_thresholds()

    # -- the update step -------------------------------------------------

    def step(self, extra_deflation: tuple[np.ndarray, np.ndarray] | None = None) -> None:
        """One locally optimal update of the iterate block.

        ``extra_deflation`` is a ``(V, b_dual_basis(V, B V))`` pair that the
        active residuals are B-projected off before preconditioning.  A is
        applied to the new direction block only, B to it by its
        orthonormalization and post-check.  Raises the internal breakdown
        signal when the residuals or the projected Gram matrices are not
        finite, no search directions survive, or the trial without P fails.
        """
        include_p = self.use_history_direction
        active = np.flatnonzero(~self.converged_mask())
        if active.size == 0:
            active = np.arange(self.block_size)

        _require_finite(self.residual_norms[active])
        self._explicit_grams = self._explicit_grams or bool(np.all(
            self.residual_norms <= self.convergence_thresholds(EXPLICIT_GRAM_RTOL)))
        residuals = self.R[:, active]
        if extra_deflation is not None:
            residuals = b_project_out(residuals, *extra_deflation)
        directions = self.precond.apply(residuals)
        directions = self._deflate(directions)
        directions = b_project_out(directions, self.X, self.BX)
        try:
            w_block, _, _, b_w = b_orthonormalize_full(directions, self.b_op, self.counters)
        except ZeroRankError:
            raise _Breakdown from None
        a_w = op_apply(self.a_op, w_block)

        parts = [(self.X, self.AX, self.BX), (w_block, a_w, b_w)]
        if include_p and self.P is not None:
            parts.append((self.P, self.AP, self.BP))
        gram_a, gram_b = part_grams(parts, None if self._explicit_grams else self.ritz_values)
        _require_finite(gram_a, gram_b)
        # Condition guard on the joint Gram matrix: drop the carried
        # directions for this step when the basis degenerates, or when the
        # projection with them falls short of rank or fails its post-check.
        trials = [parts[:2]]
        if len(parts) == 3 and self._well_conditioned(gram_b):
            trials.insert(0, parts)
        for trial in trials:
            width = sum(block.shape[1] for block, _, _ in trial)
            self.counters.rayleigh_ritz_calls += 1
            try:
                values, x, a_x, b_x, coeff = carried_rayleigh_ritz(
                    trial, self.block_size, gram_a[:width, :width], gram_b[:width, :width]
                )
                break
            except (InsufficientRankError, OrthonormalizationError):
                continue
        else:
            raise _Breakdown

        new_p = _next_direction(trial, coeff, gram_b[:width, :width]) if include_p else None
        self.counters.orthonormalizations += int(include_p)

        self.X, self.AX, self.BX, self.ritz_values = x, a_x, b_x, values
        self.P, self.AP, self.BP = new_p or (None, None, None)
        self.iterations += 1
        self._last_basis_cols = width
        self._fresh = False
        self._update_residuals()

    def _well_conditioned(self, gram: np.ndarray) -> bool:
        eigvals = sym_eig(gram).values
        lam_min, lam_max = float(eigvals[0]), float(eigvals[-1])
        return lam_min > 0.0 and lam_max / lam_min <= RESTART_COND_LIMIT

    def salvage(self) -> None:
        """After a breakdown, try to make carried products explicit."""
        if not self._fresh:
            try:
                self._refresh_products()
            except (_Breakdown, OrthonormalizationError):
                pass

    def run(self) -> SolveResult:
        return drive(self, self.cfg.nev, self.cfg.max_iter, REFRESH_PERIOD,
                     self.cfg.record_history)


def drive(state, nev: int, max_iter: int, period: int, record_history: bool) -> SolveResult:
    """The iteration loop of every solver: claims, stopping and history.

    ``state`` is a :class:`LobpcgEngine` or lobpcg2's round state; both
    provide ``converged_mask``, ``_refresh_products``, ``step``, ``salvage``,
    ``_fresh`` (products explicit) and ``_last_basis_cols``.  Carried
    products are refreshed before a convergence claim, at ``max_iter`` and
    every ``period`` steps, so the status is decided on explicit products.
    Breakdown ends the run after ``state.salvage()``.
    """
    history: list[IterationRecord] = []
    n_locked = 0
    status = None
    while status is None:
        try:
            conv = state.converged_mask()
            if not state._fresh and (np.all(conv[:nev]) or state.iterations >= max_iter
                                     or state.iterations % period == 0):
                state._refresh_products()
                conv = state.converged_mask()
            n_locked = max(n_locked, int(np.cumprod(conv).sum()))  # leading converged
            if record_history:
                values, norms = state.ritz_values, state.residual_norms
                order = np.argsort(values, kind="stable")  # lobpcg2 stacks its engines'
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
    return SolveResult(values=state.ritz_values[:nev].copy(), vectors=state.X[:, :nev].copy(),
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
