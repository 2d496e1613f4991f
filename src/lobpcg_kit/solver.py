"""Blocked locally optimal eigensolver with preconditioning and soft locking.

The iteration keeps a B-orthonormal block of Ritz vectors, augments it
with preconditioned residuals and an implicitly recurred previous-direction
block, and re-extracts the smallest Ritz pairs each step.  A steepest
descent variant (no previous-direction block) is provided as a baseline.

The products A X, B X, A P and B P are carried alongside X and P and
updated with the same Ritz coefficients (Hetmaniuk & Lehoucq, "Basis
selection in LOBPCG", J. Comput. Phys. 218, 2006), so a step applies A
only to the new direction block.  A X and B X are recomputed explicitly
before a convergence claim is accepted, before returning, and every
:data:`REFRESH_PERIOD` steps.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .blocks import (
    ORTHO_POST_TOL,
    OpCounters,
    b_orthonormalize_full,
    b_project_out,
    fix_signs,
    gram_transform,
)
# Unused by the engine; bound here because perfbench/tracer.py looks these
# names up in this module.
from .blocks import rayleigh_ritz, residual_block  # noqa: F401
from .dense import sym_eig
from .errors import (
    DimensionMismatchError,
    InsufficientRankError,
    InvalidConfigError,
    OrthonormalizationError,
    ZeroRankError,
)
from .operators import CallableOperator, IdentityOperator, LinearOperator, op_apply

STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max_iter"
STATUS_BREAKDOWN = "breakdown"

#: Steps between explicit recomputations of A X and B X.  In between, the
#: carried products are only updated with the Ritz coefficients, and their
#: rounding drift grows with the number of updates.
REFRESH_PERIOD = 50


@dataclass
class SolverConfig:
    """Knobs for the blocked solver.

    ``block_size`` defaults to ``nev``; it may not exceed ceil(dim / 4) so
    the three-block trial basis keeps a plausible rank (violations raise,
    they are never clamped).  ``locking`` is ``soft`` (converged columns
    stay in the basis but stop generating search directions) or ``none``.
    """

    nev: int
    block_size: int | None = None
    tol: float = 1e-8
    max_iter: int = 500
    seed: int = 0
    locking: str = "soft"
    restart_cond_limit: float = 1e12
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
        if self.locking not in ("soft", "none"):
            raise InvalidConfigError(f"unknown locking policy {self.locking!r}")
        if not self.restart_cond_limit > 0:
            raise InvalidConfigError("restart_cond_limit must be positive")


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
        self.kind = inner.kind
        self._inner = inner
        self._counters = counters
        self._tally = tally

    def apply(self, block: np.ndarray) -> np.ndarray:
        cols = block.shape[1] if block.ndim == 2 else 1
        setattr(self._counters, self._tally, getattr(self._counters, self._tally) + cols)
        return self._inner.apply(block)


def norm_estimates(op: LinearOperator) -> float:
    """Cheap 2-norm estimate: max row 1-norm for sparse kinds, a short
    deterministic power iteration for matrix-free ones.

    Guaranteed within a factor of the dimension of the true 2-norm.
    """
    if op.kind == "identity":
        return 1.0
    if op.kind == "diagonal":
        return float(np.max(np.abs(op.diagonal_values)))
    if op.kind == "sparse_sym":
        return op.max_row_l1()
    rng = np.random.default_rng(1905)
    vec = rng.standard_normal((op.dim, 1))
    vec /= np.linalg.norm(vec)
    estimate = 0.0
    for _ in range(10):
        nxt = op.apply(vec)
        estimate = float(np.linalg.norm(nxt))
        if estimate == 0.0:
            return 0.0
        vec = nxt / estimate
    return estimate


class _Breakdown(Exception):
    """Internal signal: no usable search directions remain, or an operator
    returned non-finite values."""


def _require_finite(*blocks: np.ndarray) -> None:
    if not all(np.isfinite(block).all() for block in blocks):
        raise _Breakdown


def _sym(gram: np.ndarray) -> np.ndarray:
    return 0.5 * (gram + gram.T)


def _defect(gram: np.ndarray) -> float:
    return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))


def _gram_basis(gram_b: np.ndarray) -> np.ndarray:
    """Transform T with T^T G T = I over the independent directions of a
    basis whose B-Gram matrix is G, found after scaling the columns to unit
    B-norm.  Raises InsufficientRankError when no direction is independent.
    """
    scale = np.sqrt(np.diag(gram_b))
    scale = np.where(scale > 0, scale, 1.0)
    try:
        transform, _ = gram_transform(gram_b / np.outer(scale, scale))
    except ZeroRankError:
        raise InsufficientRankError("all basis columns are numerically dependent") from None
    return transform / scale[:, None]


def _b_orthonormalize_carried(block: np.ndarray, a_block: np.ndarray, b_block: np.ndarray):
    """B-orthonormalize a block through its Gram matrix, no operator applies.

    The products are mapped with the same transform.  As in
    :func:`~lobpcg_kit.blocks.b_orthonormalize_full`, the result is
    post-checked (here from the mapped B-product) with one retry, and
    OrthonormalizationError is raised when the defect persists.
    """
    for _ in range(2):
        transform = _gram_basis(_sym(block.T @ b_block))
        block, a_block, b_block = block @ transform, a_block @ transform, b_block @ transform
        defect = _defect(block.T @ b_block)
        if defect <= ORTHO_POST_TOL:
            return block, a_block, b_block
    raise OrthonormalizationError(f"orthonormality defect {defect:.3e} persists after retry")


def _combine(blocks, coeff: np.ndarray) -> np.ndarray:
    """``[blocks[0] | blocks[1] | ...] @ coeff`` without stacking the blocks."""
    out, row = None, 0
    for block in blocks:
        piece = block @ coeff[row:row + block.shape[1]]
        row += block.shape[1]
        if out is None:
            out = piece
        else:
            out += piece
    return out


def _grams(parts):
    """Projected A- and B-Gram matrices of a basis held as ``(V, A V, B V)``
    parts, built block by block."""
    gram_a = np.block([[u.T @ a_v for _, a_v, _ in parts] for u, _, _ in parts])
    gram_b = np.block([[u.T @ b_v for _, _, b_v in parts] for u, _, _ in parts])
    return _sym(gram_a), _sym(gram_b)


def _rayleigh_ritz(parts, want: int, gram_a: np.ndarray | None = None,
                   gram_b: np.ndarray | None = None):
    """Smallest ``want`` Ritz pairs over the span of a basis from carried
    products.

    The basis is the column concatenation of ``parts``, a list of
    ``(V, A V, B V)`` triples; it is never stacked.  Returns
    ``(values, vectors, a_vectors, b_vectors, coefficients)`` with
    ``vectors = basis @ coefficients`` and the products mapped alike; no
    operator is applied.  The Ritz block's B-orthonormality is post-checked
    from the mapped product; when it exceeds :data:`ORTHO_POST_TOL` one more
    pass is made over the Ritz block, and OrthonormalizationError raised
    when that does not mend it.  Signs follow :func:`fix_signs`.
    """
    if gram_a is None:
        gram_a, gram_b = _grams(parts)
    coeff = None
    for _ in range(2):
        transform = _gram_basis(gram_b)
        if want > transform.shape[1]:
            raise InsufficientRankError(
                f"basis rank {transform.shape[1]} is below the {want} requested pairs"
            )
        eig = sym_eig(_sym(transform.T @ gram_a @ transform))
        values, step_coeff = eig.values[:want].copy(), transform @ eig.vectors[:, :want]
        x, a_x, b_x = (_combine(blocks, step_coeff) for blocks in zip(*parts))
        fix_signs(x, step_coeff, a_x, b_x)
        coeff = step_coeff if coeff is None else coeff @ step_coeff
        gram_b = x.T @ b_x
        if _defect(gram_b) <= ORTHO_POST_TOL:
            return values, x, a_x, b_x, coeff
        parts = [(x, a_x, b_x)]
        gram_a, gram_b = _sym(x.T @ a_x), _sym(gram_b)
    raise OrthonormalizationError(
        f"Ritz block orthonormality defect {_defect(gram_b):.3e} persists after retry"
    )


class LobpcgEngine:
    """Stepping core shared by :func:`lobpcg_solve`, :func:`psd_solve` and
    :func:`~lobpcg_kit.solver2.lobpcg2_solve`.

    Exposed so tests can drive individual update steps and compare a
    three-block step against a steepest-descent step from an identical
    state.  Regular callers should use the solve functions.

    ``AX``/``BX`` and ``AP``/``BP`` hold the carried operator products of
    the iterate block ``X`` and the previous-direction block ``P``.

    When A is not finite on the start block, the engine keeps the
    B-orthonormal start block with NaN Ritz values, and its first step
    reports breakdown.
    """

    def __init__(self, a_op: LinearOperator, cfg: SolverConfig, *,
                 b_op: LinearOperator | None = None,
                 precond: LinearOperator | None = None,
                 x0: np.ndarray | None = None,
                 constraints: np.ndarray | None = None,
                 use_history_direction: bool = True):
        b_op = b_op if b_op is not None else IdentityOperator(a_op.dim)
        if a_op.dim != b_op.dim:
            raise DimensionMismatchError(
                f"operator dimensions disagree: {a_op.dim} vs {b_op.dim}"
            )
        cfg.validate(a_op.dim)
        self.cfg = cfg
        self.dim = a_op.dim
        self.block_size = cfg.resolved_block_size()
        self.counters = OpCounters()
        self.norm_a = norm_estimates(a_op)
        self.norm_b = norm_estimates(b_op)
        self.a_op = _CountingOperator(a_op, self.counters, "a_matvecs")
        self.b_op = _CountingOperator(b_op, self.counters, "b_matvecs")
        # the no-op default is not an IdentityOperator: that name stands for
        # the identity metric
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
                constraints, self.b_op, self.counters, with_product=True
            )
            # deflating the carried P must update A P as well
            self.a_constraints = op_apply(self.a_op, self.constraints)
        else:
            self.constraints = None
            self.b_constraints = None
            self.a_constraints = None

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
        self.n_locked = 0
        self.history: list[IterationRecord] = []
        self._last_basis_cols = self.block_size
        if np.isfinite(a_start).all():
            self.counters.rayleigh_ritz_calls += 1
            self._adopt(*_rayleigh_ritz([(start, a_start, b_start)], self.block_size)[:4])
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
                ortho, _, _, b_ortho = b_orthonormalize_full(
                    candidate, self.b_op, self.counters, with_product=True
                )
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
               b_x: np.ndarray) -> None:
        """Take ``x`` as the iterate block with its Ritz values and explicit
        products, dropping the carried directions."""
        self.ritz_values, self.X, self.AX, self.BX = values, x, a_x, b_x
        self.P = self.AP = self.BP = None
        #: True while AX and BX derive from explicit applies to the current X.
        self._fresh = True
        self._update_residuals()

    def _update_residuals(self) -> None:
        self.R = self.AX - self.BX * self.ritz_values[None, :]
        self.residual_norms = np.linalg.norm(self.R, axis=0)

    def _refresh_products(self) -> None:
        """Recompute A X and B X explicitly, and the residuals from them.

        When max|X^T B X - I| exceeds :data:`ORTHO_POST_TOL`, X is replaced
        by the Ritz vectors of its own span.  Raises the internal breakdown
        signal, leaving the state untouched, when a product is not finite.
        """
        a_x = op_apply(self.a_op, self.X)
        b_x = op_apply(self.b_op, self.X)
        _require_finite(a_x, b_x)
        x, values = self.X, self.ritz_values
        if _defect(x.T @ b_x) > ORTHO_POST_TOL:
            self.counters.orthonormalizations += 1
            values, x, a_x, b_x, _ = _rayleigh_ritz([(x, a_x, b_x)], self.block_size)
        self.X, self.AX, self.BX, self.ritz_values = x, a_x, b_x, values
        self._fresh = True
        self._update_residuals()

    def convergence_thresholds(self) -> np.ndarray:
        scale = self.norm_a + np.abs(self.ritz_values) * self.norm_b
        return self.cfg.tol * scale * np.linalg.norm(self.X, axis=0)

    def converged_mask(self) -> np.ndarray:
        return self.residual_norms <= self.convergence_thresholds()

    def _record(self) -> None:
        if self.cfg.record_history:
            self.history.append(IterationRecord(
                iteration=self.iterations,
                ritz_values=self.ritz_values.copy(),
                residual_norms=self.residual_norms.copy(),
                locked_count=self.n_locked,
                basis_cols=self._last_basis_cols,
            ))

    def fork(self) -> "LobpcgEngine":
        """Independent deep copy, for comparing steps from one state."""
        return copy.deepcopy(self)

    # -- the update step -------------------------------------------------

    def step(self, use_previous: bool | None = None,
             extra_deflation: tuple[np.ndarray, np.ndarray] | None = None) -> None:
        """One locally optimal update of the iterate block.

        ``use_previous`` overrides the engine's direction mode for this
        single step (the steepest-descent comparison hook).
        ``extra_deflation`` is a ``(V, B V)`` pair, not necessarily
        B-orthonormal, that the active residuals are B-projected off before
        preconditioning.  A is applied to the new direction block only, B to
        it by its orthonormalization and post-check.  Raises the internal
        breakdown signal when the residuals are not finite, no search
        directions survive or a product is not finite.
        """
        include_p = self.use_history_direction if use_previous is None else use_previous
        conv = self.converged_mask()
        if self.cfg.locking == "soft":
            active = np.flatnonzero(~conv)
        else:
            active = np.arange(self.block_size)
        if active.size == 0:
            active = np.arange(self.block_size)

        residuals = self.R[:, active]
        _require_finite(residuals)
        if extra_deflation is not None:
            residuals = b_project_out(residuals, *extra_deflation, assume_orthonormal=False)
        directions = self.precond.apply(residuals)
        directions = self._deflate(directions)
        directions = b_project_out(directions, self.X, self.BX)
        try:
            w_block, _, _, b_w = b_orthonormalize_full(
                directions, self.b_op, self.counters, with_product=True
            )
        except ZeroRankError:
            raise _Breakdown from None
        a_w = op_apply(self.a_op, w_block)
        _require_finite(w_block, a_w, b_w)

        parts = [(self.X, self.AX, self.BX), (w_block, a_w, b_w)]
        carried = self._carried_direction() if include_p else None
        if carried is not None:
            parts.append(carried)
        gram_a, gram_b = _grams(parts)
        # Condition guard on the joint Gram matrix: drop the carried
        # directions for this step when the basis degenerates, or when the
        # projection with them falls short of rank.
        trials = [parts[:2]]
        if carried is not None and self._well_conditioned(gram_b):
            trials.insert(0, parts)
        for trial in trials:
            width = sum(block.shape[1] for block, _, _ in trial)
            self.counters.rayleigh_ritz_calls += 1
            try:
                values, x, a_x, b_x, coeff = _rayleigh_ritz(
                    trial, self.block_size, gram_a[:width, :width], gram_b[:width, :width]
                )
                break
            except InsufficientRankError:
                continue
        else:
            raise _Breakdown

        new_p = (None, None, None)
        if include_p:
            tail_coeff = coeff[self.block_size:]
            new_p = tuple(_combine(blocks, tail_coeff) for blocks in zip(*trial[1:]))

        self.X, self.AX, self.BX, self.ritz_values = x, a_x, b_x, values
        self.P, self.AP, self.BP = new_p
        self.iterations += 1
        self._last_basis_cols = width
        self._fresh = False
        self._update_residuals()

    def _carried_direction(self):
        """P deflated, B-orthogonalized against X and B-orthonormalized, with
        its products mapped alike; None when nothing usable remains."""
        if self.P is None:
            return None
        p, a_p, b_p = self.P, self.AP, self.BP
        against = [(self.X, self.AX, self.BX)]
        if self.constraints is not None:
            against.insert(0, (self.constraints, self.a_constraints, self.b_constraints))
        for basis, a_basis, b_basis in against:
            overlaps = b_basis.T @ p
            p = p - basis @ overlaps
            a_p = a_p - a_basis @ overlaps
            b_p = b_p - b_basis @ overlaps
        self.counters.orthonormalizations += 1
        try:
            return _b_orthonormalize_carried(p, a_p, b_p)
        except (InsufficientRankError, OrthonormalizationError):
            return None

    def _well_conditioned(self, gram: np.ndarray) -> bool:
        eigvals = sym_eig(gram).values
        lam_min, lam_max = float(eigvals[0]), float(eigvals[-1])
        return lam_min > 0.0 and lam_max / lam_min <= self.cfg.restart_cond_limit

    # -- driver ----------------------------------------------------------

    def run(self) -> SolveResult:
        nev = self.cfg.nev
        status = None
        while status is None:
            try:
                # refresh periodically, and accept a convergence claim on
                # explicit products only
                if not self._fresh and (self.iterations % REFRESH_PERIOD == 0
                                        or np.all(self.converged_mask()[:nev])):
                    self._refresh_products()
                conv = self.converged_mask()
                if self.cfg.locking == "soft":
                    prefix = 0
                    while prefix < self.block_size and conv[prefix]:
                        prefix += 1
                    self.n_locked = max(self.n_locked, prefix)
                self._record()
                if np.all(conv[:nev]):
                    status = STATUS_CONVERGED
                elif self.iterations >= self.cfg.max_iter:
                    status = STATUS_MAX_ITER
                else:
                    self.step()
            except (_Breakdown, OrthonormalizationError):
                # the state is mutated only once fully assembled and
                # finite, so the best-so-far pairs are intact here
                status = STATUS_BREAKDOWN
        if not self._fresh:
            try:
                self._refresh_products()
            except (_Breakdown, OrthonormalizationError):
                status = STATUS_BREAKDOWN
        return SolveResult(
            values=self.ritz_values[:nev].copy(),
            vectors=self.X[:, :nev].copy(),
            status=status,
            iterations=self.iterations,
            residual_norms=self.residual_norms[:nev].copy(),
            history=self.history,
            counters=self.counters,
        )


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
