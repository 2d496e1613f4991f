"""Many-small-blocks variant: independent narrow recurrences plus a shared
Rayleigh-Ritz coupling step.

For ``nev`` requested pairs and a sub-block width ``nb``, ``nev / nb``
independent width-``nb`` locally optimal recurrences advance in parallel;
their residuals are B-orthogonalized against the aggregate iterate block
before preconditioning so the sub-solvers do not collapse onto the same
eigenvectors.  Every ``rr_period`` rounds one shared Rayleigh-Ritz over the
aggregate span redistributes the Ritz vectors in ascending order and resets
the carried directions.  The shared step can thus be omitted on most
rounds, trading coupling frequency against per-round cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import (
    OpCounters,
    b_orthonormalize_full,
    b_project_out,
    rayleigh_ritz,
    residual_block,
)
from .errors import (
    DimensionMismatchError,
    InsufficientRankError,
    InvalidConfigError,
    OrthonormalizationError,
    ZeroRankError,
)
from .operators import IdentityOperator, LinearOperator, Preconditioner, identity_precond, op_apply
from .solver import (
    STATUS_BREAKDOWN,
    STATUS_CONVERGED,
    STATUS_MAX_ITER,
    IterationRecord,
    SolveResult,
    _CountingOperator,
    _CountingPrecond,
    norm_estimates,
)


@dataclass
class Lobpcg2Config:
    """Knobs for the many-small-blocks solver.

    ``nev`` is padded up to the next multiple of ``sub_block`` internally;
    padded pairs are discarded on return.  ``rr_period`` is the number of
    rounds between shared Rayleigh-Ritz couplings.
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


class _SubSolver:
    """State of one narrow recurrence: iterate block, values, carried block."""

    __slots__ = ("X", "values", "P", "R", "residual_norms")

    def __init__(self, X: np.ndarray, values: np.ndarray):
        self.X = X
        self.values = values
        self.P: np.ndarray | None = None
        self.R: np.ndarray | None = None
        self.residual_norms: np.ndarray | None = None


def lobpcg2_solve(a_op: LinearOperator, cfg: Lobpcg2Config, *,
                  b_op: LinearOperator | None = None,
                  precond: Preconditioner | None = None) -> SolveResult:
    """Smallest ``cfg.nev`` eigenpairs via parallel narrow recurrences.

    Result contract matches :func:`~lobpcg_kit.solver.lobpcg_solve`; the
    reported vectors always pass through one terminal shared Rayleigh-Ritz,
    so they are jointly optimal and B-orthonormal regardless of status.
    """
    b_raw = b_op if b_op is not None else IdentityOperator(a_op.dim)
    if a_op.dim != b_raw.dim:
        raise DimensionMismatchError(
            f"operator dimensions disagree: {a_op.dim} vs {b_raw.dim}"
        )
    cfg.validate(a_op.dim)

    counters = OpCounters()
    norm_a = norm_estimates(a_op)
    norm_b = norm_estimates(b_raw)
    a_cnt = _CountingOperator(a_op, counters, "a_matvecs")
    b_cnt = _CountingOperator(b_raw, counters, "b_matvecs")
    precond_raw = precond if precond is not None else identity_precond(a_op.dim)
    t_cnt = _CountingPrecond(precond_raw, counters)

    dim = a_op.dim
    nev = cfg.nev
    nb = cfg.sub_block
    padded = cfg.padded_nev()
    n_sub = padded // nb
    rng = np.random.default_rng(cfg.seed)

    def shared_rr(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Aggregate Rayleigh-Ritz with graceful rank fallbacks."""
        for want in (padded, nev):
            try:
                ritz = rayleigh_ritz(block, a_cnt, b_cnt, want, counters)
                break
            except (InsufficientRankError, ZeroRankError):
                ritz = None
        if ritz is None or ritz.values.shape[0] < padded:
            width = padded - (0 if ritz is None else ritz.values.shape[0])
            refill = np.hstack(
                ([ritz.vectors] if ritz is not None else [])
                + [rng.standard_normal((dim, width))]
            )
            ritz = rayleigh_ritz(refill, a_cnt, b_cnt, padded, counters)
        return ritz.values, ritz.vectors

    values, vectors = shared_rr(rng.standard_normal((dim, padded)))
    subs = [
        _SubSolver(vectors[:, j * nb:(j + 1) * nb].copy(),
                   values[j * nb:(j + 1) * nb].copy())
        for j in range(n_sub)
    ]

    def refresh(sub: _SubSolver) -> None:
        sub.R = residual_block(a_cnt, b_cnt, sub.X, sub.values)
        sub.residual_norms = np.linalg.norm(sub.R, axis=0)

    for sub in subs:
        refresh(sub)

    def aggregate_x() -> np.ndarray:
        return np.hstack([sub.X for sub in subs])

    def slot_conv() -> np.ndarray:
        """Per-aggregate-slot convergence flags in sub-solver order."""
        flags = []
        for sub in subs:
            scale = norm_a + np.abs(sub.values) * norm_b
            thresholds = cfg.tol * scale * np.linalg.norm(sub.X, axis=0)
            flags.append(sub.residual_norms <= thresholds)
        return np.concatenate(flags)

    history: list[IterationRecord] = []
    n_locked = 0
    iterations = 0
    last_basis_cols = padded
    forced_rr_last_round = False
    status = None

    def record() -> None:
        if not cfg.record_history:
            return
        all_values = np.concatenate([sub.values for sub in subs])
        all_norms = np.concatenate([sub.residual_norms for sub in subs])
        order = np.argsort(all_values, kind="stable")
        history.append(IterationRecord(
            iteration=iterations,
            ritz_values=all_values[order],
            residual_norms=all_norms[order],
            locked_count=n_locked,
            basis_cols=last_basis_cols,
        ))

    def do_shared_rr() -> None:
        nonlocal last_basis_cols
        new_values, new_vectors = shared_rr(aggregate_x())
        for j, sub in enumerate(subs):
            sub.X = new_vectors[:, j * nb:(j + 1) * nb].copy()
            sub.values = new_values[j * nb:(j + 1) * nb].copy()
            sub.P = None
            refresh(sub)
        last_basis_cols = padded

    while status is None:
        conv = slot_conv()
        prefix = 0
        while prefix < padded and conv[prefix]:
            prefix += 1
        n_locked = max(n_locked, prefix)
        record()

        if np.all(conv[:nev]):
            do_shared_rr()
            if np.all(slot_conv()[:nev]):
                status = STATUS_CONVERGED
            continue
        if iterations >= cfg.max_iter:
            do_shared_rr()
            status = STATUS_MAX_ITER
            continue

        iterations += 1
        snapshot = aggregate_x()
        b_snapshot = op_apply(b_cnt, snapshot)
        round_cols = 0
        stalled = 0
        active_subs = 0
        for j, sub in enumerate(subs):
            active = np.flatnonzero(~conv[j * nb:(j + 1) * nb])
            if active.size == 0:
                continue  # fully converged sub-solver idles
            active_subs += 1
            residuals = b_project_out(sub.R[:, active], snapshot, b_snapshot,
                                      assume_orthonormal=False)
            directions = t_cnt.apply(residuals)
            b_x = op_apply(b_cnt, sub.X)
            directions = b_project_out(directions, sub.X, b_x)
            try:
                w_block, _, _ = b_orthonormalize_full(directions, b_cnt, counters)
            except (ZeroRankError, OrthonormalizationError):
                stalled += 1
                continue
            parts = [sub.X, w_block]
            if sub.P is not None:
                carried = b_project_out(sub.P, sub.X, b_x)
                try:
                    p_block, _, _ = b_orthonormalize_full(carried, b_cnt, counters)
                    parts.append(p_block)
                except (ZeroRankError, OrthonormalizationError):
                    pass
            basis = np.hstack(parts)
            try:
                ritz = rayleigh_ritz(basis, a_cnt, b_cnt, nb, counters)
            except (InsufficientRankError, OrthonormalizationError):
                stalled += 1
                continue
            round_cols += basis.shape[1]
            tail = basis[:, nb:]
            tail_coeff = ritz.coefficients[nb:, :]
            try:
                sub.P, _, _ = b_orthonormalize_full(tail @ tail_coeff, b_cnt, counters)
            except (ZeroRankError, OrthonormalizationError):
                sub.P = None
            sub.X = ritz.vectors
            sub.values = ritz.values
            refresh(sub)
        last_basis_cols = round_cols if round_cols else padded

        if stalled == active_subs and active_subs > 0:
            if forced_rr_last_round:
                do_shared_rr()
                status = STATUS_BREAKDOWN
                continue
            do_shared_rr()
            forced_rr_last_round = True
            continue
        forced_rr_last_round = False

        if iterations % cfg.rr_period == 0:
            cols_this_round = last_basis_cols
            do_shared_rr()
            last_basis_cols = cols_this_round + padded

    final_values = np.concatenate([sub.values for sub in subs])[:nev]
    final_vectors = np.hstack([sub.X for sub in subs])[:, :nev]
    final_norms = np.concatenate([sub.residual_norms for sub in subs])[:nev]
    return SolveResult(
        values=final_values.copy(),
        vectors=final_vectors.copy(),
        status=status,
        iterations=iterations,
        residual_norms=final_norms.copy(),
        history=history,
        counters=counters,
    )
