"""Many-small-blocks variant: independent narrow recurrences plus a shared
Rayleigh-Ritz coupling step.

For ``nev`` requested pairs and a sub-block width ``nb``, ``nev / nb``
width-``nb`` :class:`~lobpcg_kit.solver.LobpcgEngine` recurrences advance
side by side.  Each step B-projects an engine's active residuals off the
aggregate iterate block before preconditioning, so the recurrences do not
collapse onto the same eigenvectors (its B-dual basis is formed once per
round).  Every ``rr_period`` rounds one shared Rayleigh-Ritz over the
aggregate span, on explicit A X and B X, hands every engine a slice of the
Ritz vectors in ascending order, and its carried directions B-projected off
them, so every recurrence stays LOBPCG across couplings (a retry after a
round in which nothing moved drops them).  It is the engines' explicit
refresh and the only place a convergence claim is accepted.  The shared
step can thus be omitted on most rounds, trading coupling frequency
against per-round cost.  The coupling's Rayleigh-Ritz and B-normalization
are those of :mod:`lobpcg_kit.blocks`; this module keeps only the coupling.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .blocks import (
    b_apply,
    b_dual_basis,
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
    REFRESH_PERIOD,
    STATUS_BREAKDOWN,
    STATUS_CONVERGED,
    STATUS_MAX_ITER,
    IterationRecord,
    LobpcgEngine,
    SolveResult,
    SolverConfig,
    _Breakdown,
    _require_finite,
)


@dataclass
class Lobpcg2Config:
    """Knobs for the many-small-blocks solver.

    ``nev`` is padded up to the next multiple of ``sub_block`` internally;
    padded pairs are discarded on return.  ``rr_period`` is the number of
    rounds between shared Rayleigh-Ritz couplings.  ``tol`` and
    ``max_iter`` are checked by the engines' :class:`SolverConfig`.
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
    dim, nev, nb, padded = a_op.dim, cfg.nev, cfg.sub_block, cfg.padded_nev()
    slices = [slice(lo, lo + nb) for lo in range(0, padded, nb)]
    rng = np.random.default_rng(cfg.seed)
    start = rng.standard_normal((dim, padded))
    lead = LobpcgEngine(a_op, SolverConfig(nev=nb, tol=cfg.tol, max_iter=cfg.max_iter,
                                           seed=cfg.seed),
                        b_op=b_op, precond=precond, x0=start[:, slices[0]])
    # the other engines share the lead's operators, counters and norm
    # estimates; the first coupling replaces every iterate block, the
    # lead's own start included
    engines = [lead] + [copy.copy(lead) for _ in slices[1:]]
    counters = lead.counters

    def stack(name: str) -> np.ndarray:
        return np.hstack([getattr(engine, name) for engine in engines])

    def explicit():
        x = stack("X")
        return x, op_apply(lead.a_op, x), b_apply(lead.b_op, x)

    def couple(x: np.ndarray, a_x: np.ndarray, b_x: np.ndarray, keep: bool = True) -> None:
        """Shared Rayleigh-Ritz; every engine takes a copied slice, and its P if ``keep``."""
        _require_finite(a_x, b_x)
        counters.rayleigh_ritz_calls += 1
        parts = [(x, a_x, b_x)]
        try:
            values, x, a_x, b_x, _ = carried_rayleigh_ritz(parts, padded)
        except InsufficientRankError:
            # recurrences collapsed: widen the span with random columns
            fill = rng.standard_normal((dim, padded))
            parts.append((fill, op_apply(lead.a_op, fill), b_apply(lead.b_op, fill)))
            _require_finite(*parts[1])
            values, x, a_x, b_x, _ = carried_rayleigh_ritz(parts, padded)
        for engine, cols in zip(engines, slices):
            direction = None
            if keep and engine.P is not None:  # P -= X (B X)^T P, one engine at a time
                counters.orthonormalizations += 1
                direction = b_normalized(combine_parts(  # P may hold fewer than nb columns
                    [(engine.P, engine.AP, engine.BP), (x, a_x, b_x)],
                    np.vstack([np.eye(engine.P.shape[1]), -(b_x.T @ engine.P)])))
            x_cols = x[:, cols].copy()
            engine._adopt(values[cols].copy(), x_cols, a_x[:, cols].copy(),
                          x_cols if b_x is x else b_x[:, cols].copy(), direction)

    x, _, _, b_x = b_orthonormalize_full(start, lead.b_op, counters)
    a_x = op_apply(lead.a_op, x)
    if not np.isfinite(a_x).all():
        nan = np.full(nev, np.nan)
        return SolveResult(values=nan, vectors=x[:, :nev].copy(), status=STATUS_BREAKDOWN,
                           iterations=0, residual_norms=nan.copy(), counters=counters)
    couple(x, a_x, b_x)
    del start, x, a_x, b_x  # the engines hold copies

    history: list[IterationRecord] = []
    n_locked = iterations = 0
    last_basis_cols = padded
    #: True while the engines hold the output of a shared Rayleigh-Ritz.
    coupled = True
    status = None
    try:
        while status is None:
            conv = np.concatenate([engine.converged_mask() for engine in engines])
            if not coupled and (np.all(conv[:nev]) or iterations >= cfg.max_iter):
                # claim convergence, or stop, on explicit products only
                couple(*explicit())
                coupled, last_basis_cols = True, padded
                conv = np.concatenate([engine.converged_mask() for engine in engines])
            n_locked = max(n_locked, int(np.cumprod(conv).sum()))  # leading converged
            if cfg.record_history:
                values, norms = stack("ritz_values"), stack("residual_norms")
                order = np.argsort(values, kind="stable")
                history.append(IterationRecord(
                    iteration=iterations, ritz_values=values[order],
                    residual_norms=norms[order], locked_count=n_locked,
                    basis_cols=last_basis_cols,
                ))
            if np.all(conv[:nev]):
                status = STATUS_CONVERGED
                continue
            if iterations >= cfg.max_iter:
                status = STATUS_MAX_ITER
                continue

            iterations += 1
            x_agg = stack("X")
            deflation = (x_agg, b_dual_basis(x_agg, x_agg if lead.b_op is None else stack("BX")))
            moved = round_cols = 0
            for engine, done in zip(engines, np.split(conv, len(engines))):
                if done.all():
                    continue  # a fully converged recurrence idles
                try:
                    engine.step(extra_deflation=deflation)
                except (_Breakdown, OrthonormalizationError):
                    continue
                moved += 1
                round_cols += engine._last_basis_cols
            del x_agg, deflation
            if not moved:
                # nothing moved: give up when no engine holds P; otherwise couple
                # without P, so that a stall does not repeat with it, and retry
                if coupled and all(engine.P is None for engine in engines):
                    status = STATUS_BREAKDOWN
                else:
                    couple(*explicit(), keep=False)
                    coupled, last_basis_cols = True, padded
                continue
            coupled, last_basis_cols = False, round_cols
            if iterations % cfg.rr_period == 0:
                couple(*explicit())
                coupled, last_basis_cols = True, round_cols + padded
            elif cfg.rr_period > REFRESH_PERIOD and iterations % REFRESH_PERIOD == 0:
                for engine in engines:
                    engine._refresh_products()
    except (_Breakdown, OrthonormalizationError):
        status = STATUS_BREAKDOWN
        if not coupled:
            # an explicit product is not finite: couple on the carried ones
            try:
                couple(stack("X"), stack("AX"), stack("BX"), keep=False)
            except (_Breakdown, InsufficientRankError, OrthonormalizationError):
                pass

    return SolveResult(
        values=stack("ritz_values")[:nev],
        vectors=stack("X")[:, :nev].copy(),
        status=status,
        iterations=iterations,
        residual_norms=stack("residual_norms")[:nev],
        history=history,
        counters=counters,
    )
