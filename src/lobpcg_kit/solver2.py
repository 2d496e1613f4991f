"""Many-small-blocks variant: independent narrow recurrences plus a shared
Rayleigh-Ritz coupling step.

For ``nev`` requested pairs and a sub-block width ``nb``, ``nev / nb``
width-``nb`` :class:`~lobpcg_kit.solver.LobpcgEngine` recurrences advance
side by side.  Each step B-projects an engine's active residuals off the
aggregate iterate block before preconditioning, so the recurrences do not
collapse onto the same eigenvectors (its B-dual basis is formed once per
round).  Every ``rr_period`` rounds one shared Rayleigh-Ritz over the
aggregate span, on the carried A X and B X, hands every engine a slice of
the Ritz vectors in ascending order, and its carried directions B-projected
off them, so every recurrence stays LOBPCG across couplings (a retry after a
round in which nothing moved drops them).  On explicit products it is the
refresh of :func:`~lobpcg_kit.solver.drive`, on the schedule of every
solver, which then stands in for the carried coupling.  The coupling's
Rayleigh-Ritz and B-normalization are those of :mod:`lobpcg_kit.blocks`.
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
    STATUS_BREAKDOWN,
    LobpcgEngine,
    SolveResult,
    SolverConfig,
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
    ``tol`` and ``max_iter`` are checked by the engines' :class:`SolverConfig`.
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


class _Rounds:
    """lobpcg2's state for :func:`~lobpcg_kit.solver.drive`: one narrow
    engine per sub-block, advanced a round at a time and coupled by a
    shared Rayleigh-Ritz, on explicit products as its refresh.  The stacked
    ``ritz_values``, ``X`` and ``residual_norms`` are the engines' own, in
    sub-block order."""

    def __init__(self, lead: LobpcgEngine, cfg: Lobpcg2Config, rng: np.random.Generator):
        self.padded, self.rr_period = cfg.padded_nev(), cfg.rr_period
        self.slices = [slice(lo, lo + cfg.sub_block)
                       for lo in range(0, self.padded, cfg.sub_block)]
        # the other engines share the lead's operators, counters and norm
        # estimates; the first coupling replaces every iterate block, the
        # lead's own start included
        self.engines = [lead] + [copy.copy(lead) for _ in self.slices[1:]]
        self.lead, self.counters, self.rng = lead, lead.counters, rng
        self.iterations = 0
        self._last_basis_cols = self.padded
        #: True while the engines hold a shared Rayleigh-Ritz on explicit products.
        self._fresh = True

    def stack(self, name: str) -> np.ndarray:
        return np.hstack([getattr(engine, name) for engine in self.engines])

    ritz_values = property(lambda self: self.stack("ritz_values"))
    X = property(lambda self: self.stack("X"))
    residual_norms = property(lambda self: self.stack("residual_norms"))

    def converged_mask(self) -> np.ndarray:
        return np.concatenate([engine.converged_mask() for engine in self.engines])

    def carried(self):
        x = self.X
        return x, self.stack("AX"), x if self.lead.b_op is None else self.stack("BX")

    def couple(self, x: np.ndarray, a_x: np.ndarray, b_x: np.ndarray, keep: bool = True) -> None:
        """Shared Rayleigh-Ritz; every engine takes a copied slice, and its P if ``keep``."""
        _require_finite(a_x, b_x)
        self.counters.rayleigh_ritz_calls += 1
        parts = [(x, a_x, b_x)]
        try:
            values, x, a_x, b_x, _, _ = carried_rayleigh_ritz(parts, self.padded)
        except InsufficientRankError:
            # recurrences collapsed: widen the span with random columns
            fill = self.rng.standard_normal((x.shape[0], self.padded))
            parts.append((fill, op_apply(self.lead.a_op, fill), b_apply(self.lead.b_op, fill)))
            _require_finite(*parts[1])
            values, x, a_x, b_x, _, _ = carried_rayleigh_ritz(parts, self.padded)
        for engine, cols in zip(self.engines, self.slices):
            direction = None
            if keep and engine.P is not None:  # P -= X (B X)^T P, one engine at a time
                self.counters.orthonormalizations += 1
                direction = b_normalized(combine_parts(  # P may hold fewer than nb columns
                    [(engine.P, engine.AP, engine.BP), (x, a_x, b_x)],
                    np.vstack([np.eye(engine.P.shape[1]), -(b_x.T @ engine.P)])))
            x_cols = x[:, cols].copy(order="K")
            engine._adopt(values[cols].copy(), x_cols, a_x[:, cols].copy(order="K"),
                          x_cols if b_x is x else b_x[:, cols].copy(order="K"), direction)

    def _refresh_products(self, keep: bool = True) -> None:
        x = self.X
        self.couple(x, op_apply(self.lead.a_op, x), b_apply(self.lead.b_op, x), keep)
        self._fresh = True
        self._last_basis_cols += self.padded  # the round's columns, then the coupling's

    def step(self) -> None:
        """One round: every engine that has not converged steps once, after
        a coupling on carried products when the last round was an
        ``rr_period``-th one that drive did not refresh."""
        coupled = not self._fresh and self.iterations % self.rr_period == 0
        if coupled:
            self.couple(*self.carried())
        conv = self.converged_mask()
        self.iterations += 1
        x_agg = self.X
        deflation = (x_agg, b_dual_basis(x_agg, x_agg if self.lead.b_op is None
                                         else self.stack("BX")))
        moved, round_cols = 0, self.padded * coupled
        for engine, done in zip(self.engines, np.split(conv, len(self.engines))):
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
            if self._fresh and all(engine.P is None for engine in self.engines):
                raise _Breakdown
            self._refresh_products(keep=False)
            self._last_basis_cols = self.padded
            return
        self._fresh, self._last_basis_cols = False, round_cols

    def salvage(self, in_step: bool) -> None:
        """After any breakdown, couple on the carried products unless fresh:
        an explicit product may be what is not finite."""
        if not self._fresh:
            try:
                self.couple(*self.carried(), keep=False)
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
    rng = np.random.default_rng(cfg.seed)
    start = rng.standard_normal((a_op.dim, cfg.padded_nev()))
    lead = LobpcgEngine(a_op, SolverConfig(nev=cfg.sub_block, tol=cfg.tol,
                                           max_iter=cfg.max_iter, seed=cfg.seed),
                        b_op=b_op, precond=precond, x0=start[:, :cfg.sub_block])
    x, _, _, b_x = b_orthonormalize_full(start, lead.b_op, lead.counters)
    a_x = op_apply(lead.a_op, x)
    if not np.isfinite(a_x).all():
        nan = np.full(cfg.nev, np.nan)
        return SolveResult(values=nan, vectors=x[:, :cfg.nev].copy(), status=STATUS_BREAKDOWN,
                           iterations=0, residual_norms=nan.copy(), counters=lead.counters)
    rounds = _Rounds(lead, cfg, rng)
    rounds.couple(x, a_x, b_x)
    del start, x, a_x, b_x  # the engines hold copies
    return drive(rounds, cfg.nev, cfg.max_iter, cfg.record_history)
