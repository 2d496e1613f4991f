"""Many-small-blocks solver: agreement with the full-block method,
coupling-period behavior, aggregate invariants."""

import copy
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_to_csr, easy_spd_problem, fe_matrices_1d, random_spd_metric

from lobpcg_kit import (
    CallableOperator,
    DiagonalOperator,
    IdentityOperator,
    InvalidConfigError,
    Lobpcg2Config,
    SolverConfig,
    csr_from_coo,
    dense_oracle,
    jacobi_precond,
    lobpcg2_solve,
    lobpcg_solve,
    norm_estimates,
    op_apply,
    psd_solve,
)
from lobpcg_kit import blocks, solver


def diag_operator(n):
    return csr_from_coo(n, [(i, i, float(i + 1)) for i in range(n)])


def b_defect(vectors, b_op):
    gram = vectors.T @ op_apply(b_op, vectors)
    return np.max(np.abs(gram - np.eye(vectors.shape[1])))


def fe_pencil(mx, my):
    """Q1 finite-element pencil on an mx x my grid: A = K(x)M + M(x)K, B = M(x)M."""
    kx, mass_x = fe_matrices_1d(mx)
    ky, mass_y = fe_matrices_1d(my)
    return (dense_to_csr(np.kron(kx, mass_y) + np.kron(mass_x, ky)),
            dense_to_csr(np.kron(mass_x, mass_y)))


def event_log(monkeypatch):
    """Log of a run's events, in order: ``("step", tally)`` after a
    sub-block steps, ``("rr", tally)`` as a coupling's shared Rayleigh-Ritz
    starts, and ``("adopt", tally, x, direction)`` for every sub-block as
    the coupling ends: its slice of X and its carried P stack
    ``(A P, P, B P)`` or None (copies).  ``tally`` is the run's ``(a_matvecs, b_matvecs)`` at
    that point."""
    log, counters = [], []

    def tally(state=None):
        if state is not None:
            counters[:] = [state.counters]
        return counters[0].a_matvecs, counters[0].b_matvecs

    update, couple = solver.LobpcgEngine._update_sub_block, solver.LobpcgEngine.couple

    def logged_update(state, *args):
        width = update(state, *args)
        if width:
            log.append(("step", tally(state)))
        return width

    def logged_couple(state, *args, **kwargs):
        log.append(("rr", tally(state)))
        couple(state, *args, **kwargs)
        for k in range(len(state.slices)):
            parts = state._parts(k)
            kept = parts[1].copy() if len(parts) > 1 else None
            log.append(("adopt", tally(), parts[0][1].copy(), kept))

    monkeypatch.setattr(solver.LobpcgEngine, "_update_sub_block", logged_update)
    monkeypatch.setattr(solver.LobpcgEngine, "couple", logged_couple)
    return log


def couplings(log, n_blocks):
    """``(k, adopts)`` for every shared Rayleigh-Ritz in an event log: the
    index of its ``rr`` entry and the sub-blocks' adopts that follow it."""
    starts = [k for k, entry in enumerate(log) if entry[0] == "rr"]
    groups = [(k, log[k + 1:k + 1 + n_blocks]) for k in starts]
    assert all(entry[0] == "adopt" for _, adopts in groups for entry in adopts)
    return groups


class CountingDiagonal(DiagonalOperator):
    """Diagonal operator that counts its applies and the columns they take."""

    def __init__(self, diagonal):
        super().__init__(diagonal)
        self.columns = self.calls = 0

    def apply(self, block):
        self.columns += block.shape[1]
        self.calls += 1
        return super().apply(block)


class TestExamples:
    def test_single_vector_recurrences(self):
        res = lobpcg2_solve(diag_operator(10),
                            Lobpcg2Config(nev=4, sub_block=1, rr_period=1))
        assert res.status == "converged"
        np.testing.assert_allclose(res.values, [1.0, 2.0, 3.0, 4.0], atol=1e-7)

    def test_sparse_coupling_same_answer(self):
        base = lobpcg2_solve(diag_operator(10),
                             Lobpcg2Config(nev=4, sub_block=1, rr_period=1))
        sparse = lobpcg2_solve(diag_operator(10),
                               Lobpcg2Config(nev=4, sub_block=1, rr_period=5,
                                             max_iter=max(3 * base.iterations, 10)))
        assert sparse.status == "converged"
        np.testing.assert_allclose(sparse.values, [1.0, 2.0, 3.0, 4.0], atol=1e-7)
        assert sparse.iterations <= 3 * base.iterations

    def test_single_sub_solver_matches_full_block(self):
        a = diag_operator(10)
        narrow = lobpcg2_solve(a, Lobpcg2Config(nev=2, sub_block=2, rr_period=1,
                                                tol=1e-9, seed=4))
        full = lobpcg_solve(a, SolverConfig(nev=2, tol=1e-9, seed=4))
        assert np.max(np.abs(narrow.values - full.values)) <= 1e-9

    def test_padding_discarded(self):
        res = lobpcg2_solve(diag_operator(12),
                            Lobpcg2Config(nev=3, sub_block=2, rr_period=1))
        assert res.status == "converged"
        assert res.values.shape == (3,)
        np.testing.assert_allclose(res.values, [1.0, 2.0, 3.0], atol=1e-7)


class TestCrossVariantAgreement:
    @pytest.mark.parametrize("sub_block,rr_period", [(1, 1), (1, 5), (2, 1), (2, 5)])
    def test_agrees_with_full_block_and_oracle(self, sub_block, rr_period):
        for seed in (0, 1, 2):
            n = 48 + 24 * seed
            a = easy_spd_problem(seed + 100, n)
            nev = 4
            full = lobpcg_solve(a, SolverConfig(nev=nev, seed=seed))
            narrow = lobpcg2_solve(a, Lobpcg2Config(nev=nev, sub_block=sub_block,
                                                    rr_period=rr_period, seed=seed))
            oracle = dense_oracle(a, IdentityOperator(n))
            assert narrow.status == "converged"
            slack = 1e-6 * (1 + np.abs(oracle.values[:nev]))
            assert np.all(np.abs(narrow.values - full.values) <= slack)
            assert np.all(np.abs(narrow.values - oracle.values[:nev]) <= slack)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_one_sub_block_is_block_lobpcg(self, seed):
        # at sub_block = nev lobpcg2 is one sub-block, so it takes the block
        # LOBPCG step from the same start
        a, b = fe_pencil(10, 12)
        nev = 4
        full = lobpcg_solve(a, SolverConfig(nev=nev, seed=seed), b_op=b,
                            precond=jacobi_precond(a))
        narrow = lobpcg2_solve(a, Lobpcg2Config(nev=nev, sub_block=nev, rr_period=1,
                                                seed=seed),
                               b_op=b, precond=jacobi_precond(a))
        assert full.status == narrow.status == "converged"
        assert abs(narrow.iterations - full.iterations) <= 3
        np.testing.assert_allclose(narrow.values, full.values, rtol=1e-7)

    @pytest.mark.parametrize("rr_period", [1, 5])
    @pytest.mark.parametrize("nev", [3, 4])
    @pytest.mark.parametrize("metric", [False, True], ids=["standard", "pencil"])
    def test_one_sub_block_is_block_lobpcg_bit_for_bit(self, metric, nev, rr_period):
        # a coupling merges sub-blocks, so a state of one sub-block never
        # couples on carried products: lobpcg2 is lobpcg_solve at its width
        a, b = fe_pencil(12, 14)
        b = b if metric else None
        full = lobpcg_solve(a, SolverConfig(nev=nev, block_size=4, seed=0), b_op=b,
                            precond=jacobi_precond(a))
        narrow = lobpcg2_solve(a, Lobpcg2Config(nev=nev, sub_block=4, rr_period=rr_period),
                               b_op=b, precond=jacobi_precond(a))
        assert full.status == narrow.status == "converged"
        assert narrow.iterations == full.iterations
        for name in ("values", "vectors", "residual_norms"):
            assert np.array_equal(getattr(narrow, name), getattr(full, name)), name
        assert narrow.counters == full.counters

    @pytest.mark.parametrize("solve", [lobpcg_solve, psd_solve], ids=["lobpcg", "psd"])
    def test_sub_blocks_with_constraints_match_the_oracle(self, solve):
        # the pencil's two lowest eigenvectors are deflated, so the
        # sub-blocks find pairs 3 to 6 of the oracle
        a, b = fe_pencil(12, 14)
        oracle = dense_oracle(a, b)
        known = oracle.vectors[:, :2]
        cfg = SolverConfig(nev=4, sub_block=2, rr_period=3)
        res = solve(a, cfg, b_op=b, precond=jacobi_precond(a), constraints=known)
        assert res.status == "converged"
        np.testing.assert_allclose(res.values, oracle.values[2:6], rtol=1e-12)
        assert b_defect(res.vectors, b) <= 1e-8
        assert np.max(np.abs(known.T @ op_apply(b, res.vectors))) <= 1e-8

    def test_lobpcg_with_sub_blocks_is_lobpcg2_bit_for_bit(self):
        a, b = fe_pencil(12, 14)
        full = lobpcg_solve(a, SolverConfig(nev=4, sub_block=2, rr_period=3), b_op=b,
                            precond=jacobi_precond(a))
        narrow = lobpcg2_solve(a, Lobpcg2Config(nev=4, sub_block=2, rr_period=3), b_op=b,
                               precond=jacobi_precond(a))
        assert full.status == narrow.status == "converged"
        assert narrow.iterations == full.iterations
        for name in ("values", "vectors", "residual_norms"):
            assert np.array_equal(getattr(narrow, name), getattr(full, name)), name
        assert narrow.counters == full.counters

    def test_generalized_metric_and_preconditioner(self):
        n = 60
        a = easy_spd_problem(7, n)
        b = random_spd_metric(8, n)
        res = lobpcg2_solve(a, Lobpcg2Config(nev=4, sub_block=2, rr_period=2),
                            b_op=b, precond=jacobi_precond(a))
        oracle = dense_oracle(a, b)
        assert res.status == "converged"
        assert np.all(np.abs(res.values - oracle.values[:4])
                      <= 1e-6 * (1 + np.abs(oracle.values[:4])))
        assert b_defect(res.vectors, b) <= 1e-8


class TestAggregateInvariants:
    def test_orthonormal_after_terminal_rr_at_cutpoints(self):
        a = easy_spd_problem(31, 56)
        for cap in (1, 2, 5, 9):
            res = lobpcg2_solve(a, Lobpcg2Config(nev=4, sub_block=2, rr_period=3,
                                                 max_iter=cap))
            assert b_defect(res.vectors, IdentityOperator(56)) <= 1e-8

    def test_shared_rr_values_monotone(self):
        a = easy_spd_problem(37, 72)
        period = 3
        res = lobpcg2_solve(a, Lobpcg2Config(nev=4, sub_block=2, rr_period=period,
                                             record_history=True, seed=1))
        assert res.status == "converged"
        # records at iteration 1 + k*period reflect freshly coupled states
        coupled = [rec for rec in res.history if rec.iteration % period == 1]
        for prev, nxt in zip(coupled, coupled[1:]):
            slack = 1e-10 * (1 + np.abs(prev.ritz_values))
            assert np.all(nxt.ritz_values <= prev.ritz_values + slack)

    def test_history_integrity(self):
        a = easy_spd_problem(41, 40)
        res = lobpcg2_solve(a, Lobpcg2Config(nev=3, sub_block=1, rr_period=2,
                                             record_history=True))
        locked_prev = 0
        for rec in res.history:
            assert np.all(np.diff(rec.ritz_values) >= 0)
            assert rec.locked_count >= locked_prev
            locked_prev = rec.locked_count

    def test_locked_columns_stay_converged(self):
        a = easy_spd_problem(43, 50)
        cfg = Lobpcg2Config(nev=5, sub_block=1, rr_period=4, tol=1e-8)
        res = lobpcg2_solve(a, cfg)
        assert res.status == "converged"
        norm_a = norm_estimates(a)
        fresh = op_apply(a, res.vectors) - res.vectors * res.values[None, :]
        fresh_norms = np.linalg.norm(fresh, axis=0)
        relaxed = 10 * cfg.tol * (norm_a + np.abs(res.values)) \
            * np.linalg.norm(res.vectors, axis=0)
        assert np.all(fresh_norms <= relaxed)


class TestOnEngine:
    def test_a_applied_to_new_directions_and_couplings_only(self):
        a, b = fe_pencil(12, 14)
        cfg = Lobpcg2Config(nev=6, sub_block=2, rr_period=5, seed=3)
        res = lobpcg2_solve(a, cfg, b_op=b, precond=jacobi_precond(a))
        assert res.status == "converged"
        counters = res.counters
        # the aggregate start, then every shared Rayleigh-Ritz, the terminal
        # one included
        couplings = 2 + res.iterations // cfg.rr_period
        budget = cfg.width() * couplings
        assert counters.a_matvecs <= counters.precond_applies + budget
        # B orthonormalizes and post-checks the new directions
        assert counters.b_matvecs <= 2 * counters.precond_applies + 2 * budget

    @pytest.mark.parametrize("max_iter,stall", [(500, None), (45, None), (500, 7)],
                             ids=["claim", "max_iter", "stall"])
    def test_only_explicit_couplings_apply_the_padded_aggregate(self, monkeypatch,
                                                               max_iter, stall):
        a, b = fe_pencil(12, 14)
        cfg = Lobpcg2Config(nev=6, sub_block=2, rr_period=5, max_iter=max_iter, seed=3)
        log = event_log(monkeypatch)
        round_step, couple, rounds = solver.LobpcgEngine.step, solver.LobpcgEngine.couple, []
        advance = solver.LobpcgEngine._advance_round

        def marked_round(state):
            rounds.append(state.iterations + 1)
            round_step(state)

        def marked_couple(state, *args, **kwargs):
            log.append(("couple", state.iterations))  # after this many counted rounds
            couple(state, *args, **kwargs)

        def stalling_round(state, moving):
            if rounds[-1] == stall:  # no sub-block moves in this round
                return []
            return advance(state, moving)

        monkeypatch.setattr(solver.LobpcgEngine, "step", marked_round)
        monkeypatch.setattr(solver.LobpcgEngine, "couple", marked_couple)
        monkeypatch.setattr(solver.LobpcgEngine, "_advance_round", stalling_round)
        res = lobpcg2_solve(a, cfg, b_op=b, precond=jacobi_precond(a))
        assert res.status == ("max_iter" if max_iter < 500 else "converged")
        assert rounds[-1] == res.iterations > 2 * cfg.rr_period
        # the stalled round's retry couples before the round is counted
        retry = None if stall is None else stall - 1
        coupled = {}  # counted rounds -> the (A, B) columns applied by each coupling after them
        for k, adopts in couplings(log, cfg.width() // cfg.sub_block)[1:]:
            round_no = log[k - 1][1]
            before = next(entry[1] for entry in reversed(log[:k]) if entry[0] != "couple")
            coupled.setdefault(round_no, []).append(tuple(np.subtract(log[k][1], before)))
            # every sub-block keeps its P, which applies nothing; the stall
            # retry drops every P
            assert all(entry[1] == log[k][1] for entry in adopts)
            kept = [entry[3] is not None for entry in adopts]
            assert not any(kept) if round_no == retry else all(kept)
        assert all(len(applied) == 1 for applied in coupled.values())  # never twice
        explicit = {r for r, [applied] in coupled.items() if applied != (0, 0)}
        assert all(coupled[r] == [(cfg.width(),) * 2] for r in explicit)
        # explicit on a stall and at the end (a claim or max_iter) only;
        # carried, applying nothing, on the other rr_period rounds
        assert explicit == {rounds[-1], retry} - {None}
        assert set(coupled) - explicit == {r for r in rounds if r % cfg.rr_period == 0
                                          } - explicit

    def test_coupling_every_round_costs_about_as_much_as_rarely(self):
        # a carried coupling applies nothing, so A columns per round hardly
        # depend on rr_period
        a, b = fe_pencil(12, 14)
        for seed in (1, 3):
            per_round = {}
            for rr_period in (1, 25):
                cfg = Lobpcg2Config(nev=6, sub_block=2, rr_period=rr_period, seed=seed)
                res = lobpcg2_solve(a, cfg, b_op=b, precond=jacobi_precond(a))
                assert res.status == "converged"
                per_round[rr_period] = res.counters.a_matvecs / res.iterations
            assert per_round[1] <= 1.1 * per_round[25]

    def test_kept_p_is_b_orthonormal_and_b_orthogonal_to_the_aggregate(self, monkeypatch):
        a, b = fe_pencil(12, 14)
        for rr_period in (1, 25):
            cfg = Lobpcg2Config(nev=6, sub_block=2, rr_period=rr_period, seed=1)
            log = event_log(monkeypatch)
            res = lobpcg2_solve(a, cfg, b_op=b, precond=jacobi_precond(a))
            assert res.status == "converged"
            kept = 0
            for _, adopts in couplings(log, cfg.width() // cfg.sub_block):
                x_agg = np.hstack([entry[2] for entry in adopts])
                for entry in adopts:
                    if entry[3] is None:
                        continue
                    p = entry[3][1]
                    b_p = op_apply(b, p)  # B applied explicitly
                    assert np.max(np.abs(x_agg.T @ b_p)) <= 1e-8
                    assert np.max(np.abs(p.T @ b_p - np.eye(p.shape[1]))) <= 1e-8
                    kept += 1
            assert kept >= 3
            monkeypatch.undo()

    @pytest.mark.parametrize("name", ["lobpcg", "psd", "lobpcg2"])
    def test_round_in_which_nothing_moved_retries_without_p(self, monkeypatch, name):
        # every solver retries a round in which nothing moved once, on
        # explicit products without P, and goes on
        a, b = fe_pencil(12, 14)
        log = event_log(monkeypatch)
        advance, carried = solver.LobpcgEngine._advance_round, []

        def stalling_round(state, moving):
            carried.append([bool(state.p_cols[k]) for k, _ in moving])
            if len(carried) == 7:  # every sub-block of round 7
                return []
            return advance(state, moving)

        monkeypatch.setattr(solver.LobpcgEngine, "_advance_round", stalling_round)
        solve, cfg = {"lobpcg": (lobpcg_solve, SolverConfig(nev=4, seed=3)),
                      "psd": (psd_solve, SolverConfig(nev=4, seed=3)),
                      "lobpcg2": (lobpcg2_solve, Lobpcg2Config(nev=4, sub_block=2, rr_period=5,
                                                               seed=3))}[name]
        res = solve(a, cfg, b_op=b, precond=jacobi_precond(a))
        assert res.status == "converged"
        assert res.iterations > 7
        kept = name != "psd"  # psd keeps no P
        assert all(p == kept for p in carried[6])  # the stalled round had a P to drop
        assert not any(carried[7])  # round 8 steps without P
        assert all(p == kept for p in carried[8])  # round 9 with round 8's P
        if name == "lobpcg2":
            groups = couplings(log, 2)
            # the start, the carried coupling after round 5, then the retry
            # after the twelve steps of rounds 1 to 6
            retry_index, retry = groups[2]
            assert [entry[0] for entry in log[:retry_index]].count("step") == 12
            assert all(entry[3] is None for entry in retry)
            # the next coupling, after round 10, keeps P again
            assert all(entry[3] is not None for entry in groups[3][1])

    def test_round_stalled_after_a_coupling_that_kept_p_retries_without_p(self, monkeypatch):
        a, b = fe_pencil(12, 14)
        cfg = Lobpcg2Config(nev=4, sub_block=2, rr_period=1, seed=3)
        log = event_log(monkeypatch)
        advance, carried = solver.LobpcgEngine._advance_round, []

        def stalling_round(state, moving):
            carried.append([bool(state.p_cols[k]) for k, _ in moving])
            if len(carried) == 3:  # both sub-blocks of round 3
                return []
            return advance(state, moving)

        monkeypatch.setattr(solver.LobpcgEngine, "_advance_round", stalling_round)
        res = lobpcg2_solve(a, cfg, b_op=b, precond=jacobi_precond(a))
        assert res.status == "converged"
        assert carried[2] == [True, True]  # round 2's coupling kept P
        groups = couplings(log, 2)
        # the start, the couplings after rounds 1 and 2, then the retry
        retry_index, retry = groups[3]
        assert [entry[0] for entry in log[:retry_index]].count("step") == 4
        assert all(entry[3] is None for entry in retry)
        assert carried[3] == [False, False]  # round 4 steps without P
        assert all(entry[3] is not None for entry in groups[4][1])

    def test_coupling_keeps_a_p_narrower_than_the_sub_block(self, monkeypatch):
        a, b = fe_pencil(12, 14)
        cfg = Lobpcg2Config(nev=4, sub_block=2, rr_period=1, seed=3)
        log = event_log(monkeypatch)
        logged_update = solver.LobpcgEngine._update_sub_block

        def narrowing_update(state, k, *args):
            width = logged_update(state, k, *args)
            if state.p_cols[k]:  # as when dependent columns are dropped
                state.p_cols[k] = 1
            return width

        monkeypatch.setattr(solver.LobpcgEngine, "_update_sub_block", narrowing_update)
        res = lobpcg2_solve(a, cfg, b_op=b, precond=jacobi_precond(a))
        assert res.status in ("converged", "max_iter")
        assert b_defect(res.vectors, b) <= 1e-8
        kept = [entry[3] for _, adopts in couplings(log, 2) for entry in adopts
                if entry[3] is not None]
        assert kept and all(direction.shape[-1] == 1 for direction in kept)

    def test_counters_include_every_recurrence(self):
        n = 60
        a = CountingDiagonal(np.linspace(1.0, 30.0, n))
        b = CountingDiagonal(np.linspace(1.0, 2.0, n))
        precond = CountingDiagonal(1.0 / np.linspace(1.0, 30.0, n))
        res = lobpcg2_solve(a, Lobpcg2Config(nev=6, sub_block=2, rr_period=3),
                            b_op=b, precond=precond)
        assert res.status == "converged"
        assert res.counters.a_matvecs == a.columns
        assert res.counters.b_matvecs == b.columns
        assert res.counters.precond_applies == precond.columns > res.iterations

    def test_long_period_run_returns_explicit_products(self):
        # couplings 60 rounds apart on carried products: only the start and
        # the coupling at max_iter apply A and B to the padded state
        a, b = fe_pencil(10, 12)
        cfg = Lobpcg2Config(nev=4, sub_block=2, rr_period=60, tol=1e-300,
                            max_iter=130, seed=1)
        res = lobpcg2_solve(a, cfg, b_op=b, precond=jacobi_precond(a))
        assert res.status == "max_iter"
        assert res.iterations == cfg.max_iter
        explicit = 2 * cfg.width()
        assert res.counters.a_matvecs == res.counters.precond_applies + explicit
        assert b_defect(res.vectors, b) <= 1e-8
        fresh = op_apply(a, res.vectors) - op_apply(b, res.vectors) * res.values[None, :]
        # the pairs converge to rounding level, so compare against that floor
        np.testing.assert_allclose(res.residual_norms, np.linalg.norm(fresh, axis=0),
                                   rtol=1e-6, atol=1e-12 * norm_estimates(a))

    @pytest.mark.parametrize("poisoned", ["a", "b"])
    # numpy warns while a Gram matrix is formed from a non-finite product
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_mid_run_ends_in_breakdown(self, monkeypatch, poisoned):
        n = 40
        spectrum = np.arange(1.0, n + 1)
        calls = {"count": 0}
        advance, moved = solver.LobpcgEngine._advance_round, []

        def counted_round(state, moving):
            widths = advance(state, moving)
            moved.append(bool(widths))
            return widths

        def apply(block):
            calls["count"] += 1
            out = spectrum[:, None] * block if poisoned == "a" else block.copy()
            # finite through the start and a few rounds
            return np.full_like(out, np.nan) if calls["count"] > 30 else out

        monkeypatch.setattr(solver.LobpcgEngine, "_advance_round", counted_round)
        op = CallableOperator(n, apply)
        a_op = op if poisoned == "a" else DiagonalOperator(spectrum)
        b_op = op if poisoned == "b" else None
        res = lobpcg2_solve(a_op, Lobpcg2Config(nev=4, sub_block=2, rr_period=3),
                            b_op=b_op)
        assert res.status == "breakdown"
        # the last round moved nothing and its retry broke down: not counted
        assert not moved[-1]
        assert res.iterations == sum(moved) > 0
        assert np.all(np.isfinite(res.values))
        assert np.all(np.isfinite(res.residual_norms))
        assert b_defect(res.vectors, IdentityOperator(n)) <= 1e-8


#: Every solver for nev 6, each stepping as rounds of the engine's core.
SOLVES = {
    "lobpcg2": lambda a, **kw: lobpcg2_solve(a, Lobpcg2Config(nev=6, sub_block=2, rr_period=3),
                                             **kw),
    "lobpcg": lambda a, **kw: lobpcg_solve(a, SolverConfig(nev=6), **kw),
    "psd": lambda a, **kw: psd_solve(a, SolverConfig(nev=6), **kw),
}


class TestStackedRounds:
    @pytest.mark.parametrize("name", SOLVES)
    def test_a_round_applies_each_operator_once(self, monkeypatch, name):
        n = 60
        a = CountingDiagonal(np.linspace(1.0, 30.0, n))
        b = CountingDiagonal(np.linspace(1.0, 2.0, n))
        precond = CountingDiagonal(1.0 / np.linspace(1.0, 30.0, n))
        advance, rounds = solver.LobpcgEngine._advance_round, []

        def counted_round(state, moving):
            before = [op.calls for op in (a, b, precond)]
            widths = advance(state, moving)
            rounds.append((len(moving), len(widths),
                           [op.calls - calls for op, calls in zip((a, b, precond), before)]))
            return widths

        monkeypatch.setattr(solver.LobpcgEngine, "_advance_round", counted_round)
        res = SOLVES[name](a, b_op=b, precond=precond)
        assert res.status == "converged"
        # the rounds shared by two or more sub-blocks; lobpcg and psd step as
        # rounds of their one sub-block
        shared_from = 2 if name == "lobpcg2" else 1
        shared = [applied for moving, moved, applied in rounds if moving >= shared_from and moved]
        assert len(shared) >= 5
        assert all(applied == [1, 1, 1] for applied in shared)  # calls, not columns

    @pytest.mark.parametrize("name", SOLVES)
    def test_w_is_its_own_b_product_on_a_standard_problem(self, monkeypatch, name):
        # without a metric no round forms or maps a B W apart from W: every
        # W stack is (A W, W)
        orthonormalize, aliased = solver.b_orthonormalize_spans, []

        def recorded(*args, **kwargs):
            ws, kept = orthonormalize(*args, **kwargs)
            if ws is not None:
                aliased.append(len(ws) == 2)
            return ws, kept

        monkeypatch.setattr(solver, "b_orthonormalize_spans", recorded)
        SOLVES[name](DiagonalOperator(np.arange(1.0, 201.0)))
        assert len(aliased) >= 5 and all(aliased)

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(seed=st.integers(0, 20), rounds=st.integers(0, 15), sub_block=st.integers(1, 3),
           ragged=st.booleans(), copy_of_x=st.sampled_from([None, 0.0, 1e-7, 1e-6]))
    def test_stacked_and_per_block_phase_2_agree(self, seed, rounds, sub_block, ragged,
                                                 copy_of_x):
        a, b = fe_pencil(10, 12)
        state = solver.LobpcgEngine(a, Lobpcg2Config(nev=6, sub_block=sub_block, rr_period=3,
                                                     seed=seed),
                                    b_op=b, precond=jacobi_precond(a))
        for _ in range(rounds):
            state.step()
        moving = [(k, np.arange(cols.start, cols.stop)) for k, cols in enumerate(state.slices)]
        if ragged and sub_block > 1:  # one sub-block with a narrower W
            moving[1] = (1, moving[1][1][1:])
        if copy_of_x is not None and state.p_cols[0]:
            # sub-block 0's P a B-normalized copy of its X, exact or nearly:
            # a B-Gram matrix whose Cholesky fails in LAPACK (0), the pivot
            # floor (1e-7) or the restart guard's condition limit (1e-6)
            cols = slice(0, state.p_cols[0])
            p = state.xs[1][:, cols] + copy_of_x * np.random.default_rng(seed).standard_normal(
                (a.dim, state.p_cols[0]))
            for block, copied in zip(state.ps, (op_apply(a, p), p, op_apply(b, p))):
                block[:, cols] = copied / np.sqrt(np.einsum("ij,ij->j", p, op_apply(b, p)))
        per_block = copy.deepcopy(state)
        widths = state._advance_round(moving)
        with mock.patch.object(blocks, "stacked_cholesky_transforms",
                               lambda grams, *_: (None, np.zeros(len(grams), dtype=bool))), \
                mock.patch.object(solver.LobpcgEngine, "_stacked_grams", lambda *_: None):
            assert per_block._advance_round(moving) == widths
        for name in ("ritz_values", "xs", "ps", "p_cols"):
            assert np.array_equal(getattr(state, name), getattr(per_block, name)), name
        assert state.counters == per_block.counters

    @pytest.mark.parametrize("seed,rounds,constrained", [(0, 0, False), (1, 7, False),
                                                         (2, 30, False), (3, 5, True)])
    def test_batched_phase_1_matches_each_sub_block(self, seed, rounds, constrained):
        # when every column of every sub-block moves, phase 1 projects all
        # of them in one batched call each; its block is bit for bit the
        # sub-blocks' own, joined
        a, b = fe_pencil(10, 12)
        constraints = np.random.default_rng(seed).standard_normal((a.dim, 2))
        state = solver.LobpcgEngine(a, Lobpcg2Config(nev=6, sub_block=2, rr_period=3, seed=seed),
                                    b_op=b, precond=jacobi_precond(a),
                                    constraints=constraints if constrained else None)
        for _ in range(rounds):
            state.step()
        moving = [(k, np.arange(cols.start, cols.stop)) for k, cols in enumerate(state.slices)]
        widths = [active.size for _, active in moving]
        spans = [slice(k * 2, k * 2 + 2) for k in range(3)]
        x, dual = state.xs[1], blocks.b_dual_basis(state.xs[1], state.xs[-1])
        residuals = state._join(widths, (blocks.b_project_out(state.R[:, active], x, dual)
                                         for _, active in moving))
        directions = state.precond.apply(residuals)
        own = [state.xs[..., cols] for cols in state.slices]
        expected = state._join(widths, (blocks.unit_columns(blocks.b_project_out(
            state._deflate(directions[:, span]), o[1], o[-1]))[0] for o, span in zip(own, spans)))
        got = state._unit_directions(moving, widths, spans)
        np.testing.assert_array_equal(got, expected)
        assert got.flags.f_contiguous

    def test_one_block_mul_per_part_per_map(self, monkeypatch):
        # a round of 3 equal sub-blocks maps each part stack, all of its
        # products, with one block_mul, and a second round repeats the count
        a, b = fe_pencil(12, 14)
        state = solver.LobpcgEngine(a, Lobpcg2Config(nev=6, sub_block=2, rr_period=25, seed=1),
                                    b_op=b, precond=jacobi_precond(a))
        for _ in range(3):
            state.step()
        assert len(state.slices) == 3 and state.p_cols.all()
        block_mul, combine_parts, calls, maps = blocks.block_mul, blocks.combine_parts, [0], []

        def counted_block_mul(*args):
            calls[0] += 1
            return block_mul(*args)

        def counted_combine_parts(parts, *args):
            before = calls[0]
            out = combine_parts(parts, *args)
            maps.append((len(parts), calls[0] - before))
            return out

        monkeypatch.setattr(blocks, "block_mul", counted_block_mul)
        monkeypatch.setattr(blocks, "combine_parts", counted_combine_parts)
        rounds = []
        for _ in range(2):
            calls[0], maps[:] = 0, []
            state.step()
            rounds.append((calls[0], list(maps)))
        # per sub-block: the Ritz map of [W, P] and of X, then the next P
        assert rounds[0][1] == [(2, 2), (1, 1), (2, 2)] * 3
        assert rounds[1] == rounds[0]

    def test_peak_memory_against_block_lobpcg(self):
        # On fe_pencil_many's pencil the per-engine rounds peaked at 0.6236
        # times block LOBPCG's peak at nev 12; the rounds may exceed that
        # ratio by 10% at most, so their tall work stays per sub-block
        a, b = fe_pencil(30, 40)
        precond = jacobi_precond(a)
        peaks = []
        for solve in (lambda: lobpcg2_solve(a, Lobpcg2Config(nev=12, sub_block=4, rr_period=25,
                                                             max_iter=300, seed=3),
                                            b_op=b, precond=precond),
                      lambda: lobpcg_solve(a, SolverConfig(nev=12, max_iter=300, seed=3),
                                           b_op=b, precond=precond)):
            tracemalloc.start()
            try:
                assert solve().status == "converged"
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 1.1 * 0.6236 * peaks[1]


class TestValidation:
    """Each rule of ``SolverConfig.validate`` rejects its inputs whichever
    config class holds them."""

    def test_rr_period_positive(self):
        for cls in (SolverConfig, Lobpcg2Config):
            with pytest.raises(InvalidConfigError, match="rr_period"):
                lobpcg2_solve(diag_operator(10), cls(nev=2, sub_block=1, rr_period=0))

    def test_sub_block_cap(self):
        # below one, or wider than ceil(dim / 4) = 3
        for cls in (SolverConfig, Lobpcg2Config):
            for sub_block in (0, 4):
                with pytest.raises(InvalidConfigError, match="sub_block"):
                    lobpcg2_solve(diag_operator(10), cls(nev=4, sub_block=sub_block))

    @pytest.mark.parametrize("bad", [{"tol": 0.0}, {"tol": -1e-8}, {"max_iter": 0}])
    def test_engine_checks_tol_and_max_iter(self, bad):
        for cls in (SolverConfig, Lobpcg2Config):
            with pytest.raises(InvalidConfigError):
                lobpcg2_solve(diag_operator(10), cls(nev=2, **bad))

    def test_padded_width_must_fit(self):
        for cls in (SolverConfig, Lobpcg2Config):
            for dim, nev, sub_block in [(8, 9, 1), (10, 10, 3)]:
                with pytest.raises(InvalidConfigError, match="padded width"):
                    lobpcg2_solve(diag_operator(dim), cls(nev=nev, sub_block=sub_block))
