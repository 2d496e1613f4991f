"""Many-small-blocks solver: agreement with the full-block method,
coupling-period behavior, aggregate invariants."""

import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    dense_to_csr,
    easy_spd_problem,
    fe_matrices_1d,
    peak_blocks,
    random_spd_metric,
)

from lobpcg_kit import (
    CallableOperator,
    DiagonalOperator,
    IdentityOperator,
    InvalidConfigError,
    Lobpcg2Config,
    NoConvergenceError,
    OrthonormalizationError,
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

    @pytest.mark.parametrize("product", ["a", "b"], ids=["A X", "B X"])
    def test_non_finite_explicit_product_leaves_the_state(self, monkeypatch, product):
        # a refresh writes its explicit A X and B X into the state's X stack
        # only once both are finite, so a non-finite one leaves X, its
        # products, the values and the residual norms byte for byte, and the
        # run's last shared Rayleigh-Ritz over them keeps X B-orthonormal
        a, b = fe_pencil(12, 14)
        armed = [False]

        def poisoned(apply):
            return lambda block: np.full_like(apply(block), np.nan) if armed[0] else apply(block)

        ops = {"a": a, "b": b}
        ops[product] = CallableOperator(a.dim, poisoned(ops[product].apply))
        cfg = Lobpcg2Config(nev=6, sub_block=2, rr_period=5, seed=3)

        def solve():
            return solver.LobpcgEngine(ops["a"], cfg, b_op=ops["b"], precond=jacobi_precond(a))

        state = solve()
        for _ in range(7):
            state.step()
        assert len(state.slices) == 3 and not state._fresh
        names = ("xs", "ritz_values", "residual_norms")
        before = [getattr(state, name).tobytes() for name in names]
        armed[0] = True
        with pytest.raises(solver._Breakdown):
            state._refresh_products()
        assert [getattr(state, name).tobytes() for name in names] == before

        armed[0] = False
        refresh = solver.LobpcgEngine._refresh_products

        def armed_refresh(state, *args, **kwargs):
            armed[0] = True
            refresh(state, *args, **kwargs)

        monkeypatch.setattr(solver.LobpcgEngine, "_refresh_products", armed_refresh)
        res = solve().run()
        assert res.status == "breakdown" and res.iterations > 0
        assert res.cause == "_Breakdown: non-finite product"
        assert b_defect(res.vectors, b) <= 1e-8

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
            carried.append([state.ps[k] is not None for k, _ in moving])
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
            carried.append([state.ps[k] is not None for k, _ in moving])
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
            if state.ps[k] is not None:  # as when dependent columns are dropped
                state.ps[k] = state.ps[k][..., :1]
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
        # W enters the routine as (W,) and leaves it as (A W, W)
        orthonormalize, aliased = solver.b_orthonormalize_full, []

        def recorded(stack, formed, *args, **kwargs):
            ws, outcomes = orthonormalize(stack, formed, *args, **kwargs)
            if ws is not None and not formed:
                aliased.append(len(stack) == 1 and len(ws) == 2)
            return ws, outcomes

        monkeypatch.setattr(solver, "b_orthonormalize_full", recorded)
        SOLVES[name](DiagonalOperator(np.arange(1.0, 201.0)))
        assert len(aliased) >= 5 and all(aliased)

    @staticmethod
    def w_input(state, moving, monkeypatch):
        """The stack ``(W, B W)`` (``(W,)``) of phase 1 as the round hands it
        to the B-orthonormalization routine."""
        orthonormalize, inputs = solver.b_orthonormalize_full, []

        def recorded(stack, *args, **kwargs):
            inputs.append(stack)
            return orthonormalize(stack, *args, **kwargs)

        monkeypatch.setattr(solver, "b_orthonormalize_full", recorded)
        state._advance_round(moving)
        monkeypatch.setattr(solver, "b_orthonormalize_full", orthonormalize)
        return inputs[0]

    @staticmethod
    def round_state(seed, rounds, sub_block, use_history_direction=True):
        """A lobpcg2 state on the FE pencil ``(a, b)`` after ``rounds``
        rounds, the moving set of a round in which every sub-block moves,
        and the pencil."""
        a, b = fe_pencil(10, 12)
        state = solver.LobpcgEngine(a, Lobpcg2Config(nev=6, sub_block=sub_block, rr_period=3,
                                                     seed=seed),
                                    b_op=b, precond=jacobi_precond(a),
                                    use_history_direction=use_history_direction)
        for _ in range(rounds):
            state.step()
        moving = [(k, np.arange(cols.start, cols.stop)) for k, cols in enumerate(state.slices)]
        return state, moving, (a, b)

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(seed=st.integers(0, 20), rounds=st.integers(0, 15), sub_block=st.integers(1, 3),
           ragged=st.booleans(), copy_of_x=st.sampled_from([None, 0.0, 1e-7, 1e-6]))
    def test_stacked_and_per_block_phase_2_agree(self, seed, rounds, sub_block, ragged,
                                                 copy_of_x):
        # a round matches, bit for bit and in every count, the same round
        # with every first trial made as a stack of one
        state, moving, (a, b) = self.round_state(seed, rounds, sub_block)
        if ragged and sub_block > 1:  # one sub-block with a narrower W
            moving[1] = (1, moving[1][1][1:])
        if copy_of_x is not None and state.ps[0] is not None:
            # sub-block 0's P a B-orthonormal copy of its X, exact or with
            # entries perturbed by this relative amount: a B-Gram matrix whose
            # Cholesky fails in LAPACK (0), the pivot floor (1e-7) or the
            # restart guard's condition limit (1e-6)
            x = state.xs[1][:, :state.ps[0].shape[-1]]
            p, _ = blocks.b_orthonormalize(x * (1.0 + copy_of_x * np.random.default_rng(
                seed).standard_normal(x.shape)), b)
            state.ps[0] = blocks.stack_of(op_apply(a, p), p, op_apply(b, p))
        per_block = copy.deepcopy(state)
        widths = state._advance_round(moving)
        stacked = solver.stacked_first_trials

        def stacks_of_one(pairs, cond_limits, *rest):
            return [stacked([pair], [limit], *rest)[0] for pair, limit in zip(pairs, cond_limits)]

        with mock.patch.object(solver, "stacked_first_trials", stacks_of_one):
            assert per_block._advance_round(moving) == widths
        for name in ("ritz_values", "xs"):
            assert np.array_equal(getattr(state, name), getattr(per_block, name)), name
        assert [p is None for p in state.ps] == [p is None for p in per_block.ps]
        assert all(p is None or np.array_equal(p, q) for p, q in zip(state.ps, per_block.ps))
        assert state.counters == per_block.counters

    @pytest.mark.parametrize("use_history_direction", [True, False], ids=["lobpcg2", "psd"])
    def test_a_stack_whose_eigh_fails_sends_every_member_to_its_next_trial(
            self, monkeypatch, use_history_direction):
        state, moving, (_, b) = self.round_state(0, 4, 2, use_history_direction)
        assert all(p is not None for p in state.ps) == use_history_direction
        eig, carried, trials = blocks.sym_eig, solver.carried_rayleigh_ritz, []

        def failing_on_stacks(gram):
            if gram.ndim == 3:
                raise NoConvergenceError("eigendecomposition did not converge")
            return eig(gram)

        def recorded(parts, want, gram_a=None, gram_b=None, first=None):
            trials.append((len(parts), first))
            return carried(parts, want, gram_a, gram_b, first)

        monkeypatch.setattr(blocks, "sym_eig", failing_on_stacks)
        monkeypatch.setattr(solver, "carried_rayleigh_ritz", recorded)
        calls = state.counters.rayleigh_ritz_calls
        # every sub-block moves on [X, W], made apart: a [X, W, P] trial is
        # counted, not made
        assert state._advance_round(moving) == [4] * len(moving)
        assert trials == [(2, None)] * len(moving)
        trials_per_block = 2 if use_history_direction else 1
        assert state.counters.rayleigh_ritz_calls - calls == trials_per_block * len(moving)
        for cols in state.slices:
            x = state.xs[1][:, cols]
            assert blocks.ortho_defect(x.T @ op_apply(b, x)) <= 1e-8

    def test_sub_block_whose_every_trial_fails_keeps_x_and_drops_p(self, monkeypatch):
        # sub-block 1 hands its P to its trials, all of which fail, while
        # the others move: its X and Ritz values stay byte for byte and it
        # ends the round without P, as a state of one sub-block does
        state, moving, _ = self.round_state(0, 4, 2)
        assert all(p is not None for p in state.ps)
        cols = state.slices[1]
        x, values = state.xs[..., cols].tobytes(), state.ritz_values[cols].tobytes()
        update, carried, current = (solver.LobpcgEngine._update_sub_block,
                                    solver.carried_rayleigh_ritz, [])

        def tracked_update(state, k, *args):
            current.append(k)
            return update(state, k, *args)

        def failing_for_sub_block_1(*args, **kwargs):
            if current[-1] == 1:
                raise OrthonormalizationError("Ritz block orthonormality defect persists")
            return carried(*args, **kwargs)

        monkeypatch.setattr(solver.LobpcgEngine, "_update_sub_block", tracked_update)
        monkeypatch.setattr(solver, "carried_rayleigh_ritz", failing_for_sub_block_1)
        assert len(state._advance_round(moving)) == len(moving) - 1
        assert current == [k for k, _ in moving]
        assert state.xs[..., cols].tobytes() == x
        assert state.ritz_values[cols].tobytes() == values
        assert [p is None for p in state.ps] == [k == 1 for k, _ in moving]

    @pytest.mark.parametrize("seed,rounds,moving,constrained", [
        (0, 0, [(0, [0, 1]), (1, [2, 3]), (2, [4, 5])], False),
        (1, 7, [(0, [1]), (1, [2, 3]), (2, [4])], False),
        (2, 30, [(1, [3])], False),
        (3, 5, [(0, [0, 1]), (1, [2, 3]), (2, [4, 5])], True),
    ], ids=["all-moving", "partial", "one-column", "constrained"])
    def test_phase_1_matches_each_sub_block(self, seed, rounds, moving, constrained,
                                            monkeypatch):
        # phase 1 in one path for any moving set matches, to rounding, each
        # sub-block's directions formed apart: the residuals projected off
        # the whole X through an explicit pseudo-inverse of X^T B X,
        # preconditioned, deflated, projected off the sub-block's own X
        a, b = fe_pencil(10, 12)
        constraints = np.random.default_rng(seed).standard_normal((a.dim, 2))
        state = solver.LobpcgEngine(a, Lobpcg2Config(nev=6, sub_block=2, rr_period=3, seed=seed),
                                    b_op=b, precond=jacobi_precond(a),
                                    constraints=constraints if constrained else None)
        for _ in range(rounds):
            state.step()
        moving = [(k, np.array(active)) for k, active in moving]
        x, b_x = state.xs[1], state.xs[-1]
        whole = np.linalg.pinv(x.T @ b_x)
        expected = []
        for k, active in moving:
            residuals = state.R[:, active] - x @ (whole @ (b_x.T @ state.R[:, active]))
            directions = state._deflate(state.precond.apply(residuals))
            own = state.xs[..., state.slices[k]]
            directions = directions - own[1] @ (own[-1].T @ directions)
            expected.append(directions / np.linalg.norm(directions, axis=0))
        b_x = b_x.copy()  # the round writes the new X into the state
        got, b_got = self.w_input(state, moving, monkeypatch)
        assert got.flags.f_contiguous
        assert np.linalg.norm(got - np.hstack(expected), axis=0).max() <= 1e-12
        np.testing.assert_array_equal(b_got, op_apply(b, got))  # B applied to W itself
        lo = 0
        for k, active in moving:  # B-orthogonal to its own sub-block's X
            b_own = b_x[:, state.slices[k]]
            overlap = b_own.T @ got[:, lo:lo + active.size]
            assert (np.abs(overlap) <= 1e-12 * np.linalg.norm(b_own, axis=0)[:, None]).all()
            lo += active.size

    @pytest.mark.parametrize("constrained", [False, True])
    def test_one_sub_block_phase_1_is_the_plain_projection(self, constrained, monkeypatch):
        # lobpcg and psd take no projection off the whole X, and their
        # masked projection off their one X, whose mask is all ones, is
        # b_project_out's, bit for bit
        a, b = fe_pencil(10, 12)
        constraints = np.random.default_rng(4).standard_normal((a.dim, 2))
        state = solver.LobpcgEngine(a, SolverConfig(nev=4, seed=4), b_op=b,
                                    precond=jacobi_precond(a),
                                    constraints=constraints if constrained else None)
        for _ in range(6):
            state.step()
        active = np.array([0, 2, 3])
        expected = blocks.unit_pair(blocks.b_project_out(state._deflate(
            state.precond.apply(state.R[:, active])), state.xs[1], state.xs[-1]), b)[0]
        np.testing.assert_array_equal(self.w_input(state, [(0, active)], monkeypatch), expected)

    def test_collapsed_sub_blocks_take_the_svqb_projection(self, monkeypatch):
        # two sub-blocks holding one vector make X^T B X singular: the
        # projection off the whole X keeps one direction of it (SVQB), and
        # each W column is finite and B-orthogonal to its own X
        a, b = fe_pencil(10, 12)
        state = solver.LobpcgEngine(a, Lobpcg2Config(nev=2, sub_block=1, seed=5), b_op=b,
                                    precond=jacobi_precond(a))
        for _ in range(3):
            state.step()
        state.xs[..., 1] = state.xs[..., 0]
        state.ritz_values[1] = state.ritz_values[0]
        state._update_residuals()
        transform, kept = solver.gram_transform, []

        def recorded(gram, *args):
            out = transform(gram, *args)
            kept.append(len(out[1]))
            return out

        monkeypatch.setattr(solver, "gram_transform", recorded)
        got = state._directions([(0, np.array([0])), (1, np.array([1]))])
        got /= np.linalg.norm(got, axis=0)
        assert kept == [1]
        assert np.isfinite(got).all()
        for k in range(2):
            b_own = state.xs[-1][:, k]
            assert abs(b_own @ got[:, k]) <= 1e-12 * np.linalg.norm(b_own)

    def test_one_block_mul_per_part_per_map(self, monkeypatch):
        # a round of 3 equal sub-blocks maps each part stack, all of its
        # products, with one block_mul, and a second round repeats the count
        a, b = fe_pencil(12, 14)
        state = solver.LobpcgEngine(a, Lobpcg2Config(nev=6, sub_block=2, rr_period=25, seed=1),
                                    b_op=b, precond=jacobi_precond(a))
        for _ in range(3):
            state.step()
        assert len(state.slices) == 3 and all(p is not None for p in state.ps)
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

    def test_one_cholesky_per_stack_in_a_round(self, monkeypatch):
        # the same two rounds as above factor stacks, never a span or a
        # sub-block alone: X's B-Gram matrix in phase 1, one stack of the
        # three width-2 W spans per CholeskyQR pass (one here), the
        # first-trial stack of the three [X, W, P] pairs and the stacked
        # transforms of their next P; each next P passes its check as it is
        a, b = fe_pencil(12, 14)
        state = solver.LobpcgEngine(a, Lobpcg2Config(nev=6, sub_block=2, rr_period=25, seed=1),
                                    b_op=b, precond=jacobi_precond(a))
        for _ in range(3):
            state.step()
        assert len(state.slices) == 3 and all(p is not None for p in state.ps)
        cholesky, shapes = blocks.cholesky, []

        def recorded(grams):
            shapes.append(grams.shape)
            return cholesky(grams)

        monkeypatch.setattr(blocks, "cholesky", recorded)
        for _ in range(2):
            shapes.clear()
            state.step()
            assert shapes == [(6, 6), (3, 2, 2), (3, 6, 6), (3, 2, 2)]

    def test_peak_memory_stays_per_sub_block(self):
        # lobpcg2's tall work stays per sub-block: on fe_pencil_many's pencil
        # a solve peaks at 3.75 times the blocks of its state's X stack
        # (A X, X, B X), in phase 1's A apply, which writes A W into its
        # stack slot. The bound allows 10% more. It peaked at 4.09 while A W
        # was formed apart and copied in, at 4.17 while every P sat in one
        # padded buffer, and at 4.50 while an explicit coupling held a
        # second X stack
        a, b = fe_pencil(30, 40)
        precond = jacobi_precond(a)
        cfg = Lobpcg2Config(nev=12, sub_block=4, rr_period=25, max_iter=300, seed=3)
        result, peak = peak_blocks(lambda: lobpcg2_solve(a, cfg, b_op=b, precond=precond),
                                   a.dim, 3 * cfg.width())
        assert result.status == "converged"
        assert peak <= 4.13

    def test_round_holds_fifteen_blocks_at_most(self):
        # a round's live blocks, in n x width units: the state's X, P and R,
        # the round's W, and one sub-block's Ritz block and its tail at a
        # time; coupling every round, the solve peaks at 11.26, in phase
        # 1's A apply, which writes A W into its stack slot (12.26 while A W
        # was formed apart and copied in, 12.52 while every P sat in one
        # padded buffer). It peaked at 13.50 in an explicit coupling, which
        # held the refreshed X stack beside the carried one
        a, b = fe_pencil(30, 40)
        precond = jacobi_precond(a)
        cfg = Lobpcg2Config(nev=12, sub_block=4, max_iter=300, seed=3)
        result, peak = peak_blocks(lambda: lobpcg2_solve(a, cfg, b_op=b, precond=precond),
                                   a.dim, cfg.width())
        assert result.status == "converged"
        assert peak <= 12.4


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
