"""Blocked solver behavior: convergence, locking, monotonicity, baselines."""

import copy
import re

import numpy as np
import pytest

from conftest import (
    dense_to_csr,
    easy_spd_problem,
    fe_matrices_1d,
    laplacian_1d,
    laplacian_1d_eigenvalues,
    random_spd_metric,
    subspace_gap,
)

from lobpcg_kit import (
    CallableOperator,
    DiagonalOperator,
    DimensionMismatchError,
    IdentityOperator,
    InvalidConfigError,
    Lobpcg2Config,
    LobpcgEngine,
    NotPositiveDefiniteError,
    OrthonormalizationError,
    SolverConfig,
    csr_from_coo,
    dense_oracle,
    exact_inverse_precond,
    jacobi_precond,
    lobpcg2_solve,
    lobpcg_solve,
    norm_estimates,
    op_apply,
    psd_solve,
)
from lobpcg_kit import solver
from lobpcg_kit.blocks import b_orthonormalize_full, b_project_out, stack_of
from lobpcg_kit.solver import ORTHO_POST_TOL


def diag_operator(n):
    return csr_from_coo(n, [(i, i, float(i + 1)) for i in range(n)])


def b_defect(vectors, b_op):
    gram = vectors.T @ op_apply(b_op, vectors)
    return np.max(np.abs(gram - np.eye(vectors.shape[1])))


class TestLobpcgExamples:
    def test_identity_converges_immediately(self):
        res = lobpcg_solve(IdentityOperator(10), SolverConfig(nev=3))
        assert res.status == "converged"
        assert res.iterations <= 1
        np.testing.assert_allclose(res.values, [1.0, 1.0, 1.0], atol=1e-12)

    def test_small_diagonal(self):
        res = lobpcg_solve(diag_operator(10), SolverConfig(nev=3, tol=1e-8))
        assert res.status == "converged"
        assert res.iterations <= 60
        np.testing.assert_allclose(res.values, [1.0, 2.0, 3.0], atol=1e-8)

    def test_laplacian_closed_form(self):
        n = 50
        res = lobpcg_solve(laplacian_1d(n), SolverConfig(nev=2))
        exact = laplacian_1d_eigenvalues(n, 2)
        assert res.status == "converged"
        assert np.max(np.abs(res.values - exact)) <= 1e-7

    def test_warm_start(self):
        a = diag_operator(12)
        cfg = SolverConfig(nev=3)
        first = lobpcg_solve(a, cfg)
        again = lobpcg_solve(a, cfg, x0=first.vectors)
        assert again.status == "converged"
        assert again.iterations <= 1

    def test_generalized_with_metric(self):
        a = easy_spd_problem(5, 40)
        b = random_spd_metric(6, 40)
        res = lobpcg_solve(a, SolverConfig(nev=3), b_op=b,
                           precond=jacobi_precond(a))
        oracle = dense_oracle(a, b)
        assert res.status == "converged"
        assert np.max(np.abs(res.values - oracle.values[:3])) <= 1e-6
        assert b_defect(res.vectors, b) <= 1e-8

    def test_constraints_deflate_known_eigenvector(self):
        n = 30
        lap = laplacian_1d(n)
        oracle = dense_oracle(lap, IdentityOperator(n))
        known = oracle.vectors[:, :1]
        res = lobpcg_solve(lap, SolverConfig(nev=2, block_size=3),
                           constraints=known)
        # with the first eigenvector deflated, the solver finds pairs 2, 3
        np.testing.assert_allclose(res.values, oracle.values[1:3], atol=1e-7)

    @pytest.mark.parametrize("metric", [False, True], ids=["standard", "pencil"])
    def test_constraints_need_not_be_eigenvectors(self, metric):
        # the constant vector is no eigenvector of the Dirichlet Laplacian;
        # the pairs are those of the pencil on the B-orthogonal complement
        n = 60
        a = laplacian_1d(n)
        b = random_spd_metric(2, n) if metric else None
        b_dense = np.eye(n) if b is None else b.to_dense()
        y = np.ones((n, 1))
        res = lobpcg_solve(a, SolverConfig(nev=3, block_size=4), b_op=b,
                           precond=jacobi_precond(a), constraints=y)
        basis = np.linalg.svd((b_dense @ y).T)[2][1:].T  # spans {x : y^T B x = 0}
        inv_lower = np.linalg.inv(np.linalg.cholesky(basis.T @ b_dense @ basis))
        expected = np.linalg.eigvalsh(inv_lower @ basis.T @ a.to_dense() @ basis @ inv_lower.T)
        assert res.status == "converged"
        np.testing.assert_allclose(res.values, expected[:3], rtol=1e-7)
        assert np.max(np.abs(y.T @ b_dense @ res.vectors)) <= 1e-8


class TestPsd:
    def test_identity(self):
        res = psd_solve(IdentityOperator(8), SolverConfig(nev=2))
        assert res.status == "converged"
        assert res.iterations <= 1

    def test_small_diagonal_slower_than_lobpcg(self):
        a = diag_operator(10)
        cfg = SolverConfig(nev=1, tol=1e-8)
        fast = lobpcg_solve(a, cfg)
        slow = psd_solve(a, cfg)
        assert slow.status == "converged"
        assert abs(slow.values[0] - 1.0) <= 1e-8
        assert slow.iterations >= fast.iterations

    def test_single_step_dominance_from_shared_state(self):
        a = easy_spd_problem(3, 50)
        engine = LobpcgEngine(a, SolverConfig(nev=3, seed=3))
        for _ in range(4):
            engine.step()
        assert engine.p_cols[0]
        three_term = copy.deepcopy(engine)
        descent = copy.deepcopy(engine)
        three_term.step()
        descent.use_history_direction = False
        descent.step()
        assert np.all(three_term.ritz_values <= descent.ritz_values + 1e-12)

    def test_first_iteration_coincides(self):
        # with no carried direction the two methods take the same step
        a = easy_spd_problem(4, 36)
        lob = LobpcgEngine(a, SolverConfig(nev=2, seed=9))
        desc = copy.deepcopy(lob)
        lob.step()
        desc.use_history_direction = False
        desc.step()
        np.testing.assert_array_equal(lob.ritz_values, desc.ritz_values)


class TestNormEstimates:
    def test_diagonal(self):
        assert norm_estimates(DiagonalOperator([1.0, 2.0, 3.0])) == 3.0

    def test_identity(self):
        assert norm_estimates(IdentityOperator(5)) == 1.0

    def test_sparse_bounds_true_norm(self, rng):
        dense = rng.standard_normal((30, 30))
        matrix = dense_to_csr(dense + dense.T)
        true_norm = np.max(np.abs(np.linalg.eigvalsh(matrix.to_dense())))
        est = norm_estimates(matrix)
        assert est >= true_norm - 1e-12
        assert est <= 30 * true_norm

    def test_matrix_free_power_iteration(self, rng):
        dense = rng.standard_normal((20, 20))
        dense = dense + dense.T
        op = CallableOperator(20, lambda block: dense @ block)
        true_norm = np.max(np.abs(np.linalg.eigvalsh(dense)))
        est = norm_estimates(op)
        assert true_norm / 20 <= est <= 20 * true_norm


class TestInvariants:
    def test_per_iteration_monotonicity_and_history(self):
        a = easy_spd_problem(11, 64)
        res = lobpcg_solve(a, SolverConfig(nev=3, record_history=True, seed=2))
        assert res.status == "converged"
        hist = res.history
        assert len(hist) == res.iterations + 1
        locked_prev = 0
        for rec in hist:
            assert np.all(np.diff(rec.ritz_values) >= 0)
            assert np.all(rec.residual_norms >= 0)
            assert rec.locked_count >= locked_prev
            locked_prev = rec.locked_count
        for prev, nxt in zip(hist, hist[1:]):
            start = nxt.locked_count
            slack = 1e-10 * (1 + np.abs(prev.ritz_values[start:]))
            assert np.all(nxt.ritz_values[start:] <= prev.ritz_values[start:] + slack)

    def test_output_orthonormal_even_at_max_iter(self):
        a = easy_spd_problem(13, 48)
        b = random_spd_metric(14, 48)
        res = lobpcg_solve(a, SolverConfig(nev=3, max_iter=2), b_op=b)
        assert res.status == "max_iter"
        assert b_defect(res.vectors, b) <= 1e-8

    def test_breakdown_reports_best_so_far(self):
        # a hostile zero preconditioner kills every search direction
        a = diag_operator(12)
        broken = CallableOperator(12, np.zeros_like)
        res = lobpcg_solve(a, SolverConfig(nev=2), precond=broken)
        assert res.status == "breakdown"
        assert res.cause == "_Breakdown: no sub-block moved on explicit products"
        assert res.values.shape == (2,)
        assert b_defect(res.vectors, IdentityOperator(12)) <= 1e-8

    def test_converged_status_is_criterion_sound(self):
        a = easy_spd_problem(17, 52)
        b = random_spd_metric(18, 52)
        cfg = SolverConfig(nev=4, tol=1e-9)
        res = lobpcg_solve(a, cfg, b_op=b)
        assert res.status == "converged"
        norm_a, norm_b = norm_estimates(a), norm_estimates(b)
        fresh = op_apply(a, res.vectors) - op_apply(b, res.vectors) * res.values[None, :]
        fresh_norms = np.linalg.norm(fresh, axis=0)
        col_norms = np.linalg.norm(res.vectors, axis=0)
        assert np.all(
            fresh_norms <= cfg.tol * (norm_a + np.abs(res.values) * norm_b) * col_norms
        )

    def test_oracle_equivalence_sweep(self):
        for seed in range(5):
            n = 40 + 16 * seed
            a = easy_spd_problem(seed, n)
            nev = 1 + seed % 4
            res = lobpcg_solve(a, SolverConfig(nev=nev, seed=seed))
            oracle = dense_oracle(a, IdentityOperator(n))
            assert res.status == "converged"
            err = np.abs(res.values - oracle.values[:nev])
            assert np.all(err <= 1e-6 * (1 + np.abs(oracle.values[:nev])))

    def test_no_history_by_default(self):
        res = lobpcg_solve(diag_operator(8), SolverConfig(nev=2))
        assert res.history == []

    def test_counters_track_update_steps(self):
        res = lobpcg_solve(diag_operator(10), SolverConfig(nev=2))
        assert res.counters.rayleigh_ritz_calls == res.iterations + 1
        assert res.counters.a_matvecs > 0
        # the standard problem applies no metric
        assert res.counters.b_matvecs == 0
        assert res.counters.matvecs == res.counters.a_matvecs + res.counters.b_matvecs
        assert res.counters.orthonormalizations >= res.iterations

    def test_counters_track_the_metric_of_a_pencil(self):
        res = lobpcg_solve(diag_operator(10), SolverConfig(nev=2),
                           b_op=DiagonalOperator(np.linspace(1.0, 2.0, 10)))
        assert res.status == "converged"
        assert res.counters.a_matvecs > 0
        assert res.counters.b_matvecs > 0
        assert res.counters.matvecs == res.counters.a_matvecs + res.counters.b_matvecs


class TestDriver:
    """The one driver loop behind lobpcg_solve, psd_solve and lobpcg2_solve."""

    STOPS = {
        "lobpcg": lambda a, hist: lobpcg_solve(
            a, SolverConfig(nev=2, max_iter=40, seed=1, record_history=hist)),
        "psd": lambda a, hist: psd_solve(
            a, SolverConfig(nev=2, max_iter=240, seed=1, record_history=hist)),
        # one width-2 engine, never coupled before the stop
        "lobpcg2": lambda a, hist: lobpcg2_solve(
            a, Lobpcg2Config(nev=2, sub_block=2, rr_period=1000, max_iter=40, seed=1,
                             record_history=hist)),
    }

    @pytest.mark.parametrize("variant", sorted(STOPS))
    def test_terminal_refresh_decides_the_status(self, variant, monkeypatch):
        # carried residual norms that never claim convergence leave the
        # status to the explicit refresh at max_iter
        step = LobpcgEngine.step

        def hiding_step(engine, *args, **kwargs):
            step(engine, *args, **kwargs)
            engine.residual_norms = engine.residual_norms * 1e8

        monkeypatch.setattr(LobpcgEngine, "step", hiding_step)
        a = easy_spd_problem(5, 48)
        res = self.STOPS[variant](a, True)
        assert res.status == "converged"
        last = res.history[-1]
        assert last.iteration == res.iterations
        np.testing.assert_array_equal(last.residual_norms[:2], res.residual_norms)
        # the explicit residuals are below the solver's own thresholds
        fresh = op_apply(a, res.vectors) - res.vectors * res.values[None, :]
        thresholds = 1e-8 * (norm_estimates(a) + np.abs(res.values)) \
            * np.linalg.norm(res.vectors, axis=0)
        assert np.all(np.linalg.norm(fresh, axis=0) <= 1.01 * thresholds)

    # numpy warns while the poisoned products meet
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("armed_after,a_columns", [(10, 24), (5, 16)])
    def test_salvage_follows_only_a_step_breakdown(self, armed_after, a_columns):
        # A turns NaN after step `armed_after`: at max_iter 10 the refresh
        # breaks down and is not repeated; inside step 6 the step breaks
        # down and the salvage refresh applies A to X (2 columns) once
        mat, armed = easy_spd_problem(5, 48), []
        a = CallableOperator(48, lambda block: np.full_like(block, np.nan) if armed
                             else op_apply(mat, block))
        engine = LobpcgEngine(a, SolverConfig(nev=2, max_iter=10))
        step = engine.step

        def arming_step():
            step()
            if engine.iterations == armed_after:
                armed.append(True)

        engine.step = arming_step
        res = engine.run()
        assert (res.status, res.iterations) == ("breakdown", armed_after)
        assert res.counters.a_matvecs == a_columns

    @pytest.mark.parametrize("solve", [
        lambda a, b: lobpcg_solve(a, SolverConfig(nev=2, seed=3), b_op=b),
        lambda a, b: lobpcg2_solve(a, Lobpcg2Config(nev=2, sub_block=1, seed=3), b_op=b),
    ], ids=["lobpcg", "lobpcg2"])
    def test_identity_metric_takes_the_standard_path(self, solve):
        a = easy_spd_problem(3, 40)
        plain, ident = solve(a, None), solve(a, IdentityOperator(40))
        assert ident.counters.b_matvecs == 0
        assert ident.iterations == plain.iterations
        np.testing.assert_array_equal(ident.values, plain.values)
        np.testing.assert_array_equal(ident.vectors, plain.vectors)
        assert LobpcgEngine(a, SolverConfig(nev=2), b_op=IdentityOperator(40)).b_op is None

    def test_every_solver_runs_through_the_driver(self, monkeypatch):
        calls = []
        drive = solver.drive

        def counted(state, nev, max_iter, record_history):
            calls.append(type(state).__name__)
            return drive(state, nev, max_iter, record_history)

        monkeypatch.setattr(solver, "drive", counted)
        a = easy_spd_problem(5, 48)
        for solve in self.STOPS.values():
            solve(a, False)
        assert calls == ["LobpcgEngine"] * 3


class TestCarriedProducts:
    def test_each_step_applies_a_once_per_active_column(self):
        a = laplacian_1d(200)
        engine = LobpcgEngine(a, SolverConfig(nev=3, block_size=5, seed=0))
        counters = engine.counters
        for _ in range(40):
            active = np.count_nonzero(~engine.converged_mask()) or engine.block_size
            a_before, b_before = counters.a_matvecs, counters.b_matvecs
            engine.step()
            assert counters.a_matvecs - a_before == active
            # B only orthonormalizes the new directions and post-checks them
            assert counters.b_matvecs - b_before <= 2 * active

    def test_solve_adds_only_the_documented_refreshes(self, monkeypatch):
        # A is applied to the start block, to every preconditioned direction,
        # and to X at each convergence claim, however long the run
        refresh, claims = LobpcgEngine._refresh_products, []

        def marked_refresh(engine):
            claims.append(bool(np.all(engine.converged_mask()[:engine.cfg.nev])))
            refresh(engine)

        monkeypatch.setattr(LobpcgEngine, "_refresh_products", marked_refresh)
        a = laplacian_1d(200)
        res = lobpcg_solve(a, SolverConfig(nev=3, block_size=5, seed=0))
        assert res.status == "converged"
        assert res.iterations > 100
        assert claims and all(claims)
        refreshes = 1 + len(claims)
        assert res.counters.a_matvecs == res.counters.precond_applies + 5 * refreshes

    @pytest.mark.parametrize("name", ["lobpcg", "psd", "lobpcg2"])
    def test_carried_products_stay_near_explicit_ones(self, monkeypatch, name):
        # 600 steps with an unreachable tolerance, so nothing is refreshed:
        # every 50 steps, carried A X and B X stay within 1e-10 of A and B
        # applied to X, relative to the operator's norm times x's
        a, b = fe_pencil()
        step, drifts = LobpcgEngine.step, []

        def checked_step(state):
            step(state)
            if state.iterations % 50 == 0:
                carried_ax, x, carried_bx = state.xs
                x_norms = np.linalg.norm(x, axis=0)
                for carried, op in ((carried_ax, a), (carried_bx, b)):
                    gap = np.linalg.norm(carried - op_apply(op, x), axis=0)
                    drifts.append(np.max(gap / (norm_estimates(op) * x_norms)))

        monkeypatch.setattr(LobpcgEngine, "step", checked_step)
        kw = dict(nev=6, tol=1e-300, max_iter=600, seed=1)
        solve, cfg = {"lobpcg": (lobpcg_solve, SolverConfig(**kw)),
                      "psd": (psd_solve, SolverConfig(**kw)),
                      "lobpcg2": (lobpcg2_solve, Lobpcg2Config(sub_block=2, rr_period=5, **kw))
                      }[name]
        res = solve(a, cfg, b_op=b, precond=jacobi_precond(a))
        assert res.status == "max_iter"
        assert res.iterations == 600
        assert len(drifts) == 2 * 600 // 50
        assert max(drifts) <= 1e-10

    def test_long_run_returns_explicit_products(self):
        # 600 steps with an unreachable tolerance: the carried products must
        # not leak drift into the returned pairs
        k1, m1 = fe_matrices_1d(15)
        k2, m2 = fe_matrices_1d(16)
        a = dense_to_csr(np.kron(k1, m2) + np.kron(m1, k2))
        b = dense_to_csr(np.kron(m1, m2))
        res = lobpcg_solve(a, SolverConfig(nev=4, tol=1e-300, max_iter=600, seed=1),
                           b_op=b, precond=jacobi_precond(a))
        assert res.status == "max_iter"
        assert res.iterations == 600
        assert b_defect(res.vectors, b) <= 1e-8
        fresh = op_apply(a, res.vectors) - op_apply(b, res.vectors) * res.values[None, :]
        np.testing.assert_allclose(res.residual_norms, np.linalg.norm(fresh, axis=0),
                                   rtol=1e-6)


def fe_pencil():
    """240-dof Q1 finite-element pencil (stiffness, mass)."""
    k1, m1 = fe_matrices_1d(15)
    k2, m2 = fe_matrices_1d(16)
    return dense_to_csr(np.kron(k1, m2) + np.kron(m1, k2)), dense_to_csr(np.kron(m1, m2))


class TestStepConstruction:
    def test_carried_direction_invariants_hold_after_every_step(self):
        # 600 steps, most of them with residuals at rounding level
        a, b = fe_pencil()
        engine = LobpcgEngine(a, SolverConfig(nev=4, tol=1e-300, max_iter=600, seed=1),
                              b_op=b, precond=jacobi_precond(a))
        step, worst = engine.step, []

        def checked_step(*args, **kwargs):
            step(*args, **kwargs)
            if engine.p_cols[0]:
                _, p, b_p = engine._parts(0)[1]
                eye = np.eye(p.shape[1])
                worst.append((np.max(np.abs(engine.xs[1].T @ op_apply(b, p))),
                              np.max(np.abs(p.T @ b_p - eye))))

        engine.step = checked_step
        assert engine.run().iterations == 600
        assert len(worst) >= 550
        # X^T B P with B applied explicitly; P^T B P from the carried B P,
        # which the step takes to be I
        assert np.max(worst, axis=0).tolist() <= [1e-8, 1e-8]

    @pytest.mark.parametrize("seed", range(4))
    def test_explicit_b_orthonormality_over_long_runs(self, seed, monkeypatch):
        # W's B-product is mapped from one apply; over 600 steps, most with
        # residuals at rounding level, B applied afresh to every W (and the
        # start block) and X still finds them B-orthonormal
        a, b = fe_pencil()
        orthonormalize, w_defects, w_gaps, x_defects = solver.b_orthonormalize_full, [], [], []
        orthonormalize_spans = solver.b_orthonormalize_spans

        def explicit(block):
            return np.max(np.abs(block.T @ op_apply(b, block) - np.eye(block.shape[1])))

        def check(w, b_w):
            w_defects.append(explicit(w))
            w_gaps.append(np.max(np.abs(op_apply(b, w) - b_w)) / np.max(np.abs(b_w)))

        def checked_orthonormalize(*args, **kwargs):
            out = orthonormalize(*args, **kwargs)
            check(out[0], out[3])
            return out

        def checked_round_orthonormalize(*args, **kwargs):  # the step's W
            ws, kept = orthonormalize_spans(*args, **kwargs)
            check(ws[1], ws[-1])
            return ws, kept

        monkeypatch.setattr(solver, "b_orthonormalize_full", checked_orthonormalize)
        monkeypatch.setattr(solver, "b_orthonormalize_spans", checked_round_orthonormalize)
        engine = LobpcgEngine(a, SolverConfig(nev=4, tol=1e-300, max_iter=600, seed=seed),
                              b_op=b, precond=jacobi_precond(a))
        step = engine.step

        def checked_step(*args, **kwargs):
            step(*args, **kwargs)
            x_defects.append(explicit(engine.xs[1]))

        engine.step = checked_step
        assert engine.run().iterations == 600
        assert len(w_defects) == 601 and len(x_defects) == 600
        assert max(w_gaps) <= 1e-10
        assert max(w_defects) <= ORTHO_POST_TOL
        assert max(x_defects) <= 1e-12

    def test_standard_problem_applies_no_metric(self):
        a = laplacian_1d(200)
        engine = LobpcgEngine(a, SolverConfig(nev=3, block_size=5, seed=0),
                              precond=jacobi_precond(a), constraints=np.ones(200))
        assert engine.b_op is None and engine.b_constraints is engine.constraints
        for _ in range(5):
            engine.step()
            # no stack holds a B member: (A X, X) and (A P, P)
            assert [len(part) for part in engine._parts(0)] == [2, 2]
            assert len(engine.xs) == len(engine.ps) == 2
        res = engine.run()
        assert res.status == "converged"
        assert len(engine.xs) == 2
        assert res.counters.b_matvecs == 0

    def test_known_gram_blocks_match_explicit_ones(self):
        a, b = fe_pencil()
        engine = LobpcgEngine(a, SolverConfig(nev=4, seed=1), b_op=b,
                              precond=jacobi_precond(a))
        for _ in range(5):
            engine.step()
        assert np.max(engine.residual_norms / engine.convergence_thresholds(1.0)) > 1e-3
        assert not engine._explicit_grams[0] and engine.p_cols[0]
        # a direction block as the step forms one
        directions = b_project_out(engine.precond.apply(engine.R), engine.xs[1], engine.xs[-1])
        w, _, _, b_w = b_orthonormalize_full(directions, engine.b_op)
        parts = engine._parts(0)
        parts.insert(1, stack_of(op_apply(a, w), w, b_w))
        for known, explicit in zip(solver.part_grams(parts, engine.ritz_values),
                                   solver.part_grams(parts)):
            np.testing.assert_allclose(known, explicit, rtol=0, atol=1e-8)

    def test_grams_turn_explicit_once_residuals_cross_sqrt_eps(self, monkeypatch):
        grams, explicit = solver.part_grams, []

        def recording_grams(parts, ritz_values=None):
            explicit.append(ritz_values is None)
            return grams(parts, ritz_values)

        a = laplacian_1d(200)
        engine = LobpcgEngine(a, SolverConfig(nev=3, block_size=5, seed=0),
                              precond=jacobi_precond(a))
        monkeypatch.setattr(solver, "part_grams", recording_grams)
        crossed = []
        while crossed.count(True) < 10:
            ratios = engine.residual_norms / engine.convergence_thresholds(1.0)
            crossed.append(bool(np.all(ratios <= solver.EXPLICIT_GRAM_RTOL)))
            engine.step()
        first = crossed.index(True)
        assert first > 50
        # every step from the first crossing on
        assert explicit == [False] * first + [True] * (len(crossed) - first)

    def test_trial_with_p_failing_its_post_check_falls_back_to_x_and_w(self, monkeypatch):
        carried, widths = solver.carried_rayleigh_ritz, []

        def failing_once(parts, *args, **kwargs):
            # the first trial that includes P fails the Ritz block's post-check
            if len(parts) == 3 and not widths:
                widths.extend(part.shape[-1] for part in parts)
                raise OrthonormalizationError("Ritz block orthonormality defect persists")
            return carried(parts, *args, **kwargs)

        a = laplacian_1d(200)
        cfg = SolverConfig(nev=3, block_size=5, seed=0)
        engine = LobpcgEngine(a, cfg, precond=jacobi_precond(a))
        engine.step()
        assert engine.p_cols[0]
        monkeypatch.setattr(solver, "carried_rayleigh_ritz", failing_once)
        engine.step()
        assert widths and engine.iterations == 2
        assert engine._last_basis_cols == widths[0] + widths[1]
        assert engine.run().status == "converged"

        widths.clear()
        res = lobpcg_solve(a, cfg, precond=jacobi_precond(a))
        assert widths and res.status == "converged"

def poisoned_operator(dim, func, bad_value):
    """Callable operator that returns ``bad_value`` everywhere once armed."""
    state = {"armed": False}

    def apply(block):
        out = func(block)
        return np.full_like(out, bad_value) if state["armed"] else out

    return CallableOperator(dim, apply), state


def _non_finite_case(solver, poisoned, bad_value):
    # the engine cases keep their original ids
    parts = ([] if solver == "engine" else [solver]) + [poisoned, str(bad_value)]
    return pytest.param(solver, poisoned, bad_value, id="-".join(parts))


@pytest.mark.parametrize("solver,poisoned,bad_value", [
    _non_finite_case(solver, poisoned, bad_value)
    for solver in ("engine", "lobpcg_solve", "lobpcg2_solve")
    for poisoned in ("a", "b")
    for bad_value in (np.inf, np.nan)
])
# numpy warns while a Gram matrix is formed from a non-finite product
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_operator_ends_in_breakdown(solver, poisoned, bad_value):
    n = 40
    spectrum = np.arange(1.0, n + 1)
    op, state = poisoned_operator(
        n, (lambda block: spectrum[:, None] * block) if poisoned == "a" else np.copy,
        bad_value)
    a_op = op if poisoned == "a" else DiagonalOperator(spectrum)
    b_op = op if poisoned == "b" else None
    if solver == "engine":
        # turns non-finite after the engine is built
        engine = LobpcgEngine(a_op, SolverConfig(nev=2), b_op=b_op)
        for _ in range(2):
            engine.step()
        last_values = engine.ritz_values[:2].copy()
        state["armed"] = True
        res = engine.run()
        assert res.status == "breakdown"
        np.testing.assert_array_equal(res.values, last_values)
        assert np.all(np.isfinite(res.vectors))
        assert np.all(np.isfinite(res.residual_norms))
        assert b_defect(res.vectors, IdentityOperator(n)) <= 1e-8
        return

    # non-finite from the first apply, on the start block
    state["armed"] = True
    if solver == "lobpcg_solve":
        def solve():
            return lobpcg_solve(a_op, SolverConfig(nev=2), b_op=b_op)
    else:
        def solve():
            return lobpcg2_solve(a_op, Lobpcg2Config(nev=3, sub_block=2), b_op=b_op)
    if poisoned == "b":
        # no B-orthonormal block exists to return
        with pytest.raises(OrthonormalizationError):
            solve()
        return
    res = solve()
    assert res.status == "breakdown"
    assert res.iterations == 0
    assert np.all(np.isnan(res.values))
    assert np.all(np.isnan(res.residual_norms))
    assert np.all(np.isfinite(res.vectors))
    assert b_defect(res.vectors, IdentityOperator(n)) <= 1e-8


@pytest.mark.parametrize("solve", [
    lambda a, b: lobpcg_solve(a, SolverConfig(nev=2), b_op=b),
    lambda a, b: psd_solve(a, SolverConfig(nev=2), b_op=b),
    lambda a, b: lobpcg2_solve(a, Lobpcg2Config(nev=2), b_op=b),
], ids=["lobpcg", "psd", "lobpcg2"])
# the start block's Gram matrices overflow
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failed_start_rayleigh_ritz_ends_in_breakdown(solve):
    # an SPD pencil whose wanted values (1e307, 1.95e307) can be represented;
    # the start block's Rayleigh-Ritz fails, as it does for a non-finite A
    n = 40
    a = DiagonalOperator(np.arange(1.0, n + 1))
    b = DiagonalOperator(1e-307 * np.linspace(1.0, 2.0, n))
    res = solve(a, b)
    assert res.status == "breakdown"
    assert res.iterations == 0
    assert np.all(np.isnan(res.values))
    assert np.all(np.isfinite(res.vectors))
    assert b_defect(res.vectors, b) <= 1e-8


class TestBreakdownCause:
    """``SolveResult.cause`` names the error that ended a run in breakdown."""

    def test_wrong_shaped_preconditioner_names_its_error(self):
        # one column back for a block of two: the first round fails
        a = DiagonalOperator(np.arange(1.0, 41.0))
        precond = CallableOperator(40, lambda block: block[:, :1].copy())
        res = lobpcg_solve(a, SolverConfig(nev=2), precond=precond)
        assert (res.status, res.iterations) == ("breakdown", 0)
        assert res.cause.startswith("DimensionMismatchError: ")

    # numpy warns while the poisoned products meet
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_turning_nan_mid_run_names_a_non_finite_product(self):
        spectrum = np.arange(1.0, 41.0)[:, None]
        a, state = poisoned_operator(40, lambda block: spectrum * block, np.nan)
        engine = LobpcgEngine(a, SolverConfig(nev=2))
        for _ in range(3):
            engine.step()
        state["armed"] = True
        res = engine.run()
        assert (res.status, res.iterations) == ("breakdown", 3)
        assert res.cause == "_Breakdown: non-finite product"

    def test_converged_run_has_no_cause(self):
        res = lobpcg_solve(diag_operator(40), SolverConfig(nev=2))
        assert res.status == "converged"
        assert res.cause is None


class TestExactInverse:
    def test_fast_convergence_on_laplacian(self):
        n = 120
        lap = laplacian_1d(n)
        res = lobpcg_solve(lap, SolverConfig(nev=2, block_size=4),
                           precond=exact_inverse_precond(lap))
        assert res.status == "converged"
        assert res.iterations <= 8
        exact = laplacian_1d_eigenvalues(n, 2)
        assert np.max(np.abs(res.values - exact) / exact) <= 1e-7


class TestValidation:
    def test_nev_zero_rejected(self):
        # nev must lie in [1, block_size], whichever config class holds it
        for cls in (SolverConfig, Lobpcg2Config):
            for nev, block_size in [(0, None), (3, 2)]:
                with pytest.raises(InvalidConfigError, match="nev <= block_size"):
                    lobpcg_solve(IdentityOperator(10), cls(nev=nev, block_size=block_size))

    def test_block_cap_is_error_not_clamp(self):
        # the cap of ceil(dim / 4) = 3 is on the sub-block: the whole block
        # unless sub_block is set
        for cfg in (SolverConfig(nev=2, block_size=4), SolverConfig(nev=2, sub_block=4),
                    Lobpcg2Config(nev=2, sub_block=4)):
            with pytest.raises(InvalidConfigError, match="exceeds ceil"):
                lobpcg_solve(IdentityOperator(10), cfg)

    def test_bad_tol(self):
        for cls in (SolverConfig, Lobpcg2Config):
            with pytest.raises(InvalidConfigError, match="tol"):
                lobpcg_solve(IdentityOperator(10), cls(nev=1, tol=0.0))

    @pytest.mark.parametrize("solve", [
        lambda a, b: lobpcg_solve(a, SolverConfig(nev=2), b_op=b),
        lambda a, b: psd_solve(a, SolverConfig(nev=2), b_op=b),
        lambda a, b: lobpcg2_solve(a, Lobpcg2Config(nev=2), b_op=b),
    ], ids=["lobpcg", "psd", "lobpcg2"])
    @pytest.mark.parametrize("make_b", [
        DiagonalOperator,
        lambda diag: csr_from_coo(diag.size, [(i, i, d) for i, d in enumerate(diag)]),
    ], ids=["diagonal", "sparse"])
    @pytest.mark.parametrize("first", [-1.0, 0.0], ids=["indefinite", "singular"])
    def test_non_positive_definite_metric_rejected(self, solve, make_b, first):
        # without the check, both pencils end in a false 'converged' [2, 3]
        b = make_b(np.concatenate([[first], np.ones(39)]))
        with pytest.raises(NotPositiveDefiniteError, match="entry 0"):
            solve(DiagonalOperator(np.arange(1.0, 41.0)), b)

    def test_x0_shape_checked(self):
        with pytest.raises(DimensionMismatchError):
            lobpcg_solve(IdentityOperator(10), SolverConfig(nev=2),
                         x0=np.ones((10, 3)))

    def test_x0_finite_checked(self):
        x0 = np.ones((10, 2))
        x0[0, 0] = np.nan
        with pytest.raises(InvalidConfigError):
            lobpcg_solve(IdentityOperator(10), SolverConfig(nev=2), x0=x0)

    def test_rank_deficient_x0_padded(self):
        # a duplicated start column is repaired, not fatal
        a = diag_operator(12)
        x0 = np.ones((12, 2))
        res = lobpcg_solve(a, SolverConfig(nev=2), x0=x0)
        assert res.status == "converged"
        np.testing.assert_allclose(res.values, [1.0, 2.0], atol=1e-7)


class TestMatrixFree:
    def test_solve_through_callable_operator(self, rng):
        dense = rng.standard_normal((40, 40))
        q, _ = np.linalg.qr(dense)
        spectrum = np.concatenate([np.linspace(1.0, 6.0, 5), np.linspace(9.0, 25.0, 35)])
        mat = (q * spectrum) @ q.T
        op = CallableOperator(40, lambda block: mat @ block)
        res = lobpcg_solve(op, SolverConfig(nev=3, seed=1))
        oracle = dense_oracle(op, IdentityOperator(40))
        assert res.status == "converged"
        assert np.max(np.abs(res.values - oracle.values[:3])) <= 1e-6

    def test_operator_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            lobpcg_solve(IdentityOperator(10), SolverConfig(nev=1),
                         b_op=IdentityOperator(12))


class TestHardSpectra:
    def test_degenerate_cluster_recovers_subspace(self, rng):
        # triple eigenvalue: individual vectors are arbitrary, the spanned
        # invariant subspace is what must come back
        n = 60
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        spectrum = np.concatenate([[1.0, 1.0, 1.0], np.linspace(5.0, 30.0, n - 3)])
        a = dense_to_csr((q * spectrum) @ q.T)
        res = lobpcg_solve(a, SolverConfig(nev=3, block_size=4, tol=1e-9))
        oracle = dense_oracle(a, IdentityOperator(n))
        assert res.status == "converged"
        assert np.max(np.abs(res.values - 1.0)) <= 1e-8
        assert subspace_gap(res.vectors, oracle.vectors[:, :3]) <= 1e-6

    def test_restart_guard_degrades_gracefully(self, monkeypatch):
        # an absurdly low condition limit drops the carried block every
        # step; the iteration still converges (descent-like)
        monkeypatch.setattr(solver, "RESTART_COND_LIMIT", 1.5)
        a = easy_spd_problem(2, 50)
        res = lobpcg_solve(a, SolverConfig(nev=2))
        assert res.status == "converged"

    def test_tight_tolerance_near_machine_precision(self):
        a = easy_spd_problem(1, 50)
        res = lobpcg_solve(a, SolverConfig(nev=2, tol=1e-13, max_iter=300))
        assert res.status == "converged"

    def test_wide_metric_spread(self):
        a = easy_spd_problem(6, 70)
        b = DiagonalOperator(np.logspace(-2, 2, 70))
        res = lobpcg_solve(a, SolverConfig(nev=3), b_op=b)
        oracle = dense_oracle(a, b)
        assert res.status == "converged"
        assert np.max(np.abs(res.values - oracle.values[:3])) <= 1e-8
        assert b_defect(res.vectors, b) <= 1e-8


def test_ritz_block_error_reports_the_defect_that_failed():
    # B V = V (I + K) with K antisymmetric: the symmetrized Gram matrix is I,
    # the post-checked one is not
    v, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((30, 3)))
    skew = np.array([[0.0, 1e-6, 0.0], [-1e-6, 0.0, 2e-6], [0.0, -2e-6, 0.0]])
    parts = [stack_of(v * [1.0, 2.0, 3.0], v, v @ (np.eye(3) + skew))]
    with pytest.raises(OrthonormalizationError) as info:
        solver.carried_rayleigh_ritz(parts, 2)
    reported = float(re.search(r"defect (\S+) fails", str(info.value)).group(1))
    assert reported > ORTHO_POST_TOL
    assert reported == pytest.approx(1e-6, rel=1e-3)
