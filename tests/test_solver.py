"""Blocked solver behavior: convergence, locking, monotonicity, baselines."""

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
from lobpcg_kit.solver import REFRESH_PERIOD


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
        assert engine.P is not None
        three_term = engine.fork()
        descent = engine.fork()
        three_term.step(use_previous=True)
        descent.step(use_previous=False)
        assert np.all(three_term.ritz_values <= descent.ritz_values + 1e-12)

    def test_first_iteration_coincides(self):
        # with no carried direction the two methods take the same step
        a = easy_spd_problem(4, 36)
        lob = LobpcgEngine(a, SolverConfig(nev=2, seed=9))
        desc = LobpcgEngine(a, SolverConfig(nev=2, seed=9))
        lob.step(use_previous=True)
        desc.step(use_previous=False)
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

    def test_locking_none_still_converges(self):
        a = easy_spd_problem(23, 44)
        res = lobpcg_solve(a, SolverConfig(nev=3, locking="none", record_history=True))
        assert res.status == "converged"
        assert all(rec.locked_count == 0 for rec in res.history)

    def test_no_history_by_default(self):
        res = lobpcg_solve(diag_operator(8), SolverConfig(nev=2))
        assert res.history == []

    def test_counters_track_update_steps(self):
        res = lobpcg_solve(diag_operator(10), SolverConfig(nev=2))
        assert res.counters.rayleigh_ritz_calls == res.iterations + 1
        assert res.counters.a_matvecs > 0
        assert res.counters.b_matvecs > 0
        assert res.counters.matvecs == res.counters.a_matvecs + res.counters.b_matvecs
        assert res.counters.orthonormalizations >= res.iterations


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

    def test_solve_adds_only_the_documented_refreshes(self):
        # A is applied to the start block, to every preconditioned direction,
        # and to X at each periodic refresh and convergence claim
        a = laplacian_1d(200)
        res = lobpcg_solve(a, SolverConfig(nev=3, block_size=5, seed=0))
        assert res.status == "converged"
        assert res.iterations > 2 * REFRESH_PERIOD
        refreshes = 1 + res.iterations // REFRESH_PERIOD + 1
        assert res.counters.a_matvecs <= res.counters.precond_applies + 5 * refreshes

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
        with pytest.raises(InvalidConfigError):
            lobpcg_solve(IdentityOperator(10), SolverConfig(nev=0))

    def test_block_cap_is_error_not_clamp(self):
        with pytest.raises(InvalidConfigError):
            lobpcg_solve(IdentityOperator(10), SolverConfig(nev=2, block_size=4))

    def test_bad_tol(self):
        with pytest.raises(InvalidConfigError):
            lobpcg_solve(IdentityOperator(10), SolverConfig(nev=1, tol=0.0))

    def test_bad_locking(self):
        with pytest.raises(InvalidConfigError):
            lobpcg_solve(IdentityOperator(10), SolverConfig(nev=1, locking="hard"))

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

    def test_restart_guard_degrades_gracefully(self):
        # an absurdly low condition limit drops the carried block every
        # step; the iteration still converges (descent-like)
        a = easy_spd_problem(2, 50)
        res = lobpcg_solve(a, SolverConfig(nev=2, restart_cond_limit=1.5))
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
