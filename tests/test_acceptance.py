"""Acceptance suite: ten oracle-anchored, property-based criteria.

Each criterion prints one PASS/FAIL line (also echoed in the pytest
terminal summary).  Problem generators are deterministic; everything is
verified against the dense oracle, closed-form spectra, or structural
properties.  Budget: the whole module runs in well under two minutes.
"""

import re

import numpy as np
import pytest

from conftest import (
    easy_spd_problem,
    laplacian_1d,
    laplacian_1d_eigenvalues,
    random_spd_metric,
)

from lobpcg_kit import (
    CallableOperator,
    DisconnectedGraphError,
    IdentityOperator,
    Lobpcg2Config,
    LobpcgEngine,
    SolverConfig,
    dense_oracle,
    exact_inverse_precond,
    jacobi_precond,
    lobpcg2_solve,
    lobpcg_solve,
    op_apply,
    partition_graph,
    psd_solve,
    write_matrix_market_symmetric,
)
from lobpcg_kit.cli import main as cli_main

#: number -> (title, passed, detail); read by the terminal-summary hook.
ACCEPTANCE_RESULTS: dict[int, tuple[str, bool, str]] = {}


def report(number: int, title: str, failures: list[str]) -> None:
    ok = not failures
    detail = "; ".join(failures[:4])
    ACCEPTANCE_RESULTS[number] = (title, ok, detail)
    line = f"ACCEPTANCE {number:2d} {title}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def b_defect(vectors, b_op):
    gram = vectors.T @ op_apply(b_op, vectors)
    return float(np.max(np.abs(gram - np.eye(vectors.shape[1]))))


# ---------------------------------------------------------------------------
# Shared problem suites (module scope: run once, reused across criteria)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def suite1():
    """20 seeded SPD problems: n in 30..200, nev in 1..5, B in {I, SPD},
    T in {none, jacobi}; solved plus oracle reference."""
    runs = []
    for idx in range(20):
        n = 30 + (170 * idx) // 19
        nev = 1 + idx % 5
        seed = 1000 + idx
        a = easy_spd_problem(seed, n)
        b = random_spd_metric(seed + 500, n) if idx % 2 else None
        precond = jacobi_precond(a) if (idx // 2) % 2 else None
        cfg = SolverConfig(nev=nev, tol=1e-8, max_iter=500, seed=seed,
                           record_history=True)
        result = lobpcg_solve(a, cfg, b_op=b, precond=precond)
        oracle = dense_oracle(a, b if b is not None else IdentityOperator(n))
        runs.append({
            "idx": idx, "n": n, "nev": nev, "a": a, "b": b, "precond": precond,
            "cfg": cfg, "result": result, "oracle": oracle,
        })
    return runs


@pytest.fixture(scope="module")
def suite3():
    """10 seeded problems for the descent comparison, histories kept."""
    runs = []
    for idx in range(10):
        n = 40 + 9 * idx
        nev = 2 + idx % 3
        seed = 3000 + idx
        a = easy_spd_problem(seed, n)
        cfg = SolverConfig(nev=nev, tol=1e-8, seed=seed, record_history=True)
        fast = lobpcg_solve(a, cfg)
        slow = psd_solve(a, cfg)
        runs.append({"idx": idx, "n": n, "nev": nev, "seed": seed, "a": a,
                     "cfg": cfg, "lobpcg": fast, "psd": slow})
    return runs


@pytest.fixture(scope="module")
def laplacian_fixtures():
    return {50: laplacian_1d(50), 400: laplacian_1d(400)}


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_1_oracle_equivalence(suite1):
    failures = []
    for run in suite1:
        result, oracle, nev = run["result"], run["oracle"], run["nev"]
        if result.status != "converged" or result.iterations > 500:
            failures.append(f"problem {run['idx']}: status {result.status}")
            continue
        target = oracle.values[:nev]
        if not np.all(np.abs(result.values - target) <= 1e-6 * (1 + np.abs(target))):
            failures.append(f"problem {run['idx']}: eigenvalue mismatch")
    report(1, "oracle equivalence on 20 seeded problems", failures)


def test_criterion_2_closed_form_spectrum(laplacian_fixtures):
    failures = []
    for n, cfg, precond in (
        (50, SolverConfig(nev=3, tol=1e-8), None),
        (400, SolverConfig(nev=3, block_size=6, tol=1e-9),
         exact_inverse_precond(laplacian_fixtures[400])),
    ):
        result = lobpcg_solve(laplacian_fixtures[n], cfg, precond=precond)
        exact = laplacian_1d_eigenvalues(n, 3)
        rel = np.max(np.abs(result.values - exact) / exact)
        if result.status != "converged":
            failures.append(f"n={n}: status {result.status}")
        elif rel > 1e-7:
            failures.append(f"n={n}: relative error {rel:.2e}")
    report(2, "closed-form 1-d Laplacian spectra", failures)


def test_criterion_3_local_optimality_dominance(suite3):
    failures = []
    for run in suite3:
        if run["psd"].iterations < run["lobpcg"].iterations:
            failures.append(
                f"problem {run['idx']}: psd {run['psd'].iterations} < "
                f"lobpcg {run['lobpcg'].iterations}"
            )
        # single-step dominance from an identical mid-run state
        engine = LobpcgEngine(run["a"], SolverConfig(nev=run["nev"],
                                                     seed=run["seed"]))
        for _ in range(3):
            engine.step()
        three_term, descent = engine.fork(), engine.fork()
        three_term.step(use_previous=True)
        descent.step(use_previous=False)
        if not np.all(three_term.ritz_values <= descent.ritz_values + 1e-12):
            failures.append(f"problem {run['idx']}: single-step dominance")
    report(3, "descent dominance (single step and full run)", failures)


def test_criterion_4_monotonicity(suite1, suite3):
    failures = []
    histories = [(f"s1/{r['idx']}", r["result"].history) for r in suite1]
    histories += [(f"s3/{r['idx']}/lobpcg", r["lobpcg"].history) for r in suite3]
    histories += [(f"s3/{r['idx']}/psd", r["psd"].history) for r in suite3]
    for name, history in histories:
        if not history:
            failures.append(f"{name}: empty history")
            continue
        for prev, nxt in zip(history, history[1:]):
            start = nxt.locked_count
            slack = 1e-10 * (1 + np.abs(prev.ritz_values[start:]))
            if not np.all(nxt.ritz_values[start:] <= prev.ritz_values[start:] + slack):
                failures.append(f"{name}: rise at iteration {nxt.iteration}")
                break
    report(4, "unlocked Ritz values nonincreasing in every run", failures)


def test_criterion_5_preconditioning_benefit(laplacian_fixtures):
    lap = laplacian_fixtures[400]
    cfg = lambda seed=0: SolverConfig(nev=4, block_size=8, tol=1e-8, seed=seed)
    plain = lobpcg_solve(lap, cfg())
    jacobi = lobpcg_solve(lap, cfg(), precond=jacobi_precond(lap))
    ideal = lobpcg_solve(lap, cfg(), precond=exact_inverse_precond(lap))
    failures = []
    if not (plain.status == jacobi.status == ideal.status == "converged"):
        failures.append(
            f"statuses {plain.status}/{jacobi.status}/{ideal.status}"
        )
    if jacobi.iterations > plain.iterations:
        failures.append(f"jacobi {jacobi.iterations} > none {plain.iterations}")
    if ideal.iterations > 5:
        failures.append(f"exact inverse took {ideal.iterations} > 5")
    report(5, "preconditioning benefit on the n=400 Laplacian", failures)


def test_criterion_6_cross_variant_agreement():
    failures = []
    for idx in range(10):
        n = 40 + 7 * idx
        nev = 2 + idx % 5  # up to 6
        seed = 6000 + idx
        a = easy_spd_problem(seed, n)
        reference = lobpcg_solve(a, SolverConfig(nev=nev, tol=1e-8, seed=seed))
        oracle = dense_oracle(a, IdentityOperator(n))
        slack = 1e-6 * (1 + np.abs(oracle.values[:nev]))
        budgets = {}
        for sub_block in (1, 2):
            for rr_period in (1, 5):
                result = lobpcg2_solve(a, Lobpcg2Config(
                    nev=nev, sub_block=sub_block, rr_period=rr_period,
                    tol=1e-8, seed=seed))
                if result.status != "converged":
                    failures.append(f"problem {idx} sb{sub_block} rr{rr_period}: "
                                    f"{result.status}")
                    continue
                if not np.all(np.abs(result.values - reference.values) <= slack):
                    failures.append(f"problem {idx} sb{sub_block} rr{rr_period}: "
                                    "values differ")
                budgets[(sub_block, rr_period)] = result.iterations
        for sub_block in (1, 2):
            base = budgets.get((sub_block, 1))
            sparse = budgets.get((sub_block, 5))
            if base is not None and sparse is not None and sparse > 3 * base:
                failures.append(f"problem {idx} sb{sub_block}: rr5 {sparse} "
                                f"> 3x rr1 {base}")
    report(6, "narrow-recurrence variant agreement", failures)


def test_criterion_7_warm_start(suite1):
    failures = []
    for run in suite1:
        cfg = SolverConfig(nev=run["nev"], tol=1e-8, seed=run["cfg"].seed)
        again = lobpcg_solve(run["a"], cfg, b_op=run["b"],
                             precond=run["precond"], x0=run["result"].vectors)
        if again.status != "converged" or again.iterations > 1:
            failures.append(f"problem {run['idx']}: {again.status} "
                            f"after {again.iterations}")
    report(7, "warm starts finish within one iteration", failures)


def test_criterion_8_b_orthonormality(suite1, suite3):
    failures = []
    blocks = []
    for run in suite1:
        metric = run["b"] if run["b"] is not None else IdentityOperator(run["n"])
        blocks.append((f"s1/{run['idx']}", run["result"].vectors, metric))
    for run in suite3:
        ident = IdentityOperator(run["n"])
        blocks.append((f"s3/{run['idx']}/lobpcg", run["lobpcg"].vectors, ident))
        blocks.append((f"s3/{run['idx']}/psd", run["psd"].vectors, ident))
    # forced iteration-cap and breakdown outcomes are covered as well
    a = easy_spd_problem(8000, 60)
    b = random_spd_metric(8001, 60)
    capped = lobpcg_solve(a, SolverConfig(nev=3, max_iter=2), b_op=b)
    blocks.append(("max_iter", capped.vectors, b))
    hostile = CallableOperator(60, np.zeros_like)
    broken = lobpcg_solve(a, SolverConfig(nev=3), b_op=b, precond=hostile)
    blocks.append(("breakdown", broken.vectors, b))
    if capped.status != "max_iter":
        failures.append(f"expected max_iter, got {capped.status}")
    if broken.status != "breakdown":
        failures.append(f"expected breakdown, got {broken.status}")
    for name, vectors, metric in blocks:
        defect = b_defect(vectors, metric)
        if defect > 1e-8:
            failures.append(f"{name}: defect {defect:.2e}")
    report(8, "returned blocks are B-orthonormal in every outcome", failures)


def test_criterion_9_partition_correctness():
    failures = []
    cliques = [(u, v, 1.0) for i, u in enumerate(range(4)) for v in range(i + 1, 4)]
    cliques += [(u, v, 1.0) for i, u in enumerate(range(4, 8))
                for v in range(4 + i + 1, 8)]
    cliques.append((0, 4, 1.0))
    part = partition_graph(8, cliques)
    if not (set(part.labels[:4]) == {0} and set(part.labels[4:]) == {1}):
        failures.append(f"cliques not separated: {part.labels.tolist()}")
    if abs(part.cut_weight - 1.0) > 1e-12:
        failures.append(f"clique cut weight {part.cut_weight}")
    path = partition_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    if path.labels.tolist() != [0, 0, 1, 1]:
        failures.append(f"path labels {path.labels.tolist()}")
    try:
        partition_graph(6, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
                            (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)])
        failures.append("disconnected graph not rejected")
    except DisconnectedGraphError:
        pass
    report(9, "spectral bisection on reference graphs", failures)


def test_criterion_10_reproducibility(tmp_path, laplacian_fixtures):
    matrix_path = tmp_path / "lap50.mtx"
    write_matrix_market_symmetric(matrix_path, laplacian_fixtures[50])
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"run_{tag}.json"
        code = cli_main(["solve", "--matrix", str(matrix_path), "--nev", "3",
                         "--seed", "11", "--out", str(out)])
        text = out.read_text(encoding="utf-8")
        outputs.append((code, re.search(r'"eigenvalues": \[[^\]]*\]', text).group(0)))
    failures = []
    if outputs[0][0] != 0 or outputs[1][0] != 0:
        failures.append(f"exit codes {outputs[0][0]}, {outputs[1][0]}")
    if outputs[0][1] != outputs[1][1]:
        failures.append("eigenvalue arrays differ between identical runs")
    report(10, "byte-identical eigenvalues for identical flags", failures)
