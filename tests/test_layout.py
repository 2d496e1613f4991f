"""Column-major layout guard.

The solvers hold every tall-skinny block column-major (each vector
contiguous), which keeps broadcasts and column reductions running along n.
A C-ordered product slipped into the step, such as a plain ``V @ C``,
still gives the right answers, so only these checks notice it.
"""

import numpy as np
import pytest

from conftest import easy_spd_problem, random_spd_metric

from lobpcg_kit import (
    DiagonalOperator,
    IdentityOperator,
    Lobpcg2Config,
    SolverConfig,
    jacobi_precond,
    lobpcg2_solve,
)
from lobpcg_kit.solver import LobpcgEngine

#: the members of the state's stacks, then its residual block
BLOCKS = ("AX", "X", "BX", "AP", "P", "BP", "R")


def blocks_of(xs, *ps):
    """``(name, block)`` of every member of an X stack and of P stacks (None
    for no P), named in BLOCKS' order; a standard problem's stacks have no B
    member."""
    named = list(zip(BLOCKS[:3], xs))
    for stack in ps:
        if stack is not None:
            named += list(zip(BLOCKS[3:6], stack))
    return named


def not_column_major(state):
    """Names of the state's blocks that are not F-contiguous: its X stack,
    every sub-block's P stack and its residual block."""
    named = blocks_of(state.xs, *state.ps) + [("R", state.R)]
    return [name for name, block in named if not block.flags.f_contiguous]


@pytest.mark.parametrize("metric", [None, "sparse", "diagonal"])
@pytest.mark.parametrize("jacobi", [False, True])
def test_engine_blocks_stay_column_major(metric, jacobi):
    n = 60
    a = easy_spd_problem(0, n)
    b = {None: None, "sparse": random_spd_metric(1, n),
         "diagonal": DiagonalOperator(np.linspace(1.0, 2.0, n))}[metric]
    constraints = np.random.default_rng(2).standard_normal((n, 2))
    engine = LobpcgEngine(a, SolverConfig(nev=3, block_size=4), b_op=b,
                          precond=jacobi_precond(a) if jacobi else None,
                          constraints=constraints)
    assert not_column_major(engine) == []
    for _ in range(4):
        engine.step()
        assert engine.ps[0] is not None
        assert not_column_major(engine) == []
    engine._refresh_products()
    assert not_column_major(engine) == []


@pytest.mark.parametrize("metric", [None, "sparse"])
def test_lobpcg2_couplings_hand_out_column_major_blocks(monkeypatch, metric):
    n = 60
    a = easy_spd_problem(3, n)
    b = random_spd_metric(4, n) if metric else None
    couple, seen = LobpcgEngine.couple, []

    def recorded(state, *args, **kwargs):
        couple(state, *args, **kwargs)
        for k in range(len(state.slices)):
            parts = state._parts(k)
            seen.append((len(parts) > 1, [name for name, block in blocks_of(*parts)
                                          if not block.flags.f_contiguous]))
        seen.append((False, not_column_major(state)))

    monkeypatch.setattr(LobpcgEngine, "couple", recorded)
    result = lobpcg2_solve(a, Lobpcg2Config(nev=4, sub_block=2, rr_period=2), b_op=b)
    assert result.status == "converged"
    assert seen and all(bad == [] for _, bad in seen)
    assert any(kept_p for kept_p, _ in seen)


@pytest.mark.parametrize("make", [
    lambda n: easy_spd_problem(5, n),
    lambda n: DiagonalOperator(np.arange(1.0, n + 1.0)),
    IdentityOperator,
], ids=["sparse", "diagonal", "identity"])
def test_operators_return_column_major_for_column_major_input(make):
    n = 30
    block = np.asfortranarray(np.random.default_rng(6).standard_normal((n, 5)))
    assert make(n).apply(block).flags.f_contiguous
