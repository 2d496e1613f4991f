"""Property: once a solver is built, no misbehaving operator makes it raise.

One of A, B or the preconditioner turns bad from some call on (scaled far
up or down, NaN, +Inf, negated or zero), the other operators staying sane.
Construction may still raise a :class:`LobpcgKitError`; a built solver
reports every later failure through its status and returns finite vectors.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lobpcg_kit import (
    CallableOperator,
    DiagonalOperator,
    LobpcgEngine,
    LobpcgKitError,
    SolverConfig,
)

N = 200
SPECTRUM = np.arange(1.0, N + 1)
METRIC = np.linspace(1.0, 2.0, N)

#: ``(config, use_history_direction)`` of the engine each solve function
#: builds and runs: lobpcg_solve, psd_solve, and both at sub-block widths
#: 2 and 4 (lobpcg2_solve is lobpcg_solve with sub-blocks)
SOLVERS = {
    "lobpcg": (SolverConfig(nev=4), True),
    "psd": (SolverConfig(nev=4), False),
    "lobpcg2-2": (SolverConfig(nev=4, sub_block=2, rr_period=3), True),
    "lobpcg2-4": (SolverConfig(nev=4, sub_block=4), True),
    "psd-2": (SolverConfig(nev=4, sub_block=2, rr_period=3), False),
}

FAULTS = {
    "x1e200": lambda y: y * 1e200,
    "x1e300": lambda y: y * 1e300,
    "x1e-300": lambda y: y * 1e-300,
    "nan": lambda y: np.full_like(y, np.nan),
    "inf": lambda y: np.full_like(y, np.inf),
    "negated": lambda y: -y,
    "zero": np.zeros_like,
}


def faulty(diagonal, onset, fault):
    """The diagonal operator as a callable whose output takes ``fault``
    from its ``onset``-th call on."""
    calls = [0]

    def apply(block):
        calls[0] += 1
        out = diagonal[:, None] * block
        return FAULTS[fault](out) if calls[0] >= onset else out

    return CallableOperator(N, apply)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(solver=st.sampled_from(sorted(SOLVERS)),
       bad=st.sampled_from(["a", "b", "precond"]),
       with_b=st.booleans(), with_precond=st.booleans(),
       onset=st.integers(1, 101), fault=st.sampled_from(sorted(FAULTS)))
# a sym_eig that fails to converge inside a sub-block's trial
@example(solver="lobpcg2-2", bad="a", with_b=False, with_precond=False,
         onset=13, fault="x1e200")
# a coupling on refreshed products that falls short of rank
@example(solver="lobpcg", bad="b", with_b=True, with_precond=True, onset=13, fault="negated")
@example(solver="psd", bad="b", with_b=True, with_precond=True, onset=13, fault="negated")
# numpy warns while Gram matrices are formed from bad products
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_built_solver_reports_operator_faults_through_its_status(
        solver, bad, with_b, with_precond, onset, fault):
    diagonals = {"a": SPECTRUM, "b": METRIC, "precond": 1.0 / SPECTRUM}
    ops = {name: faulty(diagonal, onset, fault) if name == bad else DiagonalOperator(diagonal)
           for name, diagonal in diagonals.items()}
    b_op = ops["b"] if with_b or bad == "b" else None
    precond = ops["precond"] if with_precond or bad == "precond" else None
    cfg, use_history_direction = SOLVERS[solver]
    try:
        engine = LobpcgEngine(ops["a"], cfg, b_op=b_op, precond=precond,
                              use_history_direction=use_history_direction)
    except LobpcgKitError:
        return
    result = engine.run()
    assert result.status in ("converged", "max_iter", "breakdown")
    assert result.vectors.shape == (N, 4)
    assert np.all(np.isfinite(result.vectors))
