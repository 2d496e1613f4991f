"""Status contract across the float64 range: for A = c * diag(1..40) a
solver reports the status and step count of c = 1, and when it reports
``converged``, the pairs of c = 1 scaled by c.

Column norms are taken without squaring into underflow or overflow, so the
residual of a tiny operator no longer reads 0 and passes its threshold, and
search directions of a tiny or huge operator are not lost in their scaling.
"""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lobpcg_kit import (
    DiagonalOperator,
    Lobpcg2Config,
    SolverConfig,
    lobpcg2_solve,
    lobpcg_solve,
    psd_solve,
)
from lobpcg_kit.blocks import column_norms

SPECTRUM = np.arange(1.0, 41.0)

SOLVERS = {
    "lobpcg": lambda op: lobpcg_solve(op, SolverConfig(nev=2)),
    "psd": lambda op: psd_solve(op, SolverConfig(nev=2)),
    "lobpcg2": lambda op: lobpcg2_solve(op, Lobpcg2Config(nev=2)),
}


@functools.lru_cache
def unit_scale(solver):
    return SOLVERS[solver](DiagonalOperator(SPECTRUM))


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(exponent=st.floats(min_value=-300, max_value=300))
# column norms squared into underflow gave a false converged after 0 steps
# (c <= 1e-170) and after 20 (1e-160), and a breakdown at |log10 c| >= 160
@example(exponent=-300.0)
@example(exponent=-170.0)
@example(exponent=-160.0)
@example(exponent=200.0)
def test_converged_values_scale_with_the_operator(solver, exponent):
    scale = 10.0 ** exponent
    result = SOLVERS[solver](DiagonalOperator(scale * SPECTRUM))
    reference = unit_scale(solver)
    if result.status == "converged":
        np.testing.assert_allclose(result.values / scale, reference.values, rtol=1e-6, atol=0)
    # every scale the operator can hold: the same status and steps as c = 1
    assert (result.status, result.iterations) == (reference.status, reference.iterations)


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1.0, 1e170, 1e300])
def test_column_norms_neither_underflow_nor_overflow(scale):
    block = np.asfortranarray(np.random.default_rng(0).standard_normal((50, 3)))
    expected = np.linalg.norm(block, axis=0)
    np.testing.assert_allclose(column_norms(scale * block), scale * expected, rtol=1e-14)


def test_column_norms_keep_zero_inf_and_nan_columns():
    block = np.zeros((4, 3))
    block[0, 1], block[2, 2] = np.inf, np.nan
    norms = column_norms(block)
    assert norms[0] == 0.0 and norms[1] == np.inf and np.isnan(norms[2])


def test_column_norms_match_the_summed_squares_at_normal_scales():
    block = np.asfortranarray(np.random.default_rng(1).standard_normal((200, 5)))
    assert np.array_equal(column_norms(block), np.sqrt(np.einsum("ij,ij->j", block, block)))
