"""Block algebra contracts: quotients, residuals, orthonormalization,
Rayleigh-Ritz extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_to_csr, subspace_gap

from lobpcg_kit import (
    CallableOperator,
    DiagonalOperator,
    DimensionMismatchError,
    IdentityOperator,
    InsufficientRankError,
    OrthonormalizationError,
    ZeroRankError,
    ZeroVectorError,
    b_orthonormalize,
    dense_oracle,
    op_apply,
    rayleigh_quotient,
    rayleigh_ritz,
    residual_block,
)
from lobpcg_kit.blocks import (b_orthonormalize_full, b_orthonormalize_spans, block_mul,
                                carried_rayleigh_ritz, combine_parts, fix_signs, part_grams,
                                stack_of, sub_block_stack, unit_columns)


def spd_operator(rng, n, shift=None):
    g = rng.standard_normal((n, n))
    return dense_to_csr(g @ g.T + (shift if shift is not None else n) * np.eye(n))


class TestRayleighQuotient:
    def test_basis_vector(self):
        a = DiagonalOperator([2.0, 5.0])
        b = IdentityOperator(2)
        assert rayleigh_quotient(np.array([1.0, 0.0]), a, b) == pytest.approx(2.0)

    def test_average(self):
        a = DiagonalOperator([2.0, 5.0])
        b = IdentityOperator(2)
        x = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert rayleigh_quotient(x, a, b) == pytest.approx(3.5)

    def test_matches_dense_evaluation(self, rng):
        n = 15
        a = spd_operator(rng, n)
        b = spd_operator(rng, n)
        a_dense, b_dense = a.to_dense(), b.to_dense()
        for _ in range(10):
            x = rng.standard_normal(n)
            expected = (x @ a_dense @ x) / (x @ b_dense @ x)
            assert rayleigh_quotient(x, a, b) == pytest.approx(expected, rel=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            rayleigh_quotient(np.zeros(3), IdentityOperator(3), IdentityOperator(3))

    @pytest.mark.parametrize("exponent", [-305, -302, -250, -160, -100, 0, 100, 160, 250, 300])
    def test_invariant_under_scaling_the_pencil(self, exponent):
        # A = c diag(1..5), B = c I: (x, B x) is about c, far below 1e-300 at
        # the small end, and the quotient is that of c = 1
        c = 10.0 ** exponent
        spectrum = np.arange(1.0, 6.0)
        x = np.array([1.0, -2.0, 0.5, 3.0, 1.0])
        a, b = DiagonalOperator(c * spectrum), DiagonalOperator(np.full(5, c))
        expected = (x @ (spectrum * x)) / (x @ x)
        assert rayleigh_quotient(x, a, b) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
    def test_tiny_and_huge_vectors(self, scale):
        # (x, x) underflows to 0 or overflows to inf unscaled
        a = DiagonalOperator(np.arange(1.0, 6.0))
        assert rayleigh_quotient(scale * np.ones(5), a, IdentityOperator(5)) == pytest.approx(
            3.0, rel=1e-14)


class TestResidualBlock:
    def test_exact_eigenblock_gives_zero(self):
        a = DiagonalOperator([1.0, 2.0, 3.0])
        b = IdentityOperator(3)
        r = residual_block(a, b, np.eye(3), [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(r, np.zeros((3, 3)))

    def test_hand_computed(self):
        a = DiagonalOperator([1.0, 2.0])
        b = IdentityOperator(2)
        r = residual_block(a, b, np.array([[1.0], [0.0]]), [2.0])
        np.testing.assert_array_equal(r, [[-1.0], [0.0]])

    def test_matches_finite_difference_gradient(self, rng):
        # r_k equals (x^T B x)/2 times the gradient of the Rayleigh
        # quotient, checked by central differences with h = 1e-6.
        n = 10
        a = spd_operator(rng, n)
        b = spd_operator(rng, n, shift=2 * n)
        x = rng.standard_normal((n, 1))
        theta = rayleigh_quotient(x[:, 0], a, b)
        r = residual_block(a, b, x, [theta])[:, 0]
        h = 1e-6
        grad = np.zeros(n)
        for i in range(n):
            xp, xm = x[:, 0].copy(), x[:, 0].copy()
            xp[i] += h
            xm[i] -= h
            grad[i] = (rayleigh_quotient(xp, a, b) - rayleigh_quotient(xm, a, b)) / (2 * h)
        bx = op_apply(b, x)[:, 0]
        scaled = 0.5 * (x[:, 0] @ bx) * grad
        assert np.max(np.abs(r - scaled)) <= 1e-4 * max(1.0, np.max(np.abs(r)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            residual_block(IdentityOperator(3), IdentityOperator(3),
                           np.ones((3, 2)), [1.0])


class TestBOrthonormalize:
    def test_already_orthonormal_keeps_span(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((12, 4)))
        out, kept = b_orthonormalize(q, IdentityOperator(12))
        assert kept == [0, 1, 2, 3]
        assert subspace_gap(out, q) <= 1e-10

    def test_duplicated_column_dropped(self, rng):
        v = rng.standard_normal((10, 3))
        v[:, 2] = v[:, 0]
        out, kept = b_orthonormalize(v, IdentityOperator(10))
        assert out.shape[1] == 2
        assert len(kept) == 2
        assert kept == [0, 1]

    def test_weighted_metric_gram(self, rng):
        b = DiagonalOperator(np.arange(1.0, 31.0))
        v = rng.standard_normal((30, 5))
        out, kept = b_orthonormalize(v, b)
        gram = out.T @ op_apply(b, out)
        assert np.max(np.abs(gram - np.eye(out.shape[1]))) <= 1e-8

    def test_zero_rank_rejected(self):
        with pytest.raises(ZeroRankError):
            b_orthonormalize(np.zeros((6, 2)), IdentityOperator(6))

    def test_idempotent_up_to_span(self, rng):
        # badly scaled input: spans must agree after one and two passes
        v = rng.standard_normal((20, 4)) * np.array([1e8, 1.0, 1e-8, 1.0])
        b = DiagonalOperator(np.linspace(0.5, 3.0, 20))
        once, _ = b_orthonormalize(v, b)
        twice, _ = b_orthonormalize(once, b)
        assert subspace_gap(once, twice) <= 1e-10

    def test_near_dependent_columns_dropped(self, rng):
        v = rng.standard_normal((15, 3))
        v[:, 2] = v[:, 0] + 1e-15 * rng.standard_normal(15)
        out, kept = b_orthonormalize(v, IdentityOperator(15))
        assert out.shape[1] == 2
        gram = out.T @ out
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-8

    @pytest.mark.parametrize("bad_value", [np.nan, np.inf])
    @pytest.mark.parametrize("bad_from", [1, 2])
    # numpy warns while forming a Gram matrix from an infinite product
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_gram_raises(self, rng, bad_value, bad_from):
        # B is applied once and turns non-finite in the columns from
        # bad_from on, the others staying finite
        calls = []

        def apply(block):
            calls.append(block.shape[1])
            out = block.copy()
            out[:, bad_from:] = bad_value
            return out

        with pytest.raises(OrthonormalizationError):
            b_orthonormalize_full(rng.standard_normal((10, 3)), CallableOperator(10, apply))
        assert calls == [3]

    @pytest.mark.parametrize("bad_value", [np.nan, np.inf])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_public_wrapper_checks_b_applied_afresh(self, rng, bad_value):
        # the mapped product passes; B turns non-finite only on the
        # wrapper's own apply
        calls = []

        def apply(block):
            calls.append(block.shape[1])
            return np.full_like(block, bad_value) if len(calls) >= 2 else block.copy()

        with pytest.raises(OrthonormalizationError):
            b_orthonormalize(rng.standard_normal((10, 3)), CallableOperator(10, apply))
        assert calls == [3, 3]

    @pytest.mark.parametrize("widths", [[3], [2, 2, 3], [2, 2]])
    def test_spans_keep_the_identity_metric_aliased(self, rng, widths):
        # without a metric every span's W is its own B-product: its stack
        # (A W, W) holds no B member, so no pass maps a copy of W
        edges = np.cumsum([0] + widths)
        out, _ = unit_columns(np.asfortranarray(rng.standard_normal((30, edges[-1]))))
        spans = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
        ws, kept = b_orthonormalize_spans(out, spans, None)
        assert kept == widths and len(ws) == 2
        assert all(np.max(np.abs(w.T @ w - np.eye(w.shape[1]))) <= 1e-8
                   for w in (ws[1][:, span] for span in spans))


class TestRayleighRitz:
    def test_full_identity_basis_diagonalizes(self):
        a = DiagonalOperator([3.0, 1.0, 2.0])
        ritz = rayleigh_ritz(np.eye(3), a, IdentityOperator(3), want=3)
        np.testing.assert_allclose(ritz.values, [1.0, 2.0, 3.0], atol=1e-12)

    def test_invariant_subspace_is_exact(self, rng):
        # span of two exact eigenvectors: Ritz pairs are exact eigenpairs
        n = 12
        a = spd_operator(rng, n)
        oracle = dense_oracle(a, IdentityOperator(n))
        mix = oracle.vectors[:, [1, 4]] @ rng.standard_normal((2, 2))
        while np.linalg.matrix_rank(mix) < 2:
            mix = oracle.vectors[:, [1, 4]] @ rng.standard_normal((2, 2))
        ritz = rayleigh_ritz(mix, a, IdentityOperator(n), want=2)
        norm_a = a.max_row_l1()
        for k in range(2):
            vec = ritz.vectors[:, k:k + 1]
            resid = op_apply(a, vec) - ritz.values[k] * vec
            assert np.linalg.norm(resid) <= 1e-9 * norm_a * np.linalg.norm(vec)

    def test_ritz_values_bound_eigenvalues(self, rng):
        n = 25
        a = spd_operator(rng, n)
        oracle = dense_oracle(a, IdentityOperator(n))
        basis = rng.standard_normal((n, 6))
        ritz = rayleigh_ritz(basis, a, IdentityOperator(n), want=6)
        assert ritz.values[0] >= oracle.values[0] - 1e-10

    def test_nested_basis_monotonicity(self, rng):
        # Growing the basis can only lower each Ritz value.
        n = 20
        a = spd_operator(rng, n)
        b = IdentityOperator(n)
        small = rng.standard_normal((n, 3))
        large = np.hstack([small, rng.standard_normal((n, 3))])
        theta_small = rayleigh_ritz(small, a, b, want=3).values
        theta_large = rayleigh_ritz(large, a, b, want=3).values
        assert np.all(theta_large <= theta_small + 1e-10)

    def test_vectors_equal_basis_times_coefficients(self, rng):
        n = 18
        a = spd_operator(rng, n)
        basis = rng.standard_normal((n, 5))
        ritz = rayleigh_ritz(basis, a, IdentityOperator(n), want=4)
        np.testing.assert_array_equal(ritz.vectors, basis @ ritz.coefficients)

    def test_b_orthonormal_output(self, rng):
        n = 16
        a = spd_operator(rng, n)
        b = DiagonalOperator(np.linspace(1.0, 4.0, n))
        ritz = rayleigh_ritz(rng.standard_normal((n, 5)), a, b, want=5)
        gram = ritz.vectors.T @ op_apply(b, ritz.vectors)
        assert np.max(np.abs(gram - np.eye(5))) <= 1e-8

    @pytest.mark.parametrize("rel", [3e-7, 1e-6])
    def test_near_dependent_pair_keeps_the_galerkin_condition(self, rel):
        # the copy is kept as an independent direction, so the B-Gram
        # matrix of the basis has condition about 1 / rel^2
        rng = np.random.default_rng(7)
        n = 12
        a = spd_operator(rng, n)
        b = DiagonalOperator(np.linspace(1.0, 4.0, n))
        v, u = rng.standard_normal(n), rng.standard_normal(n)
        basis = np.column_stack([v, v + rel * np.linalg.norm(v) * u / np.linalg.norm(u)])
        ritz = rayleigh_ritz(basis, a, b, want=1)
        residual = op_apply(a, ritz.vectors) - op_apply(b, ritz.vectors) * ritz.values
        norm_a = np.linalg.norm(a.to_dense(), 2)
        assert np.max(np.abs(basis.T @ residual)) <= 1e-9 * norm_a * np.linalg.norm(basis, 2)

    def test_carried_ritz_block_failing_its_post_check_fails_the_trial(self):
        # the same pairs from carried products, without B-orthonormalizing
        # the basis first: a Ritz block that misses the post-check is not
        # mended within itself, which would lose the Galerkin condition
        rng = np.random.default_rng(0)
        n = 12
        for _ in range(40):
            a = spd_operator(rng, n)
            b = DiagonalOperator(rng.uniform(1.0, 2.0, n))
            v, u = rng.standard_normal(n), rng.standard_normal(n)
            basis = np.column_stack([v, v + 3e-7 * np.linalg.norm(v) * u])
            try:
                values, ritz, _, _ = carried_rayleigh_ritz(
                    [stack_of(op_apply(a, basis), basis, op_apply(b, basis))], 1)
            except OrthonormalizationError:
                continue
            residual = ritz[0] - ritz[-1] * values
            norm_a = np.linalg.norm(a.to_dense(), 2)
            assert np.max(np.abs(basis.T @ residual)) <= 1e-10 * norm_a * np.linalg.norm(basis, 2)

    def test_insufficient_rank(self, rng):
        v = rng.standard_normal((10, 1))
        basis = np.hstack([v, v, v])
        with pytest.raises(InsufficientRankError):
            rayleigh_ritz(basis, IdentityOperator(10), IdentityOperator(10), want=3)

    def test_deterministic_signs(self, rng):
        n = 14
        a = spd_operator(rng, n)
        basis = rng.standard_normal((n, 4))
        first = rayleigh_ritz(basis, a, IdentityOperator(n), want=4)
        second = rayleigh_ritz(basis.copy(), a, IdentityOperator(n), want=4)
        np.testing.assert_array_equal(first.vectors, second.vectors)
        for k in range(4):
            col = first.vectors[:, k]
            lead = np.flatnonzero(np.abs(col) > 1e-12 * np.max(np.abs(col)))[0]
            assert col[lead] > 0


def test_rayleigh_ritz_zero_rank_propagates():
    with pytest.raises(ZeroRankError):
        rayleigh_ritz(np.zeros((8, 2)), IdentityOperator(8), IdentityOperator(8),
                      want=1)


@st.composite
def ritz_problems(draw):
    """An SPD pencil (A, B) of dimension 6-14, B diagonal or with a dense
    pattern, and a basis of ``rank`` random columns plus duplicated, scaled
    and near-dependent copies of them in shuffled order; returns
    ``(a, b, basis, want, delta)`` with ``want <= rank`` and ``delta`` the
    largest relative perturbation of a near-dependent copy (0 if none)."""
    n = draw(st.integers(6, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = spd_operator(rng, n)
    if draw(st.booleans()):
        b = DiagonalOperator(rng.uniform(0.5, 4.0, n))
    else:
        b = spd_operator(rng, n)
    rank = draw(st.integers(1, n // 2))
    base = rng.standard_normal((n, rank))
    columns = list(base.T)
    # a factor of 1 duplicates the column
    for k, factor in draw(st.lists(st.tuples(st.integers(0, rank - 1),
                                             st.sampled_from([1.0, -1e3, 1e-3, 7.0])),
                                   max_size=3)):
        columns.append(factor * base[:, k])
    # near copies stop at 3e-7: from about 1e-6 on, several of them may be
    # kept as independent, and basis @ coefficients, formed with coefficients
    # that large, misses the 1e-8 B-orthonormality
    near = draw(st.lists(st.tuples(st.integers(0, rank - 1),
                                   st.sampled_from([1e-14, 1e-11, 1e-9, 1e-8, 1e-7, 3e-7])),
                         max_size=3))
    for k, rel in near:
        noise = rng.standard_normal(n)
        noise *= rel * np.linalg.norm(base[:, k]) / np.linalg.norm(noise)
        columns.append(base[:, k] + noise)
    delta = max([rel for _, rel in near], default=0.0)
    order = draw(st.permutations(range(len(columns))))
    basis = np.column_stack([columns[k] for k in order])
    return a, b, basis, draw(st.integers(1, rank)), delta


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(ritz_problems())
def test_rayleigh_ritz_property(problem):
    a, b, basis, want, delta = problem
    ritz = rayleigh_ritz(basis, a, b, want)
    x = ritz.vectors
    # Galerkin condition over the whole basis; a near-dependent column whose
    # difference is dropped as dependent leaves that difference's share of
    # the residual unprojected, so the bound grows by its relative size
    residual = op_apply(a, x) - op_apply(b, x) * ritz.values[None, :]
    norm_a = np.linalg.norm(a.to_dense(), 2)
    bound = (1e-9 + delta) * norm_a * np.linalg.norm(basis, 2)
    assert np.max(np.abs(basis.T @ residual)) <= bound
    assert np.max(np.abs(x.T @ op_apply(b, x) - np.eye(want))) <= 1e-8
    np.testing.assert_array_equal(x, basis @ ritz.coefficients)


def loop_fix_signs(vectors, *companions):
    """The column loop ``fix_signs`` replaced, kept as the reference."""
    for c in range(vectors.shape[1]):
        col = vectors[:, c]
        peak = np.max(np.abs(col))
        if peak == 0.0:
            continue
        lead = np.flatnonzero(np.abs(col) > 1e-12 * peak)[0]
        if col[lead] < 0:
            vectors[:, c] = -col
            for other in companions:
                other[:, c] = -other[:, c]


@st.composite
def sign_blocks(draw):
    """Blocks with zero columns, columns whose leading entries all fall at
    or below the 1e-12 relative cut, and exact zeros of either sign."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 5))
    entries = st.one_of(st.floats(-1e3, 1e3, allow_subnormal=False),
                        st.sampled_from([0.0, -0.0, 1e-13, -1e-13, 1e-300]))
    block = np.array(draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols)),
                     dtype=float).reshape(rows, cols)
    for c in draw(st.sets(st.integers(0, cols - 1))):
        kind = draw(st.sampled_from(["zero", "below_cut"]))
        block[:, c] = 0.0
        if kind == "below_cut":
            # every entry above the peak is at or below the cut, so the
            # peak leads
            peak = draw(st.integers(0, rows - 1))
            block[:peak, c] = draw(st.sampled_from([1e-12, -1e-12, 1e-14, -1e-14, -0.0]))
            block[peak, c] = draw(st.sampled_from([1.0, -1.0]))
    return block


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sign_blocks(), st.integers(1, 6))
def test_fix_signs_matches_the_column_loop(block, coeff_rows):
    coeff = np.arange(1.0, coeff_rows * block.shape[1] + 1).reshape(coeff_rows, -1)
    expected, expected_coeff = block.copy(), coeff.copy()
    loop_fix_signs(expected, expected_coeff)

    vectors, companion = block.copy(), coeff.copy()
    fix_signs(vectors, companion)
    np.testing.assert_array_equal(vectors, expected)
    np.testing.assert_array_equal(np.signbit(vectors), np.signbit(expected))
    np.testing.assert_array_equal(companion, expected_coeff)

    # an aliased companion (a product that is the block itself) flips once
    vectors, companion = block.copy(), coeff.copy()
    fix_signs(vectors, companion, vectors, companion)
    np.testing.assert_array_equal(vectors, expected)
    np.testing.assert_array_equal(companion, expected_coeff)


def per_product_grams(parts, ritz_values=None):
    """:func:`part_grams` as a loop over single products, ``u.T @ a_v`` and
    ``b_u.T @ v``, for parts given as ``(V, A V, B V)`` tuples of blocks,
    with B V the block itself without a metric."""
    edges = np.cumsum([0] + [v.shape[1] for v, _, _ in parts])
    gram_a, gram_b = np.zeros((edges[-1],) * 2), np.eye(edges[-1])
    for i, (u, _, b_u) in enumerate(parts):
        for j in range(i, len(parts)):
            v, a_v, _ = parts[j]
            rows, cols = slice(edges[i], edges[i + 1]), slice(edges[j], edges[j + 1])
            if i == j and ritz_values is not None:
                if i == 0:
                    gram_a[rows, cols] = np.diag(ritz_values)
                else:
                    gram_a[rows, cols] = u.T @ a_v
                continue
            gram_a[rows, cols], gram_b[rows, cols] = u.T @ a_v, b_u.T @ v
            gram_a[cols, rows], gram_b[cols, rows] = gram_a[rows, cols].T, gram_b[rows, cols].T
    return 0.5 * (gram_a + gram_a.T), 0.5 * (gram_b + gram_b.T)


def as_tuple(stack):
    """A part stack as a ``(V, A V, B V)`` tuple of its members; without a
    metric its B V is V itself, so that ``u.T @ u`` is a diagonal block."""
    v = stack[1]
    return v, stack[0], v if len(stack) == 2 else stack[2]


class TestStackedParts:
    """One broadcast matmul per part stack gives every product bit for bit
    as one matmul per block does."""

    @pytest.mark.parametrize("metric", [False, True], ids=["standard", "pencil"])
    @pytest.mark.parametrize("known", [False, True], ids=["explicit", "known"])
    @pytest.mark.parametrize("seed", range(3))
    def test_part_grams_match_the_per_product_loop(self, metric, known, seed):
        rng = np.random.default_rng(seed)
        n, widths = 300, (4, 3, 2)
        parts = [stack_of(*(rng.standard_normal((n, m)) for _ in range(3 if metric else 2)))
                 for m in widths]
        assert all(member.flags.f_contiguous for part in parts for member in part)
        values = np.sort(rng.standard_normal(widths[0])) if known else None
        expected = per_product_grams([as_tuple(part) for part in parts], values)
        for got, want in zip(part_grams(parts, values), expected):
            np.testing.assert_array_equal(got, want)
        if not metric and not known:  # U^T U as the one-block product forms it
            diagonal = part_grams(parts[:1])[1]
            np.testing.assert_array_equal(diagonal, parts[0][1].T @ parts[0][1])
            np.testing.assert_array_equal(diagonal, diagonal.T)

    @pytest.mark.parametrize("metric", [False, True], ids=["standard", "pencil"])
    @pytest.mark.parametrize("known", [False, True], ids=["explicit", "known"])
    def test_stacked_sub_block_grams_match_each_sub_block(self, metric, known):
        # (r, k, n, m) stacks of k sub-blocks, as the engine's rounds form them
        rng = np.random.default_rng(5)
        n, k, width = 200, 3, 4
        wide = [stack_of(*(rng.standard_normal((n, k * width)) for _ in range(3 if metric else 2)))
                for _ in range(3)]
        parts = [sub_block_stack(wide[0], width), sub_block_stack(wide[1], width),
                 sub_block_stack(wide[2], width, 2)]
        values = rng.standard_normal((k, width)) if known else None
        stacked = part_grams(parts, values)
        for s in range(k):
            one = [part[:, s] for part in parts]
            expected = per_product_grams([as_tuple(part) for part in one],
                                         None if values is None else values[s])
            for got, want in zip(stacked, expected):
                np.testing.assert_array_equal(got[s], want)

    @pytest.mark.parametrize("metric", [False, True], ids=["standard", "pencil"])
    @pytest.mark.parametrize("plus", [False, True])
    def test_combine_parts_matches_block_mul_per_product(self, metric, plus):
        rng = np.random.default_rng(9)
        n, widths, out_cols = 300, (4, 3, 2), 4
        roles = 3 if metric else 2
        parts = [stack_of(*(rng.standard_normal((n, m)) for _ in range(roles))) for m in widths]
        coeff = rng.standard_normal((sum(widths), out_cols))
        extra = stack_of(*(rng.standard_normal((n, out_cols)) for _ in range(roles)))
        got = combine_parts(parts, coeff, extra if plus else None)
        assert len(got) == roles
        edges = np.cumsum([0] + list(widths))
        for r in range(roles):
            want = None
            for part, lo, hi in zip(parts, edges[:-1], edges[1:]):
                piece = block_mul(part[r], coeff[lo:hi])
                want = piece if want is None else want + piece
            if plus:
                want = want + extra[r]
            np.testing.assert_array_equal(got[r], want)
            assert got[r].flags.f_contiguous
