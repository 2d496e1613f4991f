"""Block-vector algebra in the B-inner product.

Rayleigh quotients, residual blocks, B-orthonormalization with rank
handling, and the Rayleigh-Ritz projection.  A block vector is a float64
``(n, m)`` array of column vectors, held column-major (as in BLOPEX) so
that broadcasts and column reductions run along n; :func:`block_mul` forms
the solvers' ``V @ C`` so.  The metric B is any SPD
:class:`~lobpcg_kit.operators.LinearOperator`.

The solvers hold each part of a basis, and its operator products, as one
*stack*: an ``(r, n, m)`` array whose members ``(A V, V, B V)`` are each
column-major (:func:`stack_of`), so that B V is always ``stack[-1]``.  A
standard problem's stack is ``(A V, V)``: its B V is V by layout, and no
B member exists.  One broadcast matmul maps every member of a part
(:func:`combine_parts`), and one forms a Gram block pair
(:func:`part_grams`); each member still goes through the GEMM a single
block would.  The one Rayleigh-Ritz here works on such parts without
applying an operator (Hetmaniuk & Lehoucq, "Basis selection in LOBPCG",
J. Comput. Phys. 218, 2006).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import cholesky_stack as cholesky, sym_eig_kernel as sym_eig
from .errors import (
    DimensionMismatchError,
    InsufficientRankError,
    LobpcgKitError,
    NoConvergenceError,
    NotPositiveDefiniteError,
    OrthonormalizationError,
    ZeroRankError,
    ZeroVectorError,
)
from .operators import LinearOperator, op_apply

#: Gram eigenvalues <= m * RANK_DROP_RTOL * lambda_max are treated as
#: numerically dependent directions (mirrors the Cholesky pivot rule).
RANK_DROP_RTOL = 1e-12

#: Required quality of an orthonormalized block: max|V^T B V - I|.
ORTHO_POST_TOL = 1e-8


@dataclass(frozen=True)
class RitzSet:
    """Ritz pairs extracted from a trial basis.

    ``vectors == basis @ coefficients`` exactly by construction, with the
    basis being the block that was handed to :func:`rayleigh_ritz` (dropped
    basis columns simply receive mixing weights from the cleanup transform).
    """

    values: np.ndarray
    vectors: np.ndarray
    coefficients: np.ndarray


@dataclass
class OpCounters:
    """Exact operation tallies a solver maintains for benchmarking.

    ``a_matvecs`` and ``b_matvecs`` count the columns A and B were applied
    to; ``matvecs`` is their sum.  ``estimate_matvecs`` counts apart the
    columns a matrix-free A or B was applied to in order to estimate its
    spectrum: its norm estimate and, for B, the probe of its definiteness.
    """

    a_matvecs: int = 0
    b_matvecs: int = 0
    precond_applies: int = 0
    rayleigh_ritz_calls: int = 0
    orthonormalizations: int = 0
    estimate_matvecs: int = 0

    @property
    def matvecs(self) -> int:
        return self.a_matvecs + self.b_matvecs


def _as_block(block: np.ndarray) -> np.ndarray:
    block = np.asarray(block, dtype=float)
    if block.ndim == 1:
        block = block[:, None]
    if block.ndim != 2 or block.shape[1] < 1:
        raise DimensionMismatchError(f"expected an (n, m) block, got shape {block.shape}")
    return block


def rayleigh_quotient(x: np.ndarray, a_op: LinearOperator, b_op: LinearOperator) -> float:
    """(x, A x) / (x, B x) for a single vector, scaled to a largest magnitude
    of 1 first; ZeroVectorError when (x, B x) is not positive."""
    x = _as_block(x)
    if x.shape[1] != 1:
        raise DimensionMismatchError("rayleigh_quotient takes a single vector")
    peak = np.max(np.abs(x))
    if peak > 0:  # so that (x, B x) neither underflows nor overflows
        x = x / peak
    bx = op_apply(b_op, x)
    denom = float(x[:, 0] @ bx[:, 0])
    if not denom > 0:
        raise ZeroVectorError(f"(x, B x) = {denom!r} is not positive")
    ax = op_apply(a_op, x)
    return float(x[:, 0] @ ax[:, 0]) / denom


def residual_block(a_op: LinearOperator, b_op: LinearOperator, block: np.ndarray,
                   ritz_values) -> np.ndarray:
    """Column-wise eigen-residuals A x_k - theta_k B x_k."""
    block = _as_block(block)
    ritz_values = np.asarray(ritz_values, dtype=float).ravel()
    if ritz_values.shape[0] != block.shape[1]:
        raise DimensionMismatchError(
            f"{ritz_values.shape[0]} values for {block.shape[1]} columns"
        )
    return op_apply(a_op, block) - op_apply(b_op, block) * ritz_values[None, :]


def _t(gram: np.ndarray) -> np.ndarray:
    """The transpose of a matrix, or of every matrix of a ``(k, m, m)`` stack."""
    return gram.swapaxes(-1, -2)


def block_mul(block: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """``block @ coeff`` as a column-major block, or for every member of a
    stack of blocks (and of coefficients) in one broadcast matmul, as a
    stack."""
    return _t(_t(coeff) @ _t(block))


def sym(gram: np.ndarray) -> np.ndarray:
    return 0.5 * (gram + _t(gram))


def empty_stack(roles: int, n: int, m: int) -> np.ndarray:
    """An uninitialized ``(roles, n, m)`` stack of column-major members."""
    return _t(np.empty((roles, m, n)))


def stack_of(*members: np.ndarray) -> np.ndarray:
    """Blocks of one shape, such as ``(A V, V, B V)``, copied into one
    stack."""
    stack = empty_stack(len(members), *members[0].shape)
    for slot, member in zip(stack, members):
        slot[...] = member
    return stack


def product_stack(v: np.ndarray, a_op: LinearOperator, b_op: LinearOperator | None) -> np.ndarray:
    """The stack ``(A V, V, B V)`` of a block V, A applied before B;
    ``(A V, V)`` when ``b_op`` is None (no metric)."""
    a_v = op_apply(a_op, v)
    return stack_of(a_v, v) if b_op is None else stack_of(a_v, v, op_apply(b_op, v))


#: Squared column norms in this range lose no digits to underflow and did
#: not overflow.
_SAFE_SQUARES = (np.finfo(float).tiny / np.finfo(float).eps, np.finfo(float).max)


def column_norms(block: np.ndarray) -> np.ndarray:
    """The 2-norm of every column: from the summed squares where they lie in
    a safe range, else from the column rescaled by its largest magnitude, so
    that no norm underflows to 0 or overflows to inf."""
    squares = np.einsum("ij,ij->j", block, block)
    norms = np.sqrt(squares)
    unsafe = np.flatnonzero(~((squares >= _SAFE_SQUARES[0]) & (squares <= _SAFE_SQUARES[1])))
    if unsafe.size:  # zero, inf and NaN columns keep their norms
        peak = np.max(np.abs(block[:, unsafe]), axis=0)
        fine = (peak > 0) & (peak < np.inf)
        unsafe, peak = unsafe[fine], peak[fine]
        scaled = block[:, unsafe] / peak
        norms[unsafe] = peak * np.sqrt(np.einsum("ij,ij->j", scaled, scaled))
    return norms


def ortho_defect(gram: np.ndarray) -> float:
    return float(np.abs(gram - np.eye(gram.shape[0])).max())


def _svqb_attribution(gram_vectors: np.ndarray, dropped: np.ndarray) -> list[int]:
    """Attribute dropped Gram eigendirections to input columns.

    Column k's projection onto the discarded eigenspace is
    sum_j Q[k, j]^2 over dropped j; the columns with the largest projection
    are reported as dropped, ties resolved toward the higher index.
    """
    m = gram_vectors.shape[0]
    n_drop = int(dropped.sum())
    if n_drop == 0:
        return list(range(m))
    proj = np.sum(gram_vectors[:, dropped] ** 2, axis=1)
    # Quantize so exact duplicates tie despite rounding, then prefer
    # dropping the higher index.
    quantized = np.round(proj, 9)
    order = sorted(range(m), key=lambda k: (-quantized[k], -k))
    dropped_cols = set(order[:n_drop])
    return [k for k in range(m) if k not in dropped_cols]


def cholesky_transforms(grams: np.ndarray, cond_limit=np.inf):
    """The Cholesky rule over a symmetric Gram matrix, or a ``(k, m, m)``
    stack in one LAPACK call each for the factors and the inverses.

    Returns ``(transforms, ok)``: ``ok`` marks the matrices whose Cholesky
    LAPACK completes with every pivot above the floor of
    :func:`~lobpcg_kit.dense.cholesky` and a pivot ratio squared of at most
    ``cond_limit`` (a scalar or one per member).  Only their transforms,
    upper triangular ``inv(L)^T`` with ``T^T G T = I``, are meaningful.
    """
    lower, low = cholesky(grams)
    pivots = lower.diagonal(axis1=-2, axis2=-1)
    ok = ~(low.any(axis=-1) | (pivots.max(axis=-1) ** 2 > cond_limit * pivots.min(axis=-1) ** 2))
    return _t(np.linalg.solve(lower, np.eye(grams.shape[-1]))), ok


def gram_transform(gram: np.ndarray):
    """Cholesky-else-SVQB transform of a symmetric Gram matrix G.

    Returns ``(transform, kept)`` with ``transform^T G transform = I`` over
    the numerically independent directions; ``kept`` lists the Gram
    columns judged independent.  Raises ZeroRankError when none are.  SVQB
    runs where :func:`cholesky_transforms` rejects G.  An SVQB eigenvalue
    below -m * RANK_DROP_RTOL * lambda_max, the mirror of the rank rule,
    raises NotPositiveDefiniteError: a B-Gram matrix that indefinite comes
    from an indefinite metric, which dropping the direction would hide.
    """
    m = gram.shape[0]
    transform, ok = cholesky_transforms(gram)
    if ok:
        return transform, list(range(m))
    eig = sym_eig(gram)
    lam_max = float(eig.values[-1])
    floor = m * RANK_DROP_RTOL * max(lam_max, 0.0)
    if eig.values[0] < -floor:
        raise NotPositiveDefiniteError(
            f"Gram eigenvalue {eig.values[0]:.3e} against a largest of {lam_max:.3e}: "
            "the metric is indefinite")
    keep_mask = eig.values > floor
    if lam_max <= 0.0 or not np.any(keep_mask):
        raise ZeroRankError("all columns are numerically dependent")
    transform = eig.vectors[:, keep_mask] / np.sqrt(eig.values[keep_mask])[None, :]
    return transform, _svqb_attribution(eig.vectors, ~keep_mask)


def _unit_diagonal(gram_b: np.ndarray):
    """``(G, scale)``: a B-Gram matrix, or every matrix of a stack, with
    its columns scaled to unit B-norm (a zero column kept), and the column
    scale to divide a transform of G by to get one of the input."""
    scale = np.sqrt(np.diagonal(gram_b, axis1=-2, axis2=-1))
    scale = np.where(scale > 0, scale, 1.0)
    return gram_b / (scale[..., :, None] * scale[..., None, :]), scale[..., :, None]


def gram_basis(gram_b: np.ndarray) -> np.ndarray:
    """Transform T with T^T G T = I over the independent directions of a
    basis whose B-Gram matrix is G, found by :func:`gram_transform` after
    scaling the columns to unit B-norm."""
    gram, scale = _unit_diagonal(gram_b)
    return gram_transform(gram)[0] / scale


def _finite_gram(gram: np.ndarray) -> np.ndarray:
    """The Gram matrix itself; OrthonormalizationError when it is not finite."""
    if not np.all(np.isfinite(gram)):
        raise OrthonormalizationError("B-Gram matrix is not finite")
    return gram


def b_apply(b_op: LinearOperator | None, block: np.ndarray) -> np.ndarray:
    """``B @ block``, or ``block`` itself for the identity metric (``None``)."""
    return block if b_op is None else op_apply(b_op, block)


def b_orthonormalize_full(block: np.ndarray, b_op: LinearOperator | None,
                          counters: OpCounters | None = None):
    """B-orthonormalize and also return the column transform and product.

    Returns ``(out, kept, transform, b_out)`` with ``out = block @ transform``,
    ``out^T B out = I`` within :data:`ORTHO_POST_TOL` and ``b_out = B @ out``,
    mapped from one apply of B to the input and post-checked (as in scipy).
    Dependent content is dropped; ``kept`` lists the input columns kept.
    Raises ZeroRankError when nothing survives and OrthonormalizationError
    when a B-Gram matrix is not finite or the post-check fails even after a
    retry.  With ``b_op=None`` (identity) B is not applied: ``b_out is out``.
    """
    out, scale = unit_columns(block)
    b_out = b_apply(b_op, out)
    # the first pass's Gram matrix in the layout the caller's block has
    first = gram_transform(sym(_finite_gram(out.T @ b_out)))
    pair = out[None] if b_op is None else stack_of(out, b_out)
    del b_out
    stack, kept, transform = orthonormal_passes(pair, counters, np.diag(1.0 / scale), first)
    out = stack[1].copy(order="F")  # so that the unformed A member is freed
    return out, kept, transform, out if b_op is None else stack[2].copy(order="F")


def unit_columns(block: np.ndarray):
    """``(block / scale, scale)`` for the columns' 2-norms ``scale`` (1 for
    a zero column): the input of :func:`orthonormal_passes`."""
    out = _as_block(block)
    scale = column_norms(out)
    scale = np.where(scale > 0, scale, 1.0)
    return out / scale[None, :], scale


def orthonormal_passes(pair: np.ndarray, counters: OpCounters | None = None,
                       transform: np.ndarray | None = None, first=None):
    """:func:`b_orthonormalize_full` from the stack ``pair`` of its scaled
    input V and ``B V``, ``(V,)`` without a metric, whose column transform
    so far is ``transform`` (None: not tracked).  ``first`` is the first
    pass's :func:`gram_transform` when formed already.  Every pass maps V
    and B V as one pair, into the last members of a new ``(A V, V, B V)``
    stack (``(A V, V)`` without a metric) whose A V member it leaves
    unformed, for the caller to fill: returns ``(stack, kept, transform)``.
    """
    kept = list(range(pair.shape[-1]))
    for _ in range(2):
        pass_transform, pass_kept = first or gram_transform(
            sym(_finite_gram(pair[0].T @ pair[-1])))
        first = None
        stack = empty_stack(len(pair) + 1, pair.shape[1], pass_transform.shape[1])
        np.matmul(pass_transform.T, _t(pair), out=_t(stack[1:]))
        pair = stack[1:]
        if counters is not None:
            counters.orthonormalizations += 1
        kept = [kept[i] for i in pass_kept]
        if transform is not None:
            transform = transform @ pass_transform
        defect = ortho_defect(_finite_gram(pair[0].T @ pair[-1]))
        if defect <= ORTHO_POST_TOL:
            return stack, kept, transform
    raise OrthonormalizationError(f"orthonormality defect {defect:.3e} persists after retry")


def b_orthonormalize_spans(out: np.ndarray, spans: list, b_op: LinearOperator | None,
                           counters: OpCounters | None = None):
    """:func:`orthonormal_passes` over the column spans that tile a
    column-major block of :func:`unit_columns`, from one apply of B to all
    of it.  Returns ``(ws, kept)``: the survivors' W side by side in one
    stack whose A W member is unformed (None when none survive), and each
    span's surviving width, 0 where nothing survives or the post-check
    fails.  Spans of one width that all pass after one pass from stacked
    Cholesky factors are mapped by one matmul (:func:`_stacked_pass`);
    otherwise each span takes its own passes.
    """
    pair = out[None] if b_op is None else stack_of(out, op_apply(b_op, out))
    del out
    widths = {span.stop - span.start for span in spans}
    one_width = len(spans) > 1 and len(widths) == 1
    ws = _stacked_pass(pair, widths.pop(), counters) if one_width else None
    if ws is not None:
        return ws, [span.stop - span.start for span in spans]
    stacks = [_span_passes(pair[..., span], counters) for span in spans]
    del pair  # before the survivors are joined
    kept = [0 if stack is None else stack.shape[-1] for stack in stacks]
    stacks = [stack for stack in stacks if stack is not None]
    if len(stacks) < 2:
        return (stacks[0] if stacks else None), kept
    ws, lo = empty_stack(len(stacks[0]), stacks[0].shape[1], sum(kept)), 0
    for stack in stacks:
        ws[1:, :, lo:lo + stack.shape[-1]] = stack[1:]
        lo += stack.shape[-1]
    return ws, kept


def _span_passes(view: np.ndarray, counters: OpCounters | None):
    """One span's :func:`orthonormal_passes` stack from its ``view`` of the
    pair; None where nothing survives or the post-check fails."""
    try:
        return orthonormal_passes(view, counters)[0]
    except (ZeroRankError, OrthonormalizationError):
        return None


def _stacked_pass(pair: np.ndarray, width: int, counters: OpCounters | None):
    """:func:`b_orthonormalize_spans`' W stack for spans all ``width``
    wide, by one stacked pass from the stacked Cholesky factors, each
    member through the GEMMs a span's own pass makes; None when a span
    leaves that path or fails its post-check, for the spans' own passes."""
    subs = sub_block_stack(pair, width)
    grams = _t(subs[0]) @ subs[-1]
    if not np.isfinite(grams).all():
        return None
    transforms, ok = cholesky_transforms(sym(grams))
    if not ok.all():
        return None
    ws = empty_stack(len(pair) + 1, pair.shape[1], pair.shape[-1])
    np.matmul(_t(transforms), _t(subs), out=_t(sub_block_stack(ws[1:], width)))
    mapped = sub_block_stack(ws, width)
    post = _t(mapped[1]) @ mapped[-1]
    if not (np.abs(post - np.eye(width)).max(axis=(1, 2)) <= ORTHO_POST_TOL).all():
        return None  # NaN included
    if counters is not None:
        counters.orthonormalizations += len(grams)
    return ws


def sub_block_stack(block: np.ndarray, width: int) -> np.ndarray:
    """A column-major block's consecutive width-``width`` sub-blocks as a
    ``(k, n, width)`` stack of views; for a stack of ``r`` such blocks, an
    ``(r, k, n, width)`` stack."""
    return _t(_t(block).reshape(block.shape[:-2] + (-1, width, block.shape[-2])))


def _checked_orthonormalize(block, b_op, counters=None):
    """:func:`b_orthonormalize_full` re-checked on B applied afresh."""
    out, kept, transform, _ = b_orthonormalize_full(block, b_op, counters)
    b_out = b_apply(b_op, out)
    if (defect := ortho_defect(_finite_gram(out.T @ b_out))) > ORTHO_POST_TOL:
        raise OrthonormalizationError(f"orthonormality defect {defect:.3e} on applying B")
    return out, kept, transform, b_out


def b_orthonormalize(block: np.ndarray, b_op: LinearOperator):
    """B-orthonormalize a block, dropping dependent columns.

    Returns ``(out, kept)``: an n x r block with ``out^T B out = I`` within
    1e-8 and the indices of the input columns judged independent.
    """
    return _checked_orthonormalize(block, b_op)[:2]


def fix_signs(vectors: np.ndarray, *companions: np.ndarray) -> None:
    """Flip columns in place so the first entry above 1e-12 times the
    column's largest magnitude is positive; zero columns stay as they are.

    Companion matrices (e.g. coefficient columns) are flipped alongside; an
    array passed twice, such as a product that is the block itself, once.
    """
    # a contiguous row per column: the reductions run along rows
    magnitudes = np.array(vectors.T, order="C")
    np.abs(magnitudes, out=magnitudes)
    lead = np.argmax(magnitudes > 1e-12 * magnitudes.max(axis=1)[:, None], axis=1)
    flip = vectors[lead, np.arange(vectors.shape[1])] < 0
    if flip.any():
        sign = np.where(flip, -1.0, 1.0)
        for array in {id(array): array for array in (vectors, *companions)}.values():
            array *= sign


def combine_parts(parts, coeff: np.ndarray, plus: np.ndarray | None = None) -> np.ndarray:
    """The stack of ``S C`` and its products (plus the stack ``plus``) for a
    basis S held as part stacks, without joining them: one
    :func:`block_mul` maps every member of a part.  The last part's share
    is formed first, so that a last part held only by a list handed over
    (:func:`handed_over`) is freed before any other share is formed: P of
    a basis ``[X, W, P]``, the tail of the next P's ``[ritz, tail]``.  The
    shares are added in part order, each released once added.  The
    caller's list is left as it is."""
    *parts, last = parts  # frees a list handed over: from CPython 3.11 only the callee holds it
    edges = np.cumsum([0] + [part.shape[-1] for part in parts])
    last = block_mul(last, coeff[edges[-1]:])
    out = None
    for part, lo, hi in zip(parts, edges[:-1], edges[1:]):
        piece = block_mul(part, coeff[lo:hi])
        out = piece if out is None else np.add(out, piece, out=out)
        del piece
    out = last if out is None else np.add(out, last, out=out)
    if plus is not None:
        out += plus
    return out


def handed_over(parts: list, start: int = 0) -> list:
    """``parts[start:]`` in a new list, removed from ``parts``: for a callee
    that takes the parts over, so that one the caller holds nowhere else is
    held by the callee alone."""
    taken = parts[start:]
    del parts[start:]
    return taken


def part_grams(parts, ritz_values: np.ndarray | None = None):
    """Projected A- and B-Gram matrices of a basis held as part stacks,
    formed over the upper block triangle into one array, a block pair
    ``(U^T A V, (B U)^T V)`` as one matmul of ``(U, B U)`` by ``(A V, V)``.
    With ``ritz_values``, every part is taken to be B-orthonormal and the
    first to be the Ritz block of those values, so diag(ritz_values) and the
    diagonal B-blocks I are not formed.  Off-diagonal B-blocks use the
    earlier part's B-product: the carried B P of the last part, whose drift
    compounds, never enters.
    """
    edges = np.cumsum([0] + [part.shape[-1] for part in parts])
    grams = np.zeros((2, edges[-1], edges[-1]))  # A, then B
    diagonal = np.arange(edges[-1])
    grams[1][diagonal, diagonal] = 1.0
    for i, u in enumerate(parts):
        for j in range(i, len(parts)):
            v = parts[j]
            rows, cols = slice(edges[i], edges[i + 1]), slice(edges[j], edges[j + 1])
            if i == j and ritz_values is not None:
                if i == 0:
                    grams[0][diagonal[rows], diagonal[rows]] = ritz_values
                else:
                    grams[0][rows, cols] = u[1].T @ v[0]
                continue
            grams[:, rows, cols] = _t(u[1:]) @ v[:2]
            grams[:, cols, rows] = _t(grams[:, rows, cols])
    gram_a, gram_b = sym(grams)
    return gram_a, gram_b


def _ritz(transform: np.ndarray, gram_a: np.ndarray, want: int):
    """The smallest ``want`` Ritz values of ``gram_a`` over the basis
    transform of its pair, and their coefficients: for a matrix or a
    stack, in one ``eigh`` call."""
    eig = sym_eig(sym(_t(transform) @ gram_a @ transform))
    return eig.values[..., :want], transform @ eig.vectors[..., :want]


def ritz_coefficients(gram_a: np.ndarray, gram_b: np.ndarray, want: int):
    """The smallest ``want`` Ritz values of a Gram pair and their coefficients
    over the basis, through :func:`gram_basis`."""
    transform = gram_basis(gram_b)
    if want > transform.shape[1]:
        raise InsufficientRankError(
            f"basis rank {transform.shape[1]} is below the {want} requested pairs")
    values, coeff = _ritz(transform, gram_a, want)
    return values.copy(), coeff


def _stacked_gram_basis(gram_b: np.ndarray, cond_limit=np.inf):
    """:func:`gram_basis` over a ``(k, m, m)`` stack by
    :func:`cholesky_transforms`: ``(transforms, ok)``."""
    gram, scale = _unit_diagonal(gram_b)
    transform, ok = cholesky_transforms(gram, cond_limit)
    return transform / scale, ok


def stacked_first_trials(pairs: list, cond_limits: list, want: int,
                         directions: bool) -> list:
    """Every sub-block's first Rayleigh-Ritz trial on the Cholesky path.

    Per ``(gram_a, gram_b)`` pair of a basis ``[X, W]`` or ``[X, W, P]``
    whose X has ``want`` columns: its :func:`ritz_coefficients` (values and
    coefficients) and, if ``directions``, the ``combined`` coefficients of
    :func:`next_direction`, None where those leave the Cholesky path, with
    the pair's Cholesky held to its ``cond_limits`` entry.  The finite
    pairs of one size make one stack for each LAPACK call, a lone pair a
    stack of one.  None for a pair that is not finite, whose Cholesky fails
    the rule, or whose stack's ``eigh`` does not converge: that pair goes
    on to its next trial.
    """
    firsts = [None] * len(pairs)
    groups: dict = {}
    for i, (gram_a, gram_b) in enumerate(pairs):
        if np.isfinite(gram_a).all() and np.isfinite(gram_b).all():
            groups.setdefault(gram_a.shape, []).append(i)
    for group in groups.values():
        gram_a, gram_b = (np.stack([pairs[i][j] for i in group]) for j in (0, 1))
        transform, ok = _stacked_gram_basis(gram_b, np.array([cond_limits[i] for i in group]))
        if not ok.any():
            continue
        try:
            values, coeff = _ritz(transform[ok], gram_a[ok], want)
        except NoConvergenceError:
            continue
        combined = [None] * len(coeff)
        if directions:
            overlap, gram = _tail_gram(coeff, gram_b[ok], want)
            p_transform, p_ok = _stacked_gram_basis(gram)
            combined = np.concatenate([-overlap @ p_transform, p_transform], axis=1)
            combined = [each if kept else None for each, kept in zip(combined, p_ok)]
        for i, first in zip(np.array(group)[ok], zip(values, coeff, combined)):
            firsts[i] = first
    return firsts


def carried_rayleigh_ritz(parts, want: int, gram_a: np.ndarray | None = None,
                          gram_b: np.ndarray | None = None, first=None):
    """Smallest ``want`` Ritz pairs over the span of a basis from carried
    products.

    The basis is the column concatenation of ``parts``, a list of part
    stacks, with :func:`part_grams` ``gram_a``/``gram_b``; it is never
    joined.  Returns ``(values, ritz, coefficients, tail)``: ``ritz`` is
    the stack of the Ritz block ``basis @ coefficients`` and its products,
    summed as ``parts[0]``'s share plus ``tail``, the other parts' (None for
    one part); no operator is applied.  Once the coefficients are formed,
    the parts are handed over to :func:`combine_parts`, the tail's first,
    emptying ``parts``: a part that the caller holds nowhere else, such as
    the P of a state of one sub-block, is freed once its share is formed.
    The Ritz block's B-orthonormality
    is post-checked once, from the mapped product: a defect above
    :data:`ORTHO_POST_TOL`, or NaN, raises OrthonormalizationError, and the
    caller's fallback runs.  ``first`` holds the :func:`ritz_coefficients`
    when they were formed already, as :func:`stacked_first_trials` forms a
    first trial's.
    """
    if gram_a is None:
        gram_a, gram_b = part_grams(parts)
    values, coeff = first or ritz_coefficients(gram_a, gram_b, want)
    rows = parts[0].shape[-1]
    tail = combine_parts(handed_over(parts, 1), coeff[rows:]) if len(parts) > 1 else None
    ritz = combine_parts(handed_over(parts), coeff[:rows], tail)
    defect = ortho_defect(ritz[1].T @ ritz[-1])
    if not defect <= ORTHO_POST_TOL:
        raise OrthonormalizationError(
            f"Ritz block orthonormality defect {defect:.3e} fails the post-check")
    return values, ritz, coeff, tail


def b_normalized(direction: np.ndarray):
    """A part stack B-orthonormalized from its products until they pass
    the post-check, twice at most; None when that fails."""
    for _ in range(2):
        gram = direction[1].T @ direction[-1]
        if ortho_defect(gram) <= ORTHO_POST_TOL:
            return direction
        try:
            direction = combine_parts([direction], gram_basis(sym(gram)))
        except InsufficientRankError:
            return None
    return direction if ortho_defect(direction[1].T @ direction[-1]) <= ORTHO_POST_TOL else None


def _tail_gram(coeff: np.ndarray, gram_b: np.ndarray, rows: int):
    """``(M, G)``: ``coeff`` with its first ``rows`` rows zeroed is
    B-orthogonalized to ``coeff`` by M through ``gram_b``, and G is its
    B-Gram matrix; for a matrix or a stack."""
    tail_coeff = coeff.copy()
    tail_coeff[..., :rows, :] = 0.0
    overlap = _t(coeff) @ gram_b @ tail_coeff
    tail_coeff -= coeff @ overlap
    return overlap, sym(_t(tail_coeff) @ gram_b @ tail_coeff)


def next_direction(basis: list, coeff: np.ndarray, gram_b: np.ndarray, rows: int,
                   combined: np.ndarray | None = None):
    """The step's next P stack or None, from ``basis``, the list
    ``[ritz, tail]`` of the Ritz block's and the tail's stacks, which it
    empties: ``coeff``, ``rows`` zeroed, B-orthogonalized to ``coeff`` (by
    M) and normalized (by T) through ``gram_b``, is mapped as
    ``tail T - ritz (M T)`` and :func:`b_normalized`.  The tail's share is
    formed first, so a tail held nowhere else is freed before the Ritz
    block's share is formed.  ``combined`` is ``[-M T; T]`` when formed
    already.  Any error of this package on the way, such as carried
    directions dependent on the Ritz block, also gives None: the Ritz block
    is kept already, so the step ends without P rather than raise."""
    try:
        if combined is None:
            overlap, gram = _tail_gram(coeff, gram_b, rows)
            transform = gram_basis(gram)
            combined = np.vstack([-overlap @ transform, transform])
        return b_normalized(combine_parts(handed_over(basis), combined))
    except LobpcgKitError:
        return None


def rayleigh_ritz(basis: np.ndarray, a_op: LinearOperator, b_op: LinearOperator,
                  want: int, counters: OpCounters | None = None) -> RitzSet:
    """Smallest ``want`` Ritz pairs of (A, B) over the span of ``basis``.

    The basis is B-orthonormalized (callers are not trusted), A applied to
    the result, and :func:`carried_rayleigh_ritz` extracts the pairs.  Ritz
    vectors are B-normalized with their first significant component
    positive, making the output deterministic.
    """
    basis = _as_block(basis)
    if counters is not None:
        counters.rayleigh_ritz_calls += 1
    ortho, _, transform, b_ortho = _checked_orthonormalize(basis, b_op, counters)
    a_ortho = op_apply(a_op, ortho)
    part = stack_of(a_ortho, ortho) if b_op is None else stack_of(a_ortho, ortho, b_ortho)
    values, _, coeff, _ = carried_rayleigh_ritz([part], want)
    coeff = transform @ coeff
    vectors = basis @ coeff  # as a caller forms it: the product is exact
    fix_signs(vectors, coeff)
    return RitzSet(values=values, vectors=vectors, coefficients=coeff)


def b_project_out(block: np.ndarray, basis: np.ndarray, b_basis: np.ndarray) -> np.ndarray:
    """Remove the B-projection onto span(basis) from every column.

    ``b_basis`` is the precomputed ``B @ basis`` of a B-orthonormal
    basis.
    """
    return block - block_mul(basis, _t(b_basis) @ block)
