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
J. Comput. Phys. 218, 2006), and so does the one B-orthonormalization,
:func:`b_orthonormalize_full`, over the column spans of a stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

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
    columns a matrix-free A or B was applied to by the one Lanczos run that
    reads its spectrum while the solver is built: A's norm estimate, and
    B's probe of its definiteness, which gives its norm too.
    ``orthonormalizations`` counts one per span per call of
    :func:`b_orthonormalize_full`, whatever its passes.
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


def block_mul(block: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """``block @ coeff`` as a column-major block, or for every member of a
    stack of blocks (and of coefficients) in one broadcast matmul, as a
    stack."""
    return (coeff.mT @ block.mT).mT


def sym(gram: np.ndarray) -> np.ndarray:
    return 0.5 * (gram + gram.mT)


def empty_stack(roles: int, n: int, m: int) -> np.ndarray:
    """An uninitialized ``(roles, n, m)`` stack of column-major members."""
    return np.empty((roles, m, n)).mT


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
    safe = (squares >= _SAFE_SQUARES[0]) & (squares <= _SAFE_SQUARES[1])
    if safe.all():
        return norms
    unsafe = np.flatnonzero(~safe)
    peak = np.max(np.abs(block[:, unsafe]), axis=0)
    fine = (peak > 0) & (peak < np.inf)  # zero, inf and NaN columns keep their norms
    unsafe, peak = unsafe[fine], peak[fine]
    scaled = block[:, unsafe] / peak
    norms[unsafe] = peak * np.sqrt(np.einsum("ij,ij->j", scaled, scaled))
    return norms


@lru_cache(maxsize=32)
def identity(m: int) -> np.ndarray:
    """The ``m``-by-``m`` identity, made once per size and read-only."""
    eye = np.eye(m)
    eye.flags.writeable = False
    return eye


def ortho_defect(gram: np.ndarray) -> float:
    return float(np.abs(gram - identity(gram.shape[0])).max())


def _svqb_attribution(gram_vectors: np.ndarray, kept: np.ndarray) -> list[int]:
    """The input columns for the ``kept`` Gram eigendirections: greedily,
    the column with the largest share of the kept eigenspace (its row of
    the eigenvectors), its row then projected off the others; ties go to
    the lower index, so that a duplicate of a kept column is dropped."""
    rows, chosen = gram_vectors[:, kept], []
    for _ in range(rows.shape[1]):
        # quantized so that exact duplicates tie despite rounding
        k = int(np.argmax(np.round(np.einsum("ij,ij->i", rows, rows), 9)))
        chosen.append(k)
        rows = rows - np.outer(rows @ rows[k], rows[k] / (rows[k] @ rows[k]))
    return sorted(chosen)


def cholesky_transforms(grams: np.ndarray, cond_limit: np.ndarray | None = None):
    """The Cholesky rule over a symmetric Gram matrix, or a ``(k, m, m)``
    stack in one LAPACK call each for the factors and the inverses.

    Returns ``(transforms, ok)``: ``ok`` marks the matrices whose Cholesky
    LAPACK completes with every pivot above the floor of
    :func:`~lobpcg_kit.dense.cholesky` and, given ``cond_limit`` (one per
    member), a pivot ratio squared of at most that.  Only their transforms,
    upper triangular ``inv(L)^T`` with ``T^T G T = I``, are meaningful.
    """
    lower, low = cholesky(grams)
    ok = ~low.any(axis=-1)
    if cond_limit is not None:
        pivots = lower.diagonal(axis1=-2, axis2=-1)
        ok &= ~(pivots.max(axis=-1) ** 2 > cond_limit * pivots.min(axis=-1) ** 2)
    return np.linalg.inv(lower).mT, ok


def gram_transform(gram: np.ndarray):
    """Cholesky-else-SVQB transform of a symmetric Gram matrix G.

    Returns ``(transform, kept)`` with ``transform^T G transform = I`` over
    the numerically independent directions; ``kept`` lists the Gram
    columns judged independent.  :func:`_svqb` runs where
    :func:`cholesky_transforms` rejects G.
    """
    transform, ok = cholesky_transforms(gram)
    return (transform, list(range(gram.shape[0]))) if ok else _svqb(gram)


def _svqb(gram: np.ndarray):
    """:func:`gram_transform` by SVQB (Stathopoulos & Wu, SISC 2002) over
    the eigenvalues above m * RANK_DROP_RTOL * lambda_max; ZeroRankError
    when none is.  One below minus that floor raises
    NotPositiveDefiniteError: such a B-Gram matrix comes from an indefinite
    metric, which dropping the direction would hide."""
    m = gram.shape[0]
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
    return transform, _svqb_attribution(eig.vectors, keep_mask)


def _unit_diagonal(gram_b: np.ndarray):
    """``(G, scale)``: a B-Gram matrix, or every matrix of a stack, with
    its columns scaled to unit B-norm (a zero column kept), and the column
    scale to divide a transform of G by to get one of the input."""
    scale = np.sqrt(gram_b.diagonal(axis1=-2, axis2=-1))
    scale = np.where(scale > 0, scale, 1.0)
    return gram_b / (scale[..., :, None] * scale[..., None, :]), scale[..., :, None]


def gram_basis(gram_b: np.ndarray) -> np.ndarray:
    """Transform T with T^T G T = I over the independent directions of a
    basis whose B-Gram matrix is G, found by :func:`gram_transform` after
    scaling the columns to unit B-norm."""
    gram, scale = _unit_diagonal(gram_b)
    return gram_transform(gram)[0] / scale


def _runs(spans, *layouts) -> list:
    """``spans``, in order, cut into runs of spans of one width that sit
    side by side in every layout (a dict ``span -> (lo, width)``)."""
    runs: list = []
    for k in spans:
        if runs and all(layout[k] == _next_to(layout[runs[-1][-1]]) for layout in layouts):
            runs[-1].append(k)
        else:
            runs.append([k])
    return runs


def _next_to(place: tuple) -> tuple:
    """The place ``(lo, width)`` of a span of one width right after
    ``place``."""
    lo, width = place
    return lo + width, width


def _run_view(stack: np.ndarray, lo: int, count: int, width: int) -> np.ndarray:
    """The transposed members of ``count`` spans of ``width`` columns side by
    side from column ``lo`` of a stack: a ``(roles, count, width, n)``
    view."""
    roles, n, _ = stack.shape
    return stack[..., lo:lo + count * width].mT.reshape(roles, count, width, n)


def b_orthonormalize_full(stack: np.ndarray, formed: bool, counters: OpCounters | None = None,
                          spans: list | None = None):
    """B-orthonormalize each column span of a stack apart, from its
    products, by CholeskyQR2 (Fukaya et al., ScalA 2014) with SVQB where
    the Cholesky rule rejects; no operator is applied.

    ``stack`` is ``(A V, V, B V)`` (``(A V, V)`` without a metric) if
    ``formed``, else ``(V, B V)`` (``(V,)``); ``spans`` tile its columns,
    one span by default.  A span whose V^T B V is within
    :data:`ORTHO_POST_TOL` of I is kept as it is; any other takes at most
    two passes, the next Gram matrix being the post-check.  A pass is
    :func:`cholesky_transforms`, one call per width, or :func:`_svqb`
    where that rejects.  Spans of one width side by side have their Gram
    matrices, maps and post-checks formed as one matmul each, over a
    strided view; each span still goes through the GEMM it would alone.

    Returns ``(out, outcomes)``: the surviving spans side by side in one
    stack ``(A V, V, B V)`` (``(A V, V)``), A V unformed unless ``formed``
    (``stack`` itself when every span passes as it is, None when none
    survives); and per span ``(kept, transform)``, the input columns kept
    and the map of its input onto its output (None: kept as it is), or the
    error that dropped it: ZeroRankError when no direction is independent,
    OrthonormalizationError when a Gram matrix is not finite or the defect
    persists after the second pass.  NotPositiveDefiniteError is raised.
    ``counters.orthonormalizations`` counts one per span.
    """
    spans, (live, n, _) = spans or [slice(0, stack.shape[-1])], stack.shape
    roles = live + (not formed)  # the output's members, of which the last ``live`` are formed
    if counters is not None:
        counters.orthonormalizations += len(spans)
    layout = {k: (span.start, span.stop - span.start) for k, span in enumerate(spans)}
    outcomes = [(range(width), None) for _, width in layout.values()]
    out, pending = stack if formed else None, list(layout)
    for attempt in range(3):  # the check, then the post-check of each pass
        groups: dict = {}  # per width, the spans to pass and their Gram matrices
        failed = {}
        for run in _runs(pending, layout):
            lo, width = layout[run[0]]
            members = _run_view(stack, lo, len(run), width)
            grams = members[1 - roles] @ members[-1].mT
            passing = []  # the places in the run of the spans to pass
            for i, defect in enumerate(np.abs(grams - identity(width)).max(axis=(1, 2)).tolist()):
                if defect <= ORTHO_POST_TOL:
                    continue
                if attempt < 2 and defect < np.inf:
                    passing.append(i)
                else:
                    failed[run[i]] = OrthonormalizationError(
                        "B-Gram matrix is not finite" if not defect < np.inf
                        else f"orthonormality defect {defect:.3e} persists after retry")
            if passing:
                group, pieces = groups.setdefault(width, ([], []))
                group += [run[i] for i in passing]
                pieces.append(grams if len(passing) == len(run) else grams[passing])
        transforms = {}
        for group, pieces in groups.values():
            grams = sym(pieces[0] if len(pieces) == 1 else np.concatenate(pieces))
            for k, gram, cholesky, ok in zip(group, grams, *cholesky_transforms(grams)):
                try:
                    transform, kept = (cholesky, range(len(gram))) if ok else _svqb(gram)
                except ZeroRankError as error:
                    failed[k] = error
                    continue
                kept_so_far, so_far = outcomes[k]
                outcomes[k] = ([kept_so_far[i] for i in kept],
                               transform if so_far is None else so_far @ transform)
                transforms[k] = transform
        if transforms or failed or out is None:  # join the survivors anew
            outcomes = [failed.get(k, outcome) for k, outcome in enumerate(outcomes)]
            survivors = [k for k, outcome in enumerate(outcomes) if isinstance(outcome, tuple)]
            joined, hi = {}, 0
            for k in survivors:
                width = transforms[k].shape[1] if k in transforms else layout[k][1]
                joined[k], hi = (hi, width), hi + width
            out = empty_stack(roles, n, hi) if survivors else None
            for mapped in (True, False):
                for run in _runs([k for k in survivors if (k in transforms) == mapped],
                                 layout, joined):
                    (lo, width), (at, kept) = layout[run[0]], joined[run[0]]
                    source = _run_view(stack, lo, len(run), width)[-live:]
                    target = _run_view(out, at, len(run), kept)[-live:]
                    if mapped:
                        maps = [transforms[k] for k in run]
                        maps = maps[0][None] if len(maps) == 1 else np.stack(maps)
                        np.matmul(maps.mT, source, out=target)
                    else:
                        target[...] = source
            stack, layout = out, joined  # a stack handed over is freed here
        if not transforms:
            return out, outcomes
        pending = sorted(transforms)


def unit_pair(block: np.ndarray, b_op: LinearOperator | None):
    """``(pair, scale)``: the stack ``(V, B V)``, ``(V,)`` when ``b_op`` is
    None, of V, the columns of ``block`` divided by their 2-norms ``scale``
    (1 for a zero column), and of one apply of B to V.  The block is read
    only before B is applied, so that one handed over is freed first."""
    scale = column_norms(block)
    scale = np.where(scale > 0, scale, 1.0)
    pair = empty_stack(1 + (b_op is not None), *block.shape)
    np.divide(block, scale, out=pair[0])
    del block
    if b_op is not None:
        b_op.apply_into(pair[0], pair[1])
    return pair, scale


def b_orthonormal_stack(block: np.ndarray, b_op: LinearOperator | None,
                        counters: OpCounters | None = None, fresh: bool = False):
    """:func:`b_orthonormalize_full` of a block as one span, from one apply
    of B (none when ``b_op`` is None); raises the error that drops it.

    Returns ``(stack, kept, transform)``: the stack ``(A V, V, B V)``
    (``(A V, V)``) of ``V = block @ transform``, its A V member unformed,
    and the input columns kept.  If ``fresh``, B V is B applied afresh to
    V, on which V's B-orthonormality is checked again.
    """
    pair, scale = unit_pair(_as_block(block), b_op)
    stack, (outcome,) = b_orthonormalize_full(pair, False, counters)
    if isinstance(outcome, LobpcgKitError):
        raise outcome
    kept, transform = outcome
    if fresh and b_op is not None:
        b_op.apply_into(stack[1], stack[2])
    if fresh and not (defect := ortho_defect(stack[1].T @ stack[-1])) <= ORTHO_POST_TOL:
        raise OrthonormalizationError(f"orthonormality defect {defect:.3e} on applying B")
    transform = identity(len(kept)) if transform is None else transform
    return stack, list(kept), transform / scale[:, None]


def b_orthonormalize(block: np.ndarray, b_op: LinearOperator):
    """B-orthonormalize a block, dropping dependent columns.

    Returns ``(out, kept)``: an n x r block with ``out^T B out = I`` within
    1e-8 and the indices of the input columns judged independent.
    """
    stack, kept, _ = b_orthonormal_stack(block, b_op, fresh=True)
    return stack[1].copy(order="F"), kept


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
    edges = [0, *accumulate(part.shape[-1] for part in parts)]
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
    """Projected A- and B-Gram matrices of a basis held as part stacks, as
    one ``(2, m, m)`` array, formed over the upper block triangle, a block
    pair ``(U^T A V, (B U)^T V)`` as one matmul of ``(U, B U)`` by
    ``(A V, V)``.
    With ``ritz_values``, every part is taken to be B-orthonormal and the
    first to be the Ritz block of those values, so diag(ritz_values) and the
    diagonal B-blocks I are not formed.  Off-diagonal B-blocks use the
    earlier part's B-product: the carried B P of the last part, whose drift
    compounds, never enters.
    """
    edges = [0, *accumulate(part.shape[-1] for part in parts)]
    size = edges[-1]
    grams = np.zeros((2, size, size))  # A, then B
    grams[1].reshape(-1)[::size + 1] = 1.0  # the diagonal, through a flat view
    for i, u in enumerate(parts):
        for j in range(i, len(parts)):
            v = parts[j]
            rows, cols = slice(edges[i], edges[i + 1]), slice(edges[j], edges[j + 1])
            if i == j and ritz_values is not None:
                if i == 0:
                    grams[0].reshape(-1)[:edges[1] * (size + 1):size + 1] = ritz_values
                else:
                    grams[0][rows, cols] = u[1].T @ v[0]
                continue
            grams[:, rows, cols] = u[1:].mT @ v[:2]
            grams[:, cols, rows] = grams[:, rows, cols].mT
    return sym(grams)


def _ritz(transform: np.ndarray, gram_a: np.ndarray, want: int):
    """The smallest ``want`` Ritz values of ``gram_a`` over the basis
    transform of its pair, and their coefficients: for a matrix or a
    stack, in one ``eigh`` call."""
    eig = sym_eig(sym(transform.mT @ gram_a @ transform))
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


def _stacked_gram_basis(gram_b: np.ndarray, cond_limit: np.ndarray | None = None):
    """:func:`gram_basis` over a ``(k, m, m)`` stack by
    :func:`cholesky_transforms`: ``(transforms, ok)``."""
    gram, scale = _unit_diagonal(gram_b)
    transform, ok = cholesky_transforms(gram, cond_limit)
    return transform / scale, ok


def stacked_first_trials(pairs: list, cond_limits: list, want: int,
                         directions: bool) -> list:
    """Every sub-block's first Rayleigh-Ritz trial on the Cholesky path.

    Per finite :func:`part_grams` pair ``[gram_a, gram_b]`` of a basis
    ``[X, W]`` or ``[X, W, P]`` whose X has ``want`` columns: its
    :func:`ritz_coefficients` (values and coefficients) and, if
    ``directions``, the ``combined`` coefficients of :func:`next_direction`,
    None where those leave the Cholesky path, with the pair's Cholesky held
    to its ``cond_limits`` entry.  The pairs of one size make one stack for
    each LAPACK call, a lone pair a stack of one.  None for a pair whose
    Cholesky fails the rule, or whose stack's ``eigh`` does not converge:
    that pair goes on to its next trial.
    """
    firsts = [None] * len(pairs)
    groups: dict = {}
    for i, pair in enumerate(pairs):
        groups.setdefault(pair.shape, []).append(i)
    for group in groups.values():
        grams = np.stack([pairs[i] for i in group])
        gram_a, gram_b = grams[:, 0], grams[:, 1]
        transform, ok = _stacked_gram_basis(gram_b, np.array([cond_limits[i] for i in group]))
        if not ok.all():  # only the members that pass go on
            group = [i for i, passes in zip(group, ok.tolist()) if passes]
            transform, gram_a, gram_b = transform[ok], gram_a[ok], gram_b[ok]
        if not group:
            continue
        try:
            values, coeff = _ritz(transform, gram_a, want)
        except NoConvergenceError:
            continue
        combined = [None] * len(group)
        if directions:
            overlap, gram = _tail_gram(coeff, gram_b, want)
            p_transform, p_ok = _stacked_gram_basis(gram)
            combined = np.concatenate([-overlap @ p_transform, p_transform], axis=1)
            combined = [each if kept else None for each, kept in zip(combined, p_ok.tolist())]
        for i, first in zip(group, zip(values, coeff, combined)):
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


def _tail_gram(coeff: np.ndarray, gram_b: np.ndarray, rows: int):
    """``(M, G)``: ``coeff`` with its first ``rows`` rows zeroed is
    B-orthogonalized to ``coeff`` by M through ``gram_b``, and G is its
    B-Gram matrix; for a matrix or a stack."""
    tail_coeff = coeff.copy()
    tail_coeff[..., :rows, :] = 0.0
    overlap = coeff.mT @ gram_b @ tail_coeff
    tail_coeff -= coeff @ overlap
    return overlap, sym(tail_coeff.mT @ gram_b @ tail_coeff)


def next_direction(basis: list, coeff: np.ndarray, gram_b: np.ndarray, rows: int,
                   combined: np.ndarray | None = None, counters: OpCounters | None = None):
    """The step's next P stack or None, from ``basis``, the list
    ``[ritz, tail]`` of the Ritz block's and the tail's stacks, which it
    empties: ``coeff``, ``rows`` zeroed, B-orthogonalized to ``coeff`` (by
    M) and normalized (by T) through ``gram_b``, is mapped as
    ``tail T - ritz (M T)`` and :func:`b_orthonormalize_full` (with
    ``counters``).  The tail's share is
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
        return b_orthonormalize_full(combine_parts(handed_over(basis), combined), True,
                                     counters)[0]
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
    part, _, transform = b_orthonormal_stack(basis, b_op, counters, fresh=True)
    a_op.apply_into(part[1], part[0])
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
    return block - block_mul(basis, b_basis.T @ block)
