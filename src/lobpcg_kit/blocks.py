"""Block-vector algebra in the B-inner product.

Rayleigh quotients, residual blocks, B-orthonormalization with rank
handling, and the Rayleigh-Ritz projection.  A block vector is a float64
``(n, m)`` array of column vectors, held column-major (as in BLOPEX) so
that broadcasts and column reductions run along n; :func:`block_mul` forms
the solvers' ``V @ C`` so.  The metric B is any SPD
:class:`~lobpcg_kit.operators.LinearOperator`.  The solvers hold a basis
as ``(V, A V, B V)`` parts, and the one Rayleigh-Ritz here works on such
parts without applying an operator (Hetmaniuk & Lehoucq, "Basis selection
in LOBPCG", J. Comput. Phys. 218, 2006).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import cholesky_kernel as cholesky, cholesky_stack, sym_eig_kernel as sym_eig
from .errors import (
    DimensionMismatchError,
    InsufficientRankError,
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
    to; ``matvecs`` is their sum.
    """

    a_matvecs: int = 0
    b_matvecs: int = 0
    precond_applies: int = 0
    rayleigh_ritz_calls: int = 0
    orthonormalizations: int = 0

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
    """``block @ coeff`` as a column-major block."""
    return (coeff.T @ block.T).T


def _t(gram: np.ndarray) -> np.ndarray:
    """The transpose of a matrix, or of every matrix of a ``(k, m, m)`` stack."""
    return gram.swapaxes(-1, -2)


def sym(gram: np.ndarray) -> np.ndarray:
    return 0.5 * (gram + _t(gram))


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


def gram_transform(gram: np.ndarray, cond_limit: float = np.inf):
    """Cholesky-else-SVQB transform of a symmetric Gram matrix G.

    Returns ``(transform, kept)`` with ``transform^T G transform = I`` over
    the numerically independent directions; ``kept`` lists the Gram
    columns judged independent.  Raises ZeroRankError when none are.  Under
    a finite ``cond_limit`` a Cholesky that fails or has a pivot ratio
    squared above it raises NotPositiveDefiniteError, without SVQB.
    """
    m = gram.shape[0]
    try:
        lower = cholesky(gram)
        pivots = lower.diagonal()
        if pivots.max() ** 2 > cond_limit * pivots.min() ** 2:
            raise NotPositiveDefiniteError("Cholesky pivot ratio exceeds the condition limit")
        transform = np.linalg.solve(lower, np.eye(m)).T  # inv(L).T, upper triangular
        kept = list(range(m))
    except NotPositiveDefiniteError:
        if cond_limit < np.inf:
            raise
        eig = sym_eig(gram)
        lam_max = float(eig.values[-1])
        keep_mask = eig.values > m * RANK_DROP_RTOL * max(lam_max, 0.0)
        if lam_max <= 0.0 or not np.any(keep_mask):
            raise ZeroRankError("all columns are numerically dependent") from None
        transform = eig.vectors[:, keep_mask] / np.sqrt(eig.values[keep_mask])[None, :]
        kept = _svqb_attribution(eig.vectors, ~keep_mask)
    return transform, kept


def gram_basis(gram_b: np.ndarray, cond_limit: float = np.inf) -> np.ndarray:
    """Transform T with T^T G T = I over the independent directions of a
    basis whose B-Gram matrix is G, found by :func:`gram_transform` after
    scaling the columns to unit B-norm."""
    scale = np.sqrt(gram_b.diagonal())
    scale = np.where(scale > 0, scale, 1.0)
    transform, _ = gram_transform(gram_b / np.outer(scale, scale), cond_limit)
    return transform / scale[:, None]


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
    return orthonormal_passes(out, b_apply(b_op, out), counters, np.diag(1.0 / scale))


def unit_columns(block: np.ndarray):
    """``(block / scale, scale)`` for the columns' 2-norms ``scale`` (1 for
    a zero column): the input of :func:`orthonormal_passes`."""
    out = _as_block(block)
    scale = column_norms(out)
    scale = np.where(scale > 0, scale, 1.0)
    return out / scale[None, :], scale


def orthonormal_passes(out: np.ndarray, b_out: np.ndarray, counters: OpCounters | None = None,
                       transform: np.ndarray | None = None, first=None):
    """:func:`b_orthonormalize_full` from its scaled input ``out`` and
    ``b_out = B @ out`` (``out`` itself for the identity metric), whose
    column transform so far is ``transform`` (None: not tracked).
    ``first`` is the first pass's :func:`gram_transform` when formed already.
    """
    identity, kept = b_out is out, list(range(out.shape[1]))
    for _ in range(2):
        pass_transform, pass_kept = first or gram_transform(sym(_finite_gram(out.T @ b_out)))
        first = None
        out = block_mul(out, pass_transform)
        b_out = out if identity else block_mul(b_out, pass_transform)
        if counters is not None:
            counters.orthonormalizations += 1
        kept = [kept[i] for i in pass_kept]
        if transform is not None:
            transform = transform @ pass_transform
        defect = ortho_defect(_finite_gram(out.T @ b_out))
        if defect <= ORTHO_POST_TOL:
            return out, kept, transform, b_out
    raise OrthonormalizationError(f"orthonormality defect {defect:.3e} persists after retry")


def b_orthonormalize_spans(out: np.ndarray, spans: list, b_op: LinearOperator | None,
                           counters: OpCounters | None = None) -> list:
    """:func:`orthonormal_passes` over column spans of a column-major block
    of :func:`unit_columns`, from one apply of B to all of it, with the first
    passes' Cholesky factors and inverses stacked over the spans of one
    width: ``(W, B W)`` per span, None where nothing survives or the
    post-check fails."""
    b_out = b_apply(b_op, out)
    views = [out[:, span] for span in spans]  # one each, so that B W stays W without B
    pairs = list(zip(views, views if b_out is out else [b_out[:, span] for span in spans]))
    del out, b_out
    grams = [v.T @ b_v for v, b_v in pairs]
    firsts = [None] * len(pairs)
    for group in _groups([gram.shape if np.isfinite(gram).all() else None for gram in grams]):
        transforms, ok = stacked_cholesky_transforms(sym(np.stack([grams[i] for i in group])))
        for j in np.flatnonzero(ok):
            firsts[group[j]] = (transforms[j], list(range(transforms.shape[-1])))
    results = []
    for (v, b_v), gram, first in zip(pairs, grams, firsts):
        try:
            first = first or gram_transform(sym(_finite_gram(gram)))
            v, _, _, b_v = orthonormal_passes(v, b_v, counters, first=first)
        except (ZeroRankError, OrthonormalizationError):
            v = None
        results.append(None if v is None else (v, b_v))
    return results


def sub_block_stack(block: np.ndarray, width: int, cols: int | None = None) -> np.ndarray:
    """A column-major block's consecutive width-``width`` sub-blocks (their
    first ``cols`` columns) as a ``(k, n, cols)`` stack of views."""
    stack = block.T.reshape(-1, width, block.shape[0])
    return _t(stack if cols is None else stack[:, :cols])


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


def combine_parts(parts, coeff: np.ndarray, plus=None):
    """``(S C, A S C, B S C)`` (plus the triple ``plus``) for a basis S held
    as ``(V, A V, B V)`` parts, without stacking them; B S C is S C itself
    when every part's B-product is the part."""
    aliased = all(b_v is v for v, _, b_v in parts)
    out, row = None, 0
    for part in parts:
        rows = coeff[row:row + part[0].shape[1]]
        row += rows.shape[0]
        pieces = [block_mul(block, rows) for block in part[:2 if aliased else 3]]
        if out is None:
            out = pieces
        else:
            for total, piece in zip(out, pieces):
                total += piece
    for total, piece in zip(out, plus or ()):
        total += piece
    return out[0], out[1], out[0] if aliased else out[2]


def part_grams(parts, ritz_values: np.ndarray | None = None):
    """Projected A- and B-Gram matrices of a basis held as ``(V, A V, B V)``
    parts, formed over the upper block triangle.  With ``ritz_values``, every
    part is taken to be B-orthonormal and the first to be the Ritz block of
    those values, so diag(ritz_values) and the diagonal B-blocks I are not
    formed.  Off-diagonal B-blocks use the earlier part's B-product: the
    carried B P of the last part, whose drift compounds, never enters.
    Parts may be ``(k, n, m)`` stacks of k bases alike, with ``(k, m)``
    values; the Gram matrices are then ``(k, m, m)`` stacks.
    """
    edges = np.cumsum([0] + [v.shape[-1] for v, _, _ in parts])
    shape = parts[0][0].shape[:-2] + (edges[-1], edges[-1])
    gram_a, gram_b = np.zeros(shape), np.zeros(shape)
    diagonal = np.arange(edges[-1])
    gram_b[..., diagonal, diagonal] = 1.0
    for i, (u, _, b_u) in enumerate(parts):
        for j in range(i, len(parts)):
            v, a_v, b_v = parts[j]
            rows, cols = slice(edges[i], edges[i + 1]), slice(edges[j], edges[j + 1])
            if i == j and ritz_values is not None:
                if i == 0:
                    gram_a[..., diagonal[rows], diagonal[rows]] = ritz_values
                else:
                    gram_a[..., rows, cols] = _t(u) @ a_v
                continue
            gram_a[..., rows, cols], gram_b[..., rows, cols] = _t(u) @ a_v, _t(b_u) @ v
            gram_a[..., cols, rows] = _t(gram_a[..., rows, cols])
            gram_b[..., cols, rows] = _t(gram_b[..., rows, cols])
    return sym(gram_a), sym(gram_b)


def ritz_coefficients(gram_a: np.ndarray, gram_b: np.ndarray, want: int,
                      cond_limit: float = np.inf):
    """The smallest ``want`` Ritz values of a Gram pair and their coefficients
    over the basis, through :func:`gram_basis` (``cond_limit`` is its)."""
    transform = gram_basis(gram_b, cond_limit)
    if want > transform.shape[1]:
        raise InsufficientRankError(
            f"basis rank {transform.shape[1]} is below the {want} requested pairs")
    eig = sym_eig(sym(transform.T @ gram_a @ transform))
    return eig.values[:want].copy(), transform @ eig.vectors[:, :want]


def stacked_cholesky_transforms(grams: np.ndarray, cond_limit=np.inf):
    """:func:`gram_transform`'s Cholesky path over a ``(k, m, m)`` stack, in
    one LAPACK call each for the factors and the inverses.

    Returns ``(transforms, ok)``, where ``ok`` marks the members that pass
    the pivot floor of :func:`~lobpcg_kit.dense.cholesky_kernel` and their
    ``cond_limit`` (a scalar or one per member): only their transforms are
    :func:`gram_transform`'s.  ``(None, all False)`` when a member is not
    positive definite.
    """
    try:
        lower, low = cholesky_stack(grams)
    except NotPositiveDefiniteError:
        return None, np.zeros(grams.shape[0], dtype=bool)
    pivots = lower.diagonal(axis1=1, axis2=2)
    ok = ~(low.any(axis=1) | (pivots.max(axis=1) ** 2 > cond_limit * pivots.min(axis=1) ** 2))
    return _t(np.linalg.solve(lower, np.eye(grams.shape[-1]))), ok


def stacked_gram_basis(gram_b: np.ndarray, cond_limit=np.inf):
    """:func:`gram_basis` over a ``(k, m, m)`` stack by
    :func:`stacked_cholesky_transforms`: ``(transforms, ok)``."""
    scale = np.sqrt(np.diagonal(gram_b, axis1=1, axis2=2))
    scale = np.where(scale > 0, scale, 1.0)
    transform, ok = stacked_cholesky_transforms(
        gram_b / (scale[:, :, None] * scale[:, None, :]), cond_limit)
    return (None if transform is None else transform / scale[:, :, None]), ok


def stacked_ritz_coefficients(gram_a: np.ndarray, gram_b: np.ndarray, want: int,
                              cond_limit=np.inf):
    """:func:`ritz_coefficients` over ``(k, m, m)`` stacks of Gram pairs, in
    stacked LAPACK calls: ``(values, coefficients, ok)`` with ``ok`` marking
    the members that stay on the Cholesky path (see
    :func:`stacked_cholesky_transforms`), none when the stacked ``eigh``
    fails."""
    transform, ok = stacked_gram_basis(gram_b, cond_limit)
    if not ok.any():
        return None, None, ok
    try:
        values, vectors = np.linalg.eigh(sym(_t(transform) @ gram_a @ transform))
    except np.linalg.LinAlgError:
        return None, None, np.zeros_like(ok)
    return values[:, :want], transform @ vectors[:, :, :want], ok


def _groups(keys: list) -> list:
    """The indices of the items of every key (None excepted) that two or
    more items share: the members of one stacked LAPACK call."""
    groups: dict = {}
    for i, key in enumerate(keys):
        if key is not None:
            groups.setdefault(key, []).append(i)
    return [group for group in groups.values() if len(group) > 1]


def stacked_first_trials(pairs: list, cond_limits: list, want: int) -> list:
    """Per ``(gram_a, gram_b)`` pair, its :func:`ritz_coefficients` and
    :func:`direction_coefficients` (or None) under its cond limit, as
    stacked LAPACK calls over the finite pairs of one size; None for a pair
    left to the one-block path."""
    firsts = [None] * len(pairs)
    for group in _groups([gram_a.shape if np.isfinite(gram_a).all() and np.isfinite(gram_b).all()
                          else None for gram_a, gram_b in pairs]):
        gram_a, gram_b = (np.stack([pairs[i][j] for i in group]) for j in (0, 1))
        values, coeff, ok = stacked_ritz_coefficients(
            gram_a, gram_b, want, np.array([cond_limits[i] for i in group]))
        if ok.any():
            combined = stacked_direction_coefficients(coeff[ok], gram_b[ok], want)
            for j, p_coeff in zip(np.flatnonzero(ok), combined):
                firsts[group[j]] = (values[j], coeff[j], p_coeff)
    return firsts


def carried_rayleigh_ritz(parts, want: int, gram_a: np.ndarray | None = None,
                          gram_b: np.ndarray | None = None, cond_limit: float = np.inf,
                          first=None):
    """Smallest ``want`` Ritz pairs over the span of a basis from carried
    products.

    The basis is the column concatenation of ``parts``, a list of
    ``(V, A V, B V)`` triples, with :func:`part_grams` ``gram_a``/``gram_b``;
    it is never stacked.  Returns ``(values, vectors, a_vectors, b_vectors,
    coefficients, tail)`` with ``vectors = basis @ coefficients``, products
    alike, summed as ``parts[0]``'s share plus ``tail``, the other parts'
    (None for one part); no operator is applied.  The Ritz block's
    B-orthonormality is post-checked from the mapped product; when it
    exceeds :data:`ORTHO_POST_TOL` one more pass, which leaves ``tail``
    None, is made over the Ritz block, and OrthonormalizationError raised
    when that does not mend it.  ``cond_limit`` is :func:`gram_transform`'s,
    on the first pass, whose :func:`ritz_coefficients` are ``first`` when
    they were formed already.
    """
    if gram_a is None:
        gram_a, gram_b = part_grams(parts)
    coeff = None
    for _ in range(2):
        values, step_coeff = first or ritz_coefficients(gram_a, gram_b, want, cond_limit)
        first = None
        rows = parts[0][0].shape[1]
        tail = combine_parts(parts[1:], step_coeff[rows:]) if len(parts) > 1 else None
        x, a_x, b_x = combine_parts(parts[:1], step_coeff[:rows], tail)
        coeff = step_coeff if coeff is None else coeff @ step_coeff
        gram_b = x.T @ b_x
        defect = ortho_defect(gram_b)
        if defect <= ORTHO_POST_TOL:
            return values, x, a_x, b_x, coeff, tail
        parts, cond_limit = [(x, a_x, b_x)], np.inf
        gram_a, gram_b = sym(x.T @ a_x), sym(gram_b)
    raise OrthonormalizationError(
        f"Ritz block orthonormality defect {defect:.3e} persists after retry")


def b_normalized(direction):
    """``(V, A V, B V)``, B-orthonormalized from its products until they
    pass the post-check, twice at most; None when that fails."""
    for _ in range(2):
        gram = direction[0].T @ direction[2]
        if ortho_defect(gram) <= ORTHO_POST_TOL:
            return direction
        try:
            direction = combine_parts([direction], gram_basis(sym(gram)))
        except InsufficientRankError:
            return None
    return direction if ortho_defect(direction[0].T @ direction[2]) <= ORTHO_POST_TOL else None


def _tail_gram(coeff: np.ndarray, gram_b: np.ndarray, rows: int):
    """``(M, G)``: ``coeff`` with its first ``rows`` rows zeroed is
    B-orthogonalized to ``coeff`` by M through ``gram_b``, and G is its
    B-Gram matrix; for a matrix or a stack."""
    tail_coeff = coeff.copy()
    tail_coeff[..., :rows, :] = 0.0
    overlap = _t(coeff) @ gram_b @ tail_coeff
    tail_coeff -= coeff @ overlap
    return overlap, sym(_t(tail_coeff) @ gram_b @ tail_coeff)


def direction_coefficients(coeff: np.ndarray, gram_b: np.ndarray, rows: int):
    """:func:`next_direction`'s coefficients over ``[tail, ritz]``, or None
    when the carried directions are dependent on the Ritz block."""
    overlap, gram = _tail_gram(coeff, gram_b, rows)
    try:
        transform = gram_basis(gram)
    except InsufficientRankError:
        return None
    return np.vstack([transform, -overlap @ transform])


def stacked_direction_coefficients(coeff: np.ndarray, gram_b: np.ndarray, rows: int) -> list:
    """:func:`direction_coefficients` over ``(k, m, w)`` and ``(k, m, m)``
    stacks by :func:`stacked_gram_basis`; None for a member that leaves its
    Cholesky path."""
    overlap, gram = _tail_gram(coeff, gram_b, rows)
    transform, ok = stacked_gram_basis(gram)
    if transform is None:
        return [None] * len(ok)
    combined = np.concatenate([transform, -overlap @ transform], axis=1)
    return [combined[k] if ok[k] else None for k in range(len(ok))]


def next_direction(ritz, tail, coeff: np.ndarray, gram_b: np.ndarray, rows: int,
                   combined: np.ndarray | None = None):
    """The step's next ``(P, A P, B P)`` or None: ``coeff``, ``rows`` zeroed,
    B-orthogonalized to ``coeff`` (by M) and normalized (by T) through
    ``gram_b``, is mapped as ``tail T - ritz (M T)`` and :func:`b_normalized`.
    ``combined`` is ``[T; -M T]`` when formed already."""
    if combined is None:
        combined = direction_coefficients(coeff, gram_b, rows)
        if combined is None:
            return None
    return b_normalized(combine_parts([tail, ritz], combined))


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
    values, *_, coeff, _ = carried_rayleigh_ritz([(ortho, op_apply(a_op, ortho), b_ortho)], want)
    coeff = transform @ coeff
    vectors = basis @ coeff  # as a caller forms it: the product is exact
    fix_signs(vectors, coeff)
    return RitzSet(values=values, vectors=vectors, coefficients=coeff)


def b_dual_basis(basis: np.ndarray, b_basis: np.ndarray) -> np.ndarray:
    """``B V G^+`` for a basis V that need not be B-orthonormal, with
    ``b_basis = B V``, ``G = V^T B V`` and ``G^+ = T T^T`` for the
    :func:`gram_transform` T of G (zero when no direction is independent),
    so that ``b_project_out(block, basis, b_dual_basis(basis, b_basis))``
    removes the B-projection onto span(basis)."""
    try:
        transform, _ = gram_transform(sym(basis.T @ b_basis))
    except ZeroRankError:
        return np.zeros_like(b_basis)
    return block_mul(b_basis, transform @ transform.T)


def b_project_out(block: np.ndarray, basis: np.ndarray, b_basis: np.ndarray) -> np.ndarray:
    """Remove the B-projection onto span(basis) from every column.

    ``b_basis`` is the precomputed ``B @ basis`` of a B-orthonormal basis,
    or :func:`b_dual_basis` of any basis.
    """
    return block - block_mul(basis, b_basis.T @ block)
