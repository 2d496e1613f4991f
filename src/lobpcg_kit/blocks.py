"""Block-vector algebra in the B-inner product.

Rayleigh quotients, residual blocks, B-orthonormalization with rank
handling, and the Rayleigh-Ritz projection.  A block vector is a float64
``(n, m)`` array whose columns are the vectors; the metric B is any SPD
:class:`~lobpcg_kit.operators.LinearOperator`.  The solvers hold a basis
as ``(V, A V, B V)`` parts, and the one Rayleigh-Ritz here works on such
parts without applying an operator (Hetmaniuk & Lehoucq, "Basis selection
in LOBPCG", J. Comput. Phys. 218, 2006).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import cholesky_kernel as cholesky, sym_eig_kernel as sym_eig
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
    """(x, A x) / (x, B x) for a single vector."""
    x = _as_block(x)
    if x.shape[1] != 1:
        raise DimensionMismatchError("rayleigh_quotient takes a single vector")
    bx = op_apply(b_op, x)
    denom = float(x[:, 0] @ bx[:, 0])
    if denom <= 1e-300:
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


def sym(gram: np.ndarray) -> np.ndarray:
    return 0.5 * (gram + gram.T)


def ortho_defect(gram: np.ndarray) -> float:
    return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))


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
        if np.diag(lower).max() ** 2 > cond_limit * np.diag(lower).min() ** 2:
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
    scale = np.sqrt(np.diag(gram_b))
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
    out = _as_block(block)
    scale = np.sqrt(np.einsum("ij,ij->j", out, out))
    scale = np.where(scale > 0, scale, 1.0)
    out = out / scale[None, :]
    b_out = b_apply(b_op, out)
    kept, transform = list(range(out.shape[1])), np.diag(1.0 / scale)
    for _ in range(2):
        pass_transform, pass_kept = gram_transform(sym(_finite_gram(out.T @ b_out)))
        out = out @ pass_transform
        b_out = out if b_op is None else b_out @ pass_transform
        if counters is not None:
            counters.orthonormalizations += 1
        kept = [kept[i] for i in pass_kept]
        transform = transform @ pass_transform
        defect = ortho_defect(_finite_gram(out.T @ b_out))
        if defect <= ORTHO_POST_TOL:
            return out, kept, transform, b_out
    raise OrthonormalizationError(f"orthonormality defect {defect:.3e} persists after retry")


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
        pieces = [block @ rows for block in part[:2 if aliased else 3]]
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
    """
    edges = np.cumsum([0] + [v.shape[1] for v, _, _ in parts])
    gram_a, gram_b = np.zeros((edges[-1], edges[-1])), np.eye(edges[-1])
    for i, (u, _, b_u) in enumerate(parts):
        for j in range(i, len(parts)):
            v, a_v, b_v = parts[j]
            rows, cols = slice(edges[i], edges[i + 1]), slice(edges[j], edges[j + 1])
            if i == j and ritz_values is not None:
                gram_a[rows, cols] = np.diag(ritz_values) if i == 0 else u.T @ a_v
                continue
            gram_a[rows, cols], gram_b[rows, cols] = u.T @ a_v, b_u.T @ v
            gram_a[cols, rows], gram_b[cols, rows] = gram_a[rows, cols].T, gram_b[rows, cols].T
    return sym(gram_a), sym(gram_b)


def carried_rayleigh_ritz(parts, want: int, gram_a: np.ndarray | None = None,
                          gram_b: np.ndarray | None = None, cond_limit: float = np.inf):
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
    on the first pass.
    """
    if gram_a is None:
        gram_a, gram_b = part_grams(parts)
    coeff = None
    for _ in range(2):
        transform = gram_basis(gram_b, cond_limit)
        if want > transform.shape[1]:
            raise InsufficientRankError(
                f"basis rank {transform.shape[1]} is below the {want} requested pairs")
        eig = sym_eig(sym(transform.T @ gram_a @ transform))
        values, step_coeff = eig.values[:want].copy(), transform @ eig.vectors[:, :want]
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


def next_direction(ritz, tail, coeff: np.ndarray, gram_b: np.ndarray, rows: int):
    """The step's next ``(P, A P, B P)`` or None: ``coeff``, ``rows`` zeroed,
    B-orthogonalized to ``coeff`` (by M) and normalized (by T) through
    ``gram_b``, is mapped as ``tail T - ritz (M T)`` and :func:`b_normalized`."""
    tail_coeff = coeff.copy()
    tail_coeff[:rows] = 0.0
    overlap = coeff.T @ gram_b @ tail_coeff
    tail_coeff -= coeff @ overlap
    try:
        transform = gram_basis(sym(tail_coeff.T @ gram_b @ tail_coeff))
    except InsufficientRankError:
        return None
    return b_normalized(combine_parts([tail, ritz], np.vstack([transform, -overlap @ transform])))


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
    vectors = basis @ coeff
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
    return b_basis @ (transform @ transform.T)


def b_project_out(block: np.ndarray, basis: np.ndarray, b_basis: np.ndarray) -> np.ndarray:
    """Remove the B-projection onto span(basis) from every column.

    ``b_basis`` is the precomputed ``B @ basis`` of a B-orthonormal basis,
    or :func:`b_dual_basis` of any basis.
    """
    return block - basis @ (b_basis.T @ block)
