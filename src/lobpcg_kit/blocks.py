"""Block-vector algebra in the B-inner product.

Rayleigh quotients, residual blocks, B-orthonormalization with rank
handling, and the Rayleigh-Ritz projection.  A block vector is a float64
``(n, m)`` array whose columns are the vectors; the metric B is any SPD
:class:`~lobpcg_kit.operators.LinearOperator`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    #: Rank of the trial basis after dropping dependent columns.
    basis_rank: int
    #: Indices of input columns judged independent by the cleanup.
    basis_kept: list[int] = field(default_factory=list)


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


def gram_transform(gram: np.ndarray):
    """Cholesky-else-SVQB transform of a symmetric Gram matrix G.

    Returns ``(transform, kept)`` with ``transform^T G transform = I`` over
    the numerically independent directions; ``kept`` lists the Gram
    columns judged independent.  Raises ZeroRankError when none are.
    """
    m = gram.shape[0]
    try:
        lower = cholesky(gram)
        transform = np.linalg.solve(lower, np.eye(m)).T  # inv(L).T, upper triangular
        kept = list(range(m))
    except NotPositiveDefiniteError:
        eig = sym_eig(gram)
        lam_max = float(eig.values[-1])
        keep_mask = eig.values > m * RANK_DROP_RTOL * max(lam_max, 0.0)
        if lam_max <= 0.0 or not np.any(keep_mask):
            raise ZeroRankError("all columns are numerically dependent") from None
        transform = eig.vectors[:, keep_mask] / np.sqrt(eig.values[keep_mask])[None, :]
        kept = _svqb_attribution(eig.vectors, ~keep_mask)
    return transform, kept


def _finite_gram(gram: np.ndarray) -> np.ndarray:
    """The Gram matrix itself; OrthonormalizationError when it is not finite."""
    if not np.all(np.isfinite(gram)):
        raise OrthonormalizationError("B-Gram matrix is not finite")
    return gram


def b_apply(b_op: LinearOperator | None, block: np.ndarray) -> np.ndarray:
    """``B @ block``, or ``block`` itself for the identity metric (``None``)."""
    return block if b_op is None else op_apply(b_op, block)


def _orthonormalize_pass(block: np.ndarray, b_op: LinearOperator | None):
    """One Cholesky-else-SVQB cleanup pass.

    Returns (out, kept, transform) with out = block @ transform.
    """
    scale = np.sqrt(np.einsum("ij,ij->j", block, block))
    scale = np.where(scale > 0, scale, 1.0)
    scaled = block / scale[None, :]
    b_scaled = b_apply(b_op, scaled)
    gram = _finite_gram(scaled.T @ b_scaled)
    gram = 0.5 * (gram + gram.T)
    transform, kept = gram_transform(gram)
    transform = transform / scale[:, None]
    return block @ transform, kept, transform


def b_orthonormalize_full(block: np.ndarray, b_op: LinearOperator | None,
                          counters: OpCounters | None = None, *,
                          with_product: bool = False):
    """B-orthonormalize and also return the column transform.

    Returns ``(out, kept, transform)`` with ``out = block @ transform`` and
    ``out^T B out = I`` within :data:`ORTHO_POST_TOL`.  Numerically
    dependent content is dropped; ``kept`` lists the input columns judged
    independent.  Raises ZeroRankError when nothing survives and
    OrthonormalizationError when a B-Gram matrix is not finite or the
    post-check fails even after a retry.
    With ``with_product`` a fourth item is returned: ``B @ out`` as the
    final post-check computed it.  ``b_op=None`` is the identity metric:
    B is not applied, and the fourth item is ``out`` itself.
    """
    out = _as_block(block)
    kept, transform = list(range(out.shape[1])), None
    for _ in range(2):
        out, kept_pass, transform_pass = _orthonormalize_pass(out, b_op)
        if counters is not None:
            counters.orthonormalizations += 1
        kept = [kept[i] for i in kept_pass]
        transform = transform_pass if transform is None else transform @ transform_pass
        b_out = b_apply(b_op, out)
        gram = _finite_gram(out.T @ b_out)
        defect = float(np.max(np.abs(gram - np.eye(out.shape[1]))))
        if defect <= ORTHO_POST_TOL:
            return (out, kept, transform, b_out) if with_product else (out, kept, transform)
    raise OrthonormalizationError(f"orthonormality defect {defect:.3e} persists after retry")


def b_orthonormalize(block: np.ndarray, b_op: LinearOperator):
    """B-orthonormalize a block, dropping dependent columns.

    Returns ``(out, kept)``: an n x r block with ``out^T B out = I`` within
    1e-8 and the indices of the input columns judged independent.
    """
    out, kept, _ = b_orthonormalize_full(block, b_op)
    return out, kept


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


def rayleigh_ritz(basis: np.ndarray, a_op: LinearOperator, b_op: LinearOperator,
                  want: int, counters: OpCounters | None = None) -> RitzSet:
    """Smallest ``want`` Ritz pairs of (A, B) over the span of ``basis``.

    The basis is B-orthonormalized internally (callers are not trusted),
    the projected matrix is diagonalized, and the pairs are mapped back.
    Ritz vectors are B-normalized with their first significant component
    positive, making the output deterministic.
    """
    basis = _as_block(basis)
    if counters is not None:
        counters.rayleigh_ritz_calls += 1
    ortho, kept, transform = b_orthonormalize_full(basis, b_op, counters)
    rank = ortho.shape[1]
    if want > rank:
        raise InsufficientRankError(
            f"basis rank {rank} is below the {want} requested pairs"
        )
    a_ortho = op_apply(a_op, ortho)
    projected = ortho.T @ a_ortho
    projected = 0.5 * (projected + projected.T)
    eig = sym_eig(projected)
    coeff = transform @ eig.vectors[:, :want]
    vectors = basis @ coeff
    fix_signs(vectors, coeff)
    return RitzSet(
        values=eig.values[:want].copy(),
        vectors=vectors,
        coefficients=coeff,
        basis_rank=rank,
        basis_kept=kept,
    )


def b_dual_basis(basis: np.ndarray, b_basis: np.ndarray) -> np.ndarray:
    """``B V G^+`` for a basis V that need not be B-orthonormal, with
    ``b_basis = B V``, ``G = V^T B V`` and ``G^+ = T T^T`` for the
    :func:`gram_transform` T of G (zero when no direction is independent),
    so that ``b_project_out(block, basis, b_dual_basis(basis, b_basis))``
    removes the B-projection onto span(basis)."""
    gram = basis.T @ b_basis
    try:
        transform, _ = gram_transform(0.5 * (gram + gram.T))
    except ZeroRankError:
        return np.zeros_like(b_basis)
    return b_basis @ (transform @ transform.T)


def b_project_out(block: np.ndarray, basis: np.ndarray, b_basis: np.ndarray) -> np.ndarray:
    """Remove the B-projection onto span(basis) from every column.

    ``b_basis`` is the precomputed ``B @ basis`` of a B-orthonormal basis,
    or :func:`b_dual_basis` of any basis.
    """
    return block - basis @ (b_basis.T @ block)
