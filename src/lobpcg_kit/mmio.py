"""Matrix Market and edge-list file handling.

Readers are liberal about blank lines, ``%`` comments and CRLF endings and
strict about everything else, reporting 1-based line numbers on failure.
Numbers are written with 17 significant digits so files round-trip float64
exactly.
"""

from __future__ import annotations

import os
from typing import Iterable

import numpy as np

from .errors import (
    BadHeaderError,
    MatrixMarketParseError,
    NonSymmetricDataError,
    UnsupportedFieldError,
)
from .operators import (
    SparseSymMatrix,
    _coo_columns,
    _merge_duplicates,
    _mirrors_disagree,
    csr_from_coo,
)

_COORD_BANNER = "%%matrixmarket"

#: Relative agreement required between (i, j) and (j, i) in general files.
GENERAL_SYM_RTOL = 1e-12


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _data_lines(path: str | os.PathLike):
    """Yield (line_no, stripped_text) for non-comment, non-blank lines."""
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            text = raw.strip()
            if not text or text.startswith("%"):
                continue
            yield line_no, text


def _parse_header(path: str | os.PathLike) -> tuple[str, str]:
    """Validate the banner line; return (format, symmetry)."""
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.readline()
    tokens = first.strip().split()
    if not tokens or tokens[0].lower() != _COORD_BANNER:
        raise BadHeaderError(f"{path}: missing %%MatrixMarket banner")
    if len(tokens) != 5:
        raise BadHeaderError(f"{path}: banner needs 5 tokens, got {len(tokens)}")
    obj, fmt, fld, sym = (t.lower() for t in tokens[1:])
    if obj != "matrix":
        raise UnsupportedFieldError(f"object {obj!r} is not supported")
    if fld != "real":
        raise UnsupportedFieldError(f"field {fld!r} is not supported (real only)")
    if sym not in ("symmetric", "general"):
        raise UnsupportedFieldError(f"symmetry {sym!r} is not supported")
    return fmt, sym


def _size_line(lines, fields: str) -> tuple[int, list[int]]:
    """Line number and integers of the size line, which holds ``fields``:
    the dimensions, at least 1, then any counts, at least 0."""
    try:
        line_no, text = next(lines)
    except StopIteration:
        raise MatrixMarketParseError("missing size line") from None
    parts = text.split()
    if len(parts) != len(fields.split()):
        raise MatrixMarketParseError(f"size line needs '{fields}'", line_no)
    try:
        sizes = [int(part) for part in parts]
    except ValueError:
        raise MatrixMarketParseError("size line is not integral", line_no) from None
    if min(sizes[:2]) < 1 or min(sizes) < 0:
        raise MatrixMarketParseError("non-positive dimensions", line_no)
    return line_no, sizes


def parse_matrix_market(path: str | os.PathLike) -> SparseSymMatrix:
    """Read a ``coordinate real symmetric`` (or numerically symmetric
    ``general``) file into a full-pattern symmetric CSR matrix.

    Indices are converted from 1-based to 0-based, duplicates are summed,
    and symmetric files holding one triangle are mirrored.
    """
    fmt, sym = _parse_header(path)
    if fmt != "coordinate":
        raise UnsupportedFieldError(f"format {fmt!r} is not supported here (coordinate only)")

    lines = _data_lines(path)
    size_line_no, (rows, cols, nnz) = _size_line(lines, "rows cols nnz")
    if rows != cols:
        raise MatrixMarketParseError(f"matrix is {rows}x{cols}, not square", size_line_no)

    entries: list[tuple[int, int, float]] = []
    last_line_no = size_line_no
    for line_no, text in lines:
        last_line_no = line_no
        if len(entries) == nnz:
            raise MatrixMarketParseError(f"more than the declared {nnz} entries", line_no)
        parts = text.split()
        if len(parts) != 3:
            raise MatrixMarketParseError("entry needs 'i j value'", line_no)
        try:
            i, j, value = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise MatrixMarketParseError(f"cannot parse entry {text!r}", line_no) from None
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise MatrixMarketParseError(f"index ({i}, {j}) outside 1..{rows}", line_no)
        entries.append((i - 1, j - 1, value))
    if len(entries) != nnz:
        raise MatrixMarketParseError(
            f"declared {nnz} entries but found {len(entries)}", last_line_no
        )

    if sym == "general":
        i, j, v = _coo_columns(entries)
        _, inverse, sums, mirror_sums, paired = _merge_duplicates(rows, i, j, v)
        bad = ~paired | _mirrors_disagree(sums, mirror_sums, GENERAL_SYM_RTOL)
        if bad.any():
            k = int(np.argmax(bad[inverse]))
            raise NonSymmetricDataError(
                f"general file is not numerically symmetric at ({i[k] + 1}, {j[k] + 1})"
            )
    return csr_from_coo(rows, entries)


def write_matrix_market_symmetric(path: str | os.PathLike, matrix: SparseSymMatrix) -> None:
    """Write the lower triangle as ``coordinate real symmetric``."""
    entries = [(i, j, v) for i, j, v in matrix.entries() if i >= j]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("%%MatrixMarket matrix coordinate real symmetric\n")
        handle.write(f"{matrix.dim} {matrix.dim} {len(entries)}\n")
        for i, j, v in entries:
            handle.write(f"{i + 1} {j + 1} {_fmt(v)}\n")


def read_dense_matrix_market(path: str | os.PathLike) -> np.ndarray:
    """Read an ``array real general`` file into an (n, m) array."""
    fmt, sym = _parse_header(path)
    if fmt != "array":
        raise UnsupportedFieldError(f"format {fmt!r} is not supported here (array only)")
    if sym != "general":
        raise UnsupportedFieldError("array files must be general")
    lines = _data_lines(path)
    _, (rows, cols) = _size_line(lines, "rows cols")
    values = []
    for line_no, text in lines:
        try:
            values.append(float(text))
        except ValueError:
            raise MatrixMarketParseError(f"cannot parse value {text!r}", line_no) from None
    if len(values) != rows * cols:
        raise MatrixMarketParseError(
            f"expected {rows * cols} values, found {len(values)}"
        )
    # Array format stores columns contiguously.
    return np.array(values).reshape((cols, rows)).T


def write_dense_matrix_market(path: str | os.PathLike, block: np.ndarray) -> None:
    """Write a block of column vectors as ``array real general``."""
    block = np.asarray(block, dtype=float)
    if block.ndim == 1:
        block = block[:, None]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("%%MatrixMarket matrix array real general\n")
        handle.write(f"{block.shape[0]} {block.shape[1]}\n")
        for col in range(block.shape[1]):
            for row in range(block.shape[0]):
                handle.write(f"{_fmt(block[row, col])}\n")


def read_edge_csv(path: str | os.PathLike) -> tuple[int, list[tuple[int, int, float]]]:
    """Read ``u,v,weight`` rows (0-based ids; optional header; LF or CRLF).

    Returns ``(n, edges)`` with n inferred as max vertex id + 1.
    """
    edges: list[tuple[int, int, float]] = []
    top = 0
    with open(path, "r", encoding="utf-8-sig") as handle:
        for line_no, raw in enumerate(handle, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            parts = [p.strip() for p in text.split(",")]
            if len(parts) != 3:
                raise MatrixMarketParseError("row needs 'u,v,weight'", line_no)
            try:
                u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                if line_no == 1:
                    continue  # optional header row
                raise MatrixMarketParseError(f"cannot parse row {text!r}", line_no) from None
            if u < 0 or v < 0:
                raise MatrixMarketParseError("vertex ids must be >= 0", line_no)
            edges.append((u, v, w))
            top = max(top, u, v)
    if not edges:
        raise MatrixMarketParseError("edge file holds no edges")
    return top + 1, edges


def write_edge_csv(path: str | os.PathLike, edges: Iterable[tuple[int, int, float]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("u,v,weight\n")
        for u, v, w in edges:
            handle.write(f"{u},{v},{_fmt(w)}\n")
