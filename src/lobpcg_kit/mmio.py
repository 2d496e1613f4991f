"""Matrix Market and edge-list file handling.

Readers are liberal about blank lines, comment lines (a ``%``, or ``#`` in
edge lists, first on a line) and CRLF endings and strict about everything
else, reporting 1-based line numbers on failure.  Numbers are written with
17 significant digits so files round-trip float64 exactly.

A reader reads only the lines before a file's body (the banner, comments
and size line, or an edge list's optional header) and passes the file's
path to one ``np.loadtxt`` call that skips them, so that numpy's chunked C
reader parses the body without a Python string per line.  The file's whole
text is read as a list of lines, blank and comment lines dropped, and
parsed by one ``np.loadtxt`` call as before where that read does not apply
or fails: the input is not a regular file (a pipe such as
``<(zcat g.csv.gz)``), its name ends in a suffix numpy would decompress,
loadtxt refuses the body (a comment, whitespace-only or malformed line, a
byte that is not UTF-8) or a check on the records fails.  A per-line pass
over that list runs only to name an error, so both reads give the same
records and the same errors.
"""

from __future__ import annotations

import io
import os
import stat
import warnings
from functools import partial
from typing import Iterable

import numpy as np

from .errors import (
    BadHeaderError,
    EdgeListParseError,
    LobpcgKitError,
    MatrixMarketParseError,
    NonSymmetricDataError,
    UnsupportedFieldError,
)
from .operators import (
    _TRIPLET,
    SparseSymMatrix,
    _coo_columns,
    _merge_duplicates,
    _mirrors_disagree,
    csr_from_coo,
)

_COORD_BANNER = "%%matrixmarket"

#: Relative agreement required between (i, j) and (j, i) in general files.
GENERAL_SYM_RTOL = 1e-12

#: Suffixes numpy's DataSource decompresses a file by (compared lower-case).
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _read_text(path: str | os.PathLike, error=MatrixMarketParseError) -> str:
    """The UTF-8 text of ``path``; an undecodable byte raises ``error`` on
    its line."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        line_no = len((exc.object[:exc.start] + b".").splitlines())
        raise error("not valid UTF-8", line_no) from None


def _number(kind, token: str):
    """``kind(token)``, int or float, in np.loadtxt's grammar: Python's,
    less ``_`` digit groups, non-ASCII digits and ints outside int64."""
    value = kind(token)
    if not token.isascii() or "_" in token or (kind is int and not -2**63 <= value < 2**63):
        raise ValueError(token)
    return value


def _data_lines(text: str, comment: str = "%"):
    """Yield (line_no, stripped_text) for non-comment, non-blank lines."""
    for line_no, raw in enumerate(io.StringIO(text), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith(comment):
            yield line_no, stripped


def _load_body(text: str, skip: int, dtype, delimiter, valid, find_error,
               comment: str = "%", error=MatrixMarketParseError):
    """The lines of ``text`` after the first ``skip``, less blank and
    comment lines, parsed by one ``np.loadtxt`` call into ``dtype``.  If it
    fails or ``valid(records)`` does not hold, ``find_error()`` raises, an
    ``error``."""
    body = "".join(text.split("\n", skip)[skip:])
    # loadtxt refuses a blank line when its delimiter is ",", and its
    # comments= would also cut a comment that starts mid-line
    lines = [*filter(str.strip, body.split("\n"))]
    if comment in body:
        lines = [line for line in lines if not line.lstrip().startswith(comment)]
    try:
        records = (np.loadtxt(lines, dtype, delimiter=delimiter, comments=None, ndmin=1)
                   if lines else np.empty(0, dtype))
    except ValueError:
        records = None
    if records is None or not valid(records):
        find_error()
        raise error("the file body does not parse")  # not reached
    return records


def _direct_name(path: str | os.PathLike) -> str | None:
    """The name under which ``np.loadtxt`` reads ``path`` with numpy's
    chunked C reader, or None where it must not: ``path`` must name a
    regular file, not a pipe, and no suffix by which numpy's DataSource
    would decompress it.  A relative name gains a ``./`` prefix, so that
    DataSource cannot take it for a URL."""
    name = os.fspath(path)
    if not isinstance(name, str) or name.lower().endswith(_COMPRESSED):
        return None
    try:
        if not stat.S_ISREG(os.stat(name).st_mode):
            return None
    except (OSError, ValueError):
        return None
    return os.path.join(os.curdir, name)


def _direct_body(name: str, encoding: str, skip: int, dtype, delimiter, valid, find_error):
    """``_load_body`` on the file ``name`` itself: one ``np.loadtxt`` call
    on its path skips its first ``skip`` lines and parses the rest.  Where
    loadtxt refuses the body or ``valid(records)`` does not hold it raises
    ValueError, on which ``_read`` falls back to the line list, whose
    ``find_error`` names the error."""
    with warnings.catch_warnings():
        # an empty body warns; the line list returns an empty array
        warnings.simplefilter("ignore", UserWarning)
        records = np.loadtxt(name, dtype, delimiter=delimiter, comments=None, skiprows=skip,
                             ndmin=1, encoding=encoding)
    if not valid(records):
        raise ValueError("the records fail a check")
    return records


def _read(path: str | os.PathLike, parse, comment: str = "%", error=MatrixMarketParseError,
          bom: bool = False):
    """``parse(text, load_body)`` on the file at ``path``, where
    ``load_body(skip, dtype, delimiter, valid, find_error)`` returns the
    records of the lines after the first ``skip``.

    ``parse`` runs first on the file's head, its lines up to and including
    the first that is not blank or a comment, with ``_direct_body``.  If
    that does not apply or raises, it runs on the file's whole text with
    ``_load_body``, as every file was read before, so that an error is the
    same either way.  ``bom``: a leading UTF-8 byte order mark is dropped.
    """
    name = _direct_name(path)
    if name is not None:
        encoding = "utf-8-sig" if bom else "utf-8"
        try:
            with open(name, encoding=encoding) as handle:
                head = []
                for line in handle:
                    head.append(line)
                    if (stripped := line.strip()) and not stripped.startswith(comment):
                        break
            return parse("".join(head), partial(_direct_body, name, encoding))
        except (LobpcgKitError, ValueError, OSError):
            pass  # the line list reads what loadtxt refused, or names the error
    text = _read_text(path, error)
    if bom:
        text = text.removeprefix("\ufeff")
    return parse(text, partial(_load_body, text, comment=comment, error=error))


def _parse_header(path: str | os.PathLike, text: str, expected: str) -> str:
    """Validate the banner line of an ``expected`` format file; return the
    symmetry."""
    tokens = text.partition("\n")[0].split()
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
    if fmt != expected:
        raise UnsupportedFieldError(f"format {fmt!r} is not supported here ({expected} only)")
    return sym


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
        sizes = [_number(int, part) for part in parts]
    except ValueError:
        raise MatrixMarketParseError("size line is not integral", line_no) from None
    if min(sizes[:2]) < 1 or min(sizes) < 0:
        raise MatrixMarketParseError("non-positive dimensions", line_no)
    return line_no, sizes


def _entry_errors(lines, last_line_no: int, rows: int, nnz: int) -> None:
    """The per-line pass over coordinate entries: raise the first error."""
    count = 0
    for line_no, text in lines:
        last_line_no = line_no
        if count == nnz:
            raise MatrixMarketParseError(f"more than the declared {nnz} entries", line_no)
        parts = text.split()
        if len(parts) != 3:
            raise MatrixMarketParseError("entry needs 'i j value'", line_no)
        try:
            i, j, _ = _number(int, parts[0]), _number(int, parts[1]), _number(float, parts[2])
        except ValueError:
            raise MatrixMarketParseError(f"cannot parse entry {text!r}", line_no) from None
        if not (1 <= i <= rows and 1 <= j <= rows):
            raise MatrixMarketParseError(f"index ({i}, {j}) outside 1..{rows}", line_no)
        count += 1
    if count != nnz:
        raise MatrixMarketParseError(f"declared {nnz} entries but found {count}", last_line_no)


def parse_matrix_market(path: str | os.PathLike) -> SparseSymMatrix:
    """Read a ``coordinate real symmetric`` (or numerically symmetric
    ``general``) file into a full-pattern symmetric CSR matrix.

    Indices are converted from 1-based to 0-based, duplicates are summed,
    and symmetric files holding one triangle are mirrored.
    """
    def parse(text, load_body):
        sym = _parse_header(path, text, "coordinate")
        lines = _data_lines(text)
        size_line_no, (rows, cols, nnz) = _size_line(lines, "rows cols nnz")
        if rows != cols:
            raise MatrixMarketParseError(f"matrix is {rows}x{cols}, not square", size_line_no)
        return sym, rows, load_body(
            size_line_no, _TRIPLET, None,
            lambda e: e.size == nnz and np.all((1 <= e["i"]) & (e["i"] <= rows)
                                               & (1 <= e["j"]) & (e["j"] <= rows)),
            lambda: _entry_errors(lines, size_line_no, rows, nnz))

    sym, rows, entries = _read(path, parse)
    entries["i"] -= 1
    entries["j"] -= 1

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


def _value_errors(lines, last_line_no: int, expected: int) -> None:
    """The per-line pass over array values: raise the first error."""
    count = 0
    for line_no, text in lines:
        last_line_no = line_no
        try:
            _number(float, text)
        except ValueError:
            raise MatrixMarketParseError(f"cannot parse value {text!r}", line_no) from None
        count += 1
    if count != expected:
        raise MatrixMarketParseError(f"expected {expected} values, found {count}", last_line_no)


def read_dense_matrix_market(path: str | os.PathLike) -> np.ndarray:
    """Read an ``array real general`` file, one value a line, into an
    (n, m) array."""
    def parse(text, load_body):
        if _parse_header(path, text, "array") != "general":
            raise UnsupportedFieldError("array files must be general")
        lines = _data_lines(text)
        size_line_no, (rows, cols) = _size_line(lines, "rows cols")
        # one field a record, so that a line of two numbers is refused
        return rows, cols, load_body(size_line_no, [("v", float)], None,
                                     lambda values: values.size == rows * cols,
                                     lambda: _value_errors(lines, size_line_no, rows * cols))

    rows, cols, values = _read(path, parse)
    # Array format stores columns contiguously.
    return values["v"].reshape((cols, rows)).T


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


def _edge_row(text: str, line_no: int) -> bool:
    """Check one data line of an edge CSV; False for the optional header:
    a line 1 of three fields that do not parse."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise EdgeListParseError("row needs 'u,v,weight'", line_no)
    try:
        u, v, _ = _number(int, parts[0]), _number(int, parts[1]), _number(float, parts[2])
    except ValueError:
        if line_no == 1:
            return False
        raise EdgeListParseError(f"cannot parse row {text!r}", line_no) from None
    if u < 0 or v < 0:
        raise EdgeListParseError("vertex ids must be >= 0", line_no)
    return True


def _edge_errors(text: str) -> None:
    """The per-line pass over an edge CSV: raise the first error."""
    if not sum(_edge_row(row, line_no) for line_no, row in _data_lines(text, "#")):
        raise EdgeListParseError("edge file holds no edges")


def read_edge_csv(path: str | os.PathLike) -> tuple[int, np.ndarray]:
    """Read ``u,v,weight`` rows (0-based ids; optional header; LF or CRLF).

    Returns ``(n, edges)`` with n inferred as max vertex id + 1 and
    ``edges`` a record array of fields ``i``, ``j`` and ``v``, whose
    ``tolist()`` is the list of ``(u, v, weight)`` tuples.  Malformed
    content raises :class:`EdgeListParseError`.
    """
    def parse(text, load_body):
        head = text.partition("\n")[0].strip()
        header = bool(head) and not head.startswith("#") and not _edge_row(head, 1)
        return load_body(int(header), _TRIPLET, ",",
                         lambda e: e.size and min(e["i"].min(), e["j"].min()) >= 0,
                         lambda: _edge_errors(text))

    edges = _read(path, parse, "#", EdgeListParseError, bom=True)
    return int(max(edges["i"].max(), edges["j"].max())) + 1, edges


def write_edge_csv(path: str | os.PathLike, edges: Iterable[tuple[int, int, float]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("u,v,weight\n")
        for u, v, w in edges:
            handle.write(f"{u},{v},{_fmt(w)}\n")
