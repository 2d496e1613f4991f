"""Property tests of the file readers against per-line reference readers.

The references below are the readers' former line-by-line loops.  The
readers read a regular file's body by one ``np.loadtxt`` call on its path
(the direct read), and fall back on the file's text as a list of lines,
parsed by one ``np.loadtxt`` call, where loadtxt refuses the body or a check
on its records fails; a per-line pass runs only to name an error.  Valid
files must give the same values bit for bit, malformed ones the same error
type, message and line number.  About half of the generated files have
bodies of well-formed data lines only, which the direct read takes, so that
both reads are compared with the references about as often;
``test_both_reads_take_a_large_share_of_the_generated_files`` counts them.

Two grammar differences are intended and excluded from the comparison by
``intended_difference``; ``TestIntendedDifferences`` checks each of them:

- a number that Python's int or float reads but ``np.loadtxt`` does not:
  ``_`` digit groups (``1_0``), non-ASCII digits and integers outside int64.
  The references took its value (or crashed later, on overflow); the
  readers refuse its line as unparseable.
- bytes that are not UTF-8, on which the references raised
  UnicodeDecodeError.  The generated files are all UTF-8.
"""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lobpcg_kit import (
    BadHeaderError,
    EdgeListParseError,
    LobpcgKitError,
    MatrixMarketParseError,
    NonSymmetricDataError,
    UnsupportedFieldError,
    csr_from_coo,
    parse_matrix_market,
    read_dense_matrix_market,
    read_edge_csv,
)
from lobpcg_kit import mmio
from lobpcg_kit.operators import _coo_columns, _merge_duplicates, _mirrors_disagree

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


# -- the former readers, kept as references --------------------------------

def reference_data_lines(path):
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            text = raw.strip()
            if not text or text.startswith("%"):
                continue
            yield line_no, text


def reference_header(path):
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.readline()
    tokens = first.strip().split()
    if not tokens or tokens[0].lower() != "%%matrixmarket":
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


def reference_size_line(lines, fields):
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


def reference_matrix_market(path):
    fmt, sym = reference_header(path)
    if fmt != "coordinate":
        raise UnsupportedFieldError(f"format {fmt!r} is not supported here (coordinate only)")
    lines = reference_data_lines(path)
    size_line_no, (rows, cols, nnz) = reference_size_line(lines, "rows cols nnz")
    if rows != cols:
        raise MatrixMarketParseError(f"matrix is {rows}x{cols}, not square", size_line_no)
    entries = []
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
        bad = ~paired | _mirrors_disagree(sums, mirror_sums, mmio.GENERAL_SYM_RTOL)
        if bad.any():
            k = int(np.argmax(bad[inverse]))
            raise NonSymmetricDataError(
                f"general file is not numerically symmetric at ({i[k] + 1}, {j[k] + 1})"
            )
    return csr_from_coo(rows, entries)


def reference_dense(path):
    fmt, sym = reference_header(path)
    if fmt != "array":
        raise UnsupportedFieldError(f"format {fmt!r} is not supported here (array only)")
    if sym != "general":
        raise UnsupportedFieldError("array files must be general")
    lines = reference_data_lines(path)
    size_line_no, (rows, cols) = reference_size_line(lines, "rows cols")
    values = []
    last_line_no = size_line_no
    for line_no, text in lines:
        last_line_no = line_no
        try:
            values.append(float(text))
        except ValueError:
            raise MatrixMarketParseError(f"cannot parse value {text!r}", line_no) from None
    if len(values) != rows * cols:
        # the line number is new: the former reader gave none
        raise MatrixMarketParseError(
            f"expected {rows * cols} values, found {len(values)}", last_line_no
        )
    return np.array(values).reshape((cols, rows)).T


def reference_edge_csv(path):
    edges: list[tuple[int, int, float]] = []
    top = 0
    with open(path, "r", encoding="utf-8-sig") as handle:
        for line_no, raw in enumerate(handle, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            parts = [p.strip() for p in text.split(",")]
            if len(parts) != 3:
                raise EdgeListParseError("row needs 'u,v,weight'", line_no)
            try:
                u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                if line_no == 1:
                    continue  # optional header row
                raise EdgeListParseError(f"cannot parse row {text!r}", line_no) from None
            if u < 0 or v < 0:
                raise EdgeListParseError("vertex ids must be >= 0", line_no)
            edges.append((u, v, w))
            top = max(top, u, v)
    if not edges:
        raise EdgeListParseError("edge file holds no edges")
    return top + 1, edges


# -- comparison ---------------------------------------------------------------

def outcome(read, path):
    """What a reader gives, as bytes where it is floats (so that -0.0 and
    NaN compare exactly), or the error's type, message and line number."""
    try:
        result = read(path)
    except LobpcgKitError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)
    if isinstance(result, np.ndarray):
        return result.shape, result.tobytes()
    if isinstance(result, tuple):
        n, edges = result
        edges = edges.tolist() if isinstance(edges, np.ndarray) else edges
        return (n, [(u, v) for u, v, _ in edges],
                np.array([w for _, _, w in edges], dtype=float).tobytes())
    return tuple(a.tobytes() for a in (result.row_offsets, result.col_indices, result.values))


def beyond_loadtxt(token):
    """Whether Python's int or float reads ``token`` and np.loadtxt not."""
    for kind in (int, float):
        try:
            value = kind(token)
        except ValueError:
            continue
        too_big = kind is int and not -2 ** 63 <= value < 2 ** 63
        return too_big or not token.isascii() or "_" in token
    return False


def intended_difference(text):
    """Whether any token of ``text`` is read by Python only."""
    return any(beyond_loadtxt(token) for token in re.split(r"[\s,]+", text))


# -- generated files --------------------------------------------------------

def rarely(rare, one_in=6):
    """``rare`` once in ``one_in`` draws, else None."""
    return st.integers(0, one_in - 1).flatmap(lambda k: rare if k == 0 else st.none())


#: Whitespace around fields and on blank lines, ASCII and not.
SPACE = st.sampled_from(["", "", " ", "  ", "\t", "\x0b", "\x0c", "\xa0", "\u3000"])
#: Numbers that only Python reads (see ``intended_difference``).
PYTHON_ONLY = st.sampled_from(["1_0", "\u0661", "99999999999999999999", "-99999999999999999999"])
#: Tokens that are not numbers or not the right kind, rarely Python's only.
ODD = rarely(PYTHON_ONLY, 12).flatmap(lambda rare: st.just(rare) if rare else st.sampled_from(
    ["x", "", "1.5", "0x1", "1e", "--1", "nan", "inf", "9223372036854775807",
     "-9223372036854775808", "1 2", "+3", "007"]))
WEIGHT = (st.floats().map(repr)
          | st.sampled_from(["1", "-0.0", ".5", "5.", "1e400", "-inf", "NaN", "+2.5e-3"]))
ENDING = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])
#: A line's single flaw, if any: the ways a data line can be malformed.
FLAW = rarely(st.sampled_from(["fields", "token", "range", "comment"]))


@st.composite
def file_text(draw, data_line, plain_line, comment, head=()):
    """``head`` lines, then data, blank and comment lines, with mixed line
    endings and an optional last ending.  Half of the bodies are plain:
    lines of ``plain_line`` only."""
    lines = list(head)
    plain = draw(st.booleans())
    for _ in range(draw(st.integers(0, 8))):
        kind = "plain" if plain else draw(
            st.sampled_from(["data", "data", "data", "data", "blank", "comment"]))
        if kind == "plain":
            lines.append(draw(plain_line))
        elif kind == "data":
            lines.append(draw(data_line))
        elif kind == "blank":
            lines.append(draw(SPACE) + draw(SPACE))
        else:
            lines.append(draw(SPACE) + comment + draw(st.sampled_from(["", " note", "1,2,3"])))
    endings = [draw(ENDING) for _ in lines]
    if lines and draw(st.booleans()):
        endings[-1] = ""
    return "".join(line + end for line, end in zip(lines, endings))


@st.composite
def data_line(draw, ints, out_of_range, sep, flaws=FLAW):
    """Integers drawn from ``ints`` (else out of range) and a float, each
    padded and joined by ``sep``, with at most one flaw from ``flaws``."""
    fields = [str(draw(ints)) for _ in range(0 if ints is None else 2)] + [draw(WEIGHT)]
    flaw = draw(flaws)
    if flaw == "fields":
        fields = fields[:-1] if draw(st.booleans()) else fields + ["1"]
    elif flaw == "token":
        fields[draw(st.integers(0, len(fields) - 1))] = draw(ODD)
    elif flaw == "range" and ints is not None:
        fields[draw(st.integers(0, 1))] = str(draw(out_of_range))
    line = sep.join(draw(SPACE) + field + draw(SPACE) for field in fields)
    if flaw == "comment":
        line += draw(st.sampled_from([" # trailing", "#", " % x", "%"]))
    return line


@st.composite
def edge_files(draw):
    head = []
    if draw(st.booleans()):
        head = [draw(st.sampled_from(["u,v,weight", " source , target , w ", "a,b", "#u,v,w"]))]
    rows = [data_line(st.integers(0, 12), st.integers(-3, -1), ",", flaws)
            for flaws in (FLAW, st.none())]
    return draw(st.sampled_from(["", "\ufeff"])) + draw(file_text(*rows, "#", head))


@st.composite
def coordinate_files(draw):
    n = draw(st.integers(1, 4))
    sym = draw(st.sampled_from(["symmetric", "symmetric", "general"]))
    entries = [data_line(st.integers(1, n), st.sampled_from([0, n + 1, -1]), " ", flaws)
               for flaws in (FLAW, st.none())]
    body = draw(file_text(*entries, "%"))
    count = len([1 for line in re.split(r"\r\n|\r|\n", body)
                 if line.strip() and not line.strip().startswith("%")])
    nnz = max(0, count + (draw(rarely(st.sampled_from([-1, 1]))) or 0))
    size = draw(rarely(st.sampled_from([f" {n}\t{n} {nnz} ", f"{n} {n + 1} {nnz}", f"{n} {n}",
                                        f"0 0 {nnz}", f"{n} {n} x"]))) or f"{n} {n} {nnz}"
    comments = draw(st.sampled_from(["", "% a comment\n", "\n  \n%\n"]))
    return f"%%MatrixMarket matrix coordinate real {sym}\n{comments}{size}\n{body}"


@st.composite
def array_files(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    plain = draw(st.booleans())  # well-formed value lines only
    lines = []
    for _ in range(rows * cols + (draw(rarely(st.sampled_from([-1, 1]))) or 0)):
        lines.append(draw(data_line(None, None, " ", st.none() if plain else FLAW)))
        if not plain and draw(rarely(st.just(True))):
            lines.append(draw(st.sampled_from(["", " \t", "% note", "  %"])))
    body = "".join(line + draw(ENDING) for line in lines)
    comments = draw(st.sampled_from(["", "% a comment\r\n"]))
    return f"%%MatrixMarket matrix array real general\n{comments}{rows} {cols}\n{body}"


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("readers") / "file"


def check_against_reference(path, text, read, reference):
    assume(not intended_difference(text))
    path.write_bytes(text.encode("utf-8"))
    assert outcome(read, path) == outcome(reference, path)


class TestAgainstReference:
    @PROPERTY
    @given(text=edge_files())
    def test_edge_csv(self, scratch, text):
        check_against_reference(scratch, text, read_edge_csv, reference_edge_csv)

    @PROPERTY
    @given(text=coordinate_files())
    def test_coordinate(self, scratch, text):
        check_against_reference(scratch, text, parse_matrix_market, reference_matrix_market)

    @PROPERTY
    @given(text=array_files())
    def test_array(self, scratch, text):
        check_against_reference(scratch, text, read_dense_matrix_market, reference_dense)


class TestIntendedDifferences:
    @pytest.mark.parametrize("token", ["1_0", "\u0661", "99999999999999999999"])
    def test_python_only_integers_do_not_parse(self, tmp_path, token):
        path = tmp_path / "e.csv"
        path.write_text(f"u,v,w\n0,1,1\n{token},1,1.0\n", encoding="utf-8")
        with pytest.raises(MatrixMarketParseError) as exc:
            read_edge_csv(path)
        assert exc.value.line_no == 3
        assert str(exc.value) == f"line 3: cannot parse row '{token},1,1.0'"
        path.write_text(f"%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n"
                        f"{token} 1 1.0\n", encoding="utf-8")
        with pytest.raises(MatrixMarketParseError, match="line 3: cannot parse entry"):
            parse_matrix_market(path)

    @pytest.mark.parametrize("token", ["1_0.5", "\u0661.5"])
    def test_python_only_floats_do_not_parse(self, tmp_path, token):
        path = tmp_path / "x.mtx"
        path.write_text(f"%%MatrixMarket matrix array real general\n1 1\n{token}\n",
                        encoding="utf-8")
        with pytest.raises(MatrixMarketParseError, match="line 3: cannot parse value"):
            read_dense_matrix_market(path)

    def test_size_line_beyond_int64(self, tmp_path):
        path = tmp_path / "big.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                        "99999999999999999999 99999999999999999999 1\n1 1 1.0\n")
        with pytest.raises(MatrixMarketParseError, match="line 2: size line is not integral"):
            parse_matrix_market(path)

    @pytest.mark.parametrize("read,content", [
        (read_edge_csv, b"u,v,w\n0,1,1\n# caf\xe9\n1,2,1\n"),
        (parse_matrix_market,
         b"%%MatrixMarket matrix coordinate real symmetric\r\n1 1 1\r\n% caf\xe9\r\n1 1 1\r\n"),
        (read_dense_matrix_market, b"%%MatrixMarket matrix array real general\r1 1\r\xe9\r"),
    ])
    def test_undecodable_byte_names_its_line(self, tmp_path, read, content):
        path = tmp_path / "bad"
        path.write_bytes(content)
        with pytest.raises(MatrixMarketParseError) as exc:
            read(path)
        assert exc.value.line_no == 3
        assert str(exc.value) == "line 3: not valid UTF-8"


def test_intended_differences_are_rare_in_the_generated_files():
    # the exclusion must not hollow out the comparison: count how many
    # generated files it drops, over a fixed derandomized sample
    dropped = []

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(text=edge_files() | coordinate_files() | array_files())
    def sample(text):
        dropped.append(intended_difference(text))

    sample()
    assert sum(dropped) <= len(dropped) // 10


def test_both_reads_take_a_large_share_of_the_generated_files(tmp_path, monkeypatch):
    # the comparison must exercise both reads: count, over a fixed
    # derandomized sample, the files whose records the direct read returned
    # and the files read as a list of lines (or refused in their head)
    direct = []
    direct_body = mmio._direct_body

    def counted(*args):
        records = direct_body(*args)
        direct[-1] = True
        return records

    monkeypatch.setattr(mmio, "_direct_body", counted)
    path = tmp_path / "file"

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=st.tuples(st.just(read_edge_csv), edge_files())
           | st.tuples(st.just(parse_matrix_market), coordinate_files())
           | st.tuples(st.just(read_dense_matrix_market), array_files()))
    def sample(case):
        read, text = case
        path.write_bytes(text.encode("utf-8"))
        direct.append(False)
        try:
            read(path)
        except LobpcgKitError:
            pass

    sample()
    assert 0.3 * len(direct) <= sum(direct) <= 0.7 * len(direct)
