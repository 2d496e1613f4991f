"""File-format contracts: Matrix Market coordinate/array and edge CSV."""

import gzip
import os
import subprocess
import sys
import urllib.parse
from pathlib import Path

import numpy as np
import pytest

from conftest import heavy_tailed_edges, laplacian_1d, peak_bytes

from lobpcg_kit import (
    BadHeaderError,
    EdgeListParseError,
    MatrixMarketParseError,
    NonSymmetricDataError,
    UnsupportedFieldError,
    parse_matrix_market,
    read_dense_matrix_market,
    read_edge_csv,
    write_dense_matrix_market,
    write_edge_csv,
    write_matrix_market_symmetric,
)
from lobpcg_kit import mmio


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParseCoordinate:
    def test_identity(self, tmp_path):
        path = write(tmp_path, "id.mtx",
                     "%%MatrixMarket matrix coordinate real symmetric\n"
                     "2 2 2\n1 1 1.0\n2 2 1.0\n")
        matrix = parse_matrix_market(path)
        np.testing.assert_array_equal(matrix.to_dense(), np.eye(2))

    def test_lower_triangle_mirrored(self, tmp_path):
        path = write(tmp_path, "path3.mtx",
                     "%%MatrixMarket matrix coordinate real symmetric\n"
                     "3 3 5\n"
                     "1 1 1.0\n2 1 -1.0\n2 2 2.0\n3 2 -1.0\n3 3 1.0\n")
        matrix = parse_matrix_market(path)
        expected = [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]]
        np.testing.assert_array_equal(matrix.to_dense(), expected)

    def test_comments_blanks_crlf_tolerated(self, tmp_path):
        content = ("%%MatrixMarket matrix coordinate real symmetric\r\n"
                   "% a comment\r\n\r\n2 2 2\r\n\r\n1 1 2.0\r\n% mid comment\r\n2 2 3.0\r\n")
        path = tmp_path / "crlf.mtx"
        path.write_bytes(content.encode("utf-8"))
        matrix = parse_matrix_market(path)
        np.testing.assert_array_equal(matrix.to_dense(), np.diag([2.0, 3.0]))

    def test_general_symmetric_accepted(self, tmp_path):
        path = write(tmp_path, "gen.mtx",
                     "%%MatrixMarket matrix coordinate real general\n"
                     "2 2 4\n1 1 1.0\n1 2 2.0\n2 1 2.0\n2 2 5.0\n")
        matrix = parse_matrix_market(path)
        np.testing.assert_array_equal(matrix.to_dense(), [[1.0, 2.0], [2.0, 5.0]])

    def test_general_asymmetric_rejected(self, tmp_path):
        path = write(tmp_path, "bad.mtx",
                     "%%MatrixMarket matrix coordinate real general\n"
                     "2 2 4\n1 1 1.0\n1 2 2.0\n2 1 2.5\n2 2 5.0\n")
        with pytest.raises(NonSymmetricDataError):
            parse_matrix_market(path)

    def test_general_opposite_infinities_rejected(self, tmp_path):
        path = write(tmp_path, "infgen.mtx",
                     "%%MatrixMarket matrix coordinate real general\n"
                     "2 2 4\n1 1 1.0\n1 2 inf\n2 1 -inf\n2 2 5.0\n")
        with pytest.raises(NonSymmetricDataError):
            parse_matrix_market(path)

    def test_general_mirrored_infinities_accepted(self, tmp_path):
        path = write(tmp_path, "infsym.mtx",
                     "%%MatrixMarket matrix coordinate real general\n"
                     "2 2 4\n1 1 1.0\n1 2 inf\n2 1 inf\n2 2 5.0\n")
        np.testing.assert_array_equal(parse_matrix_market(path).values,
                                      [1.0, np.inf, np.inf, 5.0])

    def test_general_missing_mirror_rejected(self, tmp_path):
        path = write(tmp_path, "halfgen.mtx",
                     "%%MatrixMarket matrix coordinate real general\n"
                     "2 2 3\n1 1 1.0\n1 2 2.0\n2 2 5.0\n")
        with pytest.raises(NonSymmetricDataError):
            parse_matrix_market(path)

    def test_duplicates_summed(self, tmp_path):
        path = write(tmp_path, "dup.mtx",
                     "%%MatrixMarket matrix coordinate real symmetric\n"
                     "2 2 3\n1 1 1.0\n1 1 2.0\n2 2 1.0\n")
        matrix = parse_matrix_market(path)
        assert matrix.to_dense()[0, 0] == 3.0

    def test_array_format_gated(self, tmp_path):
        path = write(tmp_path, "arr.mtx",
                     "%%MatrixMarket matrix array real general\n2 2\n1\n0\n0\n1\n")
        with pytest.raises(UnsupportedFieldError):
            parse_matrix_market(path)

    @pytest.mark.parametrize("field", ["complex", "pattern", "integer"])
    def test_unsupported_fields(self, tmp_path, field):
        path = write(tmp_path, f"{field}.mtx",
                     f"%%MatrixMarket matrix coordinate {field} symmetric\n1 1 1\n1 1 1\n")
        with pytest.raises(UnsupportedFieldError):
            parse_matrix_market(path)

    def test_missing_banner(self, tmp_path):
        path = write(tmp_path, "nohdr.mtx", "2 2 2\n1 1 1.0\n2 2 1.0\n")
        with pytest.raises(BadHeaderError):
            parse_matrix_market(path)

    def test_rectangular_rejected(self, tmp_path):
        path = write(tmp_path, "rect.mtx",
                     "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1.0\n")
        with pytest.raises(MatrixMarketParseError):
            parse_matrix_market(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = write(tmp_path, "badline.mtx",
                     "%%MatrixMarket matrix coordinate real symmetric\n"
                     "2 2 2\n1 1 1.0\n2 oops 1.0\n")
        with pytest.raises(MatrixMarketParseError) as exc:
            parse_matrix_market(path)
        assert exc.value.line_no == 4
        assert "line 4" in str(exc.value)

    def test_entry_count_must_match(self, tmp_path):
        path = write(tmp_path, "short.mtx",
                     "%%MatrixMarket matrix coordinate real symmetric\n"
                     "2 2 3\n1 1 1.0\n2 2 1.0\n")
        with pytest.raises(MatrixMarketParseError):
            parse_matrix_market(path)

    def test_out_of_range_index(self, tmp_path):
        path = write(tmp_path, "oob.mtx",
                     "%%MatrixMarket matrix coordinate real symmetric\n"
                     "2 2 1\n3 1 1.0\n")
        with pytest.raises(MatrixMarketParseError) as exc:
            parse_matrix_market(path)
        assert exc.value.line_no == 3


class TestRoundTrips:
    def test_sparse_symmetric_round_trip(self, tmp_path):
        matrix = laplacian_1d(7)
        path = tmp_path / "lap.mtx"
        write_matrix_market_symmetric(path, matrix)
        again = parse_matrix_market(path)
        assert again.dim == matrix.dim
        np.testing.assert_array_equal(again.row_offsets, matrix.row_offsets)
        np.testing.assert_array_equal(again.col_indices, matrix.col_indices)
        np.testing.assert_array_equal(again.values, matrix.values)

    @pytest.mark.parametrize("size", ["3 x", "3", "0 2", "3 -1"])
    def test_dense_bad_size_line_reports_line(self, tmp_path, size):
        path = write(tmp_path, "bad.mtx",
                     f"%%MatrixMarket matrix array real general\n{size}\n1\n2\n3\n")
        with pytest.raises(MatrixMarketParseError) as exc:
            read_dense_matrix_market(path)
        assert exc.value.line_no == 2

    def test_dense_value_count_reports_line(self, tmp_path):
        path = write(tmp_path, "short.mtx",
                     "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n% end\n")
        with pytest.raises(MatrixMarketParseError) as exc:
            read_dense_matrix_market(path)
        assert str(exc.value) == "line 5: expected 4 values, found 3"

    def test_dense_round_trip(self, tmp_path, rng):
        block = rng.standard_normal((6, 3))
        path = tmp_path / "block.mtx"
        write_dense_matrix_market(path, block)
        again = read_dense_matrix_market(path)
        np.testing.assert_array_equal(again, block)


class TestEdgeCsv:
    def test_basic(self, tmp_path):
        path = write(tmp_path, "e.csv", "0,1,1.0\n1,2,2.5\n")
        n, edges = read_edge_csv(path)
        assert n == 3
        assert edges.tolist() == [(0, 1, 1.0), (1, 2, 2.5)]

    def test_header_and_crlf(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_bytes(b"u,v,weight\r\n0,1,1.0\r\n2,3,0.5\r\n")
        n, edges = read_edge_csv(path)
        assert n == 4
        assert edges.tolist() == [(0, 1, 1.0), (2, 3, 0.5)]

    def test_bad_row_reports_line(self, tmp_path):
        path = write(tmp_path, "bad.csv", "0,1,1.0\n1,two,1.0\n")
        with pytest.raises(MatrixMarketParseError) as exc:
            read_edge_csv(path)
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("content,line_no,message", [
        (b"u,v,weight\n0,1,1\n# caf\xe9\n", 3, "not valid UTF-8"),
        (b"0,1,1\n1,2\n", 2, "row needs 'u,v,weight'"),
        (b"0,1,1\n1,two,1\n", 2, "cannot parse row '1,two,1'"),
        (b"0,1,1\n1,-2,1\n", 2, "vertex ids must be >= 0"),
        (b"u,v,weight\n# none\n", None, "edge file holds no edges"),
    ], ids=["bytes", "fields", "number", "negative id", "empty body"])
    def test_every_error_is_an_edge_list_error(self, tmp_path, content, line_no, message):
        # and still a MatrixMarketParseError, for handlers of that class
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        with pytest.raises(EdgeListParseError) as exc:
            read_edge_csv(path)
        assert isinstance(exc.value, MatrixMarketParseError)
        assert exc.value.line_no == line_no
        assert str(exc.value) == (message if line_no is None else f"line {line_no}: {message}")

    def test_matrix_market_errors_stay_matrix_market_errors(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_bytes(b"%%MatrixMarket matrix coordinate real symmetric\n% caf\xe9\n")
        with pytest.raises(MatrixMarketParseError) as exc:
            parse_matrix_market(path)
        assert type(exc.value) is MatrixMarketParseError
        assert exc.value.line_no == 2

    def test_round_trip(self, tmp_path):
        edges = [(0, 1, 0.25), (1, 2, 3.5)]
        path = tmp_path / "rt.csv"
        write_edge_csv(path, edges)
        n, again = read_edge_csv(path)
        assert again.tolist() == edges


class TestOneParsePath:
    """Valid files with a header, a byte order mark, CRLF endings, blank
    lines and comment lines are parsed without the per-line pass."""

    @pytest.fixture(autouse=True)
    def no_per_line_pass(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the per-line pass ran on a valid file")
        for name in ("_edge_errors", "_entry_errors", "_value_errors"):
            monkeypatch.setattr(mmio, name, refuse)

    def test_edge_csv(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_bytes("\ufeffu,v,weight\r\n# comment\r\n 0 , 1 ,1.5\r\n\r\n \t\r\n"
                         "  # indented, comment\r\n3,2,2.5\r\n\xa0\r\n".encode("utf-8"))
        n, edges = read_edge_csv(path)
        assert n == 4
        assert edges.tolist() == [(0, 1, 1.5), (3, 2, 2.5)]

    def test_coordinate(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_bytes(b"%%MatrixMarket matrix coordinate real symmetric\r\n% comment\r\n"
                         b"\r\n2 2 3\r\n1 1 2.0\r\n  % indented\r\n\t\r\n2 1 -1.0\r\n"
                         b"2 2 3.0")
        np.testing.assert_array_equal(parse_matrix_market(path).to_dense(),
                                      [[2.0, -1.0], [-1.0, 3.0]])

    def test_array(self, tmp_path):
        path = tmp_path / "a.mtx"
        path.write_bytes(b"%%MatrixMarket matrix array real general\r\n% comment\r\n"
                         b"2 1\r\n\r\n 1.5 \r\n% between\r\n-2\r\n")
        np.testing.assert_array_equal(read_dense_matrix_market(path), [[1.5], [-2.0]])

    def test_plain_bodies_are_read_from_the_path(self, tmp_path, monkeypatch):
        # a body of data lines only never becomes the text's list of lines
        def refuse(*args):
            raise AssertionError("the file's whole text was read")
        monkeypatch.setattr(mmio, "_read_text", refuse)
        edges = write(tmp_path, "e.csv", "\ufeffu,v,weight\r\n0,1,1.5\r\n3,2,2.5")
        assert read_edge_csv(edges)[1].tolist() == [(0, 1, 1.5), (3, 2, 2.5)]
        coordinate = write(tmp_path, "c.mtx", "%%MatrixMarket matrix coordinate real symmetric"
                           "\n% comment\n\n2 2 2\n1 1 2.0\n2 2 3.0\n")
        np.testing.assert_array_equal(parse_matrix_market(coordinate).to_dense(), np.diag([2., 3.]))
        array = write(tmp_path, "a.mtx", "%%MatrixMarket matrix array real general\r2 1\r1.5\r-2\r")
        np.testing.assert_array_equal(read_dense_matrix_market(array), [[1.5], [-2.0]])


class TestNotReadDirectly:
    """Inputs that numpy's loadtxt must not open by their path: it would
    block on a pipe, decompress by suffix and look for ``path.gz`` when
    ``path`` is missing.  They are read as text, as every file was before."""

    EDGES = "u,v,weight\n0,1,1.5\n1,2,2.5\n"

    def test_fifo(self, tmp_path):
        # as `lobpcg-kit partition --edges <(zcat g.csv.gz)` gives the reader
        fifo = tmp_path / "g.csv"
        os.mkfifo(fifo)
        script = ("import sys, threading\n"
                  "from lobpcg_kit import read_edge_csv\n"
                  "def feed():\n"
                  "    with open(sys.argv[1], 'w') as handle:\n"
                  f"        handle.write({self.EDGES!r})\n"
                  "threading.Thread(target=feed, daemon=True).start()\n"
                  "n, edges = read_edge_csv(sys.argv[1])\n"
                  "print(n, edges.tolist())\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run([sys.executable, "-c", script, str(fifo)], capture_output=True,
                              text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
        assert done.returncode == 0, done.stderr
        assert done.stdout == "3 [(0, 1, 1.5), (1, 2, 2.5)]\n"

    def test_text_named_like_an_archive(self, tmp_path):
        path = write(tmp_path, "graph.csv.gz", self.EDGES)
        n, edges = read_edge_csv(path)
        assert (n, edges.tolist()) == (3, [(0, 1, 1.5), (1, 2, 2.5)])

    def test_gzip_file_is_not_utf8(self, tmp_path):
        path = tmp_path / "g.csv.gz"
        path.write_bytes(gzip.compress(self.EDGES.encode("utf-8")))
        with pytest.raises(EdgeListParseError, match=r"^line 1: not valid UTF-8$"):
            read_edge_csv(path)

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma", ".GZ"])
    def test_archive_suffix_is_read_as_text(self, tmp_path, suffix):
        # a compressed file seldom gets past the head's UTF-8 check, but one
        # whose first line decodes would reach loadtxt, which decompresses
        path = write(tmp_path, "g.csv" + suffix, self.EDGES)
        assert mmio._direct_name(path) is None
        assert mmio._direct_name(tmp_path / "g.csv") is None  # missing
        assert mmio._direct_name(write(tmp_path, "g.csv", self.EDGES)) is not None

    def test_missing_file_beside_its_archive(self, tmp_path):
        (tmp_path / "g.csv.gz").write_bytes(gzip.compress(self.EDGES.encode("utf-8")))
        with pytest.raises(FileNotFoundError):
            read_edge_csv(tmp_path / "g.csv")
        with pytest.raises(FileNotFoundError):
            read_edge_csv(str(tmp_path / "g.csv"))

    def test_relative_name_is_never_a_url(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "http:" / "host").mkdir(parents=True)
        write(tmp_path / "http:" / "host", "g.csv", self.EDGES)
        name = mmio._direct_name("http://host/g.csv")
        assert os.path.samefile(name, tmp_path / "http:" / "host" / "g.csv")
        parts = urllib.parse.urlparse(name)
        assert not (parts.scheme and parts.netloc)


def test_edge_csv_peak_is_near_its_records(tmp_path):
    # read straight from the file, the body needs about the records' 24
    # bytes an edge; a Python string per line took about five times that
    path = tmp_path / "g.csv"
    write_edge_csv(path, heavy_tailed_edges(12_000, 7).tolist())
    read_edge_csv(path)  # first-call allocations are not the reader's
    (_, edges), peak = peak_bytes(lambda: read_edge_csv(path))
    assert edges.size >= 50_000
    assert peak <= 1.3 * edges.nbytes + 256 * 1024
