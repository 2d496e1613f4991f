"""File-format contracts: Matrix Market coordinate/array and edge CSV."""

import numpy as np
import pytest

from conftest import laplacian_1d

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
