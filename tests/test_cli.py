"""Command-line contracts: flags, exit codes, output schemas,
reproducibility."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import laplacian_1d, laplacian_1d_eigenvalues

from lobpcg_kit import (
    Lobpcg2Config,
    SolverConfig,
    partition_graph,
    write_edge_csv,
    write_matrix_market_symmetric,
)
from lobpcg_kit import cli
from lobpcg_kit.cli import main


@pytest.fixture
def lap50(tmp_path):
    path = tmp_path / "lap50.mtx"
    write_matrix_market_symmetric(path, laplacian_1d(50))
    return str(path)


@pytest.fixture
def lap400(tmp_path):
    path = tmp_path / "lap400.mtx"
    write_matrix_market_symmetric(path, laplacian_1d(400))
    return str(path)


def eigenvalue_bytes(path):
    text = open(path, encoding="utf-8").read()
    return re.search(r'"eigenvalues": \[[^\]]*\]', text).group(0)


class TestSolve:
    def test_closed_form_laplacian(self, lap50, tmp_path):
        out = tmp_path / "out.json"
        code = main(["solve", "--matrix", lap50, "--nev", "2", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["format_version"] == 1
        assert doc["status"] == "converged"
        assert doc["cause"] is None  # named only for a breakdown
        exact = laplacian_1d_eigenvalues(50, 2)
        assert np.max(np.abs(np.array(doc["eigenvalues"]) - exact)) <= 1e-7
        assert doc["manifest"]["variant"] == "lobpcg"
        assert doc["manifest"]["config"]["nev"] == 2
        assert len(doc["residual_norms_final"]) == 2
        assert doc["wall_time_seconds"] > 0

    def test_counters_reported(self, lap50, tmp_path):
        # every OpCounters tally; a matrix read from a file is sparse, so its
        # norm estimate applies nothing and estimate_matvecs is 0
        out = tmp_path / "out.json"
        assert main(["solve", "--matrix", lap50, "--nev", "2", "--out", str(out)]) == 0
        counters = json.loads(out.read_text())["counters"]
        assert set(counters) == {"a_matvecs", "b_matvecs", "precond_applies",
                                 "rayleigh_ritz_calls", "orthonormalizations",
                                 "estimate_matvecs"}
        assert counters["a_matvecs"] > 0
        assert (counters["b_matvecs"], counters["estimate_matvecs"]) == (0, 0)

    def test_nev_zero_is_usage_error(self, lap50, tmp_path):
        code = main(["solve", "--matrix", lap50, "--nev", "0",
                     "--out", str(tmp_path / "x.json")])
        assert code == 1

    def test_missing_matrix_flag(self, tmp_path):
        code = main(["solve", "--nev", "2", "--out", str(tmp_path / "x.json")])
        assert code == 1

    def test_missing_file(self, tmp_path):
        code = main(["solve", "--matrix", str(tmp_path / "absent.mtx"),
                     "--nev", "1", "--out", str(tmp_path / "x.json")])
        assert code == 1

    def test_variants_agree(self, lap50, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(["solve", "--matrix", lap50, "--nev", "4",
                     "--out", str(out_a)]) == 0
        assert main(["solve", "--matrix", lap50, "--nev", "4",
                     "--variant", "lobpcg2", "--sub-block", "2",
                     "--rr-period", "5", "--out", str(out_b)]) == 0
        ev_a = np.array(json.loads(out_a.read_text())["eigenvalues"])
        ev_b = np.array(json.loads(out_b.read_text())["eigenvalues"])
        assert np.max(np.abs(ev_a - ev_b)) <= 1e-6

    def test_psd_variant(self, lap50, tmp_path):
        out = tmp_path / "psd.json"
        code = main(["solve", "--matrix", lap50, "--nev", "1",
                     "--variant", "psd", "--tol", "1e-6", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert code in (0, 2)
        assert doc["status"] in ("converged", "max_iter")

    def test_max_iter_exit_code(self, lap50, tmp_path):
        out = tmp_path / "cap.json"
        code = main(["solve", "--matrix", lap50, "--nev", "2",
                     "--max-iter", "2", "--out", str(out)])
        assert code == 2
        assert json.loads(out.read_text())["status"] == "max_iter"

    def test_history_embedded_when_requested(self, lap50, tmp_path):
        out = tmp_path / "hist.json"
        main(["solve", "--matrix", lap50, "--nev", "2", "--history",
              "--out", str(out)])
        doc = json.loads(out.read_text())
        assert len(doc["history"]) == doc["iterations"] + 1
        record = doc["history"][0]
        assert set(record) == {"iteration", "ritz_values", "residual_norms",
                               "locked_count", "basis_cols"}

    def test_vectors_out_warm_start_round_trip(self, lap50, tmp_path):
        vecs = tmp_path / "vecs.mtx"
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert main(["solve", "--matrix", lap50, "--nev", "2",
                     "--vectors-out", str(vecs), "--out", str(first)]) == 0
        assert main(["solve", "--matrix", lap50, "--nev", "2",
                     "--x0", str(vecs), "--out", str(second)]) == 0
        doc = json.loads(second.read_text())
        assert doc["status"] == "converged"
        assert doc["iterations"] <= 1

    def test_bad_x0_size_line_is_usage_error(self, lap50, tmp_path):
        x0 = tmp_path / "x0.mtx"
        x0.write_text("%%MatrixMarket matrix array real general\n3 x\n1\n2\n3\n")
        code = main(["solve", "--matrix", lap50, "--nev", "1", "--x0", str(x0),
                     "--out", str(tmp_path / "x.json")])
        assert code == 1

    def test_block_size_rejected_for_lobpcg2(self, lap50, tmp_path):
        code = main(["solve", "--matrix", lap50, "--nev", "2",
                     "--variant", "lobpcg2", "--block-size", "4",
                     "--out", str(tmp_path / "x.json")])
        assert code == 1

    def test_lobpcg2_from_a_converged_x0_takes_no_step(self, lap50, tmp_path):
        vecs = tmp_path / "vecs.mtx"
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        narrow = ["solve", "--matrix", lap50, "--nev", "2", "--variant", "lobpcg2"]
        assert main(narrow + ["--vectors-out", str(vecs), "--out", str(first)]) == 0
        assert main(narrow + ["--x0", str(vecs), "--out", str(second)]) == 0
        doc = json.loads(second.read_text())
        assert doc["status"] == "converged"
        assert doc["iterations"] == 0
        assert doc["manifest"]["problem_paths"]["x0"] == str(vecs)

    @pytest.mark.parametrize("flag", ["--rr-period", "--sub-block"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_lobpcg2_width_and_period_below_one_are_usage_errors(self, lap50, tmp_path,
                                                                 flag, value):
        out = tmp_path / "x.json"
        code = main(["solve", "--matrix", lap50, "--nev", "2", "--variant", "lobpcg2",
                     flag, value, "--out", str(out)])
        assert code == 1
        assert not out.exists()

    def test_metric_file(self, tmp_path, lap50):
        # B = diagonal metric written as a coordinate file
        from lobpcg_kit import csr_from_coo, dense_oracle
        metric = csr_from_coo(50, [(i, i, 1.0 + i / 50.0) for i in range(50)])
        b_path = tmp_path / "metric.mtx"
        write_matrix_market_symmetric(b_path, metric)
        out = tmp_path / "gen.json"
        code = main(["solve", "--matrix", lap50, "--metric", str(b_path),
                     "--nev", "2", "--out", str(out)])
        assert code == 0
        oracle = dense_oracle(laplacian_1d(50), metric)
        got = np.array(json.loads(out.read_text())["eigenvalues"])
        assert np.max(np.abs(got - oracle.values[:2])) <= 1e-6

    def test_indefinite_metric_file_is_rejected(self, tmp_path, lap50, capsys):
        # B = I + 2(e37 e38^T + e38 e37^T) has a positive diagonal, so only
        # the Lanczos probe, run while the solver is built, shows it
        # indefinite; when the probe waited for a claim the run ended in
        # 'breakdown'
        from lobpcg_kit import csr_from_coo
        metric = csr_from_coo(50, [(i, i, 1.0) for i in range(50)] + [(37, 38, 2.0)])
        b_path = tmp_path / "indefinite.mtx"
        write_matrix_market_symmetric(b_path, metric)
        out = tmp_path / "x.json"
        code = main(["solve", "--matrix", lap50, "--metric", str(b_path),
                     "--nev", "2", "--out", str(out)])
        assert code == 1
        assert "NotPositiveDefiniteError" in capsys.readouterr().err
        assert not out.exists()


class TestReproducibility:
    def test_byte_identical_eigenvalues(self, lap50, tmp_path):
        out_a, out_b = tmp_path / "r1.json", tmp_path / "r2.json"
        flags = ["solve", "--matrix", lap50, "--nev", "3", "--seed", "7"]
        assert main(flags + ["--out", str(out_a)]) == 0
        assert main(flags + ["--out", str(out_b)]) == 0
        assert eigenvalue_bytes(out_a) == eigenvalue_bytes(out_b)

    def test_manifest_flags_reproduce_run(self, lap50, tmp_path):
        out_a, out_b = tmp_path / "m1.json", tmp_path / "m2.json"
        assert main(["solve", "--matrix", lap50, "--nev", "2", "--seed", "3",
                     "--out", str(out_a)]) == 0
        manifest = json.loads(out_a.read_text())["manifest"]
        replay = [f if f != str(out_a) else str(out_b) for f in manifest["flags"]]
        assert main(replay) == 0
        assert eigenvalue_bytes(out_a) == eigenvalue_bytes(out_b)

    @pytest.mark.parametrize("text", ["\x0b", "\x1b[0m", "a\x00b", "\x1f", "\b\f",
                                      "\n\r\t", 'quote " and \\', "caf\u00e9"])
    def test_control_characters_round_trip(self, text):
        # \x0b, \x1b and \x00 were written raw, so json.loads rejected the
        # document; raw flags and problem paths reach the manifest so
        document = {"flags": [text], "problem_paths": {text: text}}
        assert json.loads(cli.dumps_json(document)) == document

    def test_non_utf8_matrix_path_round_trips(self, tmp_path):
        # os.fsdecode turns the byte 0xff into a lone surrogate, which was
        # written raw: the write raised UnicodeEncodeError and left an empty
        # --out file
        raw = os.fsencode(tmp_path) + b"/lap\xff.mtx"
        write_matrix_market_symmetric(raw, laplacian_1d(50))
        matrix, out = os.fsdecode(raw), tmp_path / "out.json"
        assert cli.dumps_json({"matrix": matrix}).encode("utf-8")
        assert main(["solve", "--matrix", matrix, "--nev", "2", "--out", str(out)]) == 0
        document = json.loads(out.read_text(encoding="utf-8"))
        assert os.fsencode(document["manifest"]["problem_paths"]["matrix"]) == raw
        assert os.fsencode(document["manifest"]["flags"][2]) == raw


#: The solve flag that sets each config field, and a value other than the
#: field's default for it.
FIELD_FLAGS = {
    "nev": ("--nev", 2),
    "block_size": ("--block-size", 3),
    "sub_block": ("--sub-block", 2),
    "rr_period": ("--rr-period", 3),
    "tol": ("--tol", 1e-7),
    "max_iter": ("--max-iter", 40),
    "seed": ("--seed", 5),
    "record_history": ("--history", True),
}


class TestConfigReach:
    """Every config field is a knob that the command line sets."""

    def test_every_config_field_has_a_solve_flag(self, capsys):
        fields = {f.name for f in dataclasses.fields(SolverConfig)}
        assert fields == set(FIELD_FLAGS)
        assert main(["solve", "--help"]) == 0
        usage = capsys.readouterr().out
        for flag, _ in FIELD_FLAGS.values():
            assert flag in usage

    @pytest.mark.parametrize("variant, cls, solve_name", [
        ("lobpcg", SolverConfig, "lobpcg_solve"),
        ("psd", SolverConfig, "psd_solve"),
        ("lobpcg2", Lobpcg2Config, "lobpcg_solve"),
    ])
    def test_manifest_config_reproduces_the_solve(self, lap50, tmp_path, monkeypatch,
                                                  variant, cls, solve_name):
        seen = []
        solve = getattr(cli, solve_name)

        def spy(matrix, cfg, **kwargs):
            seen.append(cfg)
            return solve(matrix, cfg, **kwargs)
        monkeypatch.setattr(cli, solve_name, spy)

        # the width knobs of the other kind of solver are rejected
        rejected = {"block_size"} if variant == "lobpcg2" else {"sub_block", "rr_period"}
        values = {name: value for name, (_, value) in FIELD_FLAGS.items()
                  if name not in rejected}
        flags = ["solve", "--matrix", lap50, "--variant", variant]
        for name, value in values.items():
            flag = FIELD_FLAGS[name][0]
            flags += [flag] if value is True else [flag, str(value)]
        out = tmp_path / "reach.json"
        assert main(flags + ["--out", str(out)]) in (0, 2)
        manifest = json.loads(out.read_text())["manifest"]
        assert seen == [SolverConfig(**values)]
        assert dataclasses.asdict(cls(**manifest["config"])) == dataclasses.asdict(seen[0])
        assert "thread_cap" not in manifest


class TestBench:
    def test_preconditioner_comparison(self, lap400, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--matrix", lap400, "--nev", "4",
                     "--grid", "block-size=8;precond=none,jacobi",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert len(rows) == 2
        by_precond = {row["precond"]: row for row in rows}
        assert int(by_precond["jacobi"]["iterations"]) <= int(by_precond["none"]["iterations"])
        assert by_precond["none"]["converged"] == "true"
        for row in rows:
            assert int(row["matvec_count"]) > 0
            assert int(row["a_matvec_count"]) > 0
            assert (int(row["a_matvec_count"]) + int(row["b_matvec_count"])
                    == int(row["matvec_count"]))
            assert int(row["rr_count"]) > 0
            assert int(row["orthonormalize_count"]) > 0
            assert row["format_version"] == "1"

    def test_empty_grid_is_usage_error(self, lap50, tmp_path):
        code = main(["bench", "--matrix", lap50, "--nev", "2", "--grid", "",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1

    def test_single_cell_grid(self, lap50, tmp_path):
        out = tmp_path / "one.csv"
        code = main(["bench", "--matrix", lap50, "--nev", "2",
                     "--grid", "precond=jacobi", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2  # header + one data row

    @staticmethod
    def variant_rows(lap50, tmp_path, *extra):
        out = tmp_path / "var.csv"
        code = main(["bench", "--matrix", lap50, "--nev", "2",
                     "--grid", "variant=lobpcg,lobpcg2;block-size=2",
                     "--out", str(out), *extra])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        for row in rows:
            assert int(row["a_matvec_count"]) > 0
            assert (int(row["a_matvec_count"]) + int(row["b_matvec_count"])
                    == int(row["matvec_count"]))
        return rows

    def test_variant_grid_includes_lobpcg2(self, lap50, tmp_path):
        for row in self.variant_rows(lap50, tmp_path):
            # the standard problem applies no metric
            assert int(row["b_matvec_count"]) == 0

    def test_variant_grid_counts_the_metric_of_a_pencil(self, lap50, tmp_path):
        from lobpcg_kit import csr_from_coo
        b_path = tmp_path / "metric.mtx"
        write_matrix_market_symmetric(
            b_path, csr_from_coo(50, [(i, i, 1.0 + i / 50.0) for i in range(50)]))
        for row in self.variant_rows(lap50, tmp_path, "--metric", str(b_path)):
            assert int(row["b_matvec_count"]) > 0

    def test_rr_period_multiplies_only_lobpcg2_cells(self, lap50, tmp_path):
        out = tmp_path / "periods.csv"
        code = main(["bench", "--matrix", lap50, "--nev", "2",
                     "--grid", "variant=lobpcg,psd,lobpcg2;rr-period=1,7",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert [(row["variant"], row["rr_period"]) for row in rows] == [
            ("lobpcg", ""), ("psd", ""), ("lobpcg2", "1"), ("lobpcg2", "7")]

    @pytest.mark.parametrize("grid", ["variant=lobpcg2;block-size=0",
                                      "variant=lobpcg2;rr-period=0"])
    def test_lobpcg2_width_and_period_of_zero_are_usage_errors(self, lap50, tmp_path, grid):
        out = tmp_path / "x.csv"
        code = main(["bench", "--matrix", lap50, "--nev", "2", "--grid", grid,
                     "--out", str(out)])
        assert code == 1
        assert not out.exists()

    def test_unknown_dimension_rejected(self, lap50, tmp_path):
        code = main(["bench", "--matrix", lap50, "--nev", "2",
                     "--grid", "tolerance=1e-8", "--out", str(tmp_path / "x.csv")])
        assert code == 1


class TestPartitionCommand:
    def test_two_cliques(self, tmp_path):
        edges = [(u, v, 1.0) for i, u in enumerate(range(4)) for v in range(i + 1, 4)]
        edges += [(u, v, 1.0) for i, u in enumerate(range(4, 8)) for v in range(4 + i + 1, 8)]
        edges.append((0, 4, 1.0))
        epath = tmp_path / "cliques.csv"
        write_edge_csv(epath, edges)
        out = tmp_path / "part.json"
        code = main(["partition", "--edges", str(epath), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["labels"][:4] == [0, 0, 0, 0]
        assert doc["labels"][4:] == [1, 1, 1, 1]
        assert doc["cut_weight"] == pytest.approx(1.0)

    def test_disconnected_is_error(self, tmp_path):
        edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
                 (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)]
        epath = tmp_path / "two.csv"
        write_edge_csv(epath, edges)
        code = main(["partition", "--edges", str(epath),
                     "--out", str(tmp_path / "x.json")])
        assert code == 1


class TestUnreadableInput:
    """A file the readers refuse is a one-line usage error, not a traceback:
    the error's class and message, as a breakdown's ``cause`` gives them."""

    @pytest.mark.parametrize("content,message", [
        (b"u,v,weight\n0,1,1\n# caf\xe9\n1,2,1\n",
         "EdgeListParseError: line 3: not valid UTF-8"),
        (b"0,1,1\n1,99999999999999999999,1\n",
         "EdgeListParseError: line 2: cannot parse row '1,99999999999999999999,1'"),
    ])
    def test_partition(self, tmp_path, capsys, content, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        code = main(["partition", "--edges", str(path), "--out", str(tmp_path / "x.json")])
        assert code == 1
        assert capsys.readouterr().err == f"lobpcg-kit partition: {message}\n"

    def test_solve(self, tmp_path, capsys):
        path = tmp_path / "bad.mtx"
        path.write_bytes(b"%%MatrixMarket matrix coordinate real symmetric\n"
                         b"% caf\xe9\n1 1 1\n1 1 1.0\n")
        code = main(["solve", "--matrix", str(path), "--nev", "1",
                     "--out", str(tmp_path / "x.json")])
        assert code == 1
        assert capsys.readouterr().err == \
            "lobpcg-kit solve: MatrixMarketParseError: line 2: not valid UTF-8\n"


def test_partition_of_a_generated_csv_matches_the_library(tmp_path):
    # a heavy-tailed two-community graph, its rows shuffled and written
    # with a header and CRLF endings
    rng = np.random.default_rng(7)
    n = 300
    weight = rng.pareto(2.5, n) + 1.0
    community = rng.integers(0, 2, n)
    u = rng.choice(n, 2000, p=weight / weight.sum())
    v = rng.choice(n, 2000, p=weight / weight.sum())
    keep = (u != v) & ((community[u] == community[v]) | (rng.random(2000) < 0.03))
    edges = [(int(a), int(b), float(w)) for a, b, w in
             zip(u[keep], v[keep], rng.integers(1, 4, keep.sum()))]
    edges += [(k, (k + 1) % n, 0.125) for k in range(n)]  # keeps it connected
    edges = [edges[k] for k in rng.permutation(len(edges))]
    path = tmp_path / "graph.csv"
    path.write_bytes(("u,v,weight\r\n" + "".join(f"{a},{b},{w!r}\r\n" for a, b, w in edges))
                     .encode("utf-8"))
    out = tmp_path / "part.json"
    assert main(["partition", "--edges", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    expected = partition_graph(n, edges)
    assert doc["labels"] == expected.labels.tolist()
    assert doc["cut_weight"] == expected.cut_weight
    assert doc["fiedler_value"] == expected.fiedler_value


def test_module_entry_point(lap50, tmp_path):
    out = tmp_path / "proc.json"
    # the child does not see pytest's pythonpath setting
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [path for path in [os.environ.get("PYTHONPATH")] if path]))
    proc = subprocess.run(
        [sys.executable, "-m", "lobpcg_kit", "solve", "--matrix", lap50,
         "--nev", "1", "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(out.read_text())["status"] == "converged"


def test_lobpcg2_history_embedded(lap50, tmp_path):
    out = tmp_path / "l2h.json"
    code = main(["solve", "--matrix", lap50, "--nev", "2",
                 "--variant", "lobpcg2", "--rr-period", "5", "--history",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["manifest"]["config"]["rr_period"] == 5
    assert len(doc["history"]) >= 1
    locked = [rec["locked_count"] for rec in doc["history"]]
    assert locked == sorted(locked)
