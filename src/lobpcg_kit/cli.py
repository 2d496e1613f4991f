"""Command-line surface: ``solve``, ``bench`` and ``partition``.

Every output document embeds a manifest (problem paths, full config echo,
seed, tool version, timestamp, raw flags) so a run can be reproduced from
its own output file.  Exit codes: 0 converged, 1 usage/IO error, 2 iteration
cap reached, 3 breakdown.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import re
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import InvalidConfigError, LobpcgKitError
from .mmio import (
    parse_matrix_market,
    read_dense_matrix_market,
    read_edge_csv,
    write_dense_matrix_market,
)
from .operators import jacobi_precond
from .partition import partition_graph
from .solver import (
    STATUS_BREAKDOWN,
    STATUS_CONVERGED,
    STATUS_MAX_ITER,
    SolverConfig,
    lobpcg_solve,
    psd_solve,
)

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MAX_ITER = 2
EXIT_BREAKDOWN = 3

_STATUS_EXIT = {
    STATUS_CONVERGED: EXIT_OK,
    STATUS_MAX_ITER: EXIT_MAX_ITER,
    STATUS_BREAKDOWN: EXIT_BREAKDOWN,
}

_GRID_DIMS = ("variant", "block-size", "rr-period", "precond")
_VARIANTS = ("lobpcg", "lobpcg2", "psd")
_PRECONDS = ("none", "jacobi")


# -- deterministic JSON with 17-significant-digit floats -----------------

#: A lone surrogate, as ``os.fsdecode`` makes of a path byte that is not
#: UTF-8; written raw, it cannot be encoded.
_SURROGATE = re.compile("[\ud800-\udfff]")


def _json_fragment(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return f"{value:.17g}" if math.isfinite(value) else "null"
    if isinstance(value, str):  # every character below U+0020 and lone surrogate escaped
        return _SURROGATE.sub(lambda match: f"\\u{ord(match.group()):04x}",
                              json.dumps(value, ensure_ascii=False))
    if isinstance(value, dict):
        inner = ", ".join(f"{_json_fragment(str(k))}: {_json_fragment(v)}"
                          for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json_fragment(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def dumps_json(document: dict) -> str:
    return _json_fragment(document) + "\n"


def _manifest(command: str, flags: list[str], problem_paths: dict, variant: str | None,
              seed: int | None, config: dict) -> dict:
    return {
        "command": command,
        "problem_paths": problem_paths,
        "variant": variant,
        "seed": seed,
        "config": config,
        "tool_version": __version__,
        "timestamp_utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "flags": flags,
    }


class _Parser(argparse.ArgumentParser):
    """Argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="lobpcg-kit",
                     description="Sparse symmetric eigensolvers and spectral bisection")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute the smallest eigenpairs")
    solve.add_argument("--matrix", required=True, help="Matrix Market file for A")
    solve.add_argument("--metric", help="Matrix Market file for the SPD metric B")
    solve.add_argument("--nev", type=int, required=True)
    solve.add_argument("--block-size", type=int, dest="block_size")
    solve.add_argument("--tol", type=float, default=1e-8)
    solve.add_argument("--max-iter", type=int, default=500, dest="max_iter")
    solve.add_argument("--precond", choices=_PRECONDS, default="none")
    solve.add_argument("--variant", choices=_VARIANTS, default="lobpcg")
    solve.add_argument("--sub-block", type=int, dest="sub_block")
    solve.add_argument("--rr-period", type=int, dest="rr_period")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--x0", help="Matrix Market array file with the start block")
    solve.add_argument("--vectors-out", dest="vectors_out",
                       help="write eigenvectors as a Matrix Market array file")
    solve.add_argument("--history", action="store_true",
                       help="embed per-iteration records in the output")
    solve.add_argument("--out", required=True, help="output JSON path")

    bench = sub.add_parser("bench", help="run a configuration grid, write CSV")
    bench.add_argument("--matrix", required=True)
    bench.add_argument("--metric")
    bench.add_argument("--nev", type=int, required=True)
    bench.add_argument("--grid", required=True,
                       help="e.g. 'variant=lobpcg,psd;block-size=2,4;rr-period=1,5;precond=none,jacobi'")
    bench.add_argument("--tol", type=float, default=1e-8)
    bench.add_argument("--max-iter", type=int, default=500, dest="max_iter")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", required=True, help="output CSV path")

    part = sub.add_parser("partition", help="spectral bisection of a weighted graph")
    part.add_argument("--edges", required=True, help="CSV file of 'u,v,weight' rows")
    part.add_argument("--seed", type=int, default=0)
    part.add_argument("--tol", type=float, default=1e-8)
    part.add_argument("--out", required=True, help="output JSON path")

    return parser


# -- solve ----------------------------------------------------------------

def _run_variant(variant: str, args, matrix, metric, precond, *, block: int | None,
                 rr_period: int | None, history: bool = False, x0: np.ndarray | None = None):
    """Build ``variant``'s config, its block width resolved, and time its
    solve: lobpcg2 is lobpcg with sub-blocks of ``block`` columns.
    Returns ``(cfg, result, wall_seconds)``."""
    # only None takes the default; 0 is left for validate() to reject
    if variant == "lobpcg2":
        widths = {"sub_block": 1 if block is None else block,
                  "rr_period": 1 if rr_period is None else rr_period}
    else:
        widths = {"block_size": args.nev if block is None else block}
    cfg = SolverConfig(nev=args.nev, tol=args.tol, max_iter=args.max_iter, seed=args.seed,
                       record_history=history, **widths)
    solve = psd_solve if variant == "psd" else lobpcg_solve
    start = time.perf_counter()
    result = solve(matrix, cfg, b_op=metric, precond=precond, x0=x0)
    return cfg, result, time.perf_counter() - start


def cmd_solve(args, flags: list[str]) -> int:
    matrix = parse_matrix_market(args.matrix)
    metric = parse_matrix_market(args.metric) if args.metric else None
    precond = jacobi_precond(matrix) if args.precond == "jacobi" else None

    narrow = args.variant == "lobpcg2"
    if narrow and args.block_size is not None:
        raise InvalidConfigError("use --sub-block, not --block-size, with lobpcg2")
    if not narrow and (args.sub_block is not None or args.rr_period is not None):
        raise InvalidConfigError("--sub-block/--rr-period only apply to --variant lobpcg2")
    x0 = read_dense_matrix_market(args.x0) if args.x0 else None
    cfg, result, wall = _run_variant(args.variant, args, matrix, metric, precond,
                                     block=args.sub_block if narrow else args.block_size,
                                     rr_period=args.rr_period, history=args.history, x0=x0)

    document = {
        "format_version": FORMAT_VERSION,
        "manifest": _manifest(
            "solve", flags,
            {"matrix": args.matrix, "metric": args.metric, "x0": args.x0},
            args.variant, args.seed, dataclasses.asdict(cfg),
        ),
        "status": result.status,
        "cause": result.cause,
        "eigenvalues": list(result.values),
        "iterations": result.iterations,
        "residual_norms_final": list(result.residual_norms),
        "counters": dataclasses.asdict(result.counters),
    }
    if args.history:
        document["history"] = [dataclasses.asdict(rec) for rec in result.history]
    document["wall_time_seconds"] = wall

    text = dumps_json(document)  # before --out is opened, so a failure leaves no empty file
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    if args.vectors_out:
        write_dense_matrix_market(args.vectors_out, result.vectors)
    return _STATUS_EXIT[result.status]


# -- bench ------------------------------------------------------------------

def _parse_grid(spec: str) -> list[dict]:
    dims: dict[str, list] = {
        "variant": ["lobpcg"],
        "block-size": [None],
        "rr-period": [1],
        "precond": ["none"],
    }
    if not spec.strip():
        raise InvalidConfigError("empty bench grid")
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise InvalidConfigError("empty grid dimension")
        name, sep, values_text = chunk.partition("=")
        name = name.strip()
        if not sep or name not in _GRID_DIMS:
            raise InvalidConfigError(f"unknown grid dimension {name!r}")
        values = [v.strip() for v in values_text.split(",") if v.strip()]
        if not values:
            raise InvalidConfigError(f"grid dimension {name!r} has no values")
        if name == "variant":
            bad = [v for v in values if v not in _VARIANTS]
            if bad:
                raise InvalidConfigError(f"unknown variant {bad[0]!r}")
            dims[name] = values
        elif name == "precond":
            bad = [v for v in values if v not in _PRECONDS]
            if bad:
                raise InvalidConfigError(f"unknown preconditioner {bad[0]!r}")
            dims[name] = values
        else:
            try:
                dims[name] = [int(v) for v in values]
            except ValueError:
                raise InvalidConfigError(f"grid dimension {name!r} needs integers") from None
    cells = []
    for variant in dims["variant"]:
        # only lobpcg2 couples, so only its cells vary with rr-period
        periods = dims["rr-period"] if variant == "lobpcg2" else [None]
        for block, period, precond in itertools.product(
            dims["block-size"], periods, dims["precond"]
        ):
            cells.append({"variant": variant, "block_size": block,
                          "rr_period": period, "precond": precond})
    return cells


_BENCH_COLUMNS = (
    "format_version", "variant", "block_size", "rr_period", "precond", "nev",
    "seed", "iterations", "matvec_count", "precond_count", "rr_count",
    "orthonormalize_count", "wall_time_seconds", "converged", "a_matvec_count",
    "b_matvec_count",
)


def cmd_bench(args, flags: list[str]) -> int:
    cells = _parse_grid(args.grid)
    matrix = parse_matrix_market(args.matrix)
    metric = parse_matrix_market(args.metric) if args.metric else None

    rows = []
    for cell in cells:
        precond = jacobi_precond(matrix) if cell["precond"] == "jacobi" else None
        cfg, result, wall = _run_variant(cell["variant"], args, matrix, metric, precond,
                                         block=cell["block_size"],
                                         rr_period=cell["rr_period"])
        rows.append({
            "format_version": FORMAT_VERSION,
            "variant": cell["variant"],
            "block_size": cfg.sub_block or cfg.block_size,
            "rr_period": cell["rr_period"],
            "precond": cell["precond"],
            "nev": args.nev,
            "seed": args.seed,
            "iterations": result.iterations,
            "matvec_count": result.counters.matvecs,
            "precond_count": result.counters.precond_applies,
            "rr_count": result.counters.rayleigh_ritz_calls,
            "orthonormalize_count": result.counters.orthonormalizations,
            "wall_time_seconds": f"{wall:.17g}",
            "converged": "true" if result.status == STATUS_CONVERGED else "false",
            "a_matvec_count": result.counters.a_matvecs,
            "b_matvec_count": result.counters.b_matvecs,
        })

    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(_BENCH_COLUMNS) + "\n")
        for row in rows:
            handle.write(",".join("" if row[c] is None else str(row[c])
                                  for c in _BENCH_COLUMNS) + "\n")
    return EXIT_OK


# -- partition ----------------------------------------------------------------

def cmd_partition(args, flags: list[str]) -> int:
    n, edges = read_edge_csv(args.edges)
    result = partition_graph(n, edges, tol=args.tol, seed=args.seed)
    document = {
        "format_version": FORMAT_VERSION,
        "manifest": _manifest(
            "partition", flags, {"edges": args.edges}, None, args.seed,
            {"tol": args.tol, "seed": args.seed},
        ),
        "labels": [int(x) for x in result.labels],
        "fiedler_value": result.fiedler_value,
        "cut_weight": result.cut_weight,
    }
    text = dumps_json(document)  # before --out is opened, so a failure leaves no empty file
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    flags = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(flags)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "solve":
            return cmd_solve(args, flags)
        if args.command == "bench":
            return cmd_bench(args, flags)
        return cmd_partition(args, flags)
    except (LobpcgKitError, OSError) as exc:
        sys.stderr.write(f"lobpcg-kit {args.command}: {type(exc).__name__}: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
