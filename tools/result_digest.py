"""Digests of the benchmark workloads' results, to show that two versions of
the library compute bit-identical answers, or how far apart they are.

Run from the root of a checkout:

    python3 tools/result_digest.py --size full
    python3 tools/result_digest.py --size full --src /path/to/other/checkout/src
    python3 tools/result_digest.py --size full --against /path/to/other/checkout/src

Prints one line per workload of ``perfbench/workloads.py``: its name and a
SHA-256 digest of every solve the workload makes, over the values, vectors,
residual norms, status, iteration count and every ``OpCounters`` field, and
for sbm_bisect also over the bisection's labels, Fiedler vector and cut
weight.  Equal lines for two ``--src`` trees mean equal answers and equal
operation counts.

With ``--against OTHER_SRC`` it runs the workloads on ``--src`` and on
``OTHER_SRC``, each in its own process, and prints one line per solve: both
trees' status, iterations and ``OpCounters`` fields (``this/other`` where
they differ), and the largest relative difference of the eigenvalues.  A
change that moves arithmetic at rounding level shows there as a small
difference with equal counts.

BLAS runs on one thread, as in ``perfbench/run.py``.  The workloads are
read from ``perfbench``; nothing there is changed.
"""

import argparse
import hashlib
import os
import pickle
import subprocess
import sys
import tempfile
from dataclasses import asdict, astuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Set to one thread before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def solves(workload_class, size: str):
    """One workload's solve results, those inside ``partition_graph``
    included, and its outputs at ``size``, from run seed 0 (the run seed
    only permutes input records)."""
    from tracer import SolveCapture

    with tempfile.TemporaryDirectory() as workdir:
        workload = workload_class(size, 0, Path(workdir))
        calls = workload.calls(workload.setup())
        capture = SolveCapture()  # keeps the solve partition_graph makes too
        capture.install()
        try:
            outputs = [call() for call in calls]
        finally:
            capture.restore()
    return capture.results, outputs


def digest(results, outputs) -> str:
    """The SHA-256 digest of a workload's :func:`solves`."""
    import numpy as np

    hashed = hashlib.sha256()
    for result in results:
        for array in (result.values, result.vectors, result.residual_norms):
            hashed.update(np.ascontiguousarray(array).tobytes())
        hashed.update(repr((result.status, result.iterations,
                            astuple(result.counters))).encode())
    for output in outputs:
        if hasattr(output, "labels"):  # a bisection
            hashed.update(output.labels.tobytes() + output.fiedler_vector.tobytes())
            hashed.update(repr(output.cut_weight).encode())
    return hashed.hexdigest()


def records(workloads: dict, size: str) -> dict:
    """Per workload, each solve's status, iterations, counters and values."""
    return {name: [(result.status, result.iterations, asdict(result.counters), result.values)
                   for result in solves(workload_class, size)[0]]
            for name, workload_class in workloads.items()}


def compare(size: str, src: Path, other: Path) -> None:
    """Print the per-solve comparison of the trees ``src`` and ``other``."""
    import numpy as np

    runs = []
    with tempfile.TemporaryDirectory() as workdir:
        for k, tree in enumerate((src, other)):
            path = Path(workdir) / f"{k}.pickle"
            subprocess.run([sys.executable, __file__, "--size", size, "--src", str(tree),
                            "--records", str(path)], check=True)
            runs.append(pickle.loads(path.read_bytes()))
    for name, mine in runs[0].items():
        theirs = runs[1][name]
        if len(mine) != len(theirs):
            print(f"{name}: {len(mine)} solves against {len(theirs)}")
            continue
        for k, (one, two) in enumerate(zip(mine, theirs)):
            fields = [f"status {one[0]}" if one[0] == two[0] else f"status {one[0]}/{two[0]}",
                      f"iterations {one[1]}" if one[1] == two[1]
                      else f"iterations {one[1]}/{two[1]}"]
            fields += [f"{field} {count}" if count == two[2][field]
                       else f"{field} {count}/{two[2][field]}" for field, count in one[2].items()]
            values, reference = one[3], two[3]
            rel = (np.max(np.abs(values - reference) / np.abs(reference))
                   if values.shape == reference.shape else np.inf)
            print(f"{name} solve {k}: " + ", ".join(fields) + f", values rel diff {rel:.1e}",
                  flush=True)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the library sources to import (default: this checkout's)")
    parser.add_argument("--against", type=Path, metavar="OTHER_SRC",
                        help="compare every solve with the library sources OTHER_SRC")
    parser.add_argument("--records", type=Path, help=argparse.SUPPRESS)  # a child of --against
    args = parser.parse_args(argv)
    if args.against is not None:
        compare(args.size, args.src.resolve(), args.against.resolve())
        return
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    from workloads import WORKLOADS

    if args.records is not None:
        args.records.write_bytes(pickle.dumps(records(WORKLOADS, args.size)))
        return
    for name, workload_class in WORKLOADS.items():
        print(name, digest(*solves(workload_class, args.size)), flush=True)


if __name__ == "__main__":
    main()
