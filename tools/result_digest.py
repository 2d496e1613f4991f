"""Digests of the benchmark workloads' results, to show that two versions of
the library compute bit-identical answers.

Run from the root of a checkout:

    python3 tools/result_digest.py --size full
    python3 tools/result_digest.py --size full --src /path/to/other/checkout/src

Prints one line per workload of ``perfbench/workloads.py``: its name and a
SHA-256 digest of every solve the workload makes, over the values, vectors,
residual norms, status, iteration count and every ``OpCounters`` field, and
for sbm_bisect also over the bisection's labels, Fiedler vector and cut
weight.  Equal lines for two ``--src`` trees mean equal answers and equal
operation counts.  BLAS runs on one thread, as in ``perfbench/run.py``.
The workloads are read from ``perfbench``; nothing there is changed.
"""

import argparse
import hashlib
import os
import sys
import tempfile
from dataclasses import astuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Set to one thread before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def digest(workload_class, size: str) -> str:
    """The SHA-256 digest of one workload's solves at ``size``, from run
    seed 0 (the run seed only permutes input records)."""
    import numpy as np
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
    hashed = hashlib.sha256()
    for result in capture.results:
        for array in (result.values, result.vectors, result.residual_norms):
            hashed.update(np.ascontiguousarray(array).tobytes())
        hashed.update(repr((result.status, result.iterations,
                            astuple(result.counters))).encode())
    for output in outputs:
        if hasattr(output, "labels"):  # a bisection
            hashed.update(output.labels.tobytes() + output.fiedler_vector.tobytes())
            hashed.update(repr(output.cut_weight).encode())
    return hashed.hexdigest()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the library sources to import (default: this checkout's)")
    args = parser.parse_args(argv)
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    from workloads import WORKLOADS

    for name, workload_class in WORKLOADS.items():
        print(name, digest(workload_class, args.size), flush=True)


if __name__ == "__main__":
    main()
