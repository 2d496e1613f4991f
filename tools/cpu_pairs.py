"""Paired CPU times of one benchmark workload on two versions of the library.

Run from the root of a checkout:

    python3 tools/cpu_pairs.py --workload fe_pencil_many --against /path/to/other/src
    python3 tools/cpu_pairs.py --workload lap3d_std --against OTHER_SRC --src SRC --pairs 40

It starts one worker process per library tree, ``--src`` (this checkout's
``src`` by default) and ``OTHER_SRC``, each with one BLAS thread as in
``perfbench/run.py``.  Each worker sets the workload of
``perfbench/workloads.py`` up once, at run seed 0, and warms it with one
untimed pass.  Then the workers run one pass each in turn, ``--pairs``
times, the one that goes first alternating: one more ``setup()`` of the
workload, whose result is dropped, then its solve calls.  Both are timed
by ``time.process_time``, the worker's own CPU time, so that a second
process on the host shows less than in wall time.

Prints, for the solve calls and then for the set-up, the median and
quartiles of each side's seconds per pass, the pairs ``--src`` won and the
median of the pair ratios ``src/other``.  A set-up timed in process is a
cross-check on ``perfbench/run.py``'s ``setup_s``, which moves with the
solve timed before it.  Nothing under ``perfbench`` is changed.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Set to one thread before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def worker(src: Path, workload_name: str, size: str) -> None:
    """Set the workload up once, warm it, print ``ready``, then time one
    pass per line read from standard input and print the CPU seconds of its
    set-up and of its solve calls."""
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory() as workdir:
        workload = WORKLOADS[workload_name](size, 0, Path(workdir))
        calls = workload.calls(workload.setup())
        for call in calls:  # the warm-up pass
            call()
        print("ready", flush=True)
        for _ in sys.stdin:
            began = time.process_time()
            workload.setup()
            set_up = time.process_time()
            for call in calls:
                call()
            print(repr(set_up - began), repr(time.process_time() - set_up), flush=True)


def quartiles(times: list) -> tuple:
    """``(q1, median, q3)`` of ``times``."""
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return q1, median, q3


def pairs(src: Path, other: Path, workload: str, size: str, count: int) -> list:
    """``count`` pairs ``(src seconds, other seconds)`` of one pass each,
    where a side's seconds are ``(set-up, solve calls)``."""
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    workers = [subprocess.Popen([sys.executable, __file__, "--worker", "--src", str(tree),
                                 "--workload", workload, "--size", size],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                env=env)
               for tree in (src, other)]
    try:
        for process in workers:
            if process.stdout.readline().strip() != "ready":
                raise SystemExit(f"a worker failed to set {workload} up")
        timed = []
        for k in range(count):
            seconds = [(), ()]
            for side in (0, 1) if k % 2 == 0 else (1, 0):
                workers[side].stdin.write("pass\n")
                workers[side].stdin.flush()
                seconds[side] = tuple(map(float, workers[side].stdout.readline().split()))
            timed.append(tuple(seconds))
        return timed
    finally:
        for process in workers:
            process.stdin.close()
            process.wait()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--against", type=Path, metavar="OTHER_SRC",
                        help="the library sources to compare with")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the library sources to time (default: this checkout's)")
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.src.resolve(), args.workload, args.size)
        return
    if args.against is None or args.pairs < 2:
        parser.error("--against is required, and --pairs must be at least 2")
    timed = pairs(args.src.resolve(), args.against.resolve(), args.workload, args.size,
                  args.pairs)
    for what, part in (("pass", 1), ("set-up", 0)):
        paired = [(mine[part], theirs[part]) for mine, theirs in timed]
        print(f"{args.workload} ({args.size}), {args.pairs} pairs, CPU seconds per {what}:")
        for name, times in (("src", [mine for mine, _ in paired]),
                            ("other", [theirs for _, theirs in paired])):
            q1, median, q3 = quartiles(times)
            print(f"{name:>5}: median {median:.4f} [{q1:.4f}, {q3:.4f}]")
        won = sum(mine < theirs for mine, theirs in paired)
        ratio = statistics.median(mine / theirs for mine, theirs in paired)
        print(f"src faster in {won} of {args.pairs} pairs, "
              f"median pair ratio src/other {ratio:.4f}")


if __name__ == "__main__":
    main()
