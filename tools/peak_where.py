"""Where one benchmark workload's solves reach their tracemalloc peak.

Run from the root of a checkout:

    python3 tools/peak_where.py --workload fe_pencil_many
    python3 tools/peak_where.py --workload sbm_bisect --src /path/to/other/src --size tiny

Sets the workload of ``perfbench/workloads.py`` up at run seed 0, with one
BLAS thread, and measures each solve call's tracemalloc peak as
``perfbench/run.py`` measures ``peak_mem_mb``: in its first pass after the
set-up, under tracemalloc, with ``reset_peak`` before each call.  Then it
runs the calls again under a profile hook that reads tracemalloc at every
function return, of Python and C functions alike, and keeps the frames of
the library at the return where the peak last rose: the peak was reached
within that function, or, for a C function, within the line that called
it.  Code first run under a profile hook allocates some 40 KB once, so a
profiled pass runs first and is not reported; the hook's own allocations
may still move the reported pass's peak by some hundred bytes.

Prints the largest peak in MB, as ``peak_mem_mb``, then per call its peak
in MB and the innermost library frames, innermost first.  Nothing under
``perfbench`` is changed.
"""

import argparse
import gc
import os
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Set to one thread before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: Library frames printed per call.
DEPTH = 4


def peaks(calls) -> list:
    """Each call's tracemalloc peak in bytes, as ``perfbench/run.py``
    measures it."""
    gc.collect()
    tracemalloc.start()
    found = []
    try:
        for call in calls:
            tracemalloc.reset_peak()
            call()
            found.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return found


def peak_frames(call, library: str) -> tuple:
    """``(peak, frames)``: ``call``'s tracemalloc peak in bytes under the
    profile hook, and the ``(file, line, function)`` of the innermost
    library frames at the return where it last rose."""
    best, where = [0], [None]

    def hook(frame, event, arg):
        if event in ("return", "c_return"):
            peak = tracemalloc.get_traced_memory()[1]
            if peak > best[0]:
                best[0], kept = peak, []
                while frame is not None and len(kept) < DEPTH:
                    code = frame.f_code
                    if code.co_filename.startswith(library):
                        kept.append((code, frame.f_lineno))
                    frame = frame.f_back
                where[0] = kept

    gc.collect()
    tracemalloc.start()
    sys.setprofile(hook)
    try:
        call()
    finally:
        sys.setprofile(None)
        tracemalloc.stop()
    return best[0], [(Path(code.co_filename).name, line, code.co_name)
                     for code, line in where[0] or []]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the library sources to import (default: this checkout's)")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    src = args.src.resolve()
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory() as workdir:
        workload = WORKLOADS[args.workload](args.size, 0, Path(workdir))
        calls = workload.calls(workload.setup())
        measured = peaks(calls)
        print(f"{args.workload} ({args.size}): peak_mem_mb {max(measured) / 1e6:.3f}")
        library = str(src / "lobpcg_kit")
        for call in calls:  # the unreported profiled pass
            peak_frames(call, library)
        for k, (call, peak) in enumerate(zip(calls, measured)):
            hooked, frames = peak_frames(call, library)
            print(f"call {k}: peak {peak / 1e6:.3f} MB ({hooked / 1e6:.3f} MB under the hook)")
            for name, line, function in frames:
                print(f"  {name}:{line} {function}")


if __name__ == "__main__":
    main()
