"""Benchmark of lobpcg-kit: time to solution and per-layer cost.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lap3d_std --seed 0 --seconds 20 --trace 0

``--trace 0`` times the library untraced and reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics.  Every time is in reference-host seconds
(``hostclock.py``).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the environment and every solve.
The exit code is 0 when every output checked correct, 1 when one did not,
and 2 when the library sources are missing.  README.md describes the
workloads and metrics.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: a second thread costs
# no wall time here and lets the run contend with itself.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Declares the unit of every metric the run prints.
SPEC = ROOT / "BENCHMARK.json"
#: Generated inputs live in a temporary directory here; spans are kept.
WORK = ROOT / ".perfbench"

#: One set-up sample runs set-ups back to back for at least this long and
#: takes their mean; one sample precedes each timed solve call, and
#: setup_s is the median of the samples.
SETUP_SAMPLE_S = 0.5
#: A run measures for --seconds and at least this many passes, so that
#: solve_s is a median also where one pass is long.
MIN_PASSES = 3


def _env(workload, args) -> dict:
    import numpy as np
    from hostclock import REF_S

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"threads": {var: os.environ[var] for var in THREAD_VARS},
            "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "workload": workload.name, "workload_seed": workload.SEED,
            "run_seed": args.seed, "size": args.size, "calibration_ref_s": REF_S}


class Gate:
    """Tallies the correctness of every solve of a run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.passed = 0
        self.failed = 0
        self.notes: list[str] = []
        self.last: list[dict] = []
        self.pass_seconds: list[float] = []

    def record(self, outputs) -> None:
        from lobpcg_kit import LobpcgKitError

        self.last = []
        for output in outputs:
            if isinstance(output, LobpcgKitError):
                passes, breaks, details = False, True, {"error": repr(output)}
            else:
                passes, breaks, details = self.workload.check(output)
            self.last.append(details)
            if breaks:
                self.notes.append(f"contract broken: {details}")
            self.attempted += 1
            self.passed += passes
            self.failed += breaks

    def compare(self, reference, outputs, what: str) -> None:
        """Require byte-identical answers (acceptance criterion 10)."""
        if [_answer(o) for o in reference] != [_answer(o) for o in outputs]:
            self.notes.append(f"{what}: answers differ from the first solve")


def _answer(output) -> bytes:
    if hasattr(output, "fiedler_vector"):
        return output.fiedler_vector.tobytes() + output.labels.tobytes()
    if hasattr(output, "values"):
        return output.values.tobytes() + output.vectors.tobytes()
    return repr(output).encode()


def _call(call):
    """One library solve call; a raised library error is its output."""
    from lobpcg_kit import LobpcgKitError

    try:
        return call()
    except LobpcgKitError as exc:
        return exc


def _solve(calls, clock) -> tuple[list, float]:
    """Run one pass of library solve calls; return outputs and summed time."""
    outputs, seconds = [], 0.0
    for call in calls:
        output, took = clock.measure(lambda: _call(call))
        outputs.append(output)
        seconds += took
    return outputs, seconds


def _setup_sample(workload, clock) -> tuple[dict, float]:
    """Set up back to back for SETUP_SAMPLE_S; return the last state and
    the mean time of one set-up."""
    def back_to_back():
        count, began = 0, perf_counter()
        while True:
            state = workload.setup()
            count += 1
            if perf_counter() - began >= SETUP_SAMPLE_S:
                return state, count

    (state, count), took = clock.measure(back_to_back)
    return state, took / count


def measure_end_to_end(workload, seconds: float, gate: Gate, clock) -> dict:
    state = workload.setup()
    calls = workload.calls(state)

    # Warm-up pass, untimed, under tracemalloc: the largest peak of the
    # solves' own allocations, without slowing a timed pass.
    gc.collect()
    tracemalloc.start()
    peak_bytes = 0
    for call in calls:
        tracemalloc.reset_peak()
        _call(call)
        peak_bytes = max(peak_bytes, tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()

    # Set-up samples are interleaved with the solve calls, so that both
    # medians sample the host's speed over the whole run, not one moment.
    setup_times, solve_times, first = [], [], None
    began = perf_counter()
    while len(solve_times) < MIN_PASSES or perf_counter() - began < seconds:
        outputs, pass_seconds = [], 0.0
        for k in range(len(calls)):
            state, took = _setup_sample(workload, clock)
            setup_times.append(took)
            output, took = _solve(workload.calls(state)[k:k + 1], clock)
            outputs += output
            pass_seconds += took
        solve_times.append(pass_seconds)
        gate.record(outputs)
        if first is None:
            first = outputs
        gate.compare(first, outputs, "untraced pass")
    gate.pass_seconds = solve_times
    return {"solve_s": statistics.median(solve_times),
            "setup_s": statistics.median(setup_times),
            "peak_mem_mb": peak_bytes / 1e6,
            "pass_frac": gate.passed / gate.attempted}


def _counts(results) -> dict:
    return {"iterations": sum(r.iterations for r in results),
            "matvecs": sum(r.counters.matvecs for r in results),
            "precond_applies": sum(r.counters.precond_applies for r in results)}


def _pass_layers(tracer, solve_seconds: float, scale: float) -> dict:
    """Per-layer figures of one traced pass (set-up and solve); ``scale``
    turns the tracer's wall seconds into reference-host seconds."""
    totals = tracer.self_times()

    def get(name, field):
        value = totals.get(name, (0.0, 0, 0))[field]
        return value * scale if field == 0 else value

    a_cols, a_s = get("operators.a_apply", 2), get("operators.a_apply", 0)
    precond_cols = get("operators.precond", 2)
    mmio_s = get("mmio.parse", 0) + get("mmio.edges", 0)
    layers = {
        "operators.a_apply.cols": a_cols,
        "operators.a_apply.s": a_s,
        "operators.a_apply.gflop_s": 2.0 * tracer.nnz_a * a_cols / a_s / 1e9 if a_s else 0.0,
        "operators.b_apply.cols": get("operators.b_apply", 2),
        "operators.b_apply.s": get("operators.b_apply", 0),
        "operators.precond.cols": precond_cols,
        "operators.precond.s": get("operators.precond", 0),
        "operators.assemble.s": get("operators.assemble", 0),
        "operators.diagonal.s": get("operators.diagonal", 0),
        "operators.entries.s": get("operators.entries", 0),
        "blocks.ortho.calls": get("blocks.ortho", 1),
        "blocks.ortho.s": get("blocks.ortho", 0),
        "blocks.rr.calls": get("blocks.rr", 1),
        "blocks.rr.s": get("blocks.rr", 0),
        "blocks.project.s": get("blocks.project", 0),
        "blocks.residual.s": get("blocks.residual", 0),
        "dense.eig.calls": get("dense.eig", 1),
        "dense.eig.s": get("dense.eig", 0),
        "dense.chol.calls": get("dense.chol", 1),
        "dense.chol.s": get("dense.chol", 0),
        "solver.iterations": _counts(tracer.results)["iterations"],
        "solver.a_cols_per_active": a_cols / precond_cols if precond_cols else 0.0,
        "solver.self_s": get("solver", 0),
        "solver.norm_est.s": get("solver.norm_est", 0),
        "mmio.parse.s": get("mmio.parse", 0),
        "mmio.edges.s": get("mmio.edges", 0),
        "mmio.mb_s": tracer.bytes_read / 1e6 / mmio_s if mmio_s else 0.0,
        "partition.self_s": get("partition", 0),
        "solve_s": solve_seconds * scale,
    }
    return layers


#: Exact counts; they must repeat across traced passes.
EXACT = ("operators.a_apply.cols", "operators.b_apply.cols", "operators.precond.cols",
         "blocks.ortho.calls", "blocks.rr.calls", "dense.eig.calls", "dense.chol.calls",
         "solver.iterations")


def measure_layers(workload, seconds: float, gate: Gate, clock, spans_path: Path) -> dict:
    from tracer import SolveCapture, Tracer

    calls = workload.calls(workload.setup())
    ref, _ = clock.measure(workload.scipy_reference)
    ref_s, ref_iterations = (ref[0] * clock.scale, ref[1]) if ref else (0.0, 0)

    # Untraced passes keep their SolveResults (a list append per solve) so
    # that the traced counts can be compared with the first pass's.
    first = untraced_counts = None
    untraced_times, passes = [], []
    began = perf_counter()
    while not passes or perf_counter() - began < seconds:
        capture = SolveCapture()
        try:
            capture.install()
            outputs, took = _solve(calls, clock)
        finally:
            capture.restore()
        untraced_times.append(took)
        gate.record(outputs)
        if first is None:
            first, untraced_counts = outputs, _counts(capture.results)
        gate.compare(first, outputs, "untraced pass")
        if _counts(capture.results) != untraced_counts:
            gate.notes.append("counts differ between untraced passes")

        tracer = Tracer()

        def traced_pass():
            try:
                tracer.install()
                traced_state = workload.setup()
                tracer.trace_operators(traced_state.get("a_op"), traced_state.get("b_op"),
                                       traced_state.get("precond"))
                outputs, solve_seconds = [], 0.0
                for call in workload.calls(traced_state):
                    started = perf_counter()
                    outputs.append(_call(call))
                    solve_seconds += perf_counter() - started
                return outputs, solve_seconds
            finally:
                tracer.restore()

        (outputs, solve_seconds), _ = clock.measure(traced_pass)
        gate.record(outputs)
        gate.compare(first, outputs, "traced pass")
        layers = _pass_layers(tracer, solve_seconds, clock.scale)
        traced_counts = {"iterations": layers["solver.iterations"],
                         "matvecs": layers["operators.a_apply.cols"]
                         + layers["operators.b_apply.cols"],
                         "precond_applies": layers["operators.precond.cols"]}
        if traced_counts != untraced_counts:
            gate.notes.append(f"traced counts {traced_counts} != untraced {untraced_counts}")
        if passes and any(layers[k] != passes[0][k] for k in EXACT):
            gate.notes.append("exact counts differ between traced passes")
        passes.append(layers)
    tracer.write(spans_path)

    metrics = {name: passes[0][name] if name in EXACT
               else statistics.median(p[name] for p in passes) for name in passes[0]}
    traced_s = metrics.pop("solve_s")
    metrics["ref.scipy.solve_s"], metrics["ref.scipy.iterations"] = ref_s, ref_iterations
    metrics["trace.overhead_frac"] = traced_s / statistics.median(untraced_times) - 1.0
    gate.pass_seconds = untraced_times
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="permutes the order of the input records")
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="problem size; tiny is for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "lobpcg_kit" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from hostclock import HostClock
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        workload = WORKLOADS[args.workload](args.size, args.seed, Path(workdir))
        gate = Gate(workload)
        clock = HostClock()
        if args.trace:
            spans = WORK / f"spans-{args.workload}.jsonl"
            metrics = measure_layers(workload, args.seconds, gate, clock, spans)
        else:
            metrics = measure_end_to_end(workload, args.seconds, gate, clock)

    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    correct = not gate.notes
    print(json.dumps({"env": _env(workload, args), "pass_seconds": gate.pass_seconds,
                      "wall_seconds": clock.walls, "calibration_seconds": clock.calibrations,
                      "solves": gate.last, "notes": gate.notes}))
    print(json.dumps({"correct": correct, "attempted": gate.attempted, "failed": gate.failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
