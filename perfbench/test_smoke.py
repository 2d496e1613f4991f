"""Smoke test of the benchmark: every workload at a tiny size.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_smoke.py

Checks that each run prints every metric of BENCHMARK.json with its unit,
that every tiny solve passes the correctness gate, that the exact counts
repeat across two traced runs, and that the benchmark refuses to run
without the library sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT = ("solver.iterations", "operators.a_apply.cols", "operators.b_apply.cols",
         "operators.precond.cols")


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(workload: str, seed: int, trace: int) -> dict:
    done = run(workload, seed, trace)
    assert done.returncode == 0, done.stderr + done.stdout
    return json.loads(done.stdout.splitlines()[-1])


def assert_metrics(printed: dict, declared: list) -> None:
    assert {name: m["unit"] for name, m in printed["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_workload(workload):
    plain = result(workload, 0, 0)
    assert plain["correct"] and plain["failed"] == 0
    assert_metrics(plain, SPEC["end_to_end"])
    assert plain["metrics"]["pass_frac"]["value"] == 1.0

    # Different --seed values permute the input records only, so the
    # counts must repeat exactly.
    traced = [result(workload, seed, 1) for seed in (0, 1)]
    for printed in traced:
        assert printed["correct"] and printed["failed"] == 0
        assert_metrics(printed, SPEC["per_layer"])
    for name in EXACT:
        assert traced[0]["metrics"][name]["value"] == traced[1]["metrics"][name]["value"]


def test_refuses_without_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(SPEC["workloads"][0]["name"], 0, 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
