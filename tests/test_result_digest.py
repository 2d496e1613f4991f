"""Smoke tests of ``tools/result_digest.py`` at the tiny size: two runs print
one digest per benchmark workload, and the same digests; ``--against`` its
own sources prints no difference."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def digests() -> list:
    done = subprocess.run([sys.executable, "tools/result_digest.py", "--size", "tiny"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return [line.split() for line in done.stdout.splitlines()]


def test_digests_repeat():
    first = digests()
    assert [name for name, _ in first] == ["lap3d_std", "fe_pencil_many", "sbm_bisect"]
    assert all(len(digest) == 64 for _, digest in first)
    assert digests() == first


def test_against_its_own_src_shows_no_difference():
    # --against runs each tree in its own process and prints one line per
    # solve; a tree compared with itself differs in no count and no value
    done = subprocess.run([sys.executable, "tools/result_digest.py", "--size", "tiny",
                           "--against", "src"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[0] for line in lines] == [
        "lap3d_std", "fe_pencil_many", "fe_pencil_many", "sbm_bisect"]
    for line in lines:
        assert "/" not in line  # a field that differs reads this/other
        assert line.endswith("values rel diff 0.0e+00")
        assert "orthonormalizations" in line and "status converged" in line
