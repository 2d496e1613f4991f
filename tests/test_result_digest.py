"""Smoke test of ``tools/result_digest.py``: two runs at the tiny size print
one digest per benchmark workload, and the same digests."""

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
