"""Smoke test of ``tools/cpu_pairs.py`` at the tiny size: two workers on the
checkout's own sources time two pairs of passes and print, for the solve
calls and then for the set-up, both sides' quartiles, the pairs won and
the median pair ratio."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_pairs_against_its_own_src():
    done = subprocess.run([sys.executable, "tools/cpu_pairs.py", "--workload", "fe_pencil_many",
                           "--size", "tiny", "--pairs", "2", "--against", "src"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 8
    for what, (header, src, other, summary) in zip(("pass", "set-up"), (lines[:4], lines[4:])):
        assert header == f"fe_pencil_many (tiny), 2 pairs, CPU seconds per {what}:"
        for line, name in ((src, "src"), (other, "other")):
            q1, median, q3 = map(float, re.fullmatch(
                rf"\s*{name}: median (\S+) \[(\S+), (\S+)\]", line).group(2, 1, 3))
            assert 0 < q1 <= median <= q3
        won, ratio = re.fullmatch(
            r"src faster in (\d) of 2 pairs, median pair ratio src/other (\S+)",
            summary).groups()
        assert 0 <= int(won) <= 2 and float(ratio) > 0
