"""Smoke test of ``tools/peak_where.py`` at the tiny size: it prints the
workload's peak in MB, then each solve call's peak and the library frames
where it was reached."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_peak_of_each_call_and_where_it_was_reached():
    done = subprocess.run([sys.executable, "tools/peak_where.py", "--workload", "fe_pencil_many",
                           "--size", "tiny"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    top = float(re.fullmatch(r"fe_pencil_many \(tiny\): peak_mem_mb (\S+)", lines[0]).group(1))
    calls = [k for k, line in enumerate(lines) if line.startswith("call ")]
    assert len(calls) == 2  # one lobpcg2 solve per start seed
    peaks = []
    for k, at in enumerate(calls):
        peak, hooked = map(float, re.fullmatch(
            rf"call {k}: peak (\S+) MB \((\S+) MB under the hook\)", lines[at]).groups())
        assert 0 < peak and 0 < hooked
        peaks.append(peak)
        frames = lines[at + 1:calls[k + 1] if k + 1 < len(calls) else len(lines)]
        assert 1 <= len(frames) <= 4
        assert all(re.fullmatch(r"  \w+\.py:\d+ \S+", frame) for frame in frames)
    assert top == max(peaks)
