"""The library runs on numpy alone: scipy is a benchmark and test yardstick,
never a runtime import."""

import os
import subprocess
import sys
from pathlib import Path

#: Run in a child interpreter in which every ``import scipy...`` fails.
CHILD = r"""
import sys
sys.modules["scipy"] = None

from pathlib import Path

import numpy as np

import lobpcg_kit as kit
from lobpcg_kit.cli import main

a = kit.DiagonalOperator(np.arange(1.0, 41.0))
b = kit.DiagonalOperator(np.linspace(1.0, 2.0, 40))
for solve, cfg in ((kit.lobpcg_solve, kit.SolverConfig(nev=2)),
                   (kit.psd_solve, kit.SolverConfig(nev=2)),
                   (kit.lobpcg2_solve, kit.Lobpcg2Config(nev=3, sub_block=2))):
    res = solve(a, cfg, b_op=b, precond=kit.jacobi_precond(a))
    assert res.status == "converged", (solve.__name__, res.status)

# two triangles joined by one edge
edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0),
         (2, 3, 0.1)]
labels = kit.partition_graph(6, edges).labels
assert list(labels) in ([0, 0, 0, 1, 1, 1], [1, 1, 1, 0, 0, 0]), labels

out = Path(sys.argv[1])
lines = ["%%MatrixMarket matrix coordinate real symmetric", "20 20 39"]
lines += [f"{i} {i} 2" for i in range(1, 21)] + [f"{i + 1} {i} -1" for i in range(1, 20)]
(out / "lap20.mtx").write_text("\n".join(lines) + "\n")
code = main(["solve", "--matrix", str(out / "lap20.mtx"), "--nev", "2",
             "--out", str(out / "solve.json")])
assert code == 0, code
assert not [name for name, module in sys.modules.items()
            if name.split(".")[0] == "scipy" and module is not None]
"""


def test_library_and_cli_run_without_scipy(tmp_path):
    # the child does not see pytest's pythonpath setting
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [path for path in [os.environ.get("PYTHONPATH")] if path]))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "solve.json").exists()
