"""Times in reference-host seconds, steady while the host's speed drifts.

The host this benchmark runs on drifts: the same solve ran up to twice as
fast at one moment as at another a few minutes later, in CPU time as much
as in wall time (README.md).  Medians within one run cannot remove that.
So a fixed calibration kernel, the benchmark's own code that never calls
the library, runs after every timed region.  A region's wall time is
scaled by ``REF_S`` over the mean of the kernel's times just before and
just after it.  A slow spell of the host slows the kernel as much as the
region and cancels out; a change to the library moves only the region.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np

#: About the kernel's time on the reference host (2 vCPUs, one BLAS
#: thread).  Scaled times read as seconds on a host that runs the kernel in
#: REF_S.  A fixed constant: changing it rescales every reported time.
REF_S = 0.2


def _inputs():
    rng = np.random.default_rng(20170828)
    lines = [f"{i} {j} {v:.17g}" for i, j, v in zip(
        rng.integers(0, 9999, 16000).tolist(), rng.integers(0, 9999, 16000).tolist(),
        rng.standard_normal(16000).tolist())]
    n = 20000
    cols = rng.integers(0, n, 9 * n)
    return {"lines": lines, "cols": cols, "vals": rng.standard_normal(9 * n),
            "starts": np.arange(0, 9 * n, 9), "x": rng.standard_normal((n, 8)),
            "v": rng.standard_normal((1200, 4))}


_INPUTS = _inputs()


def kernel() -> float:
    """The library's three kinds of work, in miniature: an interpreter loop
    over parsed text and a dict (file parsing, assembly), a gather with
    segmented sums (the CSR apply) and small dense factorizations
    (Rayleigh-Ritz, Cholesky)."""
    data = _INPUTS
    accum: dict = {}
    for _ in range(2):
        for line in data["lines"]:
            i, j, v = line.split()
            key = (int(i), int(j))
            accum[key] = accum.get(key, 0.0) + float(v)
    total = float(len(accum))
    for _ in range(2):
        products = data["vals"][:, None] * data["x"][data["cols"], :]
        total += float(np.add.reduceat(products, data["starts"], axis=0)[0, 0])
    v = data["v"]
    for _ in range(500):
        q, _r = np.linalg.qr(v)
        gram = v.T @ v
        total += float(np.linalg.eigh(gram)[0][0]) + float(np.linalg.cholesky(gram)[0, 0])
        total += float(q[0, 0])
    return total


class HostClock:
    """Measures regions in reference-host seconds.

    ``measure(func)`` runs ``func``, then the kernel, and returns the
    result and the region's scaled seconds; ``scale`` is the factor last
    applied.  ``walls`` and ``calibrations`` keep the raw seconds.
    """

    def __init__(self):
        kernel()
        self.walls: list[float] = []
        self.calibrations: list[float] = []
        self.before = self._calibrate()
        self.scale = 1.0

    def _calibrate(self) -> float:
        gc.collect()
        began = perf_counter()
        kernel()
        took = perf_counter() - began
        self.calibrations.append(took)
        return took

    def measure(self, func):
        gc.collect()
        began = perf_counter()
        result = func()
        wall = perf_counter() - began
        after = self._calibrate()
        self.scale = REF_S / ((self.before + after) / 2.0)
        self.before = after
        self.walls.append(wall)
        return result, wall * self.scale
