"""A fixed reference kernel that measures how fast the machine is right now.

On a shared machine the speed available to one process drifts by a quarter
or more over minutes, so wall-clock throughput measured in different
minutes is not comparable.  The worker times this kernel between ops and
divides each op's time by the kernel's median time in the same round.  The
kernel mixes the two kinds of work the package does, Python tuple, dict
and sort work on edge lists and numpy array shifts over a 3^9 boolean
grid, and it never calls the package, so no change to the package can
move it.
"""
from __future__ import annotations

import time

import numpy as np

_GRID = np.zeros((3,) * 9, dtype=bool)
_GRID[(0,) * 9] = True


def _kernel() -> int:
    edges = [((i * 7919) % 211, (i * 104729) % 197) for i in range(6000)]
    degree: dict[int, int] = {}
    for u, v in edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    key = tuple(sorted(edges))
    reach = _GRID
    for k in range(30):
        reach = np.roll(np.roll(reach, 1, axis=k % 9), -1, axis=(k + 4) % 9) | reach
    return len(key) + len(degree) + int(reach.sum())


def reference_seconds() -> float:
    """Median of five timed kernel runs (about 5 ms each)."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[2]
