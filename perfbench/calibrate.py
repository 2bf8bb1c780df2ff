"""Machine-speed probe, timed next to every measurement of a run.

The shared machine this benchmark was built on changes speed with its other
tenants, by up to 2.8x within an hour, and all three workloads slowed by
nearly the same factor (2.6-2.8x) when it did.  CPU time does not remove
that: the process is not descheduled, each instruction just takes longer.
So every timed figure is scaled by a fixed piece of work that does not
touch ``rsgd``: its CPU time, measured in the same interpreter right before
and after each round (or right after set-up), divided by ``NOMINAL_S``, is
the *slowdown* of the machine at that moment, and a figure is reported as
it would read at slowdown 1.  The probe mixes the kinds of work the workloads
do: a Python loop of small numpy calls, matrix-vector products, and
formatting and parsing of ``%.17g`` text.  Its arrays stay below 128 KiB,
glibc's initial mmap threshold: freeing a larger one would raise that
threshold and move the workload's later allocations, and with them its
peak RSS.

A change to ``rsgd`` cannot move the probe, so the scaled figures compare
two versions of the program as their raw times would on an unshared
machine.  A change to this file or to ``NOMINAL_S`` breaks comparability
with earlier results.
"""

from __future__ import annotations

import time

import numpy as np

# median probe CPU time on the machine of the README baseline, fast stretch
NOMINAL_S = 0.1055


def _work() -> float:
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((16, 4))
    x = pts[0] / np.linalg.norm(pts[0])
    for _ in range(6000):
        idx = rng.integers(0, 16, size=4)
        g = x - pts[idx].mean(axis=0)
        g -= (g @ x) * x
        x = x - 0.1 * g
        x /= np.sqrt(x @ x)
    a = rng.standard_normal((1500, 8))
    y = a[:, 0].copy()
    v = np.ones(8)
    for _ in range(1000):
        r = a @ v - y
        v -= 1e-6 * (a.T @ r)
    lines = [",".join("%.17g" % f for f in row) for _ in range(5) for row in a[:, :6]]
    total = sum(float(s) for line in lines for s in line.split(","))
    return float(x[0] + v[0] + total)


def probe() -> float:
    """CPU seconds of one pass of the fixed work."""
    start = time.process_time()
    _work()
    return time.process_time() - start
