"""A fixed numpy workload, independent of conewalk, timed between solves.

Shared hosts change speed by tens of percent within a minute.  On a shared
2-vCPU Xeon VM, one fixed solve took 0.41–0.60 s from one 3-s window to the
next, and whole 38-s runs of the same seed differed by 30%.  The reference
kernel slows down with the machine, so a solve's wall time divided by the
reference time measured next to it keeps the work and drops most of the
drift.  The kernel mixes a Python loop over tiny vectors (like the walk)
with batched small dense linear algebra (like the enumerations).  It uses
no conewalk code, so a change to the solver cannot move it.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Times are reported in seconds at a nominal speed at which the kernel takes
# this long, close to its typical time on the 2-vCPU Xeon VM (2.0 GHz) the
# benchmark was tuned on.
NOMINAL_S = 0.005
INTERVAL_S = 0.2   # re-measure when the last measurement is older than this
WINDOW = 5         # the local reference is the median of the last WINDOW
WARMUP = 20


def at_nominal(wall_s: float, ref_s: float) -> float:
    """Wall time measured while the kernel took ref_s, at the nominal speed."""
    return wall_s * NOMINAL_S / ref_s


class ReferenceClock:
    """Times the reference kernel; ``local()`` gives the current reference time."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._vecs = rng.standard_normal((64, 5))
        self._target = rng.standard_normal(5)
        self._mats = rng.standard_normal((1500, 4, 4))
        self._rhs = rng.standard_normal((1500, 4, 1))
        self._tall = rng.standard_normal((1500, 5, 3))
        self.times: list[float] = []
        self._last = 0.0
        for _ in range(WARMUP):
            self._kernel()
        for _ in range(WINDOW):
            self.measure()

    def _kernel(self) -> float:
        acc = 0.0
        for k in range(300):
            acc += float(np.sum(np.abs(self._vecs[k % 64] - self._target)))
        np.linalg.solve(self._mats, self._rhs)
        np.linalg.qr(self._tall)
        return acc

    def measure(self) -> None:
        t0 = perf_counter()
        self._kernel()
        self._last = perf_counter()
        self.times.append(self._last - t0)

    def local(self) -> float:
        """Median of the latest measurements, refreshed every INTERVAL_S."""
        if perf_counter() - self._last >= INTERVAL_S:
            self.measure()
        return statistics.median(self.times[-WINDOW:])
