"""Host speed probe: normalizes measured times to a nominal host speed.

On a shared virtual machine the speed of the host drifts by 30% and more
over minutes, as other tenants' work comes and goes; see README.md.  A
timing taken during a slow phase says nothing about the program.  So the
benchmark times a fixed reference kernel every quarter second while it
runs, and scales each measured time by ``NOMINAL_S / local``, where
``local`` is the median kernel time within a second of the measurement.
The kernel mixes the kinds of work the workloads do: small-matrix
factorizations called from Python, and JSON encoding.  It is the
benchmark's own code, so no change to the library moves it.  It runs with
the garbage collector off, so the size of the heap the workload left
behind does not change its time.
"""

from __future__ import annotations

import bisect
import gc
import json
import statistics
from time import perf_counter

import numpy as np

NOMINAL_S = 0.005  # kernel time at the host speed the figures are quoted at
INTERVAL_S = 0.25  # time between probes
WINDOW_S = 1.0  # probes this close to a measurement set its scale


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._mats = [rng.standard_normal((5, 4)) for _ in range(10)]
        self._floats = [float(x) for x in rng.standard_normal(2500)]
        self.times = []  # probe midpoints, ascending
        self.seconds = []  # kernel time of each probe

    def _kernel(self) -> float:
        acc = 0.0
        for m in self._mats:
            acc += float(np.linalg.svd(m, compute_uv=False)[0])
            q, _ = np.linalg.qr(m)
            acc += sum(float(x) for x in q.ravel())
        return acc + len(json.dumps(self._floats, indent=1))

    def sample(self, count=1):
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                start = perf_counter()
                self._kernel()
                end = perf_counter()
                self.times.append(0.5 * (start + end))
                self.seconds.append(end - start)
        finally:
            if enabled:
                gc.enable()

    def maybe_sample(self):
        """Probe if due; after a long gap (a long op), probe three times."""
        gap = perf_counter() - self.times[-1] if self.times else WINDOW_S
        if gap >= WINDOW_S:
            self.sample(3)
        elif gap >= INTERVAL_S:
            self.sample()

    def scale(self, start, end) -> float:
        """Factor taking a time measured over [start, end] to nominal speed."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.seconds[lo:hi]
        if len(near) < 3:
            mid = 0.5 * (start + end)
            nearest = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - mid))
            near = [self.seconds[i] for i in nearest[:3]]
        return NOMINAL_S / statistics.median(near)

    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.seconds)
