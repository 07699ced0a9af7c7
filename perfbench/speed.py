"""Host speed index, so that times read the same on a fast or slow host.

The machine this benchmark was built on is shared: for stretches of tens
of seconds it runs the same code up to 1.7x slower, and no statistic
taken within one run removes that.  A fixed probe kernel, which does not
touch riskconvex, is timed before and after every timed job; the job's
seconds are scaled by REFERENCE_PROBE_S over the mean of the two probes.
Gated times are therefore seconds at the speed where the probe takes
REFERENCE_PROBE_S.  A change to riskconvex moves them exactly as it moves
raw seconds, because the probe does not run riskconvex code.
"""

from __future__ import annotations

import time

import numpy as np

# Best-of-3 probe time on the reference host (2-core x86 VM) at its
# faster speed; it only sets the unit.
REFERENCE_PROBE_S = 2.2e-3


class SpeedProbe:
    """Times a small mix of interpreter, small-array and BLAS work."""

    def __init__(self):
        self._matrix = np.random.default_rng(0).standard_normal((120, 120))
        self._vector = np.ones(8)
        self.measure()  # first calls pay for lazy initialisation

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i
        v = self._vector
        for _ in range(1000):
            v @ v
        a = self._matrix
        for _ in range(5):
            a @ a
        return time.perf_counter() - t0

    def measure(self) -> float:
        """Best of three kernel times, in seconds."""
        return min(self._kernel() for _ in range(3))


def reference_seconds(seconds: float, probe_before: float, probe_after: float) -> float:
    """Measured seconds expressed at the reference host speed."""
    return seconds * REFERENCE_PROBE_S / (0.5 * (probe_before + probe_after))
