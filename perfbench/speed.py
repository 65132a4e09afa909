"""Machine-speed probe, so end-to-end times are reported at a reference speed.

The shared 2-vCPU VM the benchmark was written on runs the same code up to
40% slower in phases that last from seconds to minutes, often longer than a
run; averaging inside a run cannot remove that. So every run also times a
fixed loop of integer arithmetic between the workload's units, and scales each
unit's times by ``REFERENCE_S`` over the median probe time of the seconds
around it. The probe never calls the package and allocates no tracked
objects, so a change to the package moves the workload's times and not the
probe's. README.md gives the spreads with and without the scaling; run
records keep the raw times and every probe sample.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

# The probe's typical time on the machine the benchmark was written on (Intel
# Xeon, Python 3.11): times are reported as if every probe had taken this long.
REFERENCE_S = 0.8e-3
PROBE_EVERY_S = 0.2  # at most one probe per this many seconds of work
WINDOW_S = 5.0  # a unit's speed is the median probe within half of this of its end


def _loop() -> int:
    s = 0
    for i in range(10000):
        s += i * i % 7
    return s


def probe() -> float:
    """Seconds the probe takes: the faster of two back-to-back runs."""
    best = float("inf")
    for _ in range(2):
        start = perf_counter()
        _loop()
        best = min(best, perf_counter() - start)
    return best


class Probes:
    """Timestamped probe samples, and the time spent taking them."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.samples: list[float] = []
        self.spent = 0.0

    def take(self, force: bool = False) -> None:
        start = perf_counter()
        if force or not self.at or start - self.at[-1] >= PROBE_EVERY_S:
            self.samples.append(probe())
            self.at.append(perf_counter())
            self.spent += self.at[-1] - start

    def factor(self, t: float | None = None) -> float:
        """Multiply a time measured at ``t`` (or over all samples) by this to get it at the reference speed."""
        window = self.samples
        if t is not None:
            lo = bisect.bisect_left(self.at, t - WINDOW_S / 2)
            hi = bisect.bisect_right(self.at, t + WINDOW_S / 2)
            window = self.samples[lo:hi] or window
        return REFERENCE_S / statistics.median(window)
