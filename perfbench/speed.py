"""Machine-speed probe: scale measured times to the host's full speed.

On the shared host the benchmark was defined on, the same pass of pure
Python work takes between 1x and 1.7x its best time, in phases lasting
several seconds: the host time-slices the client's CPU with other
tenants (lost time comes in chunks of milliseconds) and sometimes runs it
at a lower instruction rate.  Timed passes alone spread by 15-30% between
runs.  ``SpeedProbe`` runs a fixed interpreter loop of about 5 ms from a
``SIGALRM`` handler every ``INTERVAL_S`` seconds, between the bytecodes of
whatever the client is doing, and records how long it took.

A signal that fell due while the host had the CPU away is delivered when
it comes back, and a probe started then misses the next lost slice more
often than a probe started at a random moment.  So a probe runs only when
the handler starts within ``ON_TIME_S`` of the timer's due time.  Probe
time is taken out of a measured interval, and the rest is scaled by
``NOMINAL_S`` over the mean probe time in and around the interval: the
time the interval would have taken at the speed where the loop takes
``NOMINAL_S``.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array

INTERVAL_S = 0.1
ON_TIME_S = 0.0005
# a cell shorter than a second gets its speed from the samples around it
PAD_S = 1.0
PROBE_LOOPS = 100_000
# the probe's duration at full speed on the 2-core box (Python 3.11) the
# benchmark was defined on; scaled times are seconds at that speed
NOMINAL_S = 0.0053


def timed_probe() -> float:
    """Seconds one run of the probe loop takes now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x += i * i
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the probe loop on a real-time interval timer while entered."""

    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self.late = 0
        self._previous = None

    def _tick(self, signum, frame):
        remaining, _ = signal.getitimer(signal.ITIMER_REAL)
        if INTERVAL_S - remaining > ON_TIME_S:
            self.late += 1
            return
        self.at.append(time.perf_counter())
        self.took.append(timed_probe())

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def spent(self, t0: float, t1: float) -> float:
        """Seconds the probe itself ran inside [t0, t1]."""
        i, j = bisect.bisect_left(self.at, t0), bisect.bisect_left(self.at, t1)
        return sum(self.took[i:j])

    def factor(self, t0: float, t1: float) -> float:
        """Nominal over mean probe time, from the samples within ``PAD_S`` of [t0, t1]."""
        i = bisect.bisect_left(self.at, t0 - PAD_S)
        j = bisect.bisect_left(self.at, t1 + PAD_S)
        took = self.took[i:j] or self.took
        return NOMINAL_S * len(took) / sum(took) if took else 1.0
