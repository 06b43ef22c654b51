"""Durations rescaled to a fixed reference speed of the machine.

The virtual machines this benchmark runs on change speed by up to a third
within seconds (a fixed loop took 27 ms in one two-second window and 46 ms
in the next; process time moves with wall time, so it is the CPU and not
the scheduler).  Raw wall times of one run therefore drift by 15-25% from
the next.  `Clock` times a fixed reference loop every `REFRESH_S` seconds
and multiplies every measured duration by
`REFERENCE_S / (reference time at that moment)`: the time the call would have taken
at the speed where the reference loop takes `REFERENCE_S`.  The loop mixes
the two kinds of work smash does, tuple and dict code shaped like the
engine's hash joins and small numpy calls like CART's; on that machine it
cut the spread of single 0.3-0.4 s engine and CART measurements from 15% to
6-10%.  Raw times stay available to callers.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# median time of one reference loop on an Intel Xeon 2.0 GHz virtual CPU
REFERENCE_S = 0.94e-3
REFRESH_S = 0.15

_ROWS = [(i, i % 97, i % 13) for i in range(300)]
_VALUES = [float(i % 17) for i in range(24)]


def _reference_work():
    buckets = {}
    for row in _ROWS:
        buckets.setdefault(row[1], []).append(row[2])
    keys = {row[2] for row in _ROWS}
    joined = [left + (tail,) for left in _ROWS for tail in buckets.get(left[2], ())[:4]]
    spread = sum(float(np.var(np.asarray(_VALUES, dtype=float))) for _ in range(30))
    return sum(1 for row in joined if row[0] in keys) + spread


class Clock:
    """Reference readings every `REFRESH_S` seconds from a SIGALRM timer.

    Use as a context manager around the measured work.  The timer's handler
    interrupts whatever runs, takes a reading and adds the time it took to
    `paused`, so `since` can leave it out of the measured interval.  A call
    shorter than `REFRESH_S` is scaled by the latest reading; a longer one by
    the mean of the factors read just before and during it.
    """

    def __init__(self):
        self.references = []  # every reference reading, seconds
        self.paused = 0.0
        self._previous_handler = None
        self._read()

    def __enter__(self):
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REFRESH_S, REFRESH_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self._read()
        self.paused += time.perf_counter() - start

    def _read(self):
        readings = []
        for _ in range(3):
            start = time.perf_counter()
            _reference_work()
            readings.append(time.perf_counter() - start)
        self.references.append(statistics.median(readings))

    def scale(self):
        """Current factor from raw to reference-speed seconds."""
        return REFERENCE_S / self.references[-1]

    def mark(self):
        return time.perf_counter(), self.paused, len(self.references)

    def since(self, mark):
        """(reference-speed seconds, raw seconds) since `mark`, readings excluded."""
        start, paused, n = mark
        raw = time.perf_counter() - start - (self.paused - paused)
        factors = [REFERENCE_S / r for r in self.references[n - 1:]]
        return raw * sum(factors) / len(factors), raw

    def call(self, fn, *args, **kwargs):
        """(result, reference-speed seconds, raw seconds) of one call."""
        mark = self.mark()
        result = fn(*args, **kwargs)
        return (result, *self.since(mark))
