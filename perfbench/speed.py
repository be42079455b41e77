"""A reference loop that tracks how fast the host runs right now.

On a shared host the same work runs slower in some stretches than in
others, and a stretch can outlast a whole measured phase (the measured
spreads, raw and scaled, are in README.md).  So
the benchmark times a fixed pure-Python loop between requests (outside
the timed region), one sample per ``PERIOD_S`` of timed work, and
divides each timed piece of work by the slowdown those samples show
near it: the figures read as if the loop took ``NOMINAL_S``.  The loop
is the benchmark's own code, so a change to quest moves the scaled
figures as it moves the raw ones.  Raw figures are printed alongside.
"""

from __future__ import annotations

import bisect
import statistics
import time

LOOP = 100_000
NOMINAL_S = 0.005  # the loop's time the figures are scaled to
PERIOD_S = 0.1  # timed work per reference sample
MAX_SAMPLES_PER_CALL = 20
WINDOW_S = 2.0  # timed work on either side whose samples scale a request


def loop_seconds() -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(LOOP):
        x += i
    return time.perf_counter() - t0


class Reference:
    def __init__(self):
        self._samples: list[float] = []
        self._sample_at: list[float] = []  # timed-work clock at each sample
        self._work: list[tuple[float, float]] = []  # (clock after, seconds)
        self._clock = 0.0
        self._owed = PERIOD_S  # the first call samples at once

    def after(self, busy: float) -> None:
        """Record ``busy`` seconds of timed work; sample once per PERIOD_S of work."""
        self._clock += busy
        self._work.append((self._clock, busy))
        self._owed += busy
        n = int(self._owed / PERIOD_S)
        self._owed -= n * PERIOD_S
        for _ in range(min(n, MAX_SAMPLES_PER_CALL)):
            self._samples.append(loop_seconds())
            self._sample_at.append(self._clock)

    def scaled(self) -> list[float]:
        """Each recorded piece of work over the slowdown within WINDOW_S of it."""
        out = []
        for at, busy in self._work:
            lo = bisect.bisect_left(self._sample_at, at - busy - WINDOW_S)
            hi = bisect.bisect_right(self._sample_at, at + WINDOW_S)
            out.append(busy * NOMINAL_S / statistics.median(self._samples[lo:hi]))
        return out
