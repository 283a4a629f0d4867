"""A speed probe that puts timings on one reference speed.

The machine's speed drifts by tens of percent within a second and over
minutes, much the same for every pure-Python loop on a core.  While a
round runs, a SIGALRM timer interrupts it every INTERVAL seconds and
times REF_WORK, a fixed integer loop that does not touch lgmult.  The
local speed factor at a tick is the median of the WINDOW samples around
it over REF_NOMINAL_S, and it holds for the stretch of work that ends at
that tick.  ``scaled(a, b)`` divides every stretch of work inside
[a, b] by its factor and leaves the probe's own time out, so a timing
reads in seconds at the reference speed, at which REF_WORK takes
REF_NOMINAL_S.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL = 0.05
WINDOW = 7
REF_NOMINAL_S = 1.25e-3

clock = time.monotonic

# Per tick: when it started and ended, and how long REF_WORK took in it.
_starts: list[float] = []
_ends: list[float] = []
_samples: list[float] = []


def ref_work() -> int:
    """A fixed amount of small-integer arithmetic and list access."""
    acc = [0] * 16
    x = 3
    for i in range(4000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFFFFFF
        acc[i & 15] += x % 7
    return acc[0]


def sample() -> None:
    start = clock()
    ref_work()
    _samples.append(clock() - start)
    _starts.append(start)
    _ends.append(clock())


def _tick(signum: int, frame: object) -> None:
    sample()


def start() -> None:
    signal.signal(signal.SIGALRM, _tick)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def reset() -> None:
    for ticks in (_starts, _ends, _samples):
        ticks.clear()


class Scale:
    """The ticks taken so far, as a clock that runs at the reference speed.

    Stretch i is the work between the end of tick i - 1 and the start of
    tick i; the work after the last tick, and before the first, takes the
    factor of the nearest tick.  ``_at[i]`` is the scaled time at the
    start of tick i, counted from the start of tick 0.
    """

    def __init__(self) -> None:
        if not _samples:
            raise ValueError("the speed probe took no samples")
        half = WINDOW // 2
        self.starts = list(_starts)
        self.ends = list(_ends)
        self.factors = [
            statistics.median(_samples[max(0, i - half) : i + half + 1]) / REF_NOMINAL_S
            for i in range(len(_samples))
        ]
        self._at = [0.0]
        for i in range(1, len(self.starts)):
            work = self.starts[i] - self.ends[i - 1]
            self._at.append(self._at[-1] + work / self.factors[i])

    def at(self, t: float) -> float:
        """Scaled time of instant t."""
        i = bisect.bisect_right(self.starts, t) - 1
        if i < 0:
            return (t - self.starts[0]) / self.factors[0]
        if t <= self.ends[i]:
            return self._at[i]
        nxt = min(i + 1, len(self.factors) - 1)
        return self._at[i] + (t - self.ends[i]) / self.factors[nxt]

    def __call__(self, a: float, b: float) -> float:
        """Scaled length of [a, b], the probe's own time left out."""
        return self.at(b) - self.at(a)

    def median_factor(self, a: float, b: float) -> float:
        """Median factor of the ticks inside [a, b], or of the nearest."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_right(self.starts, b)
        inside = self.factors[lo:hi] or [self.factors[min(lo, len(self.factors) - 1)]]
        return statistics.median(inside)
