"""Host speed gauge: samples how fast this CPU runs the interpreter while a
workload runs.

The benchmark runs on a few cores of a shared host whose other tenants slow
it, in bursts far shorter than one operation, by up to half for tens of
seconds at a time.  No operation is short enough for a fastest repeat to
escape them, so times as measured follow the host more than the program.
The gauge measures that slowdown while it happens: every ``PERIOD_S`` a
``SIGALRM`` handler times a fixed walk of ``STEPS`` random reads through a
table of ``TABLE`` Python ints, ``REPEATS`` times in a row, and records the
median of the warm walks with the time it was taken.  Durations measured
over a stretch of the run are then expressed in *reference seconds*, the
time they would have taken at the speed where one walk takes
``REFERENCE_S``:

    slowdown  = trimmed mean(walk times in the stretch) / REFERENCE_S
    reference = measured / slowdown ** SENSITIVITY

The walk misses the caches the way the library's object-heavy code does,
and the mean, trimmed of its extreme tenths, grows with the share of time
the host is slowed.  The walk slows more than the library does, so only
the ``SENSITIVITY`` power of its slowdown applies.  Over ten 30 s runs of
each workload on a 2-vCPU share of a Xeon host, the middle half of the
pass times spread, as a share of their median, by 9%, 17% and 7% as
measured (plate-m48, refcases, probe-grid) and by 6%, 6% and 4.5% in
reference seconds.  Scaled by the whole slowdown, plate-m48 spread by 10%,
more than as measured; a pure-arithmetic loop in place of the walk tracked
the host about half as well.

The handler's own time is recorded, so callers subtract it from what they
measure.  Set-up is too short, and too busy importing, for timer samples:
``burst`` instead walks back to back for a moment right after it, while the
host is still as busy as it was.  The table adds about 15 MB to the process.
"""
from __future__ import annotations

import random
import signal
import statistics
import time

#: time between samples; one sample costs about 0.1 ms
PERIOD_S = 0.025
#: walks per sample; the first (cold) one is dropped
REPEATS = 3
#: ints in the table, and reads in one walk
TABLE = 400_000
STEPS = 600
#: walk time that defines a reference second (about this host's fastest tenth)
REFERENCE_S = 20e-6
#: share of the samples dropped at each end before averaging
TRIM = 0.1
#: power of the walk's slowdown that the library's times share
SENSITIVITY = 0.75

_TABLE = list(range(TABLE))
_STEPS = random.Random(0).sample(range(TABLE), STEPS)


def _walk() -> int:
    s = 0
    table = _TABLE
    for k in _STEPS:
        s += table[k]
    return s


def trimmed_mean(values: list[float]) -> float:
    values = sorted(values)
    cut = int(len(values) * TRIM)
    return statistics.fmean(values[cut:len(values) - cut])


def burst(seconds: float) -> float:
    """Slowdown from walking back to back for ``seconds``: trimmed mean walk
    time over REFERENCE_S, to the power SENSITIVITY."""
    walks = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        t0 = time.perf_counter()
        _walk()
        walks.append(time.perf_counter() - t0)
    return (trimmed_mean(walks[1:]) / REFERENCE_S) ** SENSITIVITY


class Gauge:
    """Samples the walk time on a timer while started."""

    def __init__(self):
        self.times: list[float] = []
        self.walks: list[float] = []
        self.spent = 0.0          # seconds spent in the handler so far

    def _sample(self, signum, frame) -> None:
        h0 = time.perf_counter()
        walks = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            _walk()
            walks.append(time.perf_counter() - t0)
        self.times.append(h0)
        self.walks.append(statistics.median(walks[1:]))
        self.spent += time.perf_counter() - h0

    def start(self) -> "Gauge":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self, t0: float, t1: float) -> float:
        """Trimmed mean walk time of the samples taken in [t0, t1], over
        REFERENCE_S, to the power SENSITIVITY."""
        walks = [g for t, g in zip(self.times, self.walks) if t0 <= t <= t1]
        if not walks:
            raise RuntimeError(f"the speed gauge took no samples in {t1 - t0:.3f} s")
        return (trimmed_mean(walks) / REFERENCE_S) ** SENSITIVITY
