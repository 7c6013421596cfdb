"""Scale wall times to the host's unloaded speed.

The benchmark host shares its cores with other tenants. A thread there runs
at one of two speeds, the slow one about 1.8 times slower, switching every
10-20 ms; the share of slow time drifts over seconds to minutes (NOTES.md has
the measurements). Medians of raw wall times therefore move by 30-40 %
between runs of the same code. While a ``Speed`` is active, a 5 ms interval
timer runs a fixed probe; how much longer the probe takes than
``UNLOADED_PROBE_S`` is the slowdown at that moment. A timed block's wall
time, less the probes inside it, divided by the mean slowdown of those
probes, is the block's time at the unloaded speed.

The probe runs its loop twice and times the second run only. The timer fires
between the program's own steps, whose work has evicted the loop's code and
data from the caches; timed cold, the probe read 10-15 % slower after a
memory-heavy step than after a light one, so the divisor depended on the
program being measured. Warmed up, it reads the core's speed alone
(``test_speed.py`` checks this).

The unloaded probe time is a constant, not a statistic of the run: a run
that spends all of its time in a slow phase has no unloaded probes to find,
and a per-run reference moved scaled times by up to 80 % between runs.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.005
PROBE_STEPS = 200  # about 0.05 ms unloaded; two runs per tick cost 2-4 % of the run
# the fastest 5 % of warmed-up probes on a 2.1 GHz Xeon vCPU in its fast phase
UNLOADED_PROBE_S = 45e-6
# A probe slower than this was not running all the time (it was preempted or
# faulted pages in, as during imports); it is read as this slow. Over 8 s of
# steady work the slowest of 1,600 probes read 2.95 times the unloaded time.
MAX_PROBE_S = 3 * UNLOADED_PROBE_S


def _probe_loop() -> int:
    table = {}
    acc = 0
    for i in range(PROBE_STEPS):
        acc ^= (i * 2654435761) & 0xFFFFFFFF
        table[i & 1023] = acc
        acc += (acc >> 3).bit_count()
    return acc


def probe() -> tuple[float, float]:
    """Run the probe loop twice: (seconds of both runs, seconds of the second run)."""
    t0 = time.perf_counter()
    _probe_loop()  # brings the loop back into the caches
    t1 = time.perf_counter()
    _probe_loop()
    t2 = time.perf_counter()
    return t2 - t0, t2 - t1


class Speed:
    """An interval timer that samples the host's speed; use it as a context manager."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.cost: list[float] = []  # time the handler took out of the program
        self.took: list[float] = []  # time of the warmed-up probe loop

    def _on_alarm(self, signum, frame) -> None:
        self.at.append(time.perf_counter())
        cost, took = probe()
        self.cost.append(cost)
        self.took.append(min(took, MAX_PROBE_S))

    def __enter__(self) -> "Speed":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, start: float, end: float) -> float:
        """The block [start, end) of ``time.perf_counter()``, at the unloaded speed."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_left(self.at, end)
        inside = self.took[lo:hi]
        # a block shorter than the interval takes the speed of the probes just before it
        nearby = inside or self.took[max(0, lo - 3):lo] or [UNLOADED_PROBE_S]
        slowdown = statistics.fmean(nearby) / UNLOADED_PROBE_S
        return (end - start - sum(self.cost[lo:hi])) / slowdown

    def mean_slowdown(self) -> float:
        return statistics.fmean(self.took) / UNLOADED_PROBE_S if self.took else 1.0
