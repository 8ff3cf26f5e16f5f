"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed drifts by
20 to 50% over seconds as other tenants load it; CPU time drifts with wall
time, so neither reads steady across runs.  A fixed pure-Python kernel --
dict, set, tuple and string work like ribbonforge's own, and none of
ribbonforge's code -- is timed next to each operation, and the operation's
seconds are scaled by how much slower than nominal the kernel ran just then.
The scaled figure is the operation's time on the host at its nominal speed:
it moves when ribbonforge does more or less work, and much less when the
host slows down.

Operations run for up to several seconds, longer than the host keeps one
speed, so ``Meter`` also samples the speed during a call, from a CPU-time
timer signal, and takes the time its samples cost back out of the call.
"""

from __future__ import annotations

import signal
import statistics
import time
from itertools import pairwise

# Median seconds of one ``kernel()`` pass on a 2.1 GHz Xeon vCPU under
# CPython 3.11 in one of the host's fast spells; scaled seconds are seconds
# at that speed.  It is a fixed unit: changing it rescales every figure.
KERNEL_NOMINAL_S = 0.0009
PASSES = 5  # kernel passes per speed sample; the median is kept


def kernel() -> int:
    n = 1000
    adj = {i: ((i * 7 + 1) % n, (i * 13 + 5) % n, (i * 31 + 11) % n) for i in range(n)}
    seen = {0}
    order = [0]
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    order.append(w)
                    nxt.append(w)
        frontier = nxt
    return len(sorted((str(v), v % 5, (v, v + 1)) for v in order))


def sample() -> float:
    """Seconds of one kernel pass now (median of ``PASSES``)."""
    times = []
    for _ in range(PASSES):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Meter:
    """Times calls in raw and scaled seconds: ``with meter: call()``, then
    read ``meter.seconds`` and ``meter.scaled_s``.  Speed is sampled before
    the first call, between calls, and every ``interval_s`` of CPU time
    inside a call; each stretch between two samples is scaled by their mean.
    """

    def __init__(self, interval_s: float = 0.1):
        self.interval_s = interval_s
        self.last = sample()
        self.seconds = self.scaled_s = 0.0

    def _tick(self, signum, frame):
        if self.sampling:
            return
        self.sampling = True
        began = time.perf_counter()
        try:
            speed = sample()
            self.points.append((began - self.began - self.paused, speed))
        finally:
            self.paused += time.perf_counter() - began
            self.sampling = False

    def __enter__(self):
        self.points = [(0.0, self.last)]
        self.paused = 0.0
        self.sampling = False
        signal.signal(signal.SIGVTALRM, self._tick)
        self.began = time.perf_counter()
        signal.setitimer(signal.ITIMER_VIRTUAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        self.seconds = time.perf_counter() - self.began - self.paused
        self.last = sample()
        self.points.append((self.seconds, self.last))
        self.scaled_s = sum(
            (t1 - t0) * KERNEL_NOMINAL_S / ((s0 + s1) / 2)
            for (t0, s0), (t1, s1) in pairwise(self.points)
        )
        return False
