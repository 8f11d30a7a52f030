"""Time a call in reference seconds: wall time corrected for the speed of the core.

The benchmark runs on shared virtual machines whose cores slow down by up
to half, for seconds at a time, when other tenants load the host; no
hardware counter is exposed there. The meter therefore samples the speed of
the core while the timed call runs: an interval timer interrupts the call
every TICK_S seconds and runs a fixed probe loop. Each interval of wall time
is scaled by how fast the probe ran at its end, and the probe's own time is
left out:

    reference seconds = sum over intervals of dt * REF_PROBE_S / probe_time

On an uncontended core, where the probe takes REF_PROBE_S, reference
seconds equal wall seconds; while a neighbour halves the core's speed, an
interval counts half its wall time. A change that makes the program do
less work lowers both figures alike. The probe is pure interpreter work,
of the same kind as the package's, so the two slow down together; it costs
about 2% of the timed call, which the wall time leaves out as well.
"""

from __future__ import annotations

import signal
from time import perf_counter
from typing import Callable

TICK_S = 0.025
# The probe's time on an uncontended core of a 2.0 GHz Xeon virtual machine
# under CPython 3.11, so that reference seconds are about wall seconds there.
REF_PROBE_S = 400e-6


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def _cell_sum(pair):
    return _Cell(pair[0] + pair[1]).value


def probe() -> int:
    """A fixed amount of interpreter work of the package's kind: calls,
    small tuples and objects, list growth and a sort."""
    out = []
    for i in range(1000):
        out.append(_cell_sum((i, i + 1)))
    out.sort(reverse=True)
    return out[0]


class SpeedMeter:
    """Times calls in wall seconds and in reference seconds.

    Uses SIGALRM and ITIMER_REAL for the length of a call, in the main
    thread of a process that uses neither otherwise.
    """

    def __init__(self):
        self._last = 0.0
        self._ref = 0.0
        self._probing = 0.0

    def _tick(self, *_):
        t0 = perf_counter()
        probe()
        t1 = perf_counter()
        self._ref += (t0 - self._last) * REF_PROBE_S / (t1 - t0)
        self._probing += t1 - t0
        self._last = t1

    def time(self, fn: Callable):
        """Run fn(); returns (its result, wall seconds, reference seconds).

        Wall seconds leave out the probes' own time.
        """
        self._ref = self._probing = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        start = self._last = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            out = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = perf_counter() - start - self._probing
        self._tick()  # the speed at the end of the last interval
        return out, wall, self._ref
