"""Host pace: times in reference seconds, from a fixed loop run every tick.

The CPUs this benchmark runs on are shared with other tenants, and their
speed for a single-threaded Python process can change by 1.5-2x, in
stretches from a fraction of a second to minutes.  A run of a few tens of
seconds cannot average that out, so two runs of the same code disagree by
more than any useful bound.

So while items are timed, a SIGALRM interval timer interrupts the process
every TICK_SECONDS, and the handler runs a reference slice: a fixed piece
of pure-Python work of the kinds mapcalc does (long-int XOR and shifts as
in gf2, tuple, dict and list traffic as in gem).  Between two ticks the
host's pace is REF_SECONDS divided by the slice time there, taken as the
mean of the four nearest slices.  An item's time in reference seconds
is its wall time outside the handler, tick interval by tick interval,
multiplied by that pace: the time the item would take on a host that runs
the slice in REF_SECONDS.  The reference code is part of the benchmark,
not of the program, so a change to mapcalc moves the reported times by as
much as it moves the wall times.

REF_SECONDS is a fixed constant: the slice's median time when it runs
alone on a 2-vCPU Intel Xeon virtual machine with CPython 3.11.  Between
library calls the slice runs slower, so there reference seconds read about
0.7x the wall seconds.  Changing it rescales every time the
benchmark reports.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

REF_SECONDS = 0.0025
TICK_SECONDS = 0.025

_MASK = (1 << 320) - 1


def _step(row: int, i: int) -> int:
    return (row << 1 ^ row >> 7 ^ i) & _MASK


def reference_slice() -> int:
    """A fixed amount of interpreter work; its result is unused."""
    row = (1 << 300) | 0x9E3779B97F4A7C15
    table: dict[tuple[int, int], int] = {}
    out = []
    for i in range(4500):
        row = _step(row, i)
        key = (i & 63, row & 7)
        table[key] = table.get(key, 0) ^ (row & 0xFFFF)
        if row & 1:
            out.append(key)
    return len(out) + len(table)


class Pacer:
    """Context manager that runs a reference slice on entry, every tick and
    on exit, and converts wall-clock intervals inside it (perf_counter
    readings) to reference seconds.  One per process at a time: it owns
    SIGALRM and ITIMER_REAL while entered."""

    def __init__(self) -> None:
        self.begins: list[float] = []  # slice k ran over [begins[k], ends[k]]
        self.ends: list[float] = []
        self._paces: list[float] = []
        self._previous = None

    def _slice(self, *_) -> None:
        t0 = time.perf_counter()
        reference_slice()
        self.begins.append(t0)
        self.ends.append(time.perf_counter())

    def __enter__(self) -> Pacer:
        self._slice()
        self._previous = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, TICK_SECONDS, TICK_SECONDS)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._slice()
        d = [e - b for b, e in zip(self.begins, self.ends)]
        # Gap k lies between slice k and slice k + 1.
        self._paces = [REF_SECONDS / statistics.fmean(d[max(k - 1, 0):k + 3])
                       for k in range(len(d) - 1)]

    def convert(self, start: float, end: float) -> tuple[float, float]:
        """(wall seconds, reference seconds) of [start, end] outside the
        slices.  Call after the context has exited; [start, end] must lie
        within it."""
        wall = paced = 0.0
        k = max(bisect.bisect_right(self.ends, start) - 1, 0)
        while k < len(self._paces) and self.ends[k] < end:
            overlap = min(end, self.begins[k + 1]) - max(start, self.ends[k])
            if overlap > 0:
                wall += overlap
                paced += overlap * self._paces[k]
            k += 1
        return wall, paced
