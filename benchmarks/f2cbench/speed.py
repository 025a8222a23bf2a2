"""A speed gauge: a fixed reference kernel timed between the units of work.

This container's cores change speed under the benchmark (the same pure
Python loop takes 0.34-0.63 s within one minute, CPU time equal to wall
time: the neighbours' load, not the scheduler) in phases that last from
milliseconds to minutes.  A phase longer than a rep shifts every timing of
that rep, and nothing in those timings can tell it from a slower program -
except a piece of work that never changes.

The gauge times such a piece - a millisecond of dict, list, tuple and sort
work over a slice of a 20 MB table, the kind of work the pipeline does -
between the units of work of a rep (rounds, barriers, every 20 ms of
queries, the idle gaps of the open loop).  The rep's timings are then stated at *reference speed*: wall
time times ``REFERENCE_S / the rep's median kernel time``.  On a core that
runs the kernel in exactly ``REFERENCE_S`` the two are equal.

Measured on this container, the same seed run 30 times (24 for the durable
workload), coefficient of variation of the time of one run's work, as
clocked with each unit's minimum across reps -> at reference speed with each
unit's median across reps: ``ingest_direct`` 6.4 % -> 3.9 %,
``ingest_frames_durable`` 8.6 % -> 5.4 %, ``query_tiers`` 6.7 % -> 3.7 %.
(The minimum no longer helps once the speed is divided out: what is left
of the noise is as often below the truth as above it.)
"""

from __future__ import annotations

import statistics
import time
from typing import List

#: The kernel's duration on the reference core; pins the unit of every
#: reported timing.  This container's cores take 0.8-1.5 ms beside the work.
REFERENCE_S = 0.001

#: Samples taken in a row where a rep offers no units to sample between.
BURST = 5

_TABLE_ROWS = 120_000
_STREAM_ROWS = 15_000  # read in passing: a slice of the table the caches have long forgotten
_GROUP_ROWS = 1_600  # grouped and sorted: the same rows every time


class Gauge:
    """Times the reference kernel; says how fast the core ran a rep."""

    def __init__(self) -> None:
        self._table = [(i, float(i % 1013), "s%05d" % (i % 409)) for i in range(_TABLE_ROWS)]
        self._at = 0
        self.samples: List[float] = []

    def sample(self, count: int = 1) -> None:
        """Run the kernel *count* times."""
        table = self._table
        for _ in range(count):
            begin = time.perf_counter()
            total = 0.0
            for row in table[self._at:self._at + _STREAM_ROWS]:
                total += row[1]
            groups: dict = {}
            for key, value, name in table[:_GROUP_ROWS]:
                group = groups.get(name)
                if group is None:
                    group = groups[name] = []
                group.append((value, key))
            for group in groups.values():
                group.sort()
            self.samples.append(time.perf_counter() - begin)
            self._at = (self._at + _STREAM_ROWS) % (_TABLE_ROWS - _STREAM_ROWS)

    def restart(self) -> None:
        """Forget the samples: a new rep (or set-up, or recovery) begins."""
        self.samples.clear()

    def speed(self) -> float:
        """Reference seconds per wall second since the restart."""
        return REFERENCE_S / statistics.median(self.samples)
