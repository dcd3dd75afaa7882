"""How fast the host runs right now, from a fixed piece of work.

The benchmark runs on a few cores of a shared host whose speed wanders:
a recorded 7-minute series of ``dsl_small`` on the box this was written
on showed every algorithm's 12-second median move together by 5% between
quartiles and by 60% between extremes, and a pure-Python loop timed in
the same rounds moved with them.  Dividing each timing by the loop's
timing from the same moment took the spread to 2% and 16%.

So the timed window is cut into slices and :func:`sample` runs at every
slice boundary.  A slice's *speed factor* f is the mean of the samples
on its two sides over :data:`REFERENCE_NS`.  Only processor time
stretches when the host slows, so a unit's wall time is multiplied by
``1 - share * (1 - 1/f)``, where *share* is the processor time
(:func:`cpu_seconds`) the working process spent over the window per
second of unit time: 1 for the in-process workloads, which gives
``wall / f``; about 0.37 for ``service_mix``, whose round trips mostly
wait on the batching window and on the other client.  End-to-end timings
therefore read as *milliseconds at reference host speed*.  The loop
touches nothing of the program (no ``repro`` import, no NumPy), so a
change to the program cannot move it.  The traced run reports factor and
share themselves (``host.speed_factor``, ``host.cpu_share``) next to
raw, unscaled times.
"""

from __future__ import annotations

import os
import statistics
import time

#: what :func:`sample` reads on the reference box (2 vCPU Firecracker VM,
#: CPython 3.11) while the host is quiet; scaled timings are what the
#: program would have taken there
REFERENCE_NS = 260_000
REPEATS = 9
#: the timed window is cut into slices of this length, one sample at
#: every boundary
SLICE_SECONDS = 0.5


def spin() -> int:
    """Interpreter work of the kind the program's frontend does: name
    lookups, small-int arithmetic, dict reads and writes."""
    table: dict[int, int] = {}
    for i in range(3000):
        table[i & 255] = table.get(i & 255, 0) + i
    return len(table)


def sample() -> float:
    """Median wall time, in ns, of :data:`REPEATS` runs of :func:`spin`."""
    clock = time.perf_counter_ns
    times = []
    for _ in range(REPEATS):
        t0 = clock()
        spin()
        times.append(clock() - t0)
    return statistics.median(times)


def cpu_seconds(pid: int) -> float:
    """Processor time (user + system, all threads) process *pid* has
    used so far, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
