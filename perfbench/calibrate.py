"""Host speed probe: a fixed kernel timed between a window's chunks.

On a shared virtual machine the same simulation can take 30% less CPU
time for a minute or two and then slow down again, as other tenants load
the physical core.  Process CPU time already removes the stolen time;
this probe removes most of the rest.  It mixes the two kinds of work the
simulator does: dictionary updates in the interpreter and numpy calls on
arrays of a few dozen floats.  It keeps to a small working set, so the
simulator's own use of the caches between probes does not move it.  The
benchmark divides each window's times by the median probe time of that
window and multiplies by :data:`REFERENCE_S`, so every reported time is
in *reference seconds*: CPU seconds on a host that runs the probe in
exactly ``REFERENCE_S``.

The probe is the benchmark's own code; no change to the program can make
it faster or slower.
"""

from __future__ import annotations

import time

import numpy as np

#: CPU seconds the probe takes at the reference speed.  Its value only
#: sets the scale of the reported times.
REFERENCE_S = 0.01


def probe() -> float:
    """CPU seconds of one run of the fixed kernel."""
    clock = time.process_time
    start = clock()
    table = {}
    for i in range(8000):
        key = i % 300
        table[key] = table.get(key, 0.0) + i * 0.5
    a = np.arange(75, dtype=float)
    ones = np.ones(75)
    for i in range(600):
        c = np.minimum(a * 1.5, ones + i)
        a[i % 75] = c[np.flatnonzero(c > 3.0)].sum() % 100.0
        c.tolist()
    return clock() - start
