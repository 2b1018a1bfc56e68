"""Host speed probe: scales measured times to one reference host speed.

On a shared host the speed of a core changes by up to about 1.75x, over
seconds to minutes, while the program stays the same.  Raw wall times of
two runs of the same code then differ by more than any useful regression
bound.  The benchmark therefore runs a fixed probe between requests and
scales each measured time by ``PROBE_REFERENCE_S`` over the probe time
around it.  A scaled time is the time the request would take on a host
where the probe takes ``PROBE_REFERENCE_S``.

The probe mixes the two kinds of work the requests do: an interpreter
loop, and many small numpy calls like those of the hull enumeration.  It
does not touch qsverify, so no change to the program can move it.
"""

from __future__ import annotations

import time

import numpy as np

#: Probe time of the reference host.  Fixed: changing it rescales every
#: time metric of the benchmark.
PROBE_REFERENCE_S = 0.002

_COLUMN = np.arange(8, dtype=np.int64)[:, None]


def _probe_once() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(15_000):
        acc += i * i
    blocks = [np.hstack([np.full((8, 1), i, dtype=np.int64), _COLUMN]) for i in range(150)]
    np.vstack(blocks).sum()
    return time.perf_counter() - t0


def probe() -> float:
    """Seconds the probe takes now: the faster of two tries, so that one
    preemption does not read as a slow host."""
    return min(_probe_once(), _probe_once())


def factor(before: float, after: float) -> float:
    """Scale for a time measured between two probes."""
    return 2.0 * PROBE_REFERENCE_S / (before + after)


class Scale:
    """Probes the host every ``every_s`` seconds of request time.

    Call :meth:`mark` before each request: it probes when one is due and
    returns the segment the request falls in.  Call :meth:`close` after the
    last request.  Segment k lies between probe k and probe k + 1.
    """

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.probes: list[float] = []
        self._due = 0.0

    def mark(self, busy: float) -> int:
        if busy >= self._due:
            self.probes.append(probe())
            self._due = busy + self.every_s
        return len(self.probes) - 1

    def close(self) -> None:
        self.probes.append(probe())

    def factor(self, segment: int) -> float:
        return factor(self.probes[segment], self.probes[segment + 1])
