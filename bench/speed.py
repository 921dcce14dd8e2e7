"""Host speed, measured by a fixed pure-Python loop that does not touch gtexchange.

On a shared host the same code runs up to about 1.7 times slower for
stretches of seconds to minutes (other tenants, not this process: process
CPU time slows just as much as wall time).  The benchmark times this
reference loop next to the batch calls it measures and reports each time
scaled to the host speed at which the loop takes ``REFERENCE_S``: a
program change moves the scaled time, a slow stretch of the host moves
the loop and the program alike and cancels out.  Inside a measured loop
and while set-up probes run, the reference is timed from a timer signal
every ``INTERVAL_S``, in the middle of long batch calls too
(:class:`HostClock`).

The loop mixes what the program spends its time on: integer arithmetic and
bit operations on Python ints, method calls on small objects, list
indexing, appends and a sort.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

ROUNDS = 1000
REFERENCE_S = 0.001  # about the loop's time on a 2-core x86-64 VM (Python 3.11) when the host is not busy
INTERVAL_S = 0.1  # one reference loop this often while a HostClock runs: about 1% of the wall time
WINDOW_S = 0.3  # a call is scaled by the readings from this long before it starts to this long after it ends


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def crosses(self, other: "_Pair") -> bool:
        return self.a & ~other.b != 0


def reference_loop(rounds: int = ROUNDS) -> int:
    """A fixed amount of interpreter work; the result only keeps it from being optimised away."""
    total = 0
    for i in range(rounds * 8):
        total += i * i % 7
    pairs = [_Pair(i * 2654435761 & 0xFFFF, i * 40503 & 0xFFFF) for i in range(64)]
    found = []
    for i in range(rounds):
        x, y = pairs[i & 63], pairs[(i * 5) & 63]
        if x.crosses(y):
            found.append((x.a | y.b, i))
    found.sort()
    return total + len(found)


def scale(reference: float) -> float:
    """Factor that turns a time measured at this reference reading into one at ``REFERENCE_S``."""
    return REFERENCE_S / reference


class HostClock:
    """Times one reference loop every ``INTERVAL_S`` of wall time, from a SIGALRM handler.

    The handler runs between two bytecodes of whatever the interpreter is
    doing, batch calls included.  ``spent`` is the wall time spent in it, so
    that a caller can take the handler's share out of a time it measured.
    """

    def __init__(self):
        self.times: list[float] = []
        self.scales: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        # The loop's few objects die by reference count; a cyclic collection
        # here would time the program's heap, not the host.
        collecting = gc.isenabled()
        gc.disable()
        entered = time.perf_counter()
        reference_loop()
        done = time.perf_counter()
        if collecting:
            gc.enable()
        self.times.append(done)
        self.scales.append(scale(done - entered))
        self.spent += time.perf_counter() - entered

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale_between(self, start: float, end: float) -> float:
        """Mean scale factor of the readings within ``WINDOW_S`` of ``[start, end]``.

        The mean, not the median: a call's work is its time integrated over
        the host speed, so a slow stretch inside a call counts by its length.
        """
        low = bisect.bisect_left(self.times, start - WINDOW_S)
        high = bisect.bisect_right(self.times, end + WINDOW_S)
        return statistics.fmean(self.scales[low:high])
