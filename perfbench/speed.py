"""Speed probe: a fixed pure-Python kernel timed next to and during the ops.

The benchmark machine shares its cores, and its speed drifts by up to a
factor of two over a few seconds; program code and this kernel slow down
together.  Each op's wall time is scaled by REFERENCE_S over the median time
of the probes around and inside it, so the timing metrics read as if the
probe took REFERENCE_S and the drift cancels.  The raw wall times are
reported too.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

# The probe's time on the quiet baseline machine (2 shared vCPUs, Python
# 3.11); it only sets the unit, so it stays fixed.
REFERENCE_S = 0.0009
INTERVAL_S = 0.025  # period of the probes taken during ops
NEAREST = 4  # probes on each side of an op that also count for it


def _kernel() -> list:
    """Fraction arithmetic on growing integers, keyed like monomials."""
    acc: dict = {}
    x = Fraction(355, 113)
    for i in range(120):
        key = ((i % 7, 1), (i % 3 + 7, 2))
        y = x * Fraction(i + 1, 2 * i + 3) + Fraction(1, i + 2)
        acc[key] = acc.get(key, 0) + y
        x = y if y.denominator < 10 ** 40 else Fraction(355, 113)
    return sorted(acc.items())


def probe(into: list) -> None:
    """Time the kernel now; append (start, end) in perf_counter seconds."""
    t0 = time.perf_counter()
    _kernel()
    into.append((t0, time.perf_counter()))


class Sampler:
    """Runs probe() every INTERVAL_S of wall time on SIGALRM.

    The handler runs in the main thread between bytecodes, so a probe lies
    wholly inside or wholly outside an op timed with perf_counter; probes
    inside an op are taken out of its time.
    """

    def __init__(self, into: list):
        self.into = into

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, lambda *_: probe(self.into))
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def at_reference_speed(ops: list, probes: list) -> list[float]:
    """Op times at reference speed.

    ops and probes are (start, end) pairs in time order.  An op's time is
    its wall time minus the probes inside it, scaled by REFERENCE_S over the
    median duration of those probes and the NEAREST probes on each side.
    """
    starts = [a for a, _ in probes]
    lengths = [b - a for a, b in probes]
    out = []
    for s, e in ops:
        lo, hi = bisect.bisect_left(starts, s), bisect.bisect_left(starts, e)
        window = lengths[max(0, lo - NEAREST):hi + NEAREST]
        busy = sum(lengths[lo:hi])
        out.append((e - s - busy) * REFERENCE_S / statistics.median(window))
    return out
