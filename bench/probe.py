"""Host-speed probe: a fixed reference computation run around each operation.

The machines this benchmark runs on are shared, and their speed for
interpreter-bound work changes by up to 2x from one second to the next and
from one minute to the next.  Right before and right after each operation,
``slowdown`` runs a fixed piece of exact ``Fraction`` arithmetic (standard
library only, no polyconnect code) for about a tenth of the operation's
time, at least once, and returns how much slower than ``REFERENCE_S`` it
ran: the host's slow-down factor in that moment.  The benchmark divides each
operation's time by the mean of the two factors, which reports the time as
it would read on the host at its fastest.

The first piece of a probe is not timed: it only reloads the caches the
operation evicted, so the factor does not depend on the program's memory
footprint.
"""

import time
from fractions import Fraction

#: Seconds ``_work`` takes at the fastest on the reference host (Intel Xeon,
#: 2 vCPUs, CPython 3.11.7), with warm caches.
REFERENCE_S = 140e-6
#: Probe time as a share of operation time.
SHARE = 0.1


def _work() -> Fraction:
    total = Fraction(0)
    for k in range(1, 60):
        total += Fraction(k, k * k + 1)
    return total


def slowdown(op_seconds: float) -> float:
    """The host's slow-down factor now, probed for a ``SHARE`` of ``op_seconds``."""
    _work()
    clock = time.perf_counter
    start = clock()
    count = 0
    while True:
        _work()
        count += 1
        now = clock()
        if now - start >= SHARE * op_seconds:
            return (now - start) / count / REFERENCE_S
