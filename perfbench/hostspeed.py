"""The host's current speed, from a fixed piece of pure-Python work.

On a shared virtual machine the speed of a vCPU can change by up to 2x for
tens of seconds at a time, and all code slows alike, so raw wall times of
two runs a minute apart are not comparable.  The benchmark times this
reference work next to every op and reports times scaled to a host on
which the reference work takes ``REFERENCE_S`` seconds.  The work uses
nothing from strassen7, so no change to the library can move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 1e-3


def _reference_work():
    acc = Fraction(0)
    for i in range(100):
        acc += Fraction(i % 7 - 3, i % 4 + 1) * Fraction(i % 5 + 1, i % 3 + 1)
    rows = [[(i * j) % 5 for j in range(14)] for i in range(14)]
    cols = list(zip(*rows))
    total = 0
    for r in rows:
        for c in cols:
            total = (total + sum(a * b for a, b in zip(r, c))) % 5
    return acc, total


def reference_seconds() -> float:
    """Wall seconds the reference work takes now."""
    t0 = time.perf_counter()
    _reference_work()
    return time.perf_counter() - t0
