"""Machine-speed calibration shared by the runner and the worker.

The shared 2-vCPU host this benchmark was defined on switches between a
fast and a slow state every few seconds to minutes; the same pure-Python
work then takes up to twice as long (NOTES.md).  Every reported time
is therefore scaled to a reference speed: a raw duration ``d`` measured
next to calibration samples ``c`` is reported as ``d * REFERENCE_S / c``,
where ``c`` is the time of a fixed pure-Python kernel that uses no
idealforms code, so a faster engine still shows in full.

The kernel has two halves because contention does not slow all code
alike: a tight integer and dict loop, and recursive hashing of a long
chain of frozen dataclass nodes, the pointer-chasing pattern that slows
most when other tenants thrash the caches.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

REFERENCE_S = 0.008  # kernel time at the reference speed


@dataclass(frozen=True)
class _Link:
    head: tuple
    tail: object


_CHAIN = None
for _i in range(300):  # long, yet within the default recursion limit
    _CHAIN = _Link((_i, None), _CHAIN)


def _kernel() -> int:
    x = 0
    d: dict[int, int] = {}
    for i in range(30_000):
        x += i
        d[i & 1023] = x
    for _ in range(24):
        x ^= hash(_CHAIN)
    return x


def sample() -> float:
    """Kernel time now; the lesser of two runs, to skip one-off stalls."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best
