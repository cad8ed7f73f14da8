"""A fixed reference loop that measures how fast the host runs right now.

On a shared host the same op takes anywhere from 1x to 2x its fastest time,
in episodes that last from seconds to minutes (other tenants' load): over
four minutes of 2-second montecarlo ops, raw op times varied by 23%
(coefficient of variation) while their ratio to this loop's time varied by
10%.  So the benchmark times this loop, whose work never changes, just
before and just after each op and each set-up, and reports the time the op
would take on a host where the loop takes REFERENCE_S.  The loop mixes what
the package spends its time on (frozen dataclasses, keyed sorts, dict
counting, bisection, CSV writing and parsing), so that contention slows it
about as much.  Its working set is kept to a few MB so that it does not set
the run's peak memory.
"""

from __future__ import annotations

import bisect
import csv
import io
import random
from dataclasses import dataclass
from time import perf_counter

# About the loop's fastest time on a 2-vCPU x86-64 KVM guest (Xeon, Python
# 3.11.7), so that a time at reference speed is close to the fastest wall time.
REFERENCE_S = 0.04


@dataclass(frozen=True)
class _Row:
    time: float
    other: float
    kind: int


def reference_loop() -> float:
    """Seconds the fixed reference work takes now."""
    rng = random.Random(7)
    start = perf_counter()
    rows = [_Row(rng.random(), rng.random(), rng.randrange(3)) for _ in range(5000)]
    for _ in range(4):
        ordered = sorted(rows, key=lambda r: (r.other, r.kind))
        keys = sorted(r.time for r in rows)
        counts: dict[float, list[int]] = {}
        for r in ordered:
            counts.setdefault(r.other, [0, 0, 0])[r.kind] += 1
        total = 0
        for r in ordered:
            total += bisect.bisect_left(keys, r.time)
    text = io.StringIO()
    writer = csv.writer(text)
    for i, r in enumerate(ordered):
        writer.writerow([f"r{i}", f"{r.time:.12g}", f"{r.other:.12g}", r.kind])
    text.seek(0)
    parsed = [(a, float(b), float(c), int(d)) for a, b, c, d in csv.reader(text)]
    parsed.sort(key=lambda p: (p[2], p[3]))
    return perf_counter() - start


def at_reference_speed(seconds: float, loop_before: float, loop_after: float) -> float:
    """Scale a measured time by the loop times taken around it."""
    return seconds * REFERENCE_S / ((loop_before + loop_after) / 2)
