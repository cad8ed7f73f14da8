"""Counting processes and risk sets on the pooled event grid.

All estimators consume the same precomputed structure: distinct observed
times with integer event counts and risk-set sizes, for both the state-0
process and the derived two-risk process of a given window.  Risk sets use
left-open observation windows, so a subject with entry L and exit R is at
risk at v iff L < v <= R; at the origin that degenerates to L == 0.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable

from .errors import EmptyLandmark, EmptyRiskSet
from .records import (
    Cause,
    EventKind,
    IllnessDeathRecord,
    TransitionQuery,
    derive_competing_risks,
    landmark_subset,
)


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous step function with jumps at sorted times."""

    initial_value: float
    jump_times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.jump_times) != len(self.values):
            raise ValueError("jump_times and values must align")
        if any(b <= a for a, b in zip(self.jump_times, self.jump_times[1:])):
            raise ValueError("jump_times must be strictly increasing")

    def __call__(self, u: float) -> float:
        # rightmost jump at or before u; right-continuity means the jump
        # value applies from its time onward
        k = bisect_right(self.jump_times, u)
        return self.initial_value if k == 0 else self.values[k - 1]

    def write_csv(self, sink) -> None:
        sink.write("time,value\n")
        for time, value in zip(self.jump_times, self.values):
            sink.write(f"{time:.12g},{value:.12g}\n")


@dataclass(frozen=True)
class CountingProcesses:
    """Event counts and risk sets over the distinct observed times.

    ``dn0``/``dn0c`` count observed exits/censorings from state 0 and ``y0``
    the matching risk set; subjects recruited during illness never appear in
    them.  ``dn1``/``dn2``/``dnc`` count the two-risk classifications of the
    window and ``y`` everyone still under observation.  ``y0_origin`` and
    ``y_origin`` are the risk sets at the time origin (entry == 0); for a
    landmark structure ``y_origin`` is the subset size, the risk set just
    after the landmark.
    """

    query: TransitionQuery
    landmark: bool
    size: int
    times: tuple[float, ...]
    dn0: tuple[int, ...]
    dn0c: tuple[int, ...]
    y0: tuple[int, ...]
    dn1: tuple[int, ...]
    dn2: tuple[int, ...]
    dnc: tuple[int, ...]
    y: tuple[int, ...]
    y0_origin: int
    y_origin: int

    def dn(self, i: int) -> int:
        """Two-risk events of either kind at grid index i."""
        return self.dn1[i] + self.dn2[i]


def build_counting(
    cohort: Iterable[IllnessDeathRecord],
    query: TransitionQuery,
    landmark: bool = False,
) -> CountingProcesses:
    """Assemble counting processes, optionally on the landmark subset at s.

    Raises EmptyLandmark (a subclass of EmptyRiskSet) when the landmark
    subset is empty, EmptyRiskSet when the cohort itself is.
    """
    if landmark:
        records = landmark_subset(cohort, query.s)
        if not records:
            raise EmptyLandmark(f"no subject in state 0 at landmark s={query.s}")
    else:
        records = list(cohort)
        if not records:
            raise EmptyRiskSet("empty cohort")

    entries_all = sorted(r.entry for r in records)
    finals_all = sorted(r.final_time for r in records)
    state0 = [r for r in records if not r.entered_ill]
    entries0 = sorted(r.entry for r in state0)
    exit0s = sorted(r.exit0 for r in state0)

    counts: dict[float, list[int]] = {}

    def at(v: float) -> list[int]:
        return counts.setdefault(v, [0, 0, 0, 0, 0])

    for r in state0:
        at(r.exit0)[1 if r.cause0 is Cause.CENSORED else 0] += 1
    for r in records:
        obs = derive_competing_risks(r, query)
        at(obs.time)[2 + (2 if obs.kind is EventKind.CENSORED else obs.kind - 1)] += 1

    times = tuple(sorted(counts))
    dn0, dn0c, dn1, dn2, dnc, y0, y = [], [], [], [], [], [], []
    for v in times:
        c = counts[v]
        dn0.append(c[0])
        dn0c.append(c[1])
        dn1.append(c[2])
        dn2.append(c[3])
        dnc.append(c[4])
        y0.append(bisect_left(entries0, v) - bisect_left(exit0s, v))
        y.append(bisect_left(entries_all, v) - bisect_left(finals_all, v))

    y0_origin = sum(1 for r in state0 if r.entry == 0)
    y_origin = len(records) if landmark else sum(1 for r in records if r.entry == 0)
    return CountingProcesses(
        query=query,
        landmark=landmark,
        size=len(records),
        times=times,
        dn0=tuple(dn0),
        dn0c=tuple(dn0c),
        y0=tuple(y0),
        dn1=tuple(dn1),
        dn2=tuple(dn2),
        dnc=tuple(dnc),
        y=tuple(y),
        y0_origin=y0_origin,
        y_origin=y_origin,
    )
