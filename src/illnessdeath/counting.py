"""Risk sets and counting processes of a cohort's columns (records.Columns).

The counting processes are distinct observed times with integer event
counts and risk-set sizes, for both the state-0 process and the derived
two-risk process of a given window.  Risk sets use left-open observation
windows, so a subject with entry L and exit R is at risk at v iff
L < v <= R; at the origin that degenerates to L == 0.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import EmptyLandmark, EmptyRiskSet
from .records import _CENSORED, Columns, IllnessDeathRecord, TransitionQuery


class _Tally:
    """The subjects in mask (every one by default) per grid index 0..m-1 (see
    _grid; m or more counts nowhere), a row per place in the leading axes of
    mask and index (a t of event1, a batch row); with weights (integer
    multiplicities, a row per resample, a column per subject) each resample's
    total weight, in front.  One bincount over the keys of kept, exact; the
    int64 cast of the sums would truncate float weights."""

    def __init__(self, index: np.ndarray, m: int, mask=True):
        self.index, self.m, self.mask = index, m, mask

    def __call__(self, weights: np.ndarray | None = None) -> np.ndarray:
        flat, keys, shape = self.kept
        if weights is not None:  # each resample's keys past the one before
            keys = (keys + np.arange(len(weights))[:, None] * math.prod(shape)).ravel()
            shape, weights = (len(weights), *shape), weights.take(flat, 1, mode="wrap").ravel()
        counts = np.bincount(keys, weights, math.prod(shape))
        return counts.reshape(shape).astype(np.int64, copy=False)

    @cached_property
    def kept(self) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
        """The flat places of the subjects that count (modulo n, their
        columns), their keys row * m + index, the index's rows repeating under
        the mask's leading axes, and the counts' shape."""
        counted = self.mask & (self.index < self.m)
        flat, n, m = np.flatnonzero(counted), counted.shape[-1], self.m
        return flat, flat // n * m + self.index.take(flat, mode="wrap"), (*counted.shape[:-1], m)


def _grid(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct finite times and each time's index in them, padding
    (inf, see _pick) at m; with a row per cohort, a grid per row: each row
    sorted and cut to the widest row's m >= 1 finite times, a repeated value
    indexed at its first place, so a repeat or a row's inf tail adds exactly
    the unit factor and zero mass of leaving it out."""
    if times.ndim == 1:
        finite = times < np.inf
        grid, inverse = np.unique(times[finite], return_inverse=True)
        index = np.full(times.shape, len(grid))
        index[finite] = inverse
        return grid, index
    # flat passes: each row's sort order as places in the flat batch, and
    # each value's first place by one running maximum, a row starting anew
    rows, n = times.shape
    offsets = np.arange(rows)[:, None] * n
    order = (np.argsort(times, axis=-1) + offsets).ravel()
    grid = times.ravel()[order].reshape(rows, n)
    m = int((grid < np.inf).sum(-1).max(initial=1))
    new = np.ones((rows, n), bool)
    new[:, 1:] = grid[:, 1:] != grid[:, :-1]
    first = np.maximum.accumulate(np.where(new, offsets + np.arange(n), 0).ravel())
    index = np.empty_like(first)
    index[order] = np.where(grid < np.inf, first.reshape(rows, n) - offsets, m).ravel()
    return grid[:, :m], index.reshape(rows, n)


def _pick(column: np.ndarray, mask) -> np.ndarray:
    """The column with the subjects outside the mask as padding (inf)."""
    return np.where(mask, column, np.inf)


def _at_risk(starts, ends, times) -> np.ndarray:
    """Risk-set sizes on left-open windows: #(start < v) - #(end < v); with a
    grid per row (sorted, see _grid), each row's own, padding (inf) never at
    risk."""
    if times.ndim == 1:
        return np.searchsorted(np.sort(starts), times) - np.searchsorted(np.sort(ends), times)
    # the starts and ends sorted first, so the stable sort merges three sorted
    # runs in linear time; it puts each grid time before the starts and ends
    # equal to it and keeps the grid's order: +1 per start, -1 per end before
    # it.  Exact: a count does not depend on the order of the subjects
    m, n = times.shape[-1], starts.shape[-1]
    runs = (times, np.sort(starts, -1), np.sort(ends, -1))
    order = np.argsort(np.concatenate(runs, -1), -1, kind="stable")
    running = np.cumsum(np.where(order < m + n, 1, -1) * (order >= m), axis=-1)
    return running[order < m].reshape(times.shape)


class _RiskSets:
    """The risk sets of _at_risk of the subjects in who; with weights (see
    _Tally), each row's total weight at risk, from the number of grid times
    up to each start and end, which the first such call finds; a subject with
    as many up to its start as its end cancels at one place and is left out."""

    def __init__(self, times: np.ndarray, who, starts: np.ndarray, ends: np.ndarray):
        self.times, self.who, self.starts, self.ends = times, who, starts, ends

    def __call__(self, weights: np.ndarray | None = None) -> np.ndarray:
        if weights is None:
            starts, ends = (_pick(at, self.who) for at in (self.starts, self.ends))
            return _at_risk(starts, ends, self.times)
        start, end = (tally(weights) for tally in self.places)
        return np.cumsum(start - end, axis=-1)

    @cached_property
    def places(self) -> list[_Tally]:
        start, end = (np.searchsorted(self.times, at, "right") for at in (self.starts, self.ends))
        return [_Tally(at, len(self.times), self.who & (start < end)) for at in (start, end)]


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
        # value applies from its time onward; NaN would pass every jump
        if u != u:
            raise ValueError("a step function has no value at NaN")
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
    window and ``y`` everyone still under observation.  ``y_origin`` is the
    risk set at the time origin (entry == 0); for a landmark structure it is
    the subset size, the risk set just after the landmark.
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

    The grid holds every state-0 exit and every final time.  Raises
    EmptyLandmark (a subclass of EmptyRiskSet) when the landmark subset is
    empty, EmptyRiskSet when the cohort itself is.
    """
    cols = Columns.of(cohort)
    if landmark:
        cols = cols.take(cols.landmark(query.s))
        if not len(cols.final):
            raise EmptyLandmark(f"no subject in state 0 at landmark s={query.s}")
    elif not len(cols.final):
        raise EmptyRiskSet("empty cohort")
    state0 = cols.state0
    exits = cols.exit0[state0]
    times, index = np.unique(np.concatenate((exits, cols.final)), return_inverse=True)
    m = len(times)
    at_exit, at_final = index[: len(exits)], index[len(exits) :]
    censored0 = cols.cause0[state0] == _CENSORED
    event1 = cols.event1(query.s, np.array([query.t]))[0]
    kind = np.where(cols.observed, np.where(event1, 0, 1), 2)  # dn1, dn2, dnc
    dn1, dn2, dnc = np.bincount(kind * m + at_final, minlength=3 * m).reshape(3, m)
    y_origin = len(cols.final) if landmark else np.count_nonzero(cols.entry == 0)
    return CountingProcesses(
        query=query,
        landmark=landmark,
        size=len(cols.final),
        times=tuple(times.tolist()),
        dn0=tuple(np.bincount(at_exit[~censored0], minlength=m).tolist()),
        dn0c=tuple(np.bincount(at_exit[censored0], minlength=m).tolist()),
        y0=tuple(_at_risk(cols.entry[state0], exits, times).tolist()),
        dn1=tuple(dn1.tolist()),
        dn2=tuple(dn2.tolist()),
        dnc=tuple(dnc.tolist()),
        y=tuple(_at_risk(cols.entry, cols.final, times).tolist()),
        y_origin=int(y_origin),
    )
