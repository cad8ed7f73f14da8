"""The columnar cohort, its risk sets and its counting processes.

Every estimator reads a cohort as numpy columns (``Columns``), built once
per cohort from the records.  The counting processes are computed from the
same columns: distinct observed times with integer event counts and
risk-set sizes, for both the state-0 process and the derived two-risk
process of a given window.  Risk sets use left-open observation windows, so
a subject with entry L and exit R is at risk at v iff L < v <= R; at the
origin that degenerates to L == 0.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .errors import EmptyLandmark, EmptyRiskSet, MalformedRecord
from .records import Cause, IllnessDeathRecord, TransitionQuery

# cause codes as plain ints for the int8 cause0 column: numpy compares an
# enum member only after looking up attributes on it, about 4x slower
_CENSORED, _ILL, _ABSORBED = int(Cause.CENSORED), int(Cause.ILL), int(Cause.ABSORBED)
# a batch's padding: never at risk, never observed and never in a landmark
_PADDING = (np.inf, np.inf, np.inf, _CENSORED, False, 0)


class Columns(NamedTuple):
    """The record fields the estimators read, one numpy array each.

    ``id_rank`` ranks the subjects by record id, the last tie-break of the
    ordered weights; rows taken from one cohort keep their ranks, so a
    repeated subject repeats its rank.  A NamedTuple's ``len`` counts its
    fields: the number of subjects is ``len(cols.final)``.  A batch of
    cohorts has a row each, padded where a row has no subject (``take``).
    """

    entry: np.ndarray
    exit0: np.ndarray
    final: np.ndarray
    cause0: np.ndarray
    observed: np.ndarray
    id_rank: np.ndarray

    @classmethod
    def of(cls, cohort: Iterable[IllnessDeathRecord] | Columns) -> Columns:
        """The columns of a cohort of records; Columns come back unchanged."""
        if isinstance(cohort, Columns):
            return cohort
        records = list(cohort)
        # a list per column (per-record tuples wake the GC); final_time, observed inlined
        absorbed, n = Cause.ABSORBED, len(records)
        final_cause = [r.cause0 if r.cause1 is None else r.cause1 for r in records]
        return cls(
            np.array([r.entry for r in records], float),
            np.array([r.exit0 for r in records], float),
            np.array([r.exit0 if r.exit1 is None else r.exit1 for r in records], float),
            np.fromiter([r.cause0 for r in records], np.int8, n),
            np.fromiter([cause is absorbed for cause in final_cause], bool, n),
            rank_ids([r.id for r in records]),
        )

    def take(self, rows: np.ndarray) -> Columns:
        """The subjects at a mask, or at indices (repeats allowed); a batch
        keeps its shape, the subjects outside a mask becoming padding."""
        if np.ndim(rows) > 1:
            return Columns(*(np.where(rows, c, pad) for c, pad in zip(self, _PADDING)))
        return Columns(*(column[rows] for column in self))

    @property
    def ill(self) -> np.ndarray:
        return self.cause0 == _ILL

    @property
    def state0(self) -> np.ndarray:
        """Observed in state 0 at all, i.e. not recruited during illness."""
        return self.entry < self.exit0

    def landmark(self, s: float) -> np.ndarray:
        """Mask of the subjects under observation in state 0 at s.

        For s > 0 this is ``entry < s < exit0``; at s = 0 the windows are
        left-open, so it is the subjects observed from the origin and still
        in state 0 just after it (see records.landmark_subset).
        """
        if s == 0:
            return (self.entry == 0) & (self.exit0 > 0)
        return (self.entry < s) & (s < self.exit0)

    def event1(self, s: float, ts: np.ndarray) -> np.ndarray:
        """(len(ts), *shape) mask: observed, ill in (s, t] and alive just after t."""
        t = ts.reshape(-1, *(1,) * self.final.ndim)
        onset = self.observed & self.ill & (s < self.exit0)
        return onset & (self.exit0 <= t) & (t < self.final)

    def clip(self, tau: float) -> tuple[np.ndarray, Columns]:
        """Artificial censoring at tau (estimators.artificial_censoring).

        Returns the mask of the subjects kept (entry < tau) and their
        clipped columns: a stay in state 0 past tau becomes a direct
        absorption at tau, an illness stay past tau an absorption at tau.
        Kept subjects keep their ranks.
        """
        over0 = self.exit0 > tau
        over = self.final > tau  # final >= exit0, so it covers over0
        clipped = Columns(
            self.entry,
            np.where(over0, tau, self.exit0),
            np.where(over, tau, self.final),
            np.where(over0, np.int8(_ABSORBED), self.cause0),
            self.observed | over,
            self.id_rank,
        )
        keep = self.entry < tau
        return keep, clipped.take(keep)


def valid_rows(cols: Columns) -> np.ndarray:
    """Mask of the rows that make valid records, in one vectorised pass.

    The IllnessDeathRecord invariants on the time columns, plus the
    column-only one that a subject who never fell ill ends at its state-0
    exit.  The cause columns are taken as consistent.
    """
    times = np.stack((cols.entry, cols.exit0, cols.final))
    return (np.isfinite(times) & (times >= 0)).all(axis=0) & np.where(
        cols.ill,
        (cols.exit0 <= cols.final) & (cols.entry < cols.final),
        (cols.entry < cols.exit0) & (cols.final == cols.exit0),
    )


def check_columns(cols: Columns, name: Callable[[int], str]) -> None:
    """Raise MalformedRecord unless every row makes a valid record.

    ``name(i)`` is the id of row i.  The first bad row is built as its
    record, so the error is the one the record constructor raises.
    """
    valid = valid_rows(cols)
    if not valid.all():
        row = np.flatnonzero(~valid)[:1]
        to_records([name(row[0])], cols.take(row))
        raise MalformedRecord(f"{name(row[0])}: inconsistent columns")


def to_records(ids: Iterable[str], cols: Columns) -> list[IllnessDeathRecord]:
    """The records of the rows, with Python float times and Cause members."""
    columns = (cols.entry, cols.exit0, cols.ill, cols.final, cols.observed)
    cohort = []
    for ident, entry, exit0, is_ill, end, absorbed in zip(
        ids, *(column.tolist() for column in columns)
    ):
        cause = Cause.ABSORBED if absorbed else Cause.CENSORED
        path = (exit0, Cause.ILL, end, cause) if is_ill else (end, cause)
        cohort.append(IllnessDeathRecord(ident, entry, *path))
    return cohort


def rank_ids(ids: list[str]) -> np.ndarray:
    """Each id's rank in the stable sort of the ids."""
    rank = np.empty(len(ids), dtype=np.intp)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return rank


def _tally(index: np.ndarray, m: int, weights: np.ndarray | None = None) -> np.ndarray:
    """Subjects per grid index 0..m-1; with weights (one row per resample, one
    column per subject), each row's total weight per index, summed exactly;
    with an index row per replication (see _grid), each row's count."""
    if weights is not None:
        return np.array([np.bincount(index, row, m) for row in weights], np.int64)
    if index.ndim == 1:
        return np.bincount(index, minlength=m)
    flat = (index + np.arange(len(index))[:, None] * (m + 1)).ravel()
    return np.bincount(flat, minlength=len(index) * (m + 1)).reshape(-1, m + 1)[:, :m]


def _grid(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct times and each time's index in them; with a row per
    cohort, a grid per row: each row sorted and cut to the widest row's m >= 1
    finite times, a repeated value indexed at its first place and padding
    (inf) at m, so a repeat or a row's inf tail adds exactly the unit factor
    and zero mass of leaving it out."""
    if times.ndim == 1:
        return np.unique(times, return_inverse=True)
    order = np.argsort(times, axis=-1)
    grid = np.take_along_axis(times, order, -1)
    m = int((grid < np.inf).sum(-1).max(initial=1))
    new = np.insert(grid[:, 1:] != grid[:, :-1], 0, True, axis=-1)
    first = np.maximum.accumulate(np.where(new, np.arange(grid.shape[-1]), 0), axis=-1)
    index = np.empty_like(first)
    np.put_along_axis(index, order, np.where(grid < np.inf, first, m), -1)
    return grid[:, :m], index


def _pick(column: np.ndarray, mask: np.ndarray, pad=np.inf) -> np.ndarray:
    """The masked subjects' values; a batch keeps its shape, padded with pad."""
    return column[mask] if mask.ndim == 1 else np.where(mask, column, pad)


def _at_risk(starts, ends, times, weights=None) -> np.ndarray:
    """Risk-set sizes on left-open windows: #(start < v) - #(end < v); with
    weights (see _tally), each row's total weight at risk; with a grid per
    row (sorted, see _grid), each row's own, padding (inf) never at risk."""
    if weights is None and times.ndim > 1:
        # a stable sort puts each grid time before the starts and ends equal
        # to it, and keeps the grid's order: +1 per start, -1 per end before it
        m, n = times.shape[-1], starts.shape[-1]
        order = np.argsort(np.concatenate((times, starts, ends), -1), -1, kind="stable")
        running = np.cumsum(np.where(order < m + n, 1, -1) * (order >= m), axis=-1)
        return running[order < m].reshape(times.shape)
    if weights is None:
        return np.searchsorted(np.sort(starts), times) - np.searchsorted(np.sort(ends), times)
    start, end = (_tally(np.searchsorted(times, x, "right"), len(times) + 1, weights)
                  for x in (starts, ends))
    return np.cumsum(start - end, axis=-1)[:, :-1]


def _among(weights: np.ndarray | None, mask: np.ndarray) -> np.ndarray | None:
    """The weights of the masked subjects, if any."""
    return None if weights is None else weights[:, mask]


def _landmark_columns(cohort: Iterable[IllnessDeathRecord], s: float) -> Columns:
    cols = Columns.of(cohort)
    sub = cols.take(cols.landmark(s))
    if not len(sub.final):
        raise EmptyLandmark(f"no subject in state 0 at landmark s={s}")
    return sub


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
    if landmark:
        cols = _landmark_columns(cohort, query.s)
    else:
        cols = Columns.of(cohort)
        if not len(cols.final):
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
