"""Subject records for a progressive three-state process and derived data.

States are 0 (initial), 1 (intermediate illness) and 2 (absorbing).  A
subject either moves 0 -> 1 -> 2 or 0 -> 2; there is no recovery.  Records
store the observed pieces of that path under right-censoring and delayed
entry.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence

from .errors import MalformedRecord


class Cause(IntEnum):
    """Exit-cause codes, also used verbatim in the cohort CSV schema."""

    CENSORED = 0
    ILL = 1
    ABSORBED = 2


class EventKind(IntEnum):
    """Classification of the derived two-risk observation for a window."""

    CENSORED = 0
    EVENT1 = 1
    EVENT2 = 2


def _is_time(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


@dataclass(frozen=True)
class IllnessDeathRecord:
    """One subject's observed path.

    ``exit0`` ends the observed stay in state 0 with cause ``cause0``; when
    the subject was seen to fall ill, ``exit1`` ends the illness stay with
    cause ``cause1``.  ``entry`` is the delayed-entry time (0 means observed
    from the time origin).  A subject recruited while already ill carries
    ``exit0 <= entry < exit1`` with ``cause0 = ILL``: the illness onset is
    known history, but the stay in state 0 was never under observation.
    """

    id: str
    entry: float
    exit0: float
    cause0: Cause
    exit1: float | None = None
    cause1: Cause | None = None

    def __post_init__(self) -> None:
        if not _is_time(self.entry) or self.entry < 0:
            raise MalformedRecord(f"{self.id}: entry must be a finite time >= 0")
        if not _is_time(self.exit0) or self.exit0 < 0:
            raise MalformedRecord(f"{self.id}: exit0 must be a finite time >= 0")
        if self.cause0 not in (Cause.CENSORED, Cause.ILL, Cause.ABSORBED):
            raise MalformedRecord(f"{self.id}: bad cause0 {self.cause0!r}")
        if self.cause0 is Cause.ILL:
            if self.exit1 is None or self.cause1 is None:
                raise MalformedRecord(f"{self.id}: illness exit requires exit1/cause1")
            if not _is_time(self.exit1) or self.exit1 < self.exit0:
                raise MalformedRecord(f"{self.id}: exit1 must be finite and >= exit0")
            if self.cause1 not in (Cause.CENSORED, Cause.ABSORBED):
                raise MalformedRecord(f"{self.id}: bad cause1 {self.cause1!r}")
            if self.entry >= self.exit0 and self.entry >= self.exit1:
                raise MalformedRecord(f"{self.id}: no observation time after entry")
        else:
            if self.exit1 is not None or self.cause1 is not None:
                raise MalformedRecord(f"{self.id}: exit1/cause1 without illness")
            if self.entry >= self.exit0:
                raise MalformedRecord(f"{self.id}: entry must precede exit0")

    @property
    def final_time(self) -> float:
        """Last time the subject was under observation."""
        return self.exit0 if self.exit1 is None else self.exit1

    @property
    def final_cause(self) -> Cause:
        return self.cause0 if self.cause1 is None else self.cause1

    @property
    def observed(self) -> bool:
        """True when the absorbing event itself was observed."""
        return self.final_cause is Cause.ABSORBED

    @property
    def entered_ill(self) -> bool:
        """True when recruitment happened during the illness stay."""
        return self.cause0 is Cause.ILL and self.entry >= self.exit0


@dataclass(frozen=True)
class TransitionQuery:
    """Evaluation window: occupy state 0 at s, ask about state 1 at t."""

    s: float
    t: float

    def __post_init__(self) -> None:
        for x in (self.s, self.t):
            if not isinstance(x, (int, float)):
                kind = f"{type(x).__module__}.{type(x).__qualname__}"
                raise ValueError(f"query times must be int or float, not {kind}")
            if not math.isfinite(x):
                raise ValueError("query times must be finite")
        if not 0 <= self.s <= self.t:
            raise ValueError(f"need 0 <= s <= t, got s={self.s}, t={self.t}")


@dataclass(frozen=True)
class CompetingRisksObservation:
    """Final observed time with its two-risk classification."""

    time: float
    kind: EventKind


def derive_competing_risks(
    record: IllnessDeathRecord, query: TransitionQuery
) -> CompetingRisksObservation:
    """Collapse a record to the two-risk datum for the window (s, t].

    EVENT1 marks fully observed paths that entered illness inside (s, t]
    and were still alive just after t; every other fully observed path is
    EVENT2, and unobserved absorptions are CENSORED at the last time seen.
    """
    time = record.final_time
    if not record.observed:
        return CompetingRisksObservation(time, EventKind.CENSORED)
    if (
        record.cause0 is Cause.ILL
        and query.s < record.exit0 <= query.t < time
    ):
        return CompetingRisksObservation(time, EventKind.EVENT1)
    return CompetingRisksObservation(time, EventKind.EVENT2)


def landmark_subset(
    cohort: Iterable[IllnessDeathRecord], s: float
) -> list[IllnessDeathRecord]:
    """Subjects under observation in state 0 at the landmark time s.

    For s > 0 this is ``entry < s < exit0``.  At s = 0 observation windows
    are left-open, so the subset degenerates to subjects observed from the
    origin and still in state 0 just after it.
    """
    if s < 0:
        raise ValueError("landmark time must be >= 0")
    if s == 0:
        return [r for r in cohort if r.entry == 0 and r.exit0 > 0 and not r.entered_ill]
    return [r for r in cohort if r.entry < s < r.exit0]


# ---------------------------------------------------------------------------
# CSV input and output
#
# Columns: id,entry,exit0,cause0,exit1,cause1 with cause codes 0/1/2.
# entry may be blank (treated as 0); exit1/cause1 are blank unless cause0=1.

CSV_COLUMNS = ("id", "entry", "exit0", "cause0", "exit1", "cause1")


def _parse_time(field: str, value: str, line: int) -> float:
    try:
        out = float(value)
    except ValueError:
        raise MalformedRecord(f"line {line}: {field} is not a number: {value!r}")
    if math.isnan(out):
        raise MalformedRecord(f"line {line}: {field} is NaN")
    return out


def _parse_cause(field: str, value: str, line: int) -> Cause:
    try:
        return Cause(int(value))
    except (ValueError, KeyError):
        raise MalformedRecord(f"line {line}: {field} must be 0, 1 or 2, got {value!r}")


def validate_record(raw: Mapping[str, object], line: int = 0) -> IllnessDeathRecord:
    """Build a record from loosely typed fields, clamping entry at 0.

    Raw truncation times can be negative in sources that shift the origin;
    those are clamped to 0.  Everything else that breaks an invariant raises
    MalformedRecord.
    """

    def text(key: str) -> str:
        value = raw.get(key)
        return "" if value is None else str(value).strip()

    ident = text("id")
    if not ident:
        raise MalformedRecord(f"line {line}: missing id")
    entry_text = text("entry")
    entry = _parse_time("entry", entry_text, line) if entry_text else 0.0
    entry = max(entry, 0.0)
    exit0_text = text("exit0")
    if not exit0_text:
        raise MalformedRecord(f"line {line}: missing exit0")
    exit0 = _parse_time("exit0", exit0_text, line)
    cause0_text = text("cause0")
    if not cause0_text:
        raise MalformedRecord(f"line {line}: missing cause0")
    cause0 = _parse_cause("cause0", cause0_text, line)
    exit1_text = text("exit1")
    cause1_text = text("cause1")
    exit1 = _parse_time("exit1", exit1_text, line) if exit1_text else None
    cause1 = _parse_cause("cause1", cause1_text, line) if cause1_text else None
    try:
        return IllnessDeathRecord(ident, entry, exit0, cause0, exit1, cause1)
    except MalformedRecord as err:
        raise MalformedRecord(f"line {line}: {err}") from None


def read_cohort(source: str | Path | IO[str]) -> list[IllnessDeathRecord]:
    """Read a cohort CSV; raises MalformedRecord with the offending line."""
    if isinstance(source, (str, Path)):
        with open(source, newline="") as handle:
            return read_cohort(handle)
    reader = csv.DictReader(source)
    if reader.fieldnames is None:
        raise MalformedRecord("empty input: no header row")
    missing = {"id", "exit0", "cause0"} - set(reader.fieldnames)
    if missing:
        raise MalformedRecord(f"missing columns: {', '.join(sorted(missing))}")
    cohort = []
    seen: set[str] = set()
    for row in reader:
        record = validate_record(row, line=reader.line_num)
        if record.id in seen:
            raise MalformedRecord(f"line {reader.line_num}: duplicate id {record.id!r}")
        seen.add(record.id)
        cohort.append(record)
    return cohort


def _format_time(x: float) -> str:
    return f"{x:.12g}"


def write_cohort(
    cohort: Sequence[IllnessDeathRecord], sink: str | Path | IO[str]
) -> None:
    if isinstance(sink, (str, Path)):
        with open(sink, "w", newline="") as handle:
            write_cohort(cohort, handle)
        return
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in cohort:
        writer.writerow(
            [
                r.id,
                _format_time(r.entry),
                _format_time(r.exit0),
                int(r.cause0),
                "" if r.exit1 is None else _format_time(r.exit1),
                "" if r.cause1 is None else int(r.cause1),
            ]
        )
