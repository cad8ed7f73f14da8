"""The cohort data model: subject records, their columns and the CSV form.

States are 0 (initial), 1 (intermediate illness) and 2 (absorbing).  A
subject either moves 0 -> 1 -> 2 or 0 -> 2; there is no recovery.  Records
store the observed pieces of that path under right-censoring and delayed
entry.  Every estimator reads a cohort as numpy columns (``Columns``), built
once per cohort.  The record invariants have two forms: the constructor's
checks, with each record's message, and ``valid_rows``, their vector mask,
which checks columns once before ``to_records`` fills in their records;
every constructor call (``dataclasses.replace`` too) still checks its own.
"""

from __future__ import annotations

import csv
import itertools
import math
from collections import deque
from dataclasses import dataclass, fields
from enum import IntEnum
from operator import itemgetter
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

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
    return isinstance(x, (int, float, np.integer, np.floating)) and math.isfinite(x)


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
        for name in ("entry", "exit0", "exit1"):  # numpy times as floats: == and hash agree
            if isinstance(value := getattr(self, name), (np.integer, np.floating)):
                object.__setattr__(self, name, float(value))
        if not _is_time(self.entry) or self.entry < 0:
            raise MalformedRecord(f"{self.id}: entry must be a finite time >= 0")
        if not _is_time(self.exit0) or self.exit0 < 0:
            raise MalformedRecord(f"{self.id}: exit0 must be a finite time >= 0")
        if self.cause0 not in (Cause.CENSORED, Cause.ILL, Cause.ABSORBED):
            raise MalformedRecord(f"{self.id}: bad cause0 {self.cause0!r}")
        if type(self.cause0) is not Cause:  # a plain code: the `is` tests need a member
            object.__setattr__(self, "cause0", Cause(self.cause0))
        if self.cause0 is Cause.ILL:
            if self.exit1 is None or self.cause1 is None:
                raise MalformedRecord(f"{self.id}: illness exit requires exit1/cause1")
            if not _is_time(self.exit1) or self.exit1 < self.exit0:
                raise MalformedRecord(f"{self.id}: exit1 must be finite and >= exit0")
            if self.cause1 not in (Cause.CENSORED, Cause.ABSORBED):
                raise MalformedRecord(f"{self.id}: bad cause1 {self.cause1!r}")
            if type(self.cause1) is not Cause:
                object.__setattr__(self, "cause1", Cause(self.cause1))
            if self.entry >= self.exit0 and self.entry >= self.exit1:
                raise MalformedRecord(f"{self.id}: no observation time after entry")
        else:
            if self.exit1 is not None or self.cause1 is not None:
                raise MalformedRecord(f"{self.id}: exit1/cause1 without illness")
            if self.entry >= self.exit0:
                raise MalformedRecord(f"{self.id}: entry must precede exit0")

    @classmethod
    def _filled(cls, *columns: list) -> list[IllnessDeathRecord]:
        """The records of a list per field, unchecked, each field set as the
        frozen __init__ sets it (an empty deque runs each map in C)."""
        cohort = list(map(object.__new__, itertools.repeat(cls, len(columns[0]))))
        for field, values in zip(fields(cls), columns):
            deque(map(object.__setattr__, cohort, itertools.repeat(field.name), values), 0)
        return cohort

    @property
    def final_time(self) -> float:
        """Last time the subject was under observation (_columns_of inlines it)."""
        return self.exit0 if self.exit1 is None else self.exit1

    @property
    def final_cause(self) -> Cause:
        return self.cause0 if self.cause1 is None else self.cause1

    @property
    def observed(self) -> bool:
        """True when the absorbing event was observed (_columns_of inlines it)."""
        return self.final_cause is Cause.ABSORBED

    @property
    def entered_ill(self) -> bool:
        """True when recruitment happened during the illness stay."""
        return self.cause0 is Cause.ILL and self.entry >= self.exit0


# a record built at import: CPython lets a class's instances share one key
# table once one of them has set its fields, and each record that _filled
# allocates before that keeps a dict of its own, 2.5 times the memory
IllnessDeathRecord("", 0.0, 1.0, Cause.CENSORED)

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
        return cls(*_columns_of(records), rank_ids([r.id for r in records]))

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
        in state 0 just after it (never one recruited during illness).
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
    record by the constructor, so the error is the one it raises.
    """
    valid = valid_rows(cols)
    if not valid.all():
        row = int(np.argmin(valid))
        one = Columns(*(column[row : row + 1] for column in cols[:5]), None)
        IllnessDeathRecord(name(row), *(field[0] for field in _fields_of(one)))
        raise MalformedRecord(f"{name(row)}: inconsistent columns")


def to_records(ids: Iterable[str], cols: Columns) -> list[IllnessDeathRecord]:
    """The records of the rows, with Python float times and Cause members,
    filled in unchecked once check_columns has checked every row."""
    ids = list(ids)
    check_columns(cols, ids.__getitem__)
    return IllnessDeathRecord._filled(ids, *_fields_of(cols))


def _fields_of(cols: Columns) -> tuple[list, ...]:
    """The entry, exit0, cause0, exit1 and cause1 of the rows' records."""
    ill, code = cols.ill, np.where(cols.observed, _ABSORBED, _CENSORED)
    members = np.array([*Cause, None], object)  # by code; 3 for no illness exit
    return (cols.entry.tolist(), np.where(ill, cols.exit0, cols.final).tolist(),
            members[np.where(ill, _ILL, code)].tolist(), np.where(ill, cols.final, None).tolist(),
            members[np.where(ill, code, 3)].tolist())


def _columns_of(records: list[IllnessDeathRecord]) -> tuple[np.ndarray, ...]:
    """The entry, exit0, final, cause0 and observed columns of records."""
    # a list per column (per-record tuples wake the GC); final_time, observed inlined
    absorbed, n = Cause.ABSORBED, len(records)
    final_cause = [r.cause0 if r.cause1 is None else r.cause1 for r in records]
    return (
        np.array([r.entry for r in records], float),
        np.array([r.exit0 for r in records], float),
        np.array([r.exit0 if r.exit1 is None else r.exit1 for r in records], float),
        np.fromiter([r.cause0 for r in records], np.int8, n),
        np.fromiter([cause is absorbed for cause in final_cause], bool, n),
    )


def rank_ids(ids: list[str]) -> np.ndarray:
    """Each id's rank in the stable sort of the ids."""
    rank = np.empty(len(ids), dtype=np.intp)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return rank


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
    and were still alive just after t (Columns.event1); every other fully
    observed path is EVENT2, and unobserved absorptions are CENSORED at the
    last time seen.
    """
    cols = Columns.of([record])
    kind = EventKind.EVENT2 if cols.observed[0] else EventKind.CENSORED
    if cols.event1(query.s, np.array([query.t]))[0, 0]:  # observed ones only
        kind = EventKind.EVENT1
    return CompetingRisksObservation(record.final_time, kind)


def landmark_subset(
    cohort: Iterable[IllnessDeathRecord], s: float
) -> list[IllnessDeathRecord]:
    """Subjects under observation in state 0 at the landmark time s, in
    cohort order (the rule of Columns.landmark)."""
    if not s >= 0:
        raise ValueError("landmark time must be >= 0")
    cohort = list(cohort)
    return list(itertools.compress(cohort, Columns.of(cohort).landmark(s)))


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

    def text(key: str, required: bool = False) -> str:
        value = raw.get(key)
        value = "" if value is None else str(value).strip()
        if required and not value:
            raise MalformedRecord(f"line {line}: missing {key}")
        return value

    ident = text("id", required=True)
    entry_text = text("entry")
    entry = max(_parse_time("entry", entry_text, line), 0.0) if entry_text else 0.0
    exit0 = _parse_time("exit0", text("exit0", required=True), line)
    cause0 = _parse_cause("cause0", text("cause0", required=True), line)
    exit1_text, cause1_text = text("exit1"), text("cause1")
    exit1 = _parse_time("exit1", exit1_text, line) if exit1_text else None
    cause1 = _parse_cause("cause1", cause1_text, line) if cause1_text else None
    try:
        return IllnessDeathRecord(ident, entry, exit0, cause0, exit1, cause1)
    except MalformedRecord as err:
        raise MalformedRecord(f"line {line}: {err}") from None


def read_cohort(source: str | Path | IO[str]) -> list[IllnessDeathRecord]:
    """Read a cohort CSV; raises MalformedRecord with the offending line."""
    cohort: list[IllnessDeathRecord] = []
    for ids, part in _read_blocks(source, lambda: (r.id for r in cohort)):
        cohort += to_records(ids, Columns(*part, None))
    return cohort


def read_columns(source: str | Path | IO[str]) -> tuple[Columns, list[str]]:
    """Read a cohort CSV into columns and the subjects' ids, in file order.

    The rows, values and errors are those of read_cohort: of validating
    each row in turn.
    """
    ids: list[str] = []
    parts = [_columns_of([])]
    for block_ids, part in _read_blocks(source, lambda: ids):
        ids += block_ids
        parts.append(part)
    rank = rank_ids(ids)  # before the blocks are joined, which lowers the peak memory
    return Columns(*(np.concatenate(column) for column in zip(*parts)), rank), ids


# rows converted at a time between CSV text, columns and records: bounds
# the memory held by Python values outside the columns
_BLOCK = 4096


def _read_blocks(
    source: str | Path | IO[str], earlier: Callable[[], Iterable[str]]
) -> Iterator[tuple[list[str], tuple]]:
    """The ids and the entry, exit0, final, cause0 and observed columns of
    each block of rows of a cohort CSV; ``earlier()`` gives the ids of the
    blocks already yielded.

    Blank rows are skipped, short rows read blank, extra fields are ignored
    and a repeated column name keeps its last column.  A block that fails
    or does not pass every check of _block_columns is decided row by row
    instead, by validate_record on the same field texts and the line each
    row ends on, which raises the first bad row's MalformedRecord.  Only
    the ids are stripped: float and int skip surrounding whitespace
    themselves, never more than str.strip does, and a field they reject
    (whitespace alone, or the separators \\x1c-\\x1f that only str.strip
    skips) sends its block to validate_record.  Repeated ids are found in one
    set pass, adding the block's ids to the earlier ones: a repeat leaves
    the set short, and the row loop then names it on the earlier ids alone.
    A path must hold UTF-8 text, and a byte-order mark that starts a path or
    a stream is skipped.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8", newline="") as handle:
            try:
                yield from _read_blocks(handle, earlier)
            except UnicodeDecodeError as err:
                raise MalformedRecord(f"{source}: not UTF-8 text: {err.reason}") from None
        return
    lines = iter(source)
    first = next(lines, "").removeprefix("\ufeff")
    if not first:  # a line read from text is never empty
        raise MalformedRecord("empty input: no header row")
    header, line = _split([first], first.count(",") + 1), 1
    if header is None:
        reader = csv.reader(itertools.chain([first], lines))
        try:
            header, line = next(reader), reader.line_num
        except csv.Error as err:
            raise MalformedRecord(f"line {reader.line_num}: {err}") from None
    missing = {"id", "exit0", "cause0"} - set(header)
    if missing:
        raise MalformedRecord(f"missing columns: {', '.join(sorted(missing))}")
    where = {name: i for i, name in enumerate(header)}  # the last one wins
    fields = [where.get(name) for name in CSV_COLUMNS]
    seen: set[str] = set()
    for texts, ends in _field_blocks(lines, line, len(header), fields):
        texts[0] = list(map(str.strip, texts[0]))
        part, size = _block_columns(texts), len(seen)
        if part is not None:
            seen.update(texts[0])
        if part is None or len(seen) != size + len(texts[0]):
            if len(seen) != size:  # back to the ids before this block
                seen = set(earlier())
            cohort = []
            for row, end in zip(zip(*texts), ends):
                record = validate_record(dict(zip(CSV_COLUMNS, row)), end)
                if record.id in seen:
                    raise MalformedRecord(f"line {end}: duplicate id {record.id!r}")
                seen.add(record.id)
                cohort.append(record)
            part, texts[0] = _columns_of(cohort), [r.id for r in cohort]
        yield texts[0], part


def _field_blocks(lines: Iterator[str], line: int, width: int, fields: list) -> Iterator:
    """The CSV_COLUMNS field texts of each block of rows after line ``line``,
    blank where absent, and the line each row ends on.  Blocks of plain
    lines (_split) are split at their commas, a row a line; from the first
    that is not, csv.reader reads."""
    while block := list(itertools.islice(lines, _BLOCK)):
        flat, n = _split(block, width), len(block)
        if flat is None:
            yield from _reader_blocks(itertools.chain(block, lines), line, fields)
            return
        texts = [[""] * n if i is None else flat[i::width] for i in fields]
        yield texts, range(line + 1, line + n + 1)
        line += n


def _split(lines: list[str], width: int) -> list[str] | None:
    """The fields of the lines, row after row, when csv.reader reads each
    line as one row of ``width`` fields split at every comma: no quote and
    no NUL, every line ending in \\n or \\r\\n (the last may end in
    neither) with no other \\r or \\n, none longer than the field size
    limit and ``width - 1`` commas on each.  None otherwise.  The line ends
    are checked on the block's UTF-8 bytes (NUL, \\n and \\r are never part
    of a multi-byte character; a lone surrogate from an iterable passes),
    and a line is no longer than the bytes between its NULs."""
    n, text = len(lines), "\0,".join(lines)  # a NUL ends each line but the last
    raw = np.frombuffer(text.encode("utf-8", "surrogatepass"), np.uint8)
    # one block-sized mask: the places of every NUL, \n and \r (and \t, \v, \f)
    at = np.flatnonzero(raw <= 13)
    code, limit = raw[at], csv.field_size_limit()
    stops = at[code == 0]
    if (
        '"' in text
        or len(stops) != n - 1
        or np.count_nonzero(code == 10) != n - 1 + lines[-1].endswith("\n")
        or "\r" in text and (text.endswith("\r") or (raw[at[code == 13] + 1] != 10).any())
        or np.diff(stops, prepend=0, append=len(raw)).max() > limit and max(map(len, lines)) > limit
    ):
        return None
    flat = text.split(",")
    # the lines' last fields, line ends cut: n parts when each but the last
    # ends in \n and its line's NUL (no NUL can go with an earlier line's \n)
    ends = "".join(flat[width - 1 :: width]).replace("\r", "").removesuffix("\n").split("\n\0")
    if len(flat) != n * width or len(ends) != n:
        return None
    flat[width - 1 :: width] = ends
    return flat


def _reader_blocks(lines: Iterator[str], line: int, fields: list) -> Iterator:
    """_field_blocks of the rows that csv.reader reads."""
    reader = csv.reader(lines)
    width = 1 + max(i for i in fields if i is not None)
    error, start = None, -1
    while error is None and start < reader.line_num:  # until an error or the end
        rows, ends, start = [], [], reader.line_num
        try:  # keeps the rows before an error
            for row in itertools.islice(reader, _BLOCK):
                if row:  # blank rows are skipped
                    rows.append(row)
                    ends.append(line + reader.line_num)
        except csv.Error as err:
            error = MalformedRecord(f"line {line + reader.line_num}: {err}")
        if rows:
            if min(map(len, rows)) < width:
                rows = [row + [""] * (width - len(row)) for row in rows]
            texts = [[""] * len(rows) if i is None else list(map(itemgetter(i), rows))
                     for i in fields]
            yield texts, ends
    if error is not None:
        raise error


def _block_columns(texts: list[list[str]]) -> tuple[np.ndarray, ...] | None:
    """The entry, exit0, final, cause0 and observed columns of the field
    texts, or None unless every row certainly makes a valid record."""
    ident, entry, exit0, cause0, exit1, cause1 = texts
    n = len(ident)
    # a blank exit0 fails its parse, but a blank cause0 beside a two-digit
    # code would pass the digit count below
    if "" in ident or "" in cause0:
        return None
    try:
        try:
            start = np.fromiter(map(float, entry), float, n)
        except ValueError:  # blank is 0
            start = np.fromiter(map(float, [x or "0" for x in entry]), float, n)
        end0 = np.fromiter(map(float, exit0), float, n)
        codes = cause0 + list(filter(None, cause1))
        digits = "".join(codes)  # one ASCII digit each: read as bytes
        if len(digits) == len(codes) and digits.isascii() and digits.isdigit():
            codes = np.frombuffer(digits.encode(), np.uint8) - np.int64(ord("0"))
        else:
            codes = np.fromiter(map(int, codes), np.int64, len(codes))
        code0, code1 = codes[:n], codes[n:]
        ill = code0 == Cause.ILL
        # exit1 and cause1 are given exactly when the subject fell ill
        if not ((np.array([exit1, cause1], object) != "") == ill).all():
            return None
        end1 = np.fromiter(map(float, filter(None, exit1)), float)
    except (ValueError, OverflowError):
        return None
    if not (((code0 >= 0) & (code0 <= 2)).all() and ((code1 == 0) | (code1 == 2)).all()):
        return None
    final = end0.copy()
    final[ill] = end1
    observed = code0 == Cause.ABSORBED
    observed[ill] = code1 == Cause.ABSORBED
    part = (np.where(start < 0, 0.0, start), end0, final, code0.astype(np.int8), observed)
    return part if valid_rows(Columns(*part, None)).all() else None


# a cohort CSV row without and with an illness exit
_ROW = "%s,%.12g,%.12g,%d,,\n"
_ILL_ROW = "%s,%.12g,%.12g,%d,%.12g,%d\n"


def write_columns(ids: Sequence[str], cols: Columns, sink: str | Path | IO[str]) -> None:
    """Write columns and their ids as a cohort CSV, times at 12 significant
    digits: each block of rows from one ``%`` template per row kind, in one
    write, or through csv.writer when its ids need quoting."""
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8", newline="") as handle:
            write_columns(ids, cols, handle)
        return
    sink.write(",".join(CSV_COLUMNS) + "\n")
    for start in range(0, len(ids), _BLOCK):
        block_ids = ids[start : start + _BLOCK]
        block = Columns(*(column[start : start + _BLOCK] for column in cols[:5]), None)
        values = (np.array(block_ids, object), block.entry, block.exit0, block.cause0,
                  block.final, np.where(block.observed, 2, 0))
        lines = np.empty(len(block_ids), object)
        for kind, template, width in ((~block.ill, _ROW, 4), (block.ill, _ILL_ROW, 6)):
            rows = zip(*(column[kind].tolist() for column in values[:width]))
            lines[kind] = np.fromiter(map(template.__mod__, rows), object, kind.sum())
        if any(map("".join(map(str, block_ids)).__contains__, ',"\r\n')):
            # no time or cause field has a comma: split the id off
            csv.writer(sink, lineterminator="\n").writerows(x[:-1].rsplit(",", 5) for x in lines)
        else:
            sink.write("".join(lines.tolist()))


def write_cohort(cohort: Sequence[IllnessDeathRecord], sink: str | Path | IO[str]) -> None:
    """Write records as a cohort CSV (write_columns)."""
    write_columns([r.id for r in cohort], Columns(*_columns_of(cohort), None), sink)
