"""Seeded random-cohort builders shared across test modules.

Times live on a half-unit grid so ties are frequent and every float is an
exact binary fraction; the oracle mirror can therefore demand equality in
rational arithmetic rather than closeness.
"""

from __future__ import annotations

import random
from fractions import Fraction

import oracle_bruteforce as ob
from illnessdeath import Cause, IllnessDeathRecord, TransitionQuery


def _grid(rng: random.Random, lo: int, hi: int) -> float:
    return 0.5 * rng.randint(lo, hi)


def random_cohort(
    rng: random.Random,
    max_n: int = 50,
    truncated: bool = False,
    censored: bool = True,
) -> list[IllnessDeathRecord]:
    n = rng.randint(1, max_n)
    cohort = []
    for i in range(n):
        entry = 0.0
        if truncated and rng.random() < 0.4:
            entry = _grid(rng, 1, 8)
        kinds = ["direct", "ill"]
        if censored:
            kinds += ["cens0", "ill"]
        kind = rng.choice(kinds)
        if truncated and entry > 0 and kind == "ill" and rng.random() < 0.3:
            # recruited during illness: onset at or before entry
            exit0 = 0.5 * rng.randint(0, int(entry * 2))
            exit1 = entry + _grid(rng, 1, 8)
            cause1 = (
                Cause.CENSORED if censored and rng.random() < 0.4 else Cause.ABSORBED
            )
            cohort.append(
                IllnessDeathRecord(f"s{i}", entry, exit0, Cause.ILL, exit1, cause1)
            )
            continue
        exit0 = entry + _grid(rng, 1, 12)
        if kind == "direct":
            cohort.append(IllnessDeathRecord(f"s{i}", entry, exit0, Cause.ABSORBED))
        elif kind == "cens0":
            cohort.append(IllnessDeathRecord(f"s{i}", entry, exit0, Cause.CENSORED))
        else:
            # occasional zero illness sojourn produces tied exit0 == exit1
            exit1 = exit0 + (0.0 if rng.random() < 0.15 else _grid(rng, 1, 8))
            cause1 = (
                Cause.CENSORED if censored and rng.random() < 0.4 else Cause.ABSORBED
            )
            cohort.append(
                IllnessDeathRecord(f"s{i}", entry, exit0, Cause.ILL, exit1, cause1)
            )
    return cohort


def with_ill_at_origin(
    rng: random.Random, cohort: list[IllnessDeathRecord], k: int = 2
) -> list[IllnessDeathRecord]:
    """The cohort plus k subjects recruited while ill at the origin.

    Each has entry = exit0 = 0 and cause0 ILL: observed from the origin but
    never in state 0, so the s = 0 landmark must leave it out.
    """
    extra = []
    for i in range(k):
        exit1, cause1 = _grid(rng, 1, 12), rng.choice([Cause.ABSORBED, Cause.CENSORED])
        extra.append(IllnessDeathRecord(f"o{i}", 0.0, 0.0, Cause.ILL, exit1, cause1))
    return cohort + extra


def random_query(rng: random.Random) -> TransitionQuery:
    # mix of on-grid values (hitting observation times exactly) and offsets
    s = rng.choice([0.0, 0.5, 1.0, 1.5, 2.0, 0.75, 1.25])
    gap = rng.choice([0.0, 0.5, 1.0, 2.0, 3.5, 0.75, 2.25])
    return TransitionQuery(s, s + gap)


_CAUSE0 = {Cause.ILL: "ill", Cause.ABSORBED: "abs", Cause.CENSORED: "cen"}
_CAUSE1 = {Cause.ABSORBED: "abs", Cause.CENSORED: "cen"}


def to_oracle(cohort: list[IllnessDeathRecord]) -> list[dict]:
    """Mirror records into the oracle's plain-dict representation exactly."""
    out = []
    for r in cohort:
        out.append(
            {
                "entry": Fraction(r.entry),
                "exit0": Fraction(r.exit0),
                "cause0": _CAUSE0[r.cause0],
                "exit1": None if r.exit1 is None else Fraction(r.exit1),
                "cause1": None if r.cause1 is None else _CAUSE1[r.cause1],
            }
        )
    return out


# ---------------------------------------------------------------------------
# Cohort CSV text, valid or not, for the reader tests.  ``pick(options)``
# chooses one option (random.Random.choice, or a Hypothesis draw); repeated
# options weigh a choice.

_HEADER = ["id", "entry", "exit0", "cause0", "exit1", "cause1"]
CSV_HEADERS = (
    _HEADER,
    _HEADER,
    _HEADER,
    ["cause0", "exit0", "id", "cause1", "exit1", "entry"],
    ["id", "exit0", "cause0", "exit1", "cause1"],  # no entry column
    ["id", "entry", "exit0", "cause0"],  # no illness columns
    [*_HEADER, "note"],
    [*_HEADER, "exit0"],  # a repeated name keeps its last column
    ["id", *_HEADER],
)
_BAD_HEADERS = (
    ["id", "entry", "exit0", "exit1", "cause1"],  # no cause0
    [" id", "entry", "exit0", "cause0", "exit1", "cause1"],  # no "id"
    [],  # a blank header line
)

# spellings of a time, of a blank entry and of a cause code that keep the
# value, then some that break a record
_TIME_FORMS = ("{}", "{}", "{}", "{}", " {} ", "\t{}", "{} ", "0{}", "0_{}", "+{}", "{}e0",
               "{}\u2003", "\x1c{}")
_ENTRY_FORMS = ("", "", " ", "-0", "-0.0", "-2.5", "-inf", "0e5", "-1e400")
_CAUSE_FORMS = ("{}", "{}", "{}", " {} ", "0{}", "0_{}", "+{}")
_PLAIN_ID_FORMS = (" padded {} ", "\x00{}", "\u00e9t\u00e9{}", "{}")
_ID_FORMS = ("a,b{}", "line\nbreak{}", 'q"uote{}', *_PLAIN_ID_FORMS)  # the first three are quoted
_ODD_TIMES = ("nan", "NaN", "inf", " inf ", "1e400", "x", "1_0", "1e3",
              "-0", "-3", "", " ", "\u0661", "1.5.2", "0x1")
_ODD_CAUSES = ("7", "-1", "", "1_0", "2.0", "x", "\u0662", "99999999999999999999", "3", "1")
_ODD_IDS = ("", "  ", "s0", "s1", "s2")


def csv_text(pick, n: int, quoted: bool = True) -> str:
    """A cohort CSV of up to n rows.  Every file has odd spellings, blank
    and padded fields, long rows and blank lines, and quoted ids unless
    ``quoted`` is false (then no field is quoted); one in three may also
    have broken fields, short rows, repeated ids, misplaced illness exits
    or a header that lacks a column."""
    import csv
    import io

    broken = pick(range(3)) == 0
    if broken and pick(range(15)) == 0:
        return pick(("", "\n", "\r\n"))
    rate = 25 if broken else 0  # one odd field in `rate`

    def odd(options):
        return rate and pick(range(rate)) == 0 and pick(options)

    header = pick(CSV_HEADERS * 3 + (_BAD_HEADERS if broken else ()))
    causes = (0, 1, 1, 2) if "exit1" in header or broken else (0, 2)
    # a repeated name reads its last column; the others hold a decoy
    last = {name: j for j, name in enumerate(header)}
    sink = io.StringIO()
    writer = csv.writer(sink, lineterminator=pick(("\n", "\r\n")))
    writer.writerow(header)
    for i in range(n):
        entry = pick((0.0, 0.0, 0.0, 0.5, 1.0, 2.5))
        exit0 = entry + pick((0.5, 1.0, 1.5, 3.0, 4.5))
        cause0 = pick(causes)
        recruited = cause0 == 1 and entry > 0 and pick(range(4)) == 0
        if recruited:
            exit0 = pick((0.0, entry))  # fell ill before entry
        fields = {
            "id": f"s{i}",
            "entry": odd(_ODD_TIMES) or pick(_TIME_FORMS).format(f"{entry:g}"),
            "exit0": odd(_ODD_TIMES) or pick(_TIME_FORMS).format(f"{exit0:g}"),
            "cause0": odd(_ODD_CAUSES) or pick(_CAUSE_FORMS).format(cause0),
            "exit1": "",
            "cause1": "",
        }
        if entry == 0.0 and pick(range(3)) == 0:
            fields["entry"] = pick(_ENTRY_FORMS)
        if cause0 == 1 or odd((True,)):
            # a recruited subject is observed after entry, unless broken
            gaps = (0.5, 2.0) if recruited and not broken else (0.0, 0.5, 2.0)
            exit1 = max(exit0, entry) + pick(gaps)
            fields["exit1"] = odd(_ODD_TIMES) or pick(_TIME_FORMS).format(f"{exit1:g}")
            fields["cause1"] = odd(_ODD_CAUSES) or pick(_CAUSE_FORMS).format(pick((0, 2, 2)))
        if cause0 == 1 and odd((True,)):
            fields[pick(("exit1", "cause1"))] = ""
        if pick(range(6)) == 0:
            fields["id"] = pick(_ID_FORMS if quoted else _PLAIN_ID_FORMS).format(i)
        fields["id"] = odd(_ODD_IDS) or fields["id"]
        row = [fields.get(name, "extra") if last[name] == j else "9"
               for j, name in enumerate(header)]
        if odd((True,)):
            row = row[: pick(range(max(len(row), 1)))]  # short, or blank
        elif pick(range(20)) == 0:
            row += ["x", "y"][: pick((1, 2))]  # long
        elif pick(range(20)) == 0:
            sink.write(pick(("\n", "\r\n", "\n\n")))  # blank lines before
        writer.writerow(row)
    if pick(range(5)) == 0:
        sink.write(pick(("\n", "\n\n", "\r\n")))  # trailing blank lines
    return sink.getvalue()
