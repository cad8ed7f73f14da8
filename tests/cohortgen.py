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
