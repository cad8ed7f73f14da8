import ast
import io
import itertools
import math
import random
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import illnessdeath
import oracle_bruteforce as ob
from cohortgen import random_cohort, to_oracle, with_ill_at_origin
from illnessdeath import (
    Cause,
    EventKind,
    IllnessDeathRecord,
    MalformedRecord,
    TransitionQuery,
    derive_competing_risks,
    landmark_subset,
    p01_curve,
    p01_landmark,
    read_cohort,
    validate_record,
    write_cohort,
)
from illnessdeath.estimators import ESTIMATORS
from illnessdeath.records import Columns, to_records, valid_rows


class TestRecordValidation:
    def test_direct_absorption(self):
        r = IllnessDeathRecord("a", 0, 2, Cause.ABSORBED)
        assert r.final_time == 2
        assert r.observed
        assert not r.entered_ill

    def test_complete_illness_path(self):
        r = IllnessDeathRecord("a", 0, 1, Cause.ILL, 4, Cause.ABSORBED)
        assert r.final_time == 4
        assert r.final_cause is Cause.ABSORBED

    def test_entry_after_exit0_rejected_without_illness(self):
        with pytest.raises(MalformedRecord):
            IllnessDeathRecord("a", 3, 2, Cause.ABSORBED)

    def test_entry_equal_exit0_rejected(self):
        with pytest.raises(MalformedRecord):
            IllnessDeathRecord("a", 2, 2, Cause.CENSORED)

    def test_recruited_during_illness(self):
        # onset precedes study entry; window is (entry, exit1]
        r = IllnessDeathRecord("a", 3, 2, Cause.ILL, 5, Cause.CENSORED)
        assert r.entered_ill
        assert r.final_time == 5

    def test_recruited_during_illness_needs_window(self):
        with pytest.raises(MalformedRecord):
            IllnessDeathRecord("a", 5, 2, Cause.ILL, 5, Cause.ABSORBED)

    def test_exit1_without_illness_rejected(self):
        with pytest.raises(MalformedRecord):
            IllnessDeathRecord("a", 0, 2, Cause.ABSORBED, 4, Cause.ABSORBED)

    def test_missing_exit1_rejected(self):
        with pytest.raises(MalformedRecord):
            IllnessDeathRecord("a", 0, 2, Cause.ILL)

    def test_exit1_before_exit0_rejected(self):
        with pytest.raises(MalformedRecord):
            IllnessDeathRecord("a", 0, 3, Cause.ILL, 2, Cause.ABSORBED)

    def test_nan_rejected(self):
        with pytest.raises(MalformedRecord):
            IllnessDeathRecord("a", 0, math.nan, Cause.ABSORBED)

    def test_negative_entry_rejected_by_constructor(self):
        with pytest.raises(MalformedRecord):
            IllnessDeathRecord("a", -1, 2, Cause.ABSORBED)

    def test_integer_cause_codes_read_as_their_members(self):
        # a plain code equals its member, but the record's readers test `is`
        coded = [IllnessDeathRecord(f"a{i}", 0, float(i), 2) for i in range(1, 6)]
        coded.append(IllnessDeathRecord("b", 0, 2.0, 1, 6.0, 2))
        want = [IllnessDeathRecord(f"a{i}", 0, float(i), Cause.ABSORBED) for i in range(1, 6)]
        want.append(IllnessDeathRecord("b", 0, 2.0, Cause.ILL, 6.0, Cause.ABSORBED))
        for got, member in zip(coded, want):
            assert type(got.cause0) is Cause
            assert got.cause1 is member.cause1
            assert (got.observed, got.final_cause) == (member.observed, member.final_cause)
        for got, member in zip(Columns.of(coded), Columns.of(want)):
            assert got.dtype == member.dtype and got.tolist() == member.tolist()
        assert p01_landmark(coded, TransitionQuery(0, 4)) == pytest.approx(1 / 6)
        cohort = random_cohort(random.Random(3), max_n=40)
        plain = [
            IllnessDeathRecord(r.id, r.entry, r.exit0, int(r.cause0), r.exit1,
                               None if r.cause1 is None else int(r.cause1))
            for r in cohort
        ]
        assert plain == cohort
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for method in ESTIMATORS:
                got, member = (p01_curve(c, 1.5, [2, 3.5, 5], method) for c in (plain, cohort))
                assert got == member, method

    def test_bad_cause_codes_rejected(self):
        with pytest.raises(MalformedRecord, match="a: bad cause0 7"):
            IllnessDeathRecord("a", 0, 2.0, 7)
        with pytest.raises(MalformedRecord, match="a: bad cause1 1"):
            IllnessDeathRecord("a", 0, 2.0, 1, 3.0, 1)

    def test_ingest_clamps_negative_entry(self):
        r = validate_record({"id": "a", "entry": "-3", "exit0": "2", "cause0": "2"})
        assert r.entry == 0.0

    def test_ingest_defaults_blank_entry(self):
        r = validate_record({"id": "a", "entry": "", "exit0": "2", "cause0": "0"})
        assert r.entry == 0.0
        assert r.cause0 is Cause.CENSORED


class TestDeriveCompetingRisks:
    def test_window_hit(self, query):
        r = IllnessDeathRecord("a", 0, 3, Cause.ILL, 6, Cause.ABSORBED)
        obs = derive_competing_risks(r, query)
        assert obs.kind is EventKind.EVENT1
        assert obs.time == 6

    def test_onset_before_window(self, query):
        r = IllnessDeathRecord("a", 0, 1, Cause.ILL, 4, Cause.ABSORBED)
        assert derive_competing_risks(r, query).kind is EventKind.EVENT2

    def test_dead_by_t(self):
        # onset inside the window but absorbed before t
        r = IllnessDeathRecord("a", 0, 2, Cause.ILL, 3, Cause.ABSORBED)
        q = TransitionQuery(1.5, 3.5)
        assert derive_competing_risks(r, q).kind is EventKind.EVENT2

    def test_censored_in_illness(self, query):
        r = IllnessDeathRecord("a", 0, 2, Cause.ILL, 3, Cause.CENSORED)
        obs = derive_competing_risks(r, query)
        assert obs.kind is EventKind.CENSORED
        assert obs.time == 3

    def test_time_is_exit0_without_illness(self, query):
        r = IllnessDeathRecord("a", 0, 2, Cause.ABSORBED)
        assert derive_competing_risks(r, query).time == 2

    def test_boundary_onset_at_t_counts(self):
        r = IllnessDeathRecord("a", 0, 3.5, Cause.ILL, 6, Cause.ABSORBED)
        q = TransitionQuery(1.5, 3.5)
        assert derive_competing_risks(r, q).kind is EventKind.EVENT1

    def test_boundary_onset_at_s_excluded(self):
        r = IllnessDeathRecord("a", 0, 1.5, Cause.ILL, 6, Cause.ABSORBED)
        q = TransitionQuery(1.5, 3.5)
        assert derive_competing_risks(r, q).kind is EventKind.EVENT2


class TestLandmarkSubset:
    def test_hand_example(self, cohort4):
        ids = {r.id for r in landmark_subset(cohort4, 1.5)}
        assert ids == {"B", "C", "D"}

    def test_strict_boundaries(self):
        at_s = IllnessDeathRecord("x", 0, 2.0, Cause.ABSORBED)
        assert landmark_subset([at_s], 2.0) == []
        entered_at_s = IllnessDeathRecord("y", 2.0, 4.0, Cause.ABSORBED)
        assert landmark_subset([entered_at_s], 2.0) == []

    def test_origin_landmark_keeps_origin_entries(self):
        a = IllnessDeathRecord("a", 0, 2, Cause.ABSORBED)
        b = IllnessDeathRecord("b", 1, 3, Cause.ABSORBED)
        assert landmark_subset([a, b], 0) == [a]

    def test_entered_ill_never_in_landmark(self):
        r = IllnessDeathRecord("a", 3, 2, Cause.ILL, 9, Cause.ABSORBED)
        assert landmark_subset([r], 2.5) == []
        assert landmark_subset([r], 0) == []


def test_landmark_and_two_risk_rules_equal_the_oracle():
    # truncated, censored and tied cohorts with subjects ill at the origin,
    # at s = 0 and s > 0, on and off the grid of observed times
    kinds = {"ev1": EventKind.EVENT1, "ev2": EventKind.EVENT2, "cen": EventKind.CENSORED}
    seen, sizes = set(), set()
    for seed in range(60):
        rng = random.Random(seed)
        cohort = with_ill_at_origin(rng, random_cohort(rng, max_n=30, truncated=True))
        mirror = to_oracle(cohort)
        for s in (0.0, 0.5, 1.5, 2.0, 3.75, 6.0):
            want = {id(o) for o in ob.landmark(mirror, Fraction(s))}
            got = landmark_subset(cohort, s)
            assert got == [r for r, o in zip(cohort, mirror) if id(o) in want]
            sizes.add(min(len(got), 1))
            for t in (s, s + 0.5, s + 2.0, s + 4.25):
                query = TransitionQuery(s, t)
                for r, o in zip(cohort, mirror):
                    time, kind = ob.classify(o, Fraction(s), Fraction(t))
                    obs = derive_competing_risks(r, query)
                    assert (obs.time, obs.kind) == (time, kinds[kind])
                    seen.add(kind)
    assert seen == set(kinds) and sizes == {0, 1}


class TestCohortCsv:
    def test_round_trip(self, cohort4, tmp_path):
        path = tmp_path / "cohort.csv"
        write_cohort(cohort4, path)
        back = read_cohort(path)
        assert back == cohort4

    def test_round_trip_with_delayed_entry(self, tmp_path):
        cohort = [
            IllnessDeathRecord("a", 1.25, 4, Cause.ILL, 7.5, Cause.CENSORED),
            IllnessDeathRecord("b", 5, 3, Cause.ILL, 8, Cause.ABSORBED),
        ]
        path = tmp_path / "cohort.csv"
        write_cohort(cohort, path)
        assert read_cohort(path) == cohort

    def test_malformed_row_reports_line(self):
        text = "id,entry,exit0,cause0,exit1,cause1\nA,0,2,2,,\nB,3,2,2,,\n"
        with pytest.raises(MalformedRecord, match="line 3"):
            read_cohort(io.StringIO(text))

    def test_missing_column_rejected(self):
        with pytest.raises(MalformedRecord, match="cause0"):
            read_cohort(io.StringIO("id,entry,exit0\nA,0,2\n"))

    def test_duplicate_id_rejected(self):
        text = "id,entry,exit0,cause0,exit1,cause1\nA,0,2,2,,\nA,0,3,2,,\n"
        with pytest.raises(MalformedRecord, match="duplicate"):
            read_cohort(io.StringIO(text))

    def test_bad_cause_code_reports_line(self):
        text = "id,entry,exit0,cause0,exit1,cause1\nA,0,2,7,,\n"
        with pytest.raises(MalformedRecord, match="line 2"):
            read_cohort(io.StringIO(text))


# edge values of a time column: negative, signed zero, inside, infinite, NaN
EDGES = (-1.0, -0.0, 0.0, 0.5, 1.0, 2.0, math.inf, math.nan)


def _one_row_cases():
    """Every one-row Columns over the edge times, with cause codes and an
    observed flag the columns can carry: absorbed iff cause0 is 2, unless
    the subject fell ill (cause0 1), where either flag is possible."""
    for entry, exit0, final in itertools.product(EDGES, repeat=3):
        for cause0, observed in ((0, False), (2, True), (1, False), (1, True)):
            fields = ([entry], [exit0], [final], np.int8([cause0]), [observed], [0])
            yield Columns(*map(np.array, fields))


def _record_form_accepts(cols) -> bool:
    """True when the row builds its record and the record gives back the
    same five columns, bit for bit."""
    try:
        back = Columns.of(to_records(["x"], cols))
    except MalformedRecord:
        return False
    return all(
        a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(cols[:5], back[:5])
    )


def test_valid_rows_agrees_with_the_record_constructor():
    # the vector form of the invariants against the scalar form, on every case
    cases = list(_one_row_cases())
    assert len(cases) == 2048
    wrong = [c for c in cases if bool(valid_rows(c)[0]) != _record_form_accepts(c)]
    assert wrong == []
    assert 0 < sum(bool(valid_rows(c)[0]) for c in cases) < len(cases)


def test_every_import_is_at_module_level():
    # an import inside a function or an ``if`` is how an import cycle
    # between the package's modules hides; keep each one at the top
    sources = sorted(Path(illnessdeath.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    nested = []
    for path in sources:
        tree = ast.parse(path.read_text(), str(path))
        top = set(map(id, tree.body))
        nested += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
        ]
    assert nested == []
