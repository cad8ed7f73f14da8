import ast
import copy
import dataclasses
import io
import itertools
import math
import pickle
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import illnessdeath
import loop_reference as ref
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
from illnessdeath import records as records_module
from illnessdeath.records import Columns, check_columns, to_records, valid_rows


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

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8, np.float16, np.float32])
    def test_numpy_scalar_times_are_times(self, kind):
        r = IllnessDeathRecord("a", kind(0), kind(2), 2)
        assert r == IllnessDeathRecord("a", 0, 2.0, Cause.ABSORBED)
        assert type(r.entry) is float
        r = IllnessDeathRecord("b", kind(1), kind(0), 1, kind(3), 0)
        assert r.entered_ill and r.final_time == 3
        assert IllnessDeathRecord("c", 0.0, 2.0, 2) == IllnessDeathRecord("c", np.int64(0), 2.0, 2)

    @pytest.mark.parametrize("entry,exit0", [(0.1, 2.3), (0.5, 2.25)])
    def test_numpy_times_are_stored_as_floats(self, entry, exit0):
        # numpy compares np.float32(0.1) with its CSV read-back as float32,
        # equal, yet their hashes differ: the record stores a Python float
        record = IllnessDeathRecord("a", np.float32(entry), np.float32(exit0), 2)
        ill = IllnessDeathRecord("b", np.int64(0), np.float16(1.5), 1, np.float32(entry) + 3, 0)
        sink = io.StringIO()
        write_cohort([record, ill], sink)
        back = read_cohort(io.StringIO(sink.getvalue()))
        for a, b in zip([record, ill], back):
            assert {type(x) for x in (a.entry, a.exit0, b.entry, b.exit0)} == {float}
            assert (a == b) == (hash(a) == hash(b))
        assert type(ill.exit1) is float and ill.exit1 == float(np.float32(entry) + 3)
        assert (record == back[0]) == (entry == 0.5)
        plain = IllnessDeathRecord("c", 0, 2, 2)
        assert type(plain.entry) is int and type(plain.exit0) is int  # Python times as given

    @pytest.mark.parametrize("bad", [np.float32("nan"), np.float64("inf"), np.float32("-inf"),
                                     np.int64(-1), np.float32(-0.5), np.bool_(True)])
    def test_numpy_scalar_times_keep_the_messages(self, bad):
        with pytest.raises(MalformedRecord, match="^a: entry must be a finite time >= 0$"):
            IllnessDeathRecord("a", bad, 2.0, 2)
        with pytest.raises(MalformedRecord, match="^a: exit0 must be a finite time >= 0$"):
            IllnessDeathRecord("a", 0.0, bad, 2)
        with pytest.raises(MalformedRecord, match="^a: exit1 must be finite and >= exit0$"):
            IllnessDeathRecord("a", 0.0, 0.75, 1, bad, 2)

    def test_bool_times_stay_ints(self):
        assert IllnessDeathRecord("a", False, True, 2).final_time == 1

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
        back = Columns.of(ref.to_records(["x"], cols))
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


# record times with signed zeros and ties; bad ones, drawn now and then
_TIMES = (-0.0, 0.0, 0.5, 1.0, 1.0, 2.5)
_BAD_TIMES = (-1.0, math.nan, math.inf)


@st.composite
def record_columns(draw) -> Columns:
    """Columns whose rows are mostly valid: a subject never ill ends at its
    state-0 exit, an ill one may be recruited ill (exit0 <= entry), and now
    and then a row takes a bad time or its times out of order."""
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        ill, observed = draw(st.booleans()), draw(st.booleans())
        times = draw(st.lists(st.sampled_from(_TIMES), min_size=3, max_size=3))
        low, mid, high = sorted(times)
        if ill:
            entry, exit0, final = draw(st.sampled_from([(low, mid, high), (mid, low, high)]))
        else:
            entry, exit0, final = draw(st.sampled_from([(low, mid, mid), (low, high, high)]))
        if draw(st.integers(0, 7)) == 0:
            times = [entry, exit0, final]
            times[draw(st.integers(0, 2))] = draw(st.sampled_from(_BAD_TIMES + _TIMES))
            entry, exit0, final = times
            final = final if ill else exit0
        rows.append((entry, exit0, final, 1 if ill else 2 if observed else 0, observed))
    return _columns(*rows)


def _columns(*rows) -> Columns:
    """Columns of (entry, exit0, final, cause0, observed) rows."""
    entry, exit0, final, cause0, observed = zip(*rows) if rows else [()] * 5
    return Columns(np.array(entry, float), np.array(exit0, float), np.array(final, float),
                   np.array(cause0, np.int8), np.array(observed, bool), np.arange(len(rows)))


@settings(max_examples=200, deadline=None)
@given(cols=record_columns())
# an ill recruit at its onset, signed zeros, and a bad row after good ones
@example(cols=_columns((1.0, 1.0, 2.5, 1, True), (-0.0, 0.5, 0.5, 0, False)))
@example(cols=_columns((-0.0, -0.0, 1.0, 1, False), (0.0, 1.0, 1.0, 2, True)))
@example(cols=_columns((0.0, 1.0, 1.0, 2, True), (0.5, math.nan, 1.0, 1, True),
                       (-1.0, 1.0, 1.0, 0, False)))
@example(cols=_columns((1.0, 0.5, 1.0, 1, True)))
def test_to_records_equals_the_constructor_loop(cols):
    ids = [f"s{i}" for i in range(len(cols.final))]
    try:
        want = ref.to_records(ids, cols)
    except MalformedRecord as err:
        with pytest.raises(MalformedRecord) as got:
            to_records(iter(ids), cols)
        assert str(got.value) == str(err)
        return
    got = to_records(iter(ids), cols)
    assert got == want
    assert list(map(repr, got)) == list(map(repr, want))
    assert list(map(hash, got)) == list(map(hash, want))
    for record, member in zip(got, want):
        for field in dataclasses.fields(IllnessDeathRecord):
            value = getattr(record, field.name)
            assert type(value) is type(getattr(member, field.name))
        assert record.cause0 is Cause(record.cause0)
        assert record.cause1 is member.cause1


def test_a_failing_row_is_built_from_its_own_row_alone(monkeypatch):
    # check_columns raises the constructor's message for the first bad row,
    # and turns only that row into record fields, not the whole columns
    good, bad = (0.0, 1.0, 1.0, 2, True), (-1.0, 1.0, 1.0, 0, False)
    cols = _columns(*[good] * 700, (0.5, math.nan, 1.0, 1, True), *[good] * 299, bad)
    seen, fields_of = [], records_module._fields_of
    monkeypatch.setattr(records_module, "_fields_of",
                        lambda c: seen.append(len(c.final)) or fields_of(c))
    with pytest.raises(MalformedRecord, match=r"^s700: exit0 must be a finite time >= 0$"):
        check_columns(cols, "s{}".format)
    assert seen == [1]


def test_to_records_are_frozen_records():
    cohort = random_cohort(random.Random(11), max_n=40, truncated=True)
    got = to_records([r.id for r in cohort], Columns.of(cohort))
    assert got == cohort and 0 < sum(r.entered_ill for r in got) < len(got)
    record = got[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.entry = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.note = "x"
    # replace goes through the constructor, and checks
    with pytest.raises(MalformedRecord, match=f"^{record.id}: entry must be a finite time"):
        dataclasses.replace(record, entry=-1.0)
    with pytest.raises(MalformedRecord, match=f"^{record.id}: bad cause0 7"):
        dataclasses.replace(record, cause0=7)
    assert dataclasses.replace(record, id="y") == IllnessDeathRecord("y", *dataclasses.astuple(record)[1:])
    for back in (pickle.loads(pickle.dumps(got)), copy.deepcopy(got), list(map(copy.copy, got))):
        assert back == got and list(map(hash, back)) == list(map(hash, got))
        assert [r.cause0 for r in back] == [r.cause0 for r in got]


# bytes per record of 20000 records, the first ones made in a fresh interpreter
_RECORD_BYTES = """
import sys, tracemalloc
import numpy as np
from illnessdeath.records import Columns, IllnessDeathRecord, to_records
n = 20000
cols = Columns(np.zeros(n), np.ones(n), np.ones(n), np.zeros(n, np.int8), np.zeros(n, bool), None)
ids, fields = [f"s{i}" for i in range(n)], (0.0, 1.0, 0)
tracemalloc.start()
if sys.argv[1] == "filled":
    cohort = to_records(ids, cols)
else:
    cohort = [IllnessDeathRecord(ident, *fields) for ident in ids]
print(tracemalloc.get_traced_memory()[0] / n)
"""


def test_filled_records_take_the_constructors_memory():
    # records filled in field by field share the class's attribute layout,
    # as built ones do, even when no record was built before them
    def per_record(how):
        run = subprocess.run([sys.executable, "-c", _RECORD_BYTES, how],
                             capture_output=True, text=True, check=True)
        return float(run.stdout)

    built, filled = per_record("built"), per_record("filled")
    # filled records also hold their own entry and exit0 floats, 24 bytes each
    assert filled - 48 <= built * 1.1, (filled, built)


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
