"""The column reader and the column clip against their record loops.

``read_columns`` must give the columns and ids of the records the loop of
``csv.DictReader`` rows through ``validate_record`` builds
(``loop_reference.read_cohort``), bit for bit and dtype for dtype, or the
same first MalformedRecord; ``Columns.clip`` must give the columns of the
record loop of artificial censoring.  The CLI reads columns only.
"""

from __future__ import annotations

import hashlib
import io
import random
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import loop_reference as ref
from cohortgen import csv_text, random_cohort
from illnessdeath import (
    IllnessDeathRecord,
    MalformedRecord,
    artificial_censoring,
    read_cohort,
    write_cohort,
)
from illnessdeath import records
from illnessdeath.cli import main
from illnessdeath.counting import Columns
from illnessdeath.records import read_columns


def _outcome(read, text: str):
    try:
        return read(io.StringIO(text, newline=""))
    except MalformedRecord as err:
        return err


def _assert_same_columns(got: Columns, want: Columns, ranks: bool = True) -> None:
    for name, a, b in zip(Columns._fields, got, want):
        assert a.dtype == b.dtype, name
        if name == "id_rank" and not ranks:
            a, b = np.argsort(a, kind="stable"), np.argsort(b, kind="stable")
        assert a.tobytes() == b.tobytes(), name  # bitwise: -0.0 is not 0.0


@st.composite
def csv_texts(draw) -> str:
    n = draw(st.integers(min_value=0, max_value=12))
    return csv_text(lambda options: draw(st.sampled_from(options)), n)


HEADER = "id,entry,exit0,cause0,exit1,cause1\n"


@settings(max_examples=800, deadline=None)
@given(text=csv_texts(), block=st.sampled_from([1, 2, 3, 5, 4096]))
# blank rows are skipped, and counted in the line numbers
@example(text="id,exit0,cause0\n\n\nA,x,2\n", block=4096)
@example(text=HEADER + "A,0,1,2,,\n\n\r\nB,0,x,2,,\n", block=1)
@example(text=HEADER + "A,0,1,2,,\n\nB,0,x,2,,\n", block=2)
# a repeated id in an earlier block comes before a bad row in a later one
@example(text=HEADER + "A,0,1,2,,\nA,0,1,2,,\nB,0,x,2,,\n", block=2)
@example(text=HEADER + "A,0,1,2,,\nB,0,1,2,,\nA,0,x,2,,\n", block=2)
# a quoted line break moves the line of every later row
@example(text=HEADER + '"A\n1",0,1,2,,\n"B\r\n2",0,1,2,,\nC,-0,1,7,,\n', block=1)
# a repeated column name reads its last column
@example(text="id,exit0,cause0,exit0\nA,x,2,1\n", block=4096)
# rules the masks check beside the record invariants
@example(text=HEADER + "A,0,1,1,2,1\n", block=4096)
@example(text=HEADER + "A,0,1,2,,\n \t,0,1,2,,\n", block=4096)
@example(text=HEADER + "A,3,1,1,3,2\n", block=4096)
# the vectorised checks doubt a valid row; the record loop accepts it
@example(text=HEADER + "A,0,1,+2,,\nB,-0,2, 1 ,3,٢\n", block=4096)
def test_column_reader_equals_the_record_loop(text, block):
    want = _outcome(ref.read_cohort, text)
    with mock.patch.object(records, "_BLOCK", block):
        got = _outcome(read_columns, text)
        cohort = _outcome(read_cohort, text)
    if isinstance(want, MalformedRecord):
        assert type(got) is MalformedRecord and str(got) == str(want)
        assert type(cohort) is MalformedRecord and str(cohort) == str(want)
        return
    cols, ids = got
    assert ids == [r.id for r in want]
    _assert_same_columns(cols, Columns.of(want))
    # equal records, with the same Python types and signed zeros
    assert repr(cohort) == repr(want)


def test_generated_texts_reach_every_outcome():
    # valid cohorts, and every kind of MalformedRecord the reader raises
    kinds = ("empty input", "missing columns", "missing id", "duplicate id",
             "is not a number", "is NaN", "must be 0, 1 or 2", "requires exit1",
             "without illness", "must be finite", "must precede exit0",
             "no observation time")
    seen, valid = set(), 0
    for seed in range(600):
        outcome = _outcome(ref.read_cohort, csv_text(random.Random(seed).choice, 12))
        if isinstance(outcome, MalformedRecord):
            seen.update(kind for kind in kinds if kind in str(outcome))
        else:
            valid += bool(outcome)
    assert valid > 300
    assert seen == set(kinds)


def test_clip_equals_the_record_loop():
    for seed in range(300):
        rng = random.Random(seed)
        cohort = random_cohort(rng, truncated=seed % 2 == 0, censored=seed % 3 != 0)
        for tau in (0.25, 0.5 * rng.randint(1, 16), 100.0):
            want = ref.artificial_censoring(cohort, tau)
            assert repr(artificial_censoring(cohort, tau)) == repr(want)
            keep, clipped = Columns.of(cohort).clip(tau)
            assert [r.id for r, kept in zip(cohort, keep) if kept] == [r.id for r in want]
            _assert_same_columns(clipped, Columns.of(want), ranks=False)


def test_cli_builds_no_records(tmp_path, monkeypatch):
    cohort = random_cohort(random.Random(5), max_n=40, truncated=True)
    path = tmp_path / "cohort.csv"
    write_cohort(cohort, path)
    built = []
    check = IllnessDeathRecord.__post_init__

    def counting_check(record):
        built.append(record.id)
        check(record)

    monkeypatch.setattr(IllnessDeathRecord, "__post_init__", counting_check)
    out = str(tmp_path / "out.csv")
    assert main(["transform", "--input", str(path), "--tau", "4", "--output", out]) == 0
    argv = ["estimate", "--input", out, "--s", "1.5", "--t", "2,3.5", "--method", "all"]
    assert main([*argv, "--tau", "3", "--boot", "5", "--output", out + "2"]) == 0
    assert built == []
    read_cohort(path)  # the guard does see records being built
    assert built


def _transform_pin_input() -> str:
    """A truncated, censored cohort as a registry might export it: -0,
    negative and blank entries, padded and exponent times, a quoted id."""
    cohort = random_cohort(random.Random(11), max_n=50, truncated=True)
    sink = io.StringIO()
    write_cohort(cohort, sink)
    lines = sink.getvalue().splitlines(keepends=True)
    edits = {1: ",-0,", 2: ",-3.5,", 3: ",,", 4: ",-0.0,", 6: ",  ,"}
    for row, entry in edits.items():
        ident, rest = lines[row].split(",", 1)
        lines[row] = ident + entry + rest.split(",", 1)[1]
    lines[5] = '"s4, the fifth"' + lines[5][lines[5].index(","):]
    lines[7] = lines[7].replace(",", ", ", 2)
    return "".join(lines).replace(".5,", "5e-1,")


def test_transform_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cohort.csv").write_text(_transform_pin_input())
    code = main(["transform", "--input", "cohort.csv", "--tau", "3.5", "--output", "-"])
    assert code == 0
    captured = capsys.readouterr()
    digests = [hashlib.sha256(x.encode()).hexdigest() for x in (captured.out, captured.err)]
    # computed with the record reader and writer that the column ones replaced
    assert digests == [
        "d6111b0f0bec7671073dcd62041b8b7c3d0c8ab033a44dcef8bff203cb1dcee6",
        "3220553a1008d0eabef7c1a0b88add20db296b0fe06301f29e894c72fa4b8223",
    ]
