"""The column reader, the column writer and the column clip against their
record loops.

``read_columns`` must give the columns and ids of the records the loop of
``csv.DictReader`` rows through ``validate_record`` builds
(``loop_reference.read_cohort``), bit for bit and dtype for dtype, or the
same first MalformedRecord; ``write_columns`` must write the bytes of the
record loop of ``csv.writer`` rows; ``Columns.clip`` must give the columns
of the record loop of artificial censoring; ``records._split``, the gate of
plain blocks, must decide and cut every block as its text form
(``loop_reference.split``) does.  The CLI reads columns only.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import loop_reference as ref
from cohortgen import csv_text, random_cohort
from illnessdeath import (
    Cause,
    IllnessDeathRecord,
    MalformedRecord,
    artificial_censoring,
    read_cohort,
    write_cohort,
)
from illnessdeath import records
from illnessdeath.cli import main
from illnessdeath.counting import Columns
from illnessdeath.records import read_columns, write_columns


def _outcome(read, text):
    """read of the text, or of an iterable of lines, or its MalformedRecord."""
    try:
        return read(io.StringIO(text, newline="") if isinstance(text, str) else iter(text))
    except MalformedRecord as err:
        return err


def _assert_same_columns(got: Columns, want: Columns, ranks: bool = True) -> None:
    for name, a, b in zip(Columns._fields, got, want):
        assert a.dtype == b.dtype, name
        if name == "id_rank" and not ranks:
            a, b = np.argsort(a, kind="stable"), np.argsort(b, kind="stable")
        assert a.tobytes() == b.tobytes(), name  # bitwise: -0.0 is not 0.0


@st.composite
def csv_texts(draw, quoted: bool = True) -> str:
    n = draw(st.integers(min_value=0, max_value=12))
    return csv_text(lambda options: draw(st.sampled_from(options)), n, quoted)


HEADER = "id,entry,exit0,cause0,exit1,cause1\n"


@settings(max_examples=800, deadline=None)
# the generator with quoted ids, and one whose files have no quote
@given(text=csv_texts(quoted=True) | csv_texts(quoted=False),
       block=st.sampled_from([1, 2, 3, 5, 4096]))
# blank rows are skipped, and counted in the line numbers
@example(text="id,exit0,cause0\n\n\nA,x,2\n", block=4096)
@example(text=HEADER + "A,0,1,2,,\n\n\r\nB,0,x,2,,\n", block=1)
@example(text=HEADER + "A,0,1,2,,\n\nB,0,x,2,,\n", block=2)
# a repeated id in an earlier block comes before a bad row in a later one
@example(text=HEADER + "A,0,1,2,,\nA,0,1,2,,\nB,0,x,2,,\n", block=2)
@example(text=HEADER + "A,0,1,2,,\nB,0,1,2,,\nA,0,x,2,,\n", block=2)
# plain blocks are split at their commas; csv.reader reads on from the first
# block that is not plain: a quote, a bare \r, a blank line or a short row
@example(text=HEADER + 'A,0,1,2,,\nB,0,1,2,,\n"C",0,1,2,,\nD,0,x,2,,\n', block=2)
@example(text=HEADER + "A,0,1,2,,\nB,0,1,2,,\nC,0,1,2,,\rD,0,x,2,,\n", block=2)
@example(text=HEADER + "A,0,1,2,,\nB,0,1,2,,\n\nC,0,1,2,,\nD,0,x,2,,\n", block=2)
@example(text=HEADER + "A,0,1,2,,\nB,0,1,2,,\nC,0,1,2\nD,0,x,2,,\n", block=2)
# a quoted line break that spans the boundary of two blocks
@example(text=HEADER + 'A,0,1,2,,\nB,0,1,2,,\nC,0,1,2,,\n"D\n4",0,1,2,,\nE,0,x,2,,\n', block=2)
# no line break at the end; CRLF line ends; a quoted or a blank header
@example(text=HEADER + "A,0,1,2,,\nB,0,x,2,,", block=4096)
@example(text=HEADER + "A,0,1,1,3,2\nB,0,1,2,,", block=1)
@example(text=HEADER.replace("\n", "\r\n") + "A,0,1,2,,\r\nB,0,1,1,3,2\r\nC,0,x,2,,\r\n", block=2)
@example(text='"id","exit0","cause0"\nA,1,2\nB,x,2\n', block=4096)
@example(text="\r\nA,1,2\n", block=4096)
# a long row that holds a second row's worth of fields, or the fields a
# short row lacks; a NUL that ends a row
@example(text="id,exit0,cause0\nA,1,2,B,1,2\n", block=4096)
@example(text=HEADER + "A,0,1,2,,,\nB,0,1,2,\n", block=4096)
@example(text="id,exit0,cause0\nA,1,2\x00\n", block=4096)
# a quoted line break moves the line of every later row
@example(text=HEADER + '"A\n1",0,1,2,,\n"B\r\n2",0,1,2,,\nC,-0,1,7,,\n', block=1)
@example(text=HEADER + '"A\n1",0,1,2,,\n"B",0,1,2,,\n"C",0,x,2,,\n', block=2)
# a repeated id in a later block that csv.reader reads
@example(text=HEADER + '"A",0,1,2,,\n"B",0,1,2,,\n"C",0,1,2,,\n"A",0,1,2,,\n', block=2)
# a repeated id in a block that passes every column check: found by the
# set of every id read, then named by the row loop on the earlier ids alone;
# inside the block, from an earlier one, both, all of the block, and after
# or before a bad row
@example(text=HEADER + "A,0,1,2,,\nB,0,1,2,,\nC,0,1,2,,\nC,0,1,2,,\n", block=2)
@example(text=HEADER + "A,0,1,2,,\nB,0,1,2,,\nC,0,1,1,3,2\nB,0,1,2,,\n", block=3)
@example(text=HEADER + "A,0,1,2,,\nB,0,1,2,,\nC,0,1,2,,\nB,0,1,2,,\nD,0,1,2,,\nD,0,1,2,,\n",
         block=3)
@example(text=HEADER + "A,0,1,2,,\nB,0,1,2,,\nC,0,1,2,,\nD,0,1,2,,\nD,0,1,2,,\nB,0,1,2,,\n",
         block=3)
@example(text=HEADER + "A,0,1,2,,\nB,0,1,2,,\nB,0,1,2,,\nA,0,1,2,,\n", block=2)
@example(text=HEADER + "A,0,1,2,,\nB,0,1,2,,\nC,0,1,2,,\nA,0,1,2,,\nD,0,x,2,,\n", block=3)
@example(text=HEADER + "A,0,1,2,,\nB,0,1,2,,\nC,0,1,2,,\nD,0,x,2,,\nA,0,1,2,,\n", block=3)
# a repeated column name reads its last column
@example(text="id,exit0,cause0,exit0\nA,x,2,1\n", block=4096)
# rules the masks check beside the record invariants
@example(text=HEADER + "A,0,1,1,2,1\n", block=4096)
@example(text=HEADER + "A,0,1,2,,\n \t,0,1,2,,\n", block=4096)
@example(text=HEADER + "A,3,1,1,3,2\n", block=4096)
# a blank cause0 beside a code of two digits: as many digits as codes
@example(text=HEADER + "A,0,1,22,,\nB,0,1,,,\n", block=4096)
# the vectorised checks doubt a valid row; the record loop accepts it
@example(text=HEADER + "A,0,1,+2,,\nB,-0,2, 1 ,3,٢\n", block=4096)
@example(text=HEADER + "A,0,1,٢,,\nB,0,1,1,2,\u00b2\n", block=1)
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


@pytest.mark.parametrize("lines", [
    ["id,exit0,cause0", "A,1,2", "B,1,2"],  # no line ends: a row per line
    ["id,exit0,cause0\n", "A,1,2", "B,1\n,2\n"],  # a line break inside a line
    ["id,exit0,cause0\n", "A,1,2\n", "B,1\n,2\n"],
    ["id,exit0,cause0\n", "A,1,2\n\n", "B,1,2\n"],
    ["id,exit0,cause0\n", "A,1,2\r", "\nB,1,2\n"],
    io.StringIO("id,exit0,cause0\nA,1\r,2\nB,1,2\n"),  # \r inside a line
])
def test_lines_of_any_iterable(lines):
    # the readers take any iterable of lines, as csv.reader does
    lines = list(lines)
    want, got = _outcome(ref.read_cohort, lines), _outcome(read_columns, lines)
    if isinstance(want, MalformedRecord):
        assert type(got) is MalformedRecord and str(got) == str(want)
    else:
        assert got[1] == [r.id for r in want]


@pytest.mark.parametrize("rows", [
    ["A,0,1,2,,", "B,0,1,2,,", "C,0,x,2,,", "D,0,1,2,,", "A,0,1,2,,"],
    ['"A",0,1,2,,', '"B\n2",0,1,2,,', '"C",0,x,2,,', '"D",0,1,2,,', '"A",0,1,2,,'],
], ids=["plain", "quoted"])
def test_fallback_never_reparses(tmp_path, rows):
    # a block that fails the column checks is decided on the fields read
    # once: the second block's bad row, then, with it mended, the repeated id
    for name, text in [("bad", HEADER + "\n".join(rows) + "\n"),
                       ("mended", HEADER + "\n".join(rows).replace("x", "1") + "\n")]:
        want = _outcome(ref.read_cohort, text)
        assert isinstance(want, MalformedRecord)
        path = tmp_path / f"{name}.csv"
        path.write_text(text)
        with mock.patch.object(csv, "DictReader", side_effect=AssertionError("a re-parse")), \
                mock.patch.object(records, "_BLOCK", 2):
            for read in (read_columns, read_cohort):
                with pytest.raises(MalformedRecord) as got:
                    read(path)
                assert type(got.value) is MalformedRecord and str(got.value) == str(want)


def test_nul_lines_are_for_csv_reader():
    # csv.reader rejects NUL before Python 3.11; lines with one are its to read
    assert records._split(["A,1,2\n", "B,1,2\n"], 3) == ["A", "1", "2", "B", "1", "2"]
    assert records._split(["A\x00,1,2\n", "B,1,2\n"], 3) is None


# line bodies of the characters the gate reads, a two-byte one and a lone
# surrogate (which lines from an iterable may hold) among them, and line ends
_BODIES = st.text(st.sampled_from([*'a1,"\0\n\r', "\u00e9", "\ud800"]), max_size=5)
_ENDS = st.sampled_from(["\n", "\n", "\r\n", "", "\r", "\n\r"])


@settings(max_examples=1500, deadline=None)
@given(bodies=st.lists(_BODIES, min_size=1, max_size=5), ends=st.lists(_ENDS, min_size=5,
       max_size=5), width=st.integers(1, 4), final=st.booleans(), limit=st.integers(1, 12))
# a bare \r at the end of a line, after a two-byte character, after a line
@example(bodies=["\r"], ends=[""] * 5, width=1, final=False, limit=12)
@example(bodies=["11a\u00e9a\r"], ends=[""] * 5, width=1, final=False, limit=12)
@example(bodies=["", "\r"], ends=["\n"] + [""] * 4, width=1, final=False, limit=12)
# CRLF line ends; a lone surrogate; a line of more bytes than the limit, but
# not more characters
@example(bodies=["a,1", "b,\u00e9"], ends=["\r\n"] * 5, width=2, final=False, limit=12)
@example(bodies=["a\ud800,1", "\u00e9,\ud800"], ends=["\n"] * 5, width=2, final=True,
         limit=12)
@example(bodies=["\u00e9\u00e9", "a"], ends=["\n"] * 5, width=1, final=False, limit=3)
# an empty first line, and a NUL after a line end
@example(bodies=["", "\n", "A"], ends=["", "\n", "\n", "", ""], width=1, final=True, limit=12)
@example(bodies=["", "x\n\0"], ends=[""] * 5, width=1, final=False, limit=12)
def test_split_equals_the_text_gate(bodies, ends, width, final, limit):
    # the byte checks of records._split decide every block as the str.count
    # checks on its text do, and cut the same fields
    lines = [body + end for body, end in zip(bodies, ends)]
    lines[-1] = bodies[-1] + "\n" * final
    old = csv.field_size_limit(limit)
    try:
        assert records._split(lines, width) == ref.split(lines, width)
    finally:
        csv.field_size_limit(old)


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


def test_unquoted_texts_reach_both_paths():
    # blocks of two rows: many unquoted files are split at their commas
    # throughout, many others hand a block with a blank line, a short or a
    # long row or a NUL to csv.reader
    handed = []
    reader_blocks = records._reader_blocks

    def counting_reader_blocks(*args):
        handed.append(True)
        return reader_blocks(*args)

    split = 0
    with mock.patch.object(records, "_reader_blocks", counting_reader_blocks), \
            mock.patch.object(records, "_BLOCK", 2):
        for seed in range(600):
            del handed[:]
            _outcome(read_columns, csv_text(random.Random(seed).choice, 12, quoted=False))
            split += not handed
    assert 100 < split < 500


@settings(max_examples=300, deadline=None)
@given(text=csv_texts(quoted=True) | csv_texts(quoted=False),
       block=st.sampled_from([1, 2, 4096]), limit=st.sampled_from([1, 3, 6, 12]))
# a field past the limit after a bad row in the same block: the bad row first
@example(text=HEADER + "A,0,x,2,,\nB,0,1,2,,xxxxxxx\n", block=4096, limit=6)
@example(text=HEADER + "A,0,1,2,,xxxxxxx\nB,0,x,2,,\n", block=4096, limit=6)
# a long header field; a long quoted field that spans lines
@example(text="id,exit0,cause0,xxxxxxx\nA,1,2,3\n", block=4096, limit=6)
@example(text=HEADER + 'A,0,1,2,,\nB,0,1,2,,"x\nxxxxxx"\n', block=1, limit=6)
def test_field_size_limit_is_a_malformed_line(text, block, limit):
    # csv.reader rejects a field past csv.field_size_limit(); the readers
    # report it as the MalformedRecord of its line, after any earlier error
    old = csv.field_size_limit(limit)
    try:
        want = _outcome(ref.read_cohort, text)
        with mock.patch.object(records, "_BLOCK", block):
            got = _outcome(read_columns, text)
    finally:
        csv.field_size_limit(old)
    if isinstance(want, MalformedRecord):
        assert type(got) is MalformedRecord and str(got) == str(want)
    else:
        assert got[1] == [r.id for r in want]


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


def test_a_byte_order_mark_is_skipped(tmp_path):
    # spreadsheet "CSV UTF-8" exports begin with one
    path, marked = tmp_path / "cohort.csv", tmp_path / "marked.csv"
    write_cohort(random_cohort(random.Random(3), max_n=40), path)
    marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    (cols, ids), (marked_cols, marked_ids) = read_columns(path), read_columns(marked)
    assert marked_ids == ids
    _assert_same_columns(marked_cols, cols)
    assert read_cohort(marked) == read_cohort(path)
    # a text stream is decoded already: its first line starts with U+FEFF
    stream_cols, stream_ids = read_columns(io.StringIO("\ufeff" + path.read_text()))
    assert stream_ids == ids
    _assert_same_columns(stream_cols, cols)
    assert read_cohort(io.StringIO("\ufeff" + path.read_text())) == read_cohort(path)
    outputs = []
    for source in (path, marked):
        out = tmp_path / f"{source.stem}.out.csv"
        argv = ["estimate", "--input", str(source), "--s", "1.5", "--t", "2,3.5,5", "--method", "all"]
        assert main([*argv, "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_cli_builds_no_records(tmp_path, watch_records):
    cohort = random_cohort(random.Random(5), max_n=40, truncated=True)
    path = tmp_path / "cohort.csv"
    write_cohort(cohort, path)
    built = watch_records()
    out = str(tmp_path / "out.csv")
    assert main(["transform", "--input", str(path), "--tau", "4", "--output", out]) == 0
    argv = ["estimate", "--input", out, "--s", "1.5", "--t", "2,3.5", "--method", "all"]
    assert main([*argv, "--tau", "3", "--boot", "5", "--output", out + "2"]) == 0
    assert built == []
    read_cohort(path)  # the guard does see records being built
    assert built


def test_plain_files_never_reach_csv(tmp_path, monkeypatch):
    # ids that need no quoting: every block is split at its commas, and
    # every block is written from the row templates
    cohort = random_cohort(random.Random(7), max_n=40, truncated=True)
    path = tmp_path / "cohort.csv"
    write_cohort(cohort, path)
    calls = []

    def forbidden(name):
        original = getattr(csv, name)

        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return call

    monkeypatch.setattr(csv, "reader", forbidden("reader"))
    monkeypatch.setattr(csv, "writer", forbidden("writer"))
    out = str(tmp_path / "out.csv")
    with mock.patch.object(records, "_BLOCK", 7):
        assert main(["transform", "--input", str(path), "--tau", "4", "--output", out]) == 0
        argv = ["estimate", "--input", out, "--s", "1.5", "--t", "2,3.5", "--method", "all"]
        assert main([*argv, "--output", out + "2"]) == 0
        assert read_cohort(path) == cohort
        write_cohort(cohort, io.StringIO())
    assert calls == []
    # the guard does see csv at work on a quoted id
    (tmp_path / "quoted.csv").write_text(HEADER + '"A",0,1,2,,\n')
    read_columns(tmp_path / "quoted.csv")
    write_cohort([IllnessDeathRecord("a,b", 0.0, 1.0, Cause.ABSORBED)], io.StringIO())
    assert calls == ["reader", "writer"]


# ids that csv.writer must quote or that a template must pass through as they
# are; times that print with an exponent, a sign or an int
_IDS = st.text(st.sampled_from([*"ab,\"\r\n \x00", "\u00e9", "\u2028"]), max_size=4)
_TIMES = (-0.0, 0.0, 1e-300, 5e-1, 1 / 3, 2, 2.5, 123456789.123456789, 1e16, 10**20, 1e300)


@st.composite
def cohorts(draw) -> list[IllnessDeathRecord]:
    cohort = []
    for ident in draw(st.lists(_IDS, max_size=12)):
        entry, exit0, exit1 = sorted(draw(st.lists(st.sampled_from(_TIMES), min_size=3,
                                                   max_size=3)))
        path = draw(st.sampled_from([(Cause.ABSORBED,), (Cause.CENSORED,),
                                     (Cause.ILL, exit1, Cause.ABSORBED),
                                     (Cause.ILL, exit1, Cause.CENSORED)]))
        try:
            cohort.append(IllnessDeathRecord(ident, entry, exit0, *path))
        except MalformedRecord:
            pass
    return cohort


@settings(max_examples=400, deadline=None)
@given(cohort=cohorts(), block=st.sampled_from([1, 3, 4096]))
@example(cohort=[IllnessDeathRecord("a\rb", -0.0, 5e-1, Cause.ILL, 1e300, Cause.CENSORED),
                 IllnessDeathRecord("", 0.0, 1e-300, Cause.CENSORED)], block=1)
def test_column_writer_equals_the_record_loop(cohort, block):
    want = io.StringIO()
    ref.write_cohort(cohort, want)
    got, records_got = io.StringIO(), io.StringIO()
    with mock.patch.object(records, "_BLOCK", block):
        write_columns([r.id for r in cohort], Columns.of(cohort), got)
        write_cohort(cohort, records_got)
    assert got.getvalue() == want.getvalue()
    assert records_got.getvalue() == want.getvalue()


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
