import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from illnessdeath import (
    Cause,
    EmptyLandmark,
    EmptyRiskSet,
    IllnessDeathRecord,
    StepFunction,
    TransitionQuery,
    build_counting,
)
from illnessdeath.counting import Columns, _at_risk, _grid, _pick, _RiskSets, _Tally
from illnessdeath.estimators import _ProductLimit

import oracle_bruteforce as ob
from cohortgen import random_cohort, random_query, to_oracle, with_ill_at_origin


class TestBuildCounting:
    def test_state0_risk_set_hand_count(self, cohort4, query):
        cp = build_counting(cohort4, query)
        i = cp.times.index(2)
        assert cp.y0[i] == 3

    def test_landmark_initial_risk_set(self, cohort4, query):
        cp = build_counting(cohort4, query, landmark=True)
        assert cp.y_origin == 3
        assert cp.size == 3

    def test_empty_cohort(self, query):
        with pytest.raises(EmptyRiskSet):
            build_counting([], query)

    def test_empty_landmark(self, cohort4):
        with pytest.raises(EmptyLandmark):
            build_counting(cohort4, TransitionQuery(50, 60), landmark=True)

    def test_counts_partition_subjects(self, cohort4, query):
        cp = build_counting(cohort4, query)
        assert sum(cp.dn1) + sum(cp.dn2) + sum(cp.dnc) == len(cohort4)

    def test_entered_ill_absent_from_state0(self, query):
        cohort = [
            IllnessDeathRecord("a", 3, 2, Cause.ILL, 9, Cause.ABSORBED),
            IllnessDeathRecord("b", 0, 4, Cause.ABSORBED),
        ]
        cp = build_counting(cohort, query)
        assert sum(cp.dn0) == 1  # only b's exit is an observed state-0 event
        # a is at risk in the pooled process on (3, 9]
        i = cp.times.index(4)
        assert cp.y[i] == 2
        assert cp.y0[i] == 1

    def test_increment_identity_untruncated(self):
        # dNc(u) + dN(u) + Y(u+) == Y(u) with Y(u+) = #(final > u)
        rng = random.Random(42)
        for _ in range(200):
            cohort = random_cohort(rng)
            q = random_query(rng)
            cp = build_counting(cohort, q)
            finals = sorted(r.final_time for r in cohort)
            for i, u in enumerate(cp.times):
                after = sum(1 for f in finals if f > u)
                assert cp.dnc[i] + cp.dn(i) + after == cp.y[i]

    def test_events_never_exceed_risk_sets(self):
        rng = random.Random(7)
        for _ in range(200):
            cohort = random_cohort(rng, truncated=True)
            q = random_query(rng)
            cp = build_counting(cohort, q)
            for i in range(len(cp.times)):
                assert cp.dn0[i] + cp.dn0c[i] <= cp.y0[i]
                assert cp.dn(i) + cp.dnc[i] <= cp.y[i]

    def test_pooled_times_are_final_times(self):
        # every pooled-process observation sits at the subject's final time
        rng = random.Random(11)
        for _ in range(100):
            cohort = random_cohort(rng, truncated=True)
            q = random_query(rng)
            cp = build_counting(cohort, q)
            finals = {r.final_time for r in cohort}
            for i, u in enumerate(cp.times):
                if cp.dn1[i] or cp.dn2[i] or cp.dnc[i]:
                    assert u in finals


@pytest.mark.parametrize("censored", [False, True])
@pytest.mark.parametrize("truncated", [False, True])
def test_columns_agree_with_the_record_properties(truncated, censored):
    # Columns.of inlines final_time and observed instead of reading them
    rng = random.Random(10 + 2 * truncated + censored)
    for _ in range(40):
        cohort = random_cohort(rng, max_n=30, truncated=truncated, censored=censored)
        cohort = with_ill_at_origin(rng, cohort)
        cols = Columns.of(cohort)
        assert cols.final.tolist() == [r.final_time for r in cohort]
        assert cols.observed.tolist() == [r.observed for r in cohort]
        assert cols.cause0.tolist() == [int(r.cause0) for r in cohort]


@pytest.mark.parametrize("landmark", [False, True])
@pytest.mark.parametrize("censored", [False, True])
@pytest.mark.parametrize("truncated", [False, True])
def test_every_field_matches_the_oracle_recount(truncated, censored, landmark):
    # build_counting shares its masks with the estimator kernel; this recounts
    # every field from scratch with the oracle's own classification and
    # landmark rule, at every grid time
    rng = random.Random(4 * truncated + 2 * censored + landmark)
    for _ in range(60):
        cohort = random_cohort(rng, max_n=30, truncated=truncated, censored=censored)
        _assert_matches_oracle_recount(cohort, random_query(rng), landmark)
    # subjects recruited while ill at the origin, which random_cohort never
    # makes, must stay out of the s = 0 landmark
    for gap in (0.0, 0.5, 1.0, 2.0, 3.5, 0.75, 2.25, 6.0):
        cohort = random_cohort(rng, max_n=30, truncated=truncated, censored=censored)
        cohort = with_ill_at_origin(rng, cohort)
        _assert_matches_oracle_recount(cohort, TransitionQuery(0.0, gap), landmark)


def _assert_matches_oracle_recount(cohort, q, landmark):
    lo, hi = Fraction(q.s), Fraction(q.t)
    subjects = to_oracle(cohort)
    if landmark:
        subjects = ob.landmark(subjects, lo)
        if not subjects:
            with pytest.raises(EmptyLandmark):
                build_counting(cohort, q, landmark=True)
            return
    cp = build_counting(cohort, q, landmark=landmark)
    grid = sorted(
        {s["exit0"] for s in subjects if ob.entered_in_state0(s)}
        | {ob.final_time(s) for s in subjects}
    )
    data = [ob.classify(s, lo, hi) for s in subjects]

    def kind(name):
        return tuple(sum(1 for v, k in data if v == u and k == name) for u in grid)

    assert cp.times == tuple(grid)
    assert cp.dn0 == tuple(ob.d_state0_event(subjects, u) for u in grid)
    assert cp.dn0c == tuple(ob.d_state0_censor(subjects, u) for u in grid)
    assert cp.y0 == tuple(ob.y_state0(subjects, u) for u in grid)
    assert (cp.dn1, cp.dn2, cp.dnc) == (kind("ev1"), kind("ev2"), kind("cen"))
    assert cp.y == tuple(ob.y_total(subjects, u) for u in grid)
    assert cp.size == len(subjects)
    at_origin = sum(1 for s in subjects if s["entry"] == 0)
    assert cp.y_origin == (len(subjects) if landmark else at_origin)


@st.composite
def _risk_batches(draw):
    """A batch of integer-valued rows, so grid times, starts and ends tie: a
    sorted grid per row with an inf tail of its own length (rows of unequal
    finite width), and starts and ends (end >= start) of the subjects in who,
    the others padding."""
    rows, n, m = draw(st.integers(1, 5)), draw(st.integers(1, 9)), draw(st.integers(1, 7))
    times = np.sort(draw(arrays(np.int64, (rows, m), elements=st.integers(0, 8))), -1)
    widths = draw(arrays(np.int64, (rows, 1), elements=st.integers(0, m)))
    times = np.where(np.arange(m) < widths, times, np.inf)
    starts = draw(arrays(np.int64, (rows, n), elements=st.integers(0, 6))).astype(float)
    ends = starts + draw(arrays(np.int64, (rows, n), elements=st.integers(0, 3)))
    return times, draw(arrays(bool, (rows, n))), starts, ends


@settings(max_examples=300, deadline=None)
@given(_risk_batches())
def test_batched_risk_sets_equal_each_row_alone(batch):
    # the batch merges each row's sorted grid, starts and ends in one stable
    # sort: a grid time must count only the starts and ends strictly before it
    times, who, starts, ends = batch
    alone = [_at_risk(s[w], e[w], t) for t, w, s, e in zip(times, who, starts, ends)]
    padded = (np.where(who, at, np.inf) for at in (starts, ends))
    assert np.array_equal(_at_risk(*padded, times), alone)
    assert np.array_equal(_RiskSets(times, who, starts, ends)(), alone)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    s=st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.5)),
    rows=st.integers(min_value=1, max_value=4),
)
def test_product_limit_risk_sets_are_sums_from_the_right(seed, s, rows):
    # a landmark enters before s, so before every grid time: y(v) = #(final
    # >= v) must equal the left-open count, on delayed entries and ties
    cols = Columns.of(random_cohort(random.Random(seed), 30, truncated=True))
    gen, n = np.random.default_rng(seed), len(cols.final)

    def risk_sets(c, weights=None):
        keep = c.landmark(s)
        return _ProductLimit(c.final, keep, c.observed, [], False).counts(weights)[:2]

    keep = cols.landmark(s)
    times = np.unique(cols.final[keep])
    at_risk = _at_risk(cols.entry[keep], cols.final[keep], times)
    assert risk_sets(cols)[1].tolist() == at_risk.tolist()
    # a batch (each row a subset): equal at the first place of each time, the
    # only one that carries events
    batch = cols.take(gen.random((rows, n)) < 0.7)
    keep = batch.landmark(s)
    times = _grid(_pick(batch.final, keep))[0]
    first = np.insert(times[:, 1:] != times[:, :-1], 0, True, -1) & (times < np.inf)
    d, y = risk_sets(batch)
    assert not d[~first].any()
    at_risk = _at_risk(_pick(batch.entry, keep), _pick(batch.final, keep), times)
    assert y[first].tolist() == at_risk[first].tolist()
    # integer weights: a subject of weight w counts as w copies of itself
    weights = gen.integers(0, 3, (rows, n))
    times = np.unique(cols.final[cols.landmark(s)])
    for w, y in zip(weights, risk_sets(cols, weights)[1]):
        copies = cols.take(np.repeat(np.arange(n), w))
        keep = copies.landmark(s)
        assert y.tolist() == _at_risk(copies.entry[keep], copies.final[keep], times).tolist()
        own = np.searchsorted(times, np.unique(copies.final[keep]))
        assert y[own].tolist() == risk_sets(copies)[1].tolist()


def _tally_by_loop(index, m, mask, weights):
    """_Tally's counts by a loop over each output row's subjects: a row per
    resample (with weights), then per leading axis of the mask and batch row."""
    counted = np.broadcast_to(mask, np.broadcast_shapes(np.shape(mask), index.shape))
    index = np.broadcast_to(index, counted.shape)
    rows = [None] if weights is None else list(weights)
    out = np.zeros((len(rows), *counted.shape[:-1], m), np.int64)
    for r, w in enumerate(rows):
        for cell in np.ndindex(*counted.shape[:-1]):
            for i, (j, c) in enumerate(zip(index[cell].tolist(), counted[cell].tolist())):
                if c and j < m:
                    out[(r, *cell, j)] += 1 if w is None else int(w[i])
    return out[0] if weights is None else out


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_tally_equals_a_count_per_row(data):
    # one bincount over flat (row, index) keys serves plain and batch
    # indices (padding at m, an all-padding row, width 0), masks with a
    # leading t axis, and weight rows, a zero row among them
    draw = data.draw
    n, m = draw(st.integers(0, 6)), draw(st.integers(0, 4))
    rows = draw(st.sampled_from([(), (1,), (3,)]))
    index = draw(arrays(np.int64, (*rows, n), elements=st.integers(0, m)))
    if rows and draw(st.booleans()):
        index[0] = m  # an all-padding row
    kind = draw(st.sampled_from(["every", "none", "mask", "per-t"]))
    mask = {"every": True, "none": np.zeros(index.shape, bool)}.get(kind)
    if mask is None:
        lead = (draw(st.integers(1, 3)),) if kind == "per-t" else ()
        mask = draw(arrays(bool, (*lead, *index.shape)))
    weights = None
    if draw(st.booleans()):
        weights = draw(arrays(np.int64, (draw(st.integers(1, 3)), n), elements=st.integers(0, 3)))
        if draw(st.booleans()):
            weights[draw(st.integers(0, len(weights) - 1))] = 0  # a zero row
    got, want = _Tally(index, m, mask)(weights), _tally_by_loop(index, m, mask, weights)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert got.tolist() == want.tolist()


_TIMES = st.one_of(st.integers(0, 5).map(float), st.just(np.inf))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda rows: st.integers(1, 9).flatmap(
            lambda n: arrays(float, (rows, n), elements=_TIMES)
        )
    )
)
@example(np.array([[np.inf, np.inf, np.inf], [2.0, 2.0, 1.0]]))  # an all-padding row
@example(np.array([[np.inf], [3.0], [3.0]]))  # width 1
@example(np.array([[1.0, 1.0], [1.0, 1.0]]))  # a row starting with the last row's value
def test_batch_grid_equals_each_rows_own_grid(times):
    # integer-valued rows, so times tie within and across rows: each row is
    # sorted and cut to the widest row's finite count, and every finite time
    # is indexed at the first place of its value, the 1-D grid's time
    grid, index = _grid(times)
    m = max(1, int((times < np.inf).sum(-1).max()))
    assert grid.shape == (len(times), m) and index.shape == times.shape
    for row, g, i in zip(times, grid, index):
        alone, at = _grid(row)
        finite = row < np.inf
        assert g.tolist() == np.sort(row)[:m].tolist()
        assert i.tolist() == np.where(finite, np.searchsorted(np.sort(row), row), m).tolist()
        assert g[i[finite]].tolist() == alone[at[finite]].tolist() == row[finite].tolist()
        assert np.unique(g[g < np.inf]).tolist() == alone.tolist()


class TestStepFunction:
    def test_right_continuous_lookup(self):
        f = StepFunction(1.0, (1.0, 3.0), (0.5, 0.25))
        assert f(0.0) == 1.0
        assert f(1.0) == 0.5
        assert f(2.9) == 0.5
        assert f(3.0) == 0.25
        assert f(100.0) == 0.25

    def test_rejects_unsorted_jumps(self):
        with pytest.raises(ValueError):
            StepFunction(1.0, (2.0, 1.0), (0.5, 0.25))

    def test_csv_export(self, tmp_path):
        import io

        f = StepFunction(1.0, (1.0, 3.0), (0.5, 0.25))
        buf = io.StringIO()
        f.write_csv(buf)
        assert buf.getvalue() == "time,value\n1,0.5\n3,0.25\n"
