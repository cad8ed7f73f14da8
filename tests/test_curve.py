"""One product-limit core: array forms against their loops and references.

The kernel behind ``p01_curve`` and the counting-process estimators add and
multiply in grid order, so their float values must equal the loops of
loop_reference.py with ``==``, and their exact values must equal them and
the brute-force oracle.  Cohorts come from cohortgen: tied half-unit times,
left-truncation and recruitment during illness; the t lists are unsorted
and may repeat.  Permuting the records changes no float value; relabelling
and doubling them change no exact value.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import loop_reference as loops
import oracle_bruteforce as ob
from cohortgen import random_cohort, to_oracle, with_ill_at_origin
from illnessdeath import (
    Cause,
    EmptyRiskSet,
    EstimationError,
    IllnessDeathRecord,
    ScenarioConfig,
    StepFunction,
    TransitionQuery,
    build_counting,
    cif_curve,
    cif_limit,
    cif_limit_ipcw,
    kaplan_meier,
    kaplan_meier_curve,
    p01_aalen_johansen,
    p01_cif_ratio,
    p01_curve,
    p01_km_integral,
    p01_landmark,
    p01_landmark_variance,
    risk_set_stability,
    simulate_cohort,
    tsai_crowley_weight,
)
from illnessdeath.counting import Columns
from illnessdeath.estimators import ESTIMATORS, _query_times

SCALAR = {
    "check": p01_landmark,
    "mm": p01_cif_ratio,
    "mm-stute": p01_km_integral,
    "aj": p01_aalen_johansen,
}
ORACLE = {
    "check": ob.p01_landmark,
    "mm": ob.p01_ratio,
    "mm-stute": ob.stute_sum,
    "aj": ob.aalen_johansen_p01,
}
LANDMARKS = (0.0, 0.5, 1.0, 1.5, 2.0, 0.75, 1.25)
GAPS = (0.0, 0.5, 1.0, 2.0, 3.5, 0.75, 2.25, 6.0)


def _outcome(fn):
    """The value, or the type of the EstimationError raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return fn()
        except EstimationError as err:
            return type(err)


def _per_t(curve, ts):
    return [curve] * len(ts) if isinstance(curve, type) else curve


@st.composite
def cases(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    cohort = random_cohort(
        rng, max_n=25, truncated=draw(st.booleans()), censored=draw(st.booleans())
    )
    s = draw(st.sampled_from(LANDMARKS))
    gaps = draw(st.lists(st.sampled_from(GAPS), min_size=1, max_size=6))
    return cohort, s, [s + g for g in gaps]


def _origin_case(seed, truncated, censored):
    """A cohort with subjects recruited while ill at the origin, at s = 0."""
    rng = random.Random(seed)
    cohort = random_cohort(rng, max_n=25, truncated=truncated, censored=censored)
    return with_ill_at_origin(rng, cohort), 0.0, [3.5, 0.0, 1.0, 6.0, 2.25]


# random_cohort never recruits a subject while ill at the origin, so these
# explicit cases check that the s = 0 landmark leaves such subjects out
ORIGIN_CASES = [
    _origin_case(1, truncated=False, censored=True),
    _origin_case(2, truncated=True, censored=True),
    _origin_case(3, truncated=False, censored=False),
]


def _with_origin_cases(test):
    for case in ORIGIN_CASES:
        test = example(case=case)(test)
    return test


@settings(max_examples=80, deadline=None)
@given(case=cases())
@_with_origin_cases
def test_float_curve_equals_each_scalar_and_loop(case):
    cohort, s, ts = case
    for method, scalar in SCALAR.items():
        curve = _per_t(_outcome(lambda: p01_curve(cohort, s, ts, method)), ts)
        queries = [TransitionQuery(s, t) for t in ts]
        assert curve == [_outcome(lambda: scalar(cohort, q)) for q in queries]
        reference = loops.BY_METHOD[method]
        assert curve == [_outcome(lambda: reference(cohort, q)) for q in queries]
    for t in ts:
        q = TransitionQuery(s, t)
        assert _outcome(lambda: p01_landmark_variance(cohort, q)) == _outcome(
            lambda: loops.landmark_variance(cohort, q)
        )


@settings(max_examples=60, deadline=None)
@given(case=cases())
@_with_origin_cases
def test_exact_curve_equals_each_scalar_loop_and_oracle(case):
    cohort, s, ts = case
    mirror = to_oracle(cohort)
    lo = F(s).limit_denominator(4)
    his = [F(t).limit_denominator(4) for t in ts]
    for method, scalar in SCALAR.items():
        curve = _outcome(lambda: p01_curve(cohort, s, ts, method, exact=True))
        queries = [TransitionQuery(s, t) for t in ts]
        assert _per_t(curve, ts) == [
            _outcome(lambda: scalar(cohort, q, exact=True)) for q in queries
        ]
        reference = loops.BY_METHOD[method]
        assert _per_t(curve, ts) == [
            _outcome(lambda: reference(cohort, q, exact=True)) for q in queries
        ]
        if not isinstance(curve, type):
            assert all(isinstance(v, F) for v in curve)
            assert curve == [ORACLE[method](mirror, lo, hi) for hi in his]
    for t, hi in zip(ts, his):
        variance = _outcome(
            lambda: p01_landmark_variance(cohort, TransitionQuery(s, t), exact=True)
        )
        if not isinstance(variance, type):
            assert variance == ob.variance_landmark(mirror, lo, hi)


def _observed(fn):
    """The value with its Python types and warning categories, or the error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = fn()
        except Exception as err:
            return type(err), str(err)
    if isinstance(value, StepFunction):
        types = [type(x) for x in (value.initial_value, *value.values)]
        types += [type(x) for x in value.jump_times]
    else:
        types = type(value)
    return value, types, [w.category for w in caught]


def _same(array_form, loop_form, *args):
    got = _observed(lambda: array_form(*args))
    assert got == _observed(lambda: loop_form(*args)), (array_form.__name__, args[1:])


@settings(max_examples=60, deadline=None)
@given(case=cases())
@_with_origin_cases
def test_array_forms_equal_the_reference_loops(case):
    cohort, s, ts = case
    for t in ts:
        q = TransitionQuery(s, t)
        _same(risk_set_stability, loops.risk_set_stability, cohort, q)
        for exact in (False, True):
            for landmark in (False, True):
                try:
                    cp = build_counting(cohort, q, landmark=landmark)
                except EmptyRiskSet:
                    continue
                for horizon in (0.0, s, t, 2.25, math.inf):
                    _same(kaplan_meier, loops.kaplan_meier, cp, horizon, exact)
                _same(cif_limit, loops.cif_limit, cp, exact)
                if not exact:
                    _same(kaplan_meier_curve, loops.kaplan_meier_curve, cp)
                    _same(cif_curve, loops.cif_curve, cp)
            _same(cif_limit_ipcw, loops.cif_limit_ipcw, cohort, q, exact)
            for u in (0.0, s, s + 0.5, t, t + 0.25, 100.0):
                _same(
                    tsai_crowley_weight, loops.tsai_crowley_weight, cohort, q, u, exact
                )


def _values(cohort, s, ts, exact):
    """Every product-limit value at (s, ts), or the type of the error raised."""
    out = [_outcome(lambda: p01_curve(cohort, s, ts, m, exact)) for m in SCALAR]
    for t in ts:
        q = TransitionQuery(s, t)
        for landmark in (False, True):
            cp = _outcome(lambda: build_counting(cohort, q, landmark=landmark))
            if isinstance(cp, type):
                out.append(cp)
                continue
            out += [_outcome(lambda: kaplan_meier(cp, h, exact)) for h in (s, t)]
            out.append(_outcome(lambda: cif_limit(cp, exact)))
        out.append(_outcome(lambda: cif_limit_ipcw(cohort, q, exact)))
        for u in (s, t):
            out.append(_outcome(lambda: tsai_crowley_weight(cohort, q, u, exact)))
    return out


@settings(max_examples=60, deadline=None)
@given(case=cases())
@_with_origin_cases
def test_permuting_relabelling_and_doubling_records(case):
    cohort, s, ts = case
    rng = random.Random(repr(case))
    shuffled = rng.sample(cohort, len(cohort))
    assert _values(shuffled, s, ts, False) == _values(cohort, s, ts, False)
    # new ids reorder ties in mm-stute, which moves float masses by an ulp
    ranks = rng.sample(range(len(cohort)), len(cohort))
    relabelled = [replace(r, id=f"x{k}") for r, k in zip(cohort, ranks)]
    doubled = [replace(r, id=f"{k}{i}") for k in "ab" for i, r in enumerate(cohort)]
    exact = _values(cohort, s, ts, True)
    assert _values(relabelled, s, ts, True) == exact
    assert _values(doubled, s, ts, True) == exact


@pytest.mark.parametrize("bad", [np.int64(1), np.float32(1.5), np.bool_(True)])
def test_numpy_times_are_rejected_by_type(cohort4, bad):
    message = f"query times must be int or float, not numpy.{type(bad).__name__}"
    for s, t in ((bad, 2.0), (0.5, bad)):
        with pytest.raises(ValueError) as info:
            TransitionQuery(s, t)
        assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        p01_curve(cohort4, 0.5, np.array([bad, bad]), "check")
    assert str(info.value) == message


def test_curve_validates_like_a_query(cohort4):
    with pytest.raises(ValueError):
        p01_curve(cohort4, 2.0, [3.0, 1.0], "check")
    with pytest.raises(ValueError):
        p01_curve(cohort4, 1.5, [3.5], "magic")
    assert p01_curve(cohort4, 1.5, [], "aj") == []


# every kind of value a caller might pass as s or as one t
TIMES = st.one_of(
    st.floats(min_value=-2, max_value=60),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e308]),
    st.integers(min_value=-3, max_value=60),
    st.integers(),
    st.booleans(),
    st.fractions(min_value=-2, max_value=60, max_denominator=4),
    st.sampled_from(["3.0", "12", "nan", "-1"]),
    st.floats(min_value=-2, max_value=60).map(np.float64),
    st.integers(min_value=-3, max_value=60).map(np.int64),
    st.floats(min_value=-2, max_value=60, width=32).map(np.float32),
    st.booleans().map(np.bool_),
)


@st.composite
def batches(draw):
    """A few tied cohorts of one design, a landmark and a t list, and a seed
    that places each cohort's subjects in a row of a common width."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    truncated, censored = draw(st.booleans()), draw(st.booleans())
    count = draw(st.integers(min_value=1, max_value=5))
    cohorts = [random_cohort(rng, 12, truncated, censored) for _ in range(count)]
    s = draw(st.sampled_from(LANDMARKS))
    gaps = draw(st.lists(st.sampled_from(GAPS), min_size=1, max_size=4))
    return cohorts, s, [s + g for g in gaps], draw(st.integers(min_value=0, max_value=99))


def _batch(cohorts, seed):
    """The cohorts as one Columns batch: a row each, subjects at random
    places, padding (Columns.take of a mask per row) everywhere else."""
    rng = random.Random(seed)
    width = max(map(len, cohorts)) + rng.randint(0, 3)
    present = np.zeros((len(cohorts), width), bool)
    fields = [np.zeros(present.shape, c.dtype) for c in Columns.of(cohorts[0])]
    for row, cohort in enumerate(cohorts):
        places = rng.sample(range(width), len(cohort))
        present[row, places] = True
        for field, column in zip(fields, Columns.of(cohort)):
            field[row, places] = column
    return Columns(*fields).take(present)


@settings(max_examples=100, deadline=None)
@given(case=batches())
def test_batch_rows_equal_each_cohort_curve(case):
    # tied times: a repeat in a row's grid must add nothing; a row whose
    # cohort fails is NaN, and a batch where every cohort fails may raise
    cohorts, s, ts, seed = case
    batch = _batch(cohorts, seed)
    for method, curve in ESTIMATORS.items():
        got = _outcome(lambda: curve(batch, s, ts))
        for row, cohort in enumerate(cohorts):
            want = _per_t(_outcome(lambda: p01_curve(cohort, s, ts, method)), ts)
            if isinstance(got, type):
                assert want == [got] * len(ts)
                continue
            want = [math.nan if isinstance(w, type) else w for w in want]
            assert [repr(x) for x in got[:, row].tolist()] == [repr(w) for w in want]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    s=st.sampled_from(LANDMARKS),
    gap=st.sampled_from((0.5, 1.5, 3.0, 6.0)),
    rows=st.integers(min_value=1, max_value=4),
    exact=st.booleans(),
)
def test_aj_skipping_idle_steps_equals_the_loop_over_every_step(seed, s, gap, rows, exact):
    # aj leaves out the steps with no 0 -> 1 or 1 -> 2 move: here a 0 -> 2
    # only time, and one where every resample weighs every such mover 0
    rng = random.Random(seed)
    cohort = random_cohort(rng, 20, truncated=rng.random() < 0.5)
    cohort.append(IllnessDeathRecord("direct", 0.0, s + 0.25, Cause.ABSORBED))
    query, cols = TransitionQuery(s, s + gap), Columns.of(cohort)
    movers = (cols.ill & (cols.exit0 > s), cols.ill & cols.observed & (cols.final > s))
    times = sorted({*cols.exit0[movers[0]].tolist(), *cols.final[movers[1]].tolist()})
    weights = np.random.default_rng(seed).integers(0, 3, (rows, len(cohort)))
    if times:
        v = rng.choice(times)
        weights[:, (movers[0] & (cols.exit0 == v)) | (movers[1] & (cols.final == v))] = 0
    aj = ESTIMATORS["aj"]
    prepared = aj.prepare(cols, s, [query.t], exact)
    assert repr(aj.evaluate(prepared)) == repr([loops.aalen_johansen(cohort, query, exact)])
    want = []
    for w in weights:
        copies = [r for r, k in zip(cohort, w) for _ in range(k)]
        want.append(_outcome(lambda: loops.aalen_johansen(copies, query, exact)))
    want = [math.nan if isinstance(x, type) else x for x in want]
    assert [repr(x) for x in aj.evaluate(prepared, weights)[0].tolist()] == [repr(x) for x in want]


def test_aj_runs_every_step_once_state0_occupation_rounds_below_zero():
    # 1 - 0.8 - 0.2 rounds to -5.6e-17: state 0 empties by both moves at 1
    # and 6, the illness state at 2 and 4; state 0's occupation is exactly 0
    # from 1, so p1 is +0.0 from 4 and the 0 -> 2 only step at 8 leaves it
    ill, absorbed, censored = Cause.ILL, Cause.ABSORBED, Cause.CENSORED
    cohort = [IllnessDeathRecord(f"a{k}", 0.0, 1.0, ill, 2.0, absorbed) for k in range(4)]
    cohort += [IllnessDeathRecord(f"c{k}", 5.0, 6.0, ill, 20.0, censored) for k in range(4)]
    cohort += [
        IllnessDeathRecord("a4", 0.0, 1.0, absorbed),
        IllnessDeathRecord("b", 2.5, 3.0, ill, 4.0, absorbed),
        IllnessDeathRecord("c4", 5.0, 6.0, absorbed),
        IllnessDeathRecord("d", 7.0, 8.0, absorbed),
    ]
    query = TransitionQuery(0.0, 9.0)
    assert repr(loops.aalen_johansen(cohort, query)) == "0.0"
    assert repr(p01_aalen_johansen(cohort, query)) == "0.0"
    prepared = ESTIMATORS["aj"].prepare(Columns.of(cohort), query.s, [query.t])
    weighted = ESTIMATORS["aj"].evaluate(prepared, np.ones((2, len(cohort)), np.int64))
    assert [repr(x) for x in weighted[0].tolist()] == ["0.0", "0.0"]


def test_aj_state0_emptied_by_both_moves_is_exactly_zero():
    # everyone at risk in state 0 leaves at 1, 4 ill and 1 absorbed, where
    # 1 - 0.8 - 0.2 rounds to -5.6e-17; the late entrant's illness at 3 then
    # carries state 0's occupation, exactly 0, into P01(0, 4)
    ill, absorbed = Cause.ILL, Cause.ABSORBED
    cohort = [IllnessDeathRecord(f"a{k}", 0.0, 1.0, ill, 2.0, absorbed) for k in range(4)]
    cohort += [
        IllnessDeathRecord("b", 0.0, 1.0, absorbed),
        IllnessDeathRecord("late", 2.5, 3.0, ill, 10.0, absorbed),
    ]
    query, aj = TransitionQuery(0.0, 4.0), ESTIMATORS["aj"]
    assert p01_aalen_johansen(cohort, query, exact=True) == 0
    assert repr(p01_aalen_johansen(cohort, query)) == "0.0"
    prepared = aj.prepare(Columns.of(cohort), query.s, [query.t])
    weighted = aj.evaluate(prepared, np.array([[1] * 6, [2, 1, 1, 1, 1, 3]]))
    assert [repr(x) for x in weighted[0].tolist()] == ["0.0", "0.0"]
    batch = aj(_batch([cohort, cohort[:5]], 0), query.s, [query.t])
    assert [repr(x) for x in batch[0].tolist()] == ["0.0", "0.0"]


@settings(max_examples=200, deadline=None)
@given(y0=st.integers(min_value=1, max_value=2**40), u=st.floats(0, 1), v=st.floats(0, 1))
@example(y0=5, u=0.8, v=1.0)  # d01 = 4, d02 = 0
@example(y0=3, u=0.5, v=1.0)
def test_aj_keeps_a_share_of_state0_unless_everyone_leaves(y0, u, v):
    # the argument behind aj's step skip: with integer counts and
    # d01 + d02 <= y0 - 1, 1 - d01/y0 - d02/y0 is 1/y0 or more in exact
    # arithmetic, and four roundings of at most 2**-53 each take at most
    # 2**-51 off it in float, so > 0 for any y0 weights reach; where
    # d01 + d02 = y0 aj takes it as 0
    d01 = min(int(u * y0), y0 - 1)
    d02 = min(int(v * (y0 - d01)), y0 - 1 - d01)
    keep0 = 1 - np.float64(d01) / y0 - np.float64(d02) / y0
    assert 1 - F(d01, y0) - F(d02, y0) >= F(1, y0)
    assert keep0 >= 1 / y0 - 2**-51 and keep0 > 0


def test_an_empty_t_list_keeps_the_shape_of_every_form():
    # a curve is (len(ts), rows) on a batch and under weights, len(ts) = 0 too
    cohorts = [simulate_cohort(ScenarioConfig(n=40, seed=3), rep) for rep in range(3)]
    batch, cols = _batch(cohorts, 0), Columns.of(cohorts[0])
    weights = np.ones((4, len(cols.final)), np.int64)
    for method, steps in ESTIMATORS.items():
        assert steps(batch, 10.0, []).shape == (0, 3), method
        assert steps.evaluate(steps.prepare(cols, 10.0, []), weights).shape == (0, 4), method
        for exact in (False, True):  # and a plain cohort's list, a batch's array
            assert _outcome(lambda: steps(cols, 10.0, [], exact)) == [], method
            assert steps(batch, 10.0, [], exact).shape == (0, 3), method


def _tied_kind1_cohort():
    """Subjects a and b fall ill in (1, 3] and die together at 5: for t = 3
    one kind-1 mass of two at 5, and e's at 7; for t = 6 e's alone; for
    t = 1.2 none."""
    R = IllnessDeathRecord
    return [
        R("a", 0.0, 2.0, Cause.ILL, 5.0, Cause.ABSORBED),
        R("b", 0.0, 2.5, Cause.ILL, 5.0, Cause.ABSORBED),
        R("c", 0.0, 4.0, Cause.ABSORBED),
        R("d", 0.0, 4.5, Cause.CENSORED),
        R("e", 0.0, 1.5, Cause.ILL, 7.0, Cause.ABSORBED),
        R("f", 0.0, 6.0, Cause.ABSORBED),
        R("g", 0.0, 5.0, Cause.CENSORED),
    ]


@pytest.mark.parametrize("exact", [False, True])
def test_tied_kind1_subjects_give_one_mass_per_time(exact):
    # the incidence adds a mass only at a t's kind-1 times, one per time
    # however many subjects tie there: equal to the loop forms, which add
    # one at every grid time, plain and as a batch row, and to the oracle
    cohort, s, ts = _tied_kind1_cohort(), 1.0, [3.0, 6.0, 1.2]
    cols = Columns.of(cohort)
    assert cols.event1(s, np.array(ts)).sum(-1).tolist() == [3, 1, 0]
    batch = _batch([cohort, cohort[2:]], 5)
    mirror, his = to_oracle(cohort), [F(t).limit_denominator(5) for t in ts]
    for method in ("check", "mm", "mm-stute"):
        want = [loops.BY_METHOD[method](cohort, TransitionQuery(s, t), exact) for t in ts]
        got = p01_curve(cohort, s, ts, method, exact)
        assert repr(got) == repr(want)
        assert repr(ESTIMATORS[method](batch, s, ts, exact)[:, 0].tolist()) == repr(want)
        if exact:
            assert got == [ORACLE[method](mirror, F(s), hi) for hi in his]
    assert p01_curve(cohort, s, ts, "check")[2] == 0.0


@pytest.mark.parametrize("exact", [False, True])
def test_an_empty_landmark_batch_row_stays_nan(exact):
    # a row with nobody in state 0 at s has no kind-1 subject and y = 0: its
    # sum of no masses is 0, and check and aj must still give NaN for it
    cohort, s, ts = _tied_kind1_cohort(), 1.0, [3.0, 6.0]
    early = [IllnessDeathRecord(f"x{i}", 0.0, 0.5 + i / 4, Cause.ABSORBED) for i in range(2)]
    batch = _batch([cohort, early], 2)
    for method in ("check", "aj"):
        values = ESTIMATORS[method](batch, s, ts, exact)
        assert np.isnan(values[:, 1].astype(float)).all(), method
        assert repr(values[:, 0].tolist()) == repr(p01_curve(cohort, s, ts, method, exact))


def _bits(value):
    """repr of a curve's values (a list, or an array of rows), or the error type."""
    return repr(value.tolist() if isinstance(value, np.ndarray) else value)


@settings(max_examples=100, deadline=None)
@given(case=batches(), exact=st.booleans(), pick=st.integers(min_value=0, max_value=2**32 - 1))
def test_one_preparation_evaluates_like_the_registry_curve(case, exact, pick):
    # evaluate(prepare(...)) on one preparation evaluated again and again:
    # plain, under resample weights in turn (the two mm forms on one shared
    # preparation, and so one denominator) and on a batch, repr-equal to a
    # fresh preparation each time, as a registry call makes, NaN and -0.0
    # included
    cohorts, s, ts, seed = case
    cols, rng = Columns.of(cohorts[0]), np.random.default_rng(pick)
    n = len(cols.final)
    draws = [
        np.stack([np.bincount(rng.integers(0, n, n), minlength=n) for _ in range(rows)])
        for rows in (1, 3)
    ]
    runs = [(cols, exact, [None, None]), (cols, exact, draws + draws[:1])]
    runs.append((_batch(cohorts, seed), False, [None, None]))
    for data, exact_, evaluations in runs:
        ready = {}  # a preparation per prepare step
        for estimator in ESTIMATORS.values():
            if estimator.prepare not in ready:
                ready[estimator.prepare] = _outcome(lambda: estimator.prepare(data, s, ts, exact_))
        for weights in evaluations:
            for estimator in ESTIMATORS.values():
                got = prepared = ready[estimator.prepare]
                if not isinstance(prepared, type):
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        got = estimator.evaluate(prepared, weights)  # never raises
                want = _outcome(
                    lambda: estimator.evaluate(estimator.prepare(data, s, ts, exact_), weights)
                )
                assert _bits(got) == _bits(want)


@st.composite
def time_grids(draw):
    """(s, ts): valid grids, in every container, and arbitrary values."""
    if draw(st.booleans()):
        s = draw(st.floats(min_value=0, max_value=20))
        gap = st.floats(min_value=0, max_value=40)
        # mostly valid gaps, now and then one that breaks the grid
        gaps = st.one_of(gap, gap, gap, st.sampled_from([math.inf, math.nan, -1.0]))
        values = [s + g for g in draw(st.lists(gaps, max_size=8))]
    else:
        s = draw(TIMES)
        values = draw(st.lists(TIMES, max_size=8))
    forms = ["list", "tuple", "array", "float64", "int64", "masked", "column", "0-d"]
    form = draw(st.sampled_from(forms))
    if form in ("list", "tuple"):
        return s, (values if form == "list" else tuple(values))
    dtype = {"array": None, "int64": np.int64}.get(form, float)
    try:
        ts = np.asarray(values, dtype=dtype)
    except (ValueError, TypeError, OverflowError):
        assume(False)
    if form == "masked":
        return s, np.ma.masked_invalid(ts)
    if form == "column":
        return s, ts.reshape(-1, 1)
    if form == "0-d":
        return s, np.asarray(ts[0]) if len(ts) else ts.reshape(1, 0)
    return s, ts


def _result(fn, s, ts):
    try:
        return fn(s, ts)
    except Exception as err:
        return type(err), str(err)


@settings(max_examples=400, deadline=None)
@given(case=time_grids())
def test_query_times_shortcut_matches_the_per_query_loop(case):
    s, ts = case
    got, want = _result(_query_times, s, ts), _result(loops.query_times, s, ts)
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.dtype == want.dtype and np.array_equal(got, want)
