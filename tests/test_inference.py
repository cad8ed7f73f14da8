"""Bootstrap interval construction: determinism, clipping, failure handling,
and the weighted resamples against the loop over resampled cohorts."""

from __future__ import annotations

import math
import random
import warnings
from fractions import Fraction
from statistics import NormalDist
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import loop_reference as loops
from cohortgen import random_cohort
from illnessdeath import (
    Cause,
    EstimationError,
    IllnessDeathRecord,
    ScenarioConfig,
    SupportWarning,
    TooManyFailures,
    TransitionQuery,
    bootstrap_ci,
    inference,
    simulate_cohort,
)
from illnessdeath.counting import Columns, _at_risk, _pick
from illnessdeath.estimators import ESTIMATORS, Estimator, prepare_methods
from illnessdeath.estimators import _FullCohort, _incidence, _prepare_aj, _prepare_check
from illnessdeath.estimators import _ProductLimit
from illnessdeath.records import _CENSORED


def _quiet_ci(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return bootstrap_ci(*args, **kwargs)


def test_point_estimate_warns_as_the_curve_does():
    # the largest observation (9) is a censoring: SupportWarning, as p01_curve gives
    cohort = [
        IllnessDeathRecord("a", 0, 2, Cause.ILL, 6, Cause.ABSORBED),
        IllnessDeathRecord("b", 0, 3, Cause.ABSORBED),
        IllnessDeathRecord("c", 0, 9, Cause.CENSORED),
    ]
    with pytest.warns(SupportWarning, match="largest observation is censored"):
        bootstrap_ci(cohort, TransitionQuery(1, 4), "check", n_boot=20, seed=0)


def _mixed_cohort():
    return [
        IllnessDeathRecord("a", 0, 2, Cause.ILL, 9, Cause.ABSORBED),
        IllnessDeathRecord("b", 0, 2, Cause.ILL, 9, Cause.ABSORBED),
        IllnessDeathRecord("d", 0, 2, Cause.ABSORBED),
        IllnessDeathRecord("c", 0, 1, Cause.ABSORBED),
    ]


class TestDegenerateResamples:
    def test_identical_records_give_zero_width(self):
        cohort = [
            IllnessDeathRecord(f"s{i}", 0, 2, Cause.ILL, 9, Cause.ABSORBED)
            for i in range(5)
        ]
        q = TransitionQuery(1.5, 3)
        r = bootstrap_ci(cohort, q, "check", n_boot=50, seed=0)
        assert r.point == 1.0
        assert r.boot_variance == 0.0
        assert r.quantile_ci == (1.0, 1.0)
        assert r.normal_ci == (1.0, 1.0)
        assert r.n_failed == 0


class TestNormalInterval:
    def test_endpoints_match_formula(self):
        cohort = simulate_cohort(ScenarioConfig(n=120, seed=31), 0)
        q = TransitionQuery(10, 40)
        r = _quiet_ci(cohort, q, "check", n_boot=300, seed=2, level=0.95)
        z = NormalDist().inv_cdf(0.975)
        half = z * math.sqrt(r.boot_variance)
        assert 0 < r.normal_ci[0] and r.normal_ci[1] < 1  # unclipped here
        assert r.normal_ci[0] == pytest.approx(r.point - half, abs=1e-12)
        assert r.normal_ci[1] == pytest.approx(r.point + half, abs=1e-12)

    def test_level_changes_width(self):
        cohort = simulate_cohort(ScenarioConfig(n=120, seed=31), 0)
        q = TransitionQuery(10, 40)
        wide = _quiet_ci(cohort, q, "check", n_boot=200, seed=2, level=0.99)
        narrow = _quiet_ci(cohort, q, "check", n_boot=200, seed=2, level=0.80)
        assert wide.boot_variance == narrow.boot_variance  # same resamples
        width = lambda ci: ci[1] - ci[0]
        assert width(wide.normal_ci) > width(narrow.normal_ci)
        assert width(wide.quantile_ci) >= width(narrow.quantile_ci)


class TestClipping:
    def test_bounds_stay_in_unit_interval(self):
        r = _quiet_ci(_mixed_cohort(), TransitionQuery(1.5, 3), "check", n_boot=200, seed=4)
        assert r.point == pytest.approx(2 / 3)
        assert r.normal_ci[1] == 1.0  # raw upper end exceeds 1, clipped back
        assert r.normal_ci[0] == pytest.approx(
            r.point - NormalDist().inv_cdf(0.975) * math.sqrt(r.boot_variance)
        )
        assert 0.0 <= r.quantile_ci[0] <= r.quantile_ci[1] <= 1.0
        assert r.n_failed > 0


class TestDeterminism:
    def test_same_seed_same_result(self):
        cohort = simulate_cohort(ScenarioConfig(n=80, seed=37), 0)
        q = TransitionQuery(10, 50)
        a = _quiet_ci(cohort, q, "mm", n_boot=100, seed=8)
        b = _quiet_ci(cohort, q, "mm", n_boot=100, seed=8)
        assert a == b

    def test_seed_matters(self):
        cohort = simulate_cohort(ScenarioConfig(n=80, seed=37), 0)
        q = TransitionQuery(10, 50)
        a = _quiet_ci(cohort, q, "mm", n_boot=100, seed=8)
        c = _quiet_ci(cohort, q, "mm", n_boot=100, seed=9)
        assert a.boot_variance != c.boot_variance

    def test_every_estimator_supported(self):
        cohort = simulate_cohort(ScenarioConfig(n=80, seed=37), 0)
        q = TransitionQuery(10, 50)
        for name in ("check", "mm", "mm-stute", "aj"):
            r = _quiet_ci(cohort, q, name, n_boot=30, seed=1)
            assert 0 <= r.quantile_ci[0] <= r.quantile_ci[1] <= 1


class TestFailureHandling:
    def test_too_many_failures(self):
        # seed 22 makes both resamples of this 2-subject cohort draw only
        # the early absorption, emptying the denominator both times
        cohort = [
            IllnessDeathRecord("a", 0, 1, Cause.ABSORBED),
            IllnessDeathRecord("b", 0, 2, Cause.ILL, 9, Cause.ABSORBED),
        ]
        with pytest.raises(TooManyFailures):
            _quiet_ci(cohort, TransitionQuery(1.5, 3), "mm", n_boot=2, seed=22)

    def test_validation(self):
        cohort = _mixed_cohort()
        q = TransitionQuery(1.5, 3)
        with pytest.raises(ValueError):
            bootstrap_ci(cohort, q, "nope", n_boot=10)
        with pytest.raises(ValueError):
            bootstrap_ci(cohort, q, "check", n_boot=1)
        with pytest.raises(ValueError):
            bootstrap_ci(cohort, q, "check", n_boot=10, level=1.0)

    def test_negative_seed_is_rejected_before_any_draw(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(inference, "streams", lambda *key: drawn.append(key))
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            bootstrap_ci(_mixed_cohort(), TransitionQuery(1.5, 3), "check", n_boot=10, seed=-1)
        assert drawn == []


@st.composite
def boot_cases(draw):
    """A tied random cohort (truncated, censored or not), a query, a chunk
    size and a number of resamples that is not a multiple of it."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    cohort = random_cohort(
        rng, max_n=25, truncated=draw(st.booleans()), censored=draw(st.booleans())
    )
    s = draw(st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.5)))
    t = s + draw(st.sampled_from((0.0, 0.5, 1.5, 3.0, 6.0)))
    chunk = draw(st.integers(min_value=2, max_value=7))
    n_boot = chunk * draw(st.integers(min_value=1, max_value=4))
    n_boot += draw(st.integers(min_value=1, max_value=chunk - 1))
    seed = draw(st.integers(min_value=0, max_value=50))
    return cohort, TransitionQuery(s, t), chunk, n_boot, seed


def _bits(values):
    """repr of each value, None (a failed resample) as NaN: tells -0.0 from 0.0."""
    return [repr(math.nan if x is None else x) for x in values]


def _quiet(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args)


def _outcome(fn, *args):
    """The result, or the type of the error raised."""
    try:
        return _quiet(fn, *args)
    except (EstimationError, TooManyFailures) as err:
        return type(err)


@settings(max_examples=120, deadline=None)
@given(case=boot_cases())
def test_weighted_resamples_equal_the_resampled_cohorts(case):
    # every resample, failures and -0.0 included, and the intervals, against
    # one estimator call per resampled cohort, in chunks of a few resamples
    cohort, query, chunk, n_boot, seed = case
    cols = Columns.of(cohort)
    with mock.patch.object(inference, "CHUNK_CELLS", chunk * len(cohort)):
        for method in ESTIMATORS:
            args = (cohort, query, method, n_boot, 0.9, seed)
            expected, got = _outcome(loops.bootstrap_ci, *args), _outcome(bootstrap_ci, *args)
            assert repr(got) == repr(expected)
            try:
                prepared = _quiet(ESTIMATORS[method].prepare, cols, query.s, [query.t])
            except EstimationError:
                continue  # no estimate, so no bootstrap
            expected = loops.resample_estimates(cohort, query, method, n_boot, seed)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a weighted curve warns of nothing
                got = inference.resample_estimates({method: prepared}, len(cohort), n_boot, seed)
            assert _bits(got[method][0].tolist()) == _bits(expected)


@pytest.mark.parametrize("chunk", [1, 4, 1000])
def test_each_method_is_prepared_once_per_call(chunk):
    # however many chunks the resamples take, every chunk evaluates every
    # method on its one preparation; the two mm forms share one
    cols = Columns.of(random_cohort(random.Random(7), max_n=30))
    prepared, evaluated = [], []

    def spy(calls, name, step):
        def recorded(*args):
            calls.append((name, args[0]))  # the cohort, or the prepared one
            return step(*args)

        return recorded

    steps = {estimator.prepare for estimator in ESTIMATORS.values()}
    spies = {step: spy(prepared, step, step) for step in steps}
    registry = {
        method: Estimator(spies[estimator.prepare], spy(evaluated, method, estimator.evaluate))
        for method, estimator in ESTIMATORS.items()
    }
    with mock.patch.object(inference, "CHUNK_CELLS", chunk * len(cols.final)):
        with mock.patch.dict(ESTIMATORS, registry):
            ready = dict(prepare_methods(cols, 1.0, [2.0, 3.5], list(registry)))
            out = inference.resample_estimates(ready, len(cols.final), 9, 0)
    assert sorted(id(step) for step, _ in prepared) == sorted(map(id, steps))
    chunks = -(-9 // chunk)
    assert sorted(method for method, _ in evaluated) == sorted(list(ESTIMATORS) * chunks)
    assert all(p is ready[method] for method, p in evaluated)
    assert {method: a.shape for method, a in out.items()} == dict.fromkeys(ESTIMATORS, (2, 9))


@settings(max_examples=60, deadline=None)
@given(case=boot_cases(), pick=st.integers(min_value=0))
def test_weight_two_equals_a_duplicated_row(case, pick):
    # frequency weights are duplicated rows, in exact arithmetic too
    cohort, query, *_ = case
    cols = Columns.of(cohort)
    weights = np.ones(len(cohort), dtype=np.int64)
    weights[pick % len(cohort)] = 2
    doubled = cols.take(np.repeat(np.arange(len(cohort)), weights))
    ts = [query.t, query.t + 1.5]
    for method, curve in ESTIMATORS.items():
        expected = _outcome(curve, doubled, query.s, ts, True)
        got = prepared = _outcome(curve.prepare, cols, query.s, ts, True)
        if not isinstance(prepared, type):
            got = curve.evaluate(prepared, weights[None, :])[:, 0].tolist()
            assert all(type(x) is Fraction for x in got)
        assert got == expected


def _some_weights(seed, n):
    """A few rows of multiplicities 0 to 2, then a row of zeros."""
    weights = np.random.default_rng(seed).integers(0, 3, (3, n))
    return np.vstack((weights, np.zeros((1, n), np.int64)))


@settings(max_examples=80, deadline=None)
@given(case=boot_cases(), exact=st.booleans())
def test_state0_survival_stopped_just_past_s_equals_the_full_product_limit(case, exact):
    # mm's denominator puts every state-0 exit after s at one time just past
    # s with no event there: a factor of exactly 1, and y up to s as it was;
    # here with exits tied at s and at that time itself
    cohort, query, *_, seed = case
    s, past = query.s, float(np.nextafter(query.s, np.inf))
    cohort = [r for r in cohort if r.entry == 0]  # mm's cohorts start at the origin
    cohort += [
        IllnessDeathRecord("next-c", 0.0, past, Cause.CENSORED),
        IllnessDeathRecord("next-a", 0.0, past, Cause.ABSORBED),
    ]
    if s > 0:
        cohort += [
            IllnessDeathRecord("tie-a", 0.0, s, Cause.ABSORBED),
            IllnessDeathRecord("tie-i", 0.0, s, Cause.ILL, s + 1.0, Cause.ABSORBED),
        ]
    cols = Columns.of(cohort)
    full = _FullCohort(cols, s, [query.t], exact)
    exits = cols.state0 & (cols.cause0 != _CENSORED) & (cols.exit0 <= s)
    whole = _ProductLimit(cols.exit0, cols.state0, exits, [], exact)
    weights = _some_weights(seed, len(cohort))
    assert repr(full.denominator().tolist()) == repr(whole.counts()[2][..., -1].tolist())
    want = whole.counts(weights)[2][:, -1]
    assert repr(full.denominator(weights).tolist()) == repr(want.tolist())


@settings(max_examples=80, deadline=None)
@given(case=boot_cases(), exact=st.booleans())
def test_weighted_incidence_over_kind1_times_equals_the_full_grid(case, exact):
    # under weights each t's running sum skips the grid times with none of
    # its kind-1 subjects, masses of +0.0: here t = s has no kind-1 subject,
    # the added one has the first final time of check's grid, and the last
    # weight row zeroes every kind-1 subject of t = onset, that one included
    cohort, query, *_, seed = case
    s = query.s
    cols = Columns.of(cohort)
    first = cols.final[cols.landmark(s)].min(initial=s + 3.0)
    onset, final = s + (first - s) / 3, s + 2 * (first - s) / 3
    cohort = [*cohort, IllnessDeathRecord("first", 0.0, onset, Cause.ILL, final, Cause.ABSORBED)]
    cols, ts = Columns.of(cohort), [s, onset, query.t]
    grids = [_prepare_check(cols, s, ts, exact)[0]]
    if not (cols.entry > 0).any():
        grids.append(_FullCohort(cols, s, ts, exact).pooled)
    assert grids[0].kind1[0].kept[0].size == 0 and grids[0].kind1[1].kept[1].min() == 0
    weights = np.vstack((_some_weights(seed, len(cohort)), ~cols.event1(s, np.array(ts))[1]))
    for grid in grids:
        _, y, surv = grid.counts(weights)
        every = [_incidence(surv[:, :-1], k(weights), y, exact).take(-1, -1) for k in grid.kind1]
        assert repr(grid.incidence(weights)[0].tolist()) == repr(np.array(every).tolist())


@settings(max_examples=80, deadline=None)
@given(case=boot_cases())
def test_weighted_risk_sets_without_cancelled_windows_equal_the_resampled_cohort(case):
    # aj's weighted risk sets leave out each window with as many grid times
    # up to its start as up to its end, which covers none; here at least the
    # late entrants' windows past every t
    cohort, query, *_, seed = case
    t = query.t
    cohort = [
        *cohort,
        IllnessDeathRecord("late", t + 1, t + 2, Cause.ABSORBED),
        IllnessDeathRecord("late-ill", t + 1, t + 2, Cause.ILL, t + 3, Cause.ABSORBED),
    ]
    cols = Columns.of(cohort)
    assume(cols.landmark(query.s).any())
    weights = _some_weights(seed, len(cohort))
    for sets in _prepare_aj(cols, query.s, [t])[3]:
        start, end = (np.searchsorted(sets.times, at, "right") for at in (sets.starts, sets.ends))
        assert (sets.who & (start == end)).any()
        for w, got in zip(weights, sets(weights)):
            copies = np.repeat(np.arange(len(cohort)), w)
            starts, ends = (_pick(at, sets.who)[copies] for at in (sets.starts, sets.ends))
            assert got.tolist() == _at_risk(starts, ends, sets.times).tolist()
