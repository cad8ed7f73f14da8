import math
import random
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from cohortgen import random_cohort, random_query
from illnessdeath import (
    Cause,
    CensoredCohort,
    DelayedEntry,
    EmptyLandmark,
    EstimationError,
    IllnessDeathRecord,
    RangeWarning,
    SupportWarning,
    TransitionQuery,
    ZeroDenominator,
    artificial_censoring,
    build_counting,
    cif_curve,
    cif_limit,
    cif_limit_ipcw,
    kaplan_meier,
    kaplan_meier_curve,
    landmark_subset,
    landmark_variance_curve,
    multinomial_uncensored,
    p01_aalen_johansen,
    p01_cif_ratio,
    p01_curve,
    p01_km_integral,
    p01_landmark,
    p01_landmark_variance,
    preset,
    risk_set_stability,
    tsai_crowley_weight,
)
from illnessdeath import simulation
from illnessdeath.counting import Columns


class TestKaplanMeier:
    def test_hand_values(self, cohort4, query):
        cp = build_counting(cohort4, query)
        assert kaplan_meier(cp, 1.5, exact=True) == F(3, 4)
        assert kaplan_meier(cp, 3, exact=True) == 0

    def test_horizon_before_first_event(self, cohort4, query):
        cp = build_counting(cohort4, query)
        assert kaplan_meier(cp, 0) == 1.0

    def test_curve_matches_pointwise(self, cohort4, query):
        cp = build_counting(cohort4, query)
        curve = kaplan_meier_curve(cp)
        for u in (0.0, 1.0, 1.5, 2.0, 2.7, 3.0, 10.0):
            assert curve(u) == pytest.approx(kaplan_meier(cp, u))


class TestCifLimit:
    def test_hand_values(self, cohort3, cohort4, query):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cif_limit(build_counting(cohort3, query), exact=True) == F(1, 3)
            assert cif_limit(build_counting(cohort4, query), exact=True) == F(3, 8)

    def test_no_event1_gives_zero(self, cohort3):
        q = TransitionQuery(10, 20)
        assert cif_limit(build_counting(cohort3, q)) == 0

    def test_support_warning_when_largest_time_censored(self, query):
        cohort = [
            IllnessDeathRecord("a", 0, 2, Cause.ILL, 3, Cause.ABSORBED),
            IllnessDeathRecord("b", 0, 5, Cause.CENSORED),
        ]
        with pytest.warns(SupportWarning):
            cif_limit(build_counting(cohort, query))

    def test_no_warning_when_largest_time_observed(self, cohort3, query):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cif_limit(build_counting(cohort3, query))

    def test_curve_is_partial_sum(self, cohort4, query):
        cp = build_counting(cohort4, query)
        curve = cif_curve(cp)
        assert curve(5.9) == pytest.approx(0.0)
        assert curve(6.0) == pytest.approx(0.375)


class TestRatioEstimator:
    def test_hand_values(self, cohort3, cohort4, query):
        assert p01_cif_ratio(cohort3, query, exact=True) == F(1, 2)
        assert p01_cif_ratio(cohort4, query, exact=True) == F(1, 2)

    def test_degenerate_window(self, cohort3):
        assert p01_cif_ratio(cohort3, TransitionQuery(1.5, 1.5)) == 0

    def test_zero_denominator(self, cohort3):
        with pytest.raises(ZeroDenominator):
            p01_cif_ratio(cohort3, TransitionQuery(7, 9))

    def test_range_warning_above_one(self):
        # early observed illness plus illness censoring: the state-0 survival
        # at s falls to 1/3 while the pooled-process incidence keeps 2/3
        cohort = [
            IllnessDeathRecord("a", 0, 0.5, Cause.ILL, 1, Cause.CENSORED),
            IllnessDeathRecord("b", 0, 2, Cause.ILL, 9, Cause.ABSORBED),
            IllnessDeathRecord("c", 0, 1, Cause.ABSORBED),
        ]
        q = TransitionQuery(1.5, 3)
        with pytest.warns(RangeWarning):
            value = p01_cif_ratio(cohort, q)
        assert value == pytest.approx(2.0)


class TestOrderedWeightsForm:
    def test_hand_values(self, cohort3, cohort4, query):
        assert p01_km_integral(cohort3, query, exact=True) == F(1, 2)
        assert p01_km_integral(cohort4, query, exact=True) == F(1, 2)

    def test_single_subject(self):
        one = [IllnessDeathRecord("a", 0, 2, Cause.ILL, 5, Cause.ABSORBED)]
        assert p01_km_integral(one, TransitionQuery(1.5, 3.5)) == 1.0


class TestIpcwForm:
    def test_hand_values(self, cohort3, cohort4, query):
        assert cif_limit_ipcw(cohort3, query, exact=True) == F(1, 3)
        assert cif_limit_ipcw(cohort4, query, exact=True) == F(3, 8)

    def test_uncensored_is_event_share(self, cohort3, query):
        assert cif_limit_ipcw(cohort3, query) == pytest.approx(1 / 3)

    def test_rejects_delayed_entry(self, query):
        cohort = [IllnessDeathRecord("a", 1, 3, Cause.ABSORBED)]
        with pytest.raises(ValueError):
            cif_limit_ipcw(cohort, query)

    def test_delayed_entry_is_an_estimation_error(self, query):
        cohort = [IllnessDeathRecord("a", 1, 3, Cause.ABSORBED)]
        with pytest.raises(DelayedEntry) as info:
            cif_limit_ipcw(cohort, query)
        assert isinstance(info.value, EstimationError)

    def test_near_degenerate_weight_keeps_identity(self):
        # a weight of zero before the last kind-1 event is structurally
        # impossible (that event's subject is still in the censoring risk
        # set), so drive the weight to its minimum instead and check the
        # product-limit identity survives the near-degenerate shrinkage
        cohort = [
            IllnessDeathRecord("a", 0, 1, Cause.ABSORBED),
            IllnessDeathRecord("b", 0, 2, Cause.CENSORED),
            IllnessDeathRecord("c", 0, 2, Cause.CENSORED),
            IllnessDeathRecord("d", 0, 3, Cause.ILL, 9, Cause.ABSORBED),
        ]
        q = TransitionQuery(2.5, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            value = cif_limit_ipcw(cohort, q, exact=True)
            direct = cif_limit(build_counting(cohort, q), exact=True)
        assert value == direct == F(3, 4)


class TestTsaiCrowleyWeight:
    def test_hand_value(self, cohort4, query):
        assert tsai_crowley_weight(cohort4, query, 6, exact=True) == F(1, 2)

    def test_uncensored_cohort_gives_one(self, cohort3, query):
        assert tsai_crowley_weight(cohort3, query, 6) == 1.0

    def test_u_at_or_below_s_is_first_block(self, cohort4, query):
        # no state-0 censorings at or before 1.5, so the first block is 1
        assert tsai_crowley_weight(cohort4, query, 1.5) == 1.0
        assert tsai_crowley_weight(cohort4, query, 1.0) == 1.0

    def test_censoring_at_u_excluded(self, cohort4, query):
        # the landmark censoring at 2.5 enters only for u > 2.5
        assert tsai_crowley_weight(cohort4, query, 2.5) == 1.0
        assert tsai_crowley_weight(cohort4, query, 2.6, exact=True) == F(1, 2)


@pytest.mark.parametrize("call", [
    lambda cohort, q: kaplan_meier(build_counting(cohort, q), math.nan),
    lambda cohort, q: tsai_crowley_weight(cohort, q, math.nan),
    lambda cohort, q: landmark_subset(cohort, math.nan),
], ids=["kaplan_meier", "tsai_crowley_weight", "landmark_subset"])
def test_nan_time_raises(call, cohort4, query):
    # bisect puts NaN past every time and every comparison with it is false,
    # so each would return a plausible value: 0.0, 1.0 and no subject
    with pytest.raises(ValueError):
        call(cohort4, query)


class TestLandmarkEstimator:
    def test_hand_values(self, cohort3, cohort4, query):
        assert p01_landmark(cohort3, query, exact=True) == F(1, 2)
        assert p01_landmark(cohort4, query, exact=True) == F(2, 3)

    def test_degenerate_window(self, cohort3):
        assert p01_landmark(cohort3, TransitionQuery(1.5, 1.5)) == 0

    def test_empty_landmark(self, cohort3):
        with pytest.raises(EmptyLandmark):
            p01_landmark(cohort3, TransitionQuery(50, 60))

    def test_truncation_ignores_late_entries(self, query):
        base = [
            IllnessDeathRecord("a", 0, 2, Cause.ABSORBED),
            IllnessDeathRecord("b", 0, 3, Cause.ILL, 6, Cause.ABSORBED),
        ]
        # entering after the landmark (or exactly at it) cannot change the
        # conditional subset; entering before it does
        late = IllnessDeathRecord("z", 2.0, 4, Cause.ABSORBED)
        assert p01_landmark(base + [late], query) == p01_landmark(base, query)
        at_landmark = IllnessDeathRecord("w", 1.5, 4, Cause.ABSORBED)
        assert p01_landmark(base + [at_landmark], query) == p01_landmark(base, query)
        early = IllnessDeathRecord("e", 1.0, 4, Cause.ABSORBED)
        assert p01_landmark(base + [early], query, exact=True) == F(1, 3)
        assert p01_landmark(base, query, exact=True) == F(1, 2)


def _landmark_size(cohort, s):
    """Subjects in state 0 at s: entry < s < exit0, or from the origin at s = 0."""
    return sum(r.entry < s < r.exit0 if s else r.entry == 0 < r.exit0 for r in cohort)


class TestLandmarkVariance:
    def test_hand_values(self, cohort3, cohort4, query):
        assert p01_landmark_variance(cohort3, query, exact=True) == F(1, 8)
        assert p01_landmark_variance(cohort4, query, exact=True) == F(2, 27)

    def test_single_subject_gives_zero(self):
        one = [IllnessDeathRecord("a", 0, 2, Cause.ILL, 5, Cause.ABSORBED)]
        assert p01_landmark_variance(one, TransitionQuery(1.5, 3.5)) == 0

    def test_no_events_after_s_gives_zero(self):
        cohort = [
            IllnessDeathRecord("a", 0, 4, Cause.CENSORED),
            IllnessDeathRecord("b", 0, 5, Cause.CENSORED),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert p01_landmark_variance(cohort, TransitionQuery(1, 2)) == 0

    def test_uncensored_is_the_binomial_variance(self):
        # with nothing censored the estimate is the share p of the m landmark
        # subjects, and the delta method gives exactly p (1 - p) / m
        checked = 0
        for seed in range(400):
            rng = random.Random(seed)
            cohort = random_cohort(rng, max_n=30, censored=False)
            q = random_query(rng)
            try:
                p = multinomial_uncensored(cohort, q, exact=True)
            except ZeroDenominator:
                continue
            m = _landmark_size(cohort, q.s)
            assert p01_landmark_variance(cohort, q, exact=True) == p * (1 - p) / m
            checked += 1
        assert checked > 300

    def test_curve_is_each_one_point_form(self):
        for seed in range(60):
            rng = random.Random(seed)
            cohort = random_cohort(rng, max_n=30, truncated=bool(seed % 2))
            q = random_query(rng)
            ts = sorted({q.t, q.t + 1.5, q.s})
            if not _landmark_size(cohort, q.s):
                continue
            for exact in (True, False):
                points = [
                    p01_landmark_variance(cohort, TransitionQuery(q.s, t), exact) for t in ts
                ]
                assert landmark_variance_curve(cohort, q.s, ts, exact) == points

    @pytest.mark.parametrize("n", [200, 2000])
    def test_calibrated_against_monte_carlo(self, n):
        # table1 law, s = 10, t = 50: over 200 seeded replications the mean
        # variance is within a factor 0.7-1.4 of the estimates' own variance
        config = preset("table1", n=n, replications=200, seed=2024).config
        reps = range(config.replications)
        _, batch = simulation._batch(reps, simulation._draws(config, reps))
        estimates = p01_curve(batch, 10.0, [50.0], "check")[0]  # a row per replication
        variances = []
        for row in zip(*batch):
            cols = Columns(*row)
            variances += landmark_variance_curve(cols.take(cols.final < np.inf), 10.0, [50.0])
        ratio = np.mean(variances) / np.var(estimates, ddof=1)
        assert 0.7 <= ratio <= 1.4, ratio


class TestDelayedEntryGuard:
    def test_both_mm_forms_reject_a_delayed_entry(self, cohort4, query):
        # the full-cohort ratio needs every subject observed from the origin
        late = IllnessDeathRecord("E", 1, 4, Cause.ABSORBED)
        for estimator in (p01_cif_ratio, p01_km_integral):
            for exact in (False, True):
                with pytest.raises(DelayedEntry) as info:
                    estimator(cohort4 + [late], query, exact=exact)
                assert isinstance(info.value, EstimationError)


class TestRiskSetStability:
    def test_full_when_no_exits_inside_window(self, cohort4):
        assert risk_set_stability(cohort4, TransitionQuery(1.5, 1.9)) == 1.0

    def test_reports_worst_fraction(self, cohort4):
        # subset of 3; by t=3 only C remains at risk
        assert risk_set_stability(cohort4, TransitionQuery(1.5, 3.5)) == pytest.approx(
            1 / 3
        )


class TestOccupationEstimator:
    def test_hand_values(self, cohort3, cohort4, query):
        assert p01_aalen_johansen(cohort3, query, exact=True) == F(1, 2)
        assert p01_aalen_johansen(cohort4, query, exact=True) == F(2, 3)

    def test_no_events_in_window(self, cohort3):
        # everyone still in state 0 at 0.5 and nothing happens before 0.9
        assert p01_aalen_johansen(cohort3, TransitionQuery(0.5, 0.9)) == 0

    def test_empty_state0_risk_set_raises(self, cohort3):
        # by 3.5 every subject has left state 0, so conditioning is ill-posed
        with pytest.raises(EmptyLandmark):
            p01_aalen_johansen(cohort3, TransitionQuery(3.5, 5))

    def test_degenerate_window(self, cohort3):
        assert p01_aalen_johansen(cohort3, TransitionQuery(1.5, 1.5)) == 0

    def test_delayed_illness_entry_joins_risk_set(self):
        cohort = [
            IllnessDeathRecord("a", 0, 2, Cause.ILL, 9, Cause.ABSORBED),
            # recruited during illness at 3, absorbed at 5
            IllnessDeathRecord("b", 3, 1, Cause.ILL, 5, Cause.ABSORBED),
            IllnessDeathRecord("c", 0, 4, Cause.ABSORBED),
        ]
        q = TransitionQuery(1.5, 6)
        value = p01_aalen_johansen(cohort, q, exact=True)
        # 0->1 at 2 (y0=2) puts mass 1/2 in illness; the 1->2 hazard at 5
        # sees both a and b at risk (1/2), leaving 1/2 * 1/2
        assert value == F(1, 4)

    def test_instantaneous_illness_death_stays_out_of_illness_risk(self):
        cohort = [
            IllnessDeathRecord("a", 0, 2, Cause.ILL, 2, Cause.ABSORBED),
            IllnessDeathRecord("b", 0, 3, Cause.ILL, 8, Cause.ABSORBED),
        ]
        q = TransitionQuery(1, 5)
        # a's tied pair contributes the 0->1 hazard but never a 1->2 exit
        assert p01_aalen_johansen(cohort, q, exact=True) == 1


class TestMultinomial:
    def test_hand_value(self, cohort3, query):
        assert multinomial_uncensored(cohort3, query, exact=True) == F(1, 2)

    def test_all_absorbed_by_s(self, cohort3):
        with pytest.raises(ZeroDenominator):
            multinomial_uncensored(cohort3, TransitionQuery(7, 9))

    def test_degenerate_window(self, cohort3):
        assert multinomial_uncensored(cohort3, TransitionQuery(1.5, 1.5)) == 0

    def test_rejects_censored_cohort(self, cohort4, query):
        with pytest.raises(ValueError):
            multinomial_uncensored(cohort4, query)

    def test_rejections_are_typed_estimation_errors(self, cohort3, cohort4, query):
        # a delayed entry is reported first, even on a censored cohort
        late = IllnessDeathRecord("E", 1, 4, Cause.ABSORBED)
        for cohort in (cohort3 + [late], cohort4 + [late]):
            with pytest.raises(DelayedEntry) as info:
                multinomial_uncensored(cohort, query)
            assert isinstance(info.value, EstimationError)
        with pytest.raises(CensoredCohort) as info:
            multinomial_uncensored(cohort4, query)
        assert isinstance(info.value, EstimationError)


class TestArtificialCensoring:
    def test_identity_when_tau_beyond_data(self, cohort4):
        assert artificial_censoring(cohort4, 6) == cohort4
        assert artificial_censoring(cohort4, 100) == cohort4

    def test_censored_in_illness_becomes_observed(self):
        r = IllnessDeathRecord("a", 0, 3, Cause.ILL, 7, Cause.CENSORED)
        (out,) = artificial_censoring([r], 5)
        assert out.exit1 == 5
        assert out.cause1 is Cause.ABSORBED
        assert out.exit0 == 3
        assert out.cause0 is Cause.ILL

    def test_state0_stay_becomes_direct_absorption(self):
        r = IllnessDeathRecord("a", 0, 6, Cause.ILL, 9, Cause.ABSORBED)
        (out,) = artificial_censoring([r], 5)
        assert out == IllnessDeathRecord("a", 0, 5, Cause.ABSORBED)

    def test_censored_before_tau_stays_censored(self):
        r = IllnessDeathRecord("a", 0, 4, Cause.CENSORED)
        (out,) = artificial_censoring([r], 5)
        assert out == r

    def test_entry_beyond_tau_dropped(self):
        r = IllnessDeathRecord("a", 5, 8, Cause.ABSORBED)
        assert artificial_censoring([r], 5) == []

    def test_rejects_nonpositive_tau(self, cohort4):
        with pytest.raises(ValueError):
            artificial_censoring(cohort4, 0)


def _warning_categories(estimator, cohort, query, exact):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            estimator(cohort, query, exact=exact)
        except EstimationError as err:
            return type(err)
    return {w.category for w in caught}


def test_mm_forms_warn_alike_on_untruncated_cohorts():
    # in exact arithmetic the two forms are equal, so they must raise the
    # same error or emit the same categories; in float a ratio within one
    # rounding of 1 may exceed it in one form only, so only support is shared
    seen = set()
    for seed in range(1500):
        rng = random.Random(seed)
        cohort = random_cohort(rng, max_n=25, censored=seed % 4 != 0)
        query = random_query(rng)
        ratio = _warning_categories(p01_cif_ratio, cohort, query, exact=True)
        stute = _warning_categories(p01_km_integral, cohort, query, exact=True)
        assert ratio == stute
        if isinstance(ratio, set):
            seen |= ratio
            ratio = _warning_categories(p01_cif_ratio, cohort, query, exact=False)
            stute = _warning_categories(p01_km_integral, cohort, query, exact=False)
            assert (SupportWarning in ratio) == (SupportWarning in stute)
    assert seen == {SupportWarning, RangeWarning}
