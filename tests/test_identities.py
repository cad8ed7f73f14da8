"""Cross-checks against the brute-force oracle and exact algebraic identities.

Every comparison here runs in rational arithmetic (``exact=True``), so any
agreement is bit-for-bit, not approximate.  The oracle shares no code with
the package; see oracle_bruteforce.py.
"""

from __future__ import annotations

import contextlib
import random
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_bruteforce as ob
from cohortgen import random_cohort, random_query, to_oracle
from illnessdeath import (
    DelayedEntry,
    EmptyLandmark,
    EmptyRiskSet,
    TransitionQuery,
    ZeroDenominator,
    artificial_censoring,
    build_counting,
    cif_curve,
    cif_limit,
    cif_limit_ipcw,
    kaplan_meier,
    multinomial_uncensored,
    p01_aalen_johansen,
    p01_cif_ratio,
    p01_km_integral,
    p01_landmark,
    p01_landmark_variance,
    tsai_crowley_weight,
)


@contextlib.contextmanager
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


def _frac_query(q: TransitionQuery) -> tuple[F, F]:
    return F(q.s).limit_denominator(4), F(q.t).limit_denominator(4)


class TestOracleAgreement:
    """Package (exact mode) versus independent Fraction reimplementation."""

    def _compare(self, cohort, q):
        mirror = to_oracle(cohort)
        lo, hi = _frac_query(q)
        with _quiet():
            cp = build_counting(cohort, q)
            assert kaplan_meier(cp, q.s, exact=True) == ob.km_state0(mirror, lo)
            assert cif_limit(cp, exact=True) == ob.cif_event1(mirror, lo, hi)

            try:
                ratio = p01_cif_ratio(cohort, q, exact=True)
            except DelayedEntry:  # the full-cohort ratio needs entry at the origin
                assert any(subject["entry"] > 0 for subject in mirror)
                with pytest.raises(DelayedEntry):
                    p01_km_integral(cohort, q, exact=True)
            except ZeroDenominator:
                assert ob.km_state0(mirror, lo) == 0
            else:
                assert ratio == ob.p01_ratio(mirror, lo, hi)
                assert p01_km_integral(cohort, q, exact=True) == ob.stute_sum(
                    mirror, lo, hi
                )

            try:
                check = p01_landmark(cohort, q, exact=True)
            except EmptyLandmark:
                assert not ob.landmark(mirror, lo)
            else:
                assert check == ob.p01_landmark(mirror, lo, hi)
                assert p01_landmark_variance(
                    cohort, q, exact=True
                ) == ob.variance_landmark(mirror, lo, hi)

            try:
                aj = p01_aalen_johansen(cohort, q, exact=True)
            except EmptyLandmark:
                assert not ob.landmark(mirror, lo)
            else:
                assert aj == ob.aalen_johansen_p01(mirror, lo, hi)

            for u in (q.s, q.s + 0.5, q.t, q.t + 1.0):
                try:
                    w = tsai_crowley_weight(cohort, q, u, exact=True)
                except EmptyRiskSet:
                    assert not ob.landmark(mirror, lo)
                else:
                    assert w == ob.tsai_crowley_weight(
                        mirror, lo, hi, F(u).limit_denominator(4)
                    )

    @pytest.mark.parametrize("seed", range(60))
    def test_untruncated(self, seed):
        rng = random.Random(seed)
        cohort = random_cohort(rng)
        q = random_query(rng)
        self._compare(cohort, q)
        mirror = to_oracle(cohort)
        lo, hi = _frac_query(q)
        # weighted-average form needs full recruitment at the origin
        with _quiet():
            assert cif_limit_ipcw(cohort, q, exact=True) == ob.ipcw_value(
                mirror, lo, hi
            )

    @pytest.mark.parametrize("seed", range(60))
    def test_truncated(self, seed):
        rng = random.Random(10_000 + seed)
        cohort = random_cohort(rng, truncated=True)
        q = random_query(rng)
        self._compare(cohort, q)


class TestProductIdentities:
    def test_censoring_product_identity(self):
        # event survival times censoring survival equals the raw fraction
        # still under observation, at every grid time (full recruitment)
        for seed in range(200):
            rng = random.Random(seed)
            cohort = random_cohort(rng, max_n=30)
            q = random_query(rng)
            cp = build_counting(cohort, q)
            n = len(cohort)
            s_event, s_cens = F(1), F(1)
            for i, u in enumerate(cp.times):
                y = cp.y[i]
                dn = cp.dn1[i] + cp.dn2[i]
                if dn:
                    s_event *= 1 - F(dn, y)
                if cp.dnc[i]:
                    s_cens *= 1 - F(cp.dnc[i], y - dn)
                alive = sum(1 for r in cohort if r.final_time > u)
                assert s_event * s_cens == F(alive, n)

    def test_ordered_weights_match_ratio(self):
        for seed in range(150):
            rng = random.Random(seed)
            cohort = random_cohort(rng, max_n=40)
            q = random_query(rng)
            with _quiet():
                try:
                    ratio = p01_cif_ratio(cohort, q, exact=True)
                except ZeroDenominator:
                    continue
                assert p01_km_integral(cohort, q, exact=True) == ratio
                approx = p01_km_integral(cohort, q)
                target = p01_cif_ratio(cohort, q)
            assert approx == pytest.approx(target, rel=1e-12, abs=1e-15)

    def test_weighted_average_matches_incidence_limit(self):
        for seed in range(150):
            rng = random.Random(seed)
            cohort = random_cohort(rng, max_n=40)
            q = random_query(rng)
            with _quiet():
                direct = cif_limit(build_counting(cohort, q), exact=True)
                assert cif_limit_ipcw(cohort, q, exact=True) == direct
                approx = cif_limit_ipcw(cohort, q)
                target = cif_limit(build_counting(cohort, q))
            assert approx == pytest.approx(target, rel=1e-12, abs=1e-15)


class TestUncensoredReduction:
    def test_all_estimators_collapse(self):
        hits = 0
        for seed in range(150):
            rng = random.Random(seed)
            cohort = random_cohort(rng, censored=False)
            q = random_query(rng)
            with _quiet():
                try:
                    crude = multinomial_uncensored(cohort, q, exact=True)
                except ZeroDenominator:
                    continue
                hits += 1
                assert p01_cif_ratio(cohort, q, exact=True) == crude
                assert p01_km_integral(cohort, q, exact=True) == crude
                assert p01_landmark(cohort, q, exact=True) == crude
        assert hits > 100  # the guard should be the exception, not the rule

    def test_censoring_weight_is_unit(self):
        for seed in range(40):
            rng = random.Random(seed)
            cohort = random_cohort(rng, censored=False)
            q = random_query(rng)
            for u in (q.s, q.t, q.t + 2.0):
                with _quiet():
                    try:
                        w = tsai_crowley_weight(cohort, q, u, exact=True)
                    except EmptyRiskSet:
                        continue
                assert w == 1


class TestStructuralProperties:
    def test_incidence_curve_monotone(self):
        for seed in range(80):
            rng = random.Random(seed)
            cohort = random_cohort(rng)
            q = random_query(rng)
            with _quiet():
                curve = cif_curve(build_counting(cohort, q))
            values = [curve.initial_value, *curve.values]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_landmark_estimate_and_variance_ranges(self):
        for seed in range(120):
            rng = random.Random(seed)
            cohort = random_cohort(rng, truncated=bool(seed % 2))
            q = random_query(rng)
            with _quiet():
                try:
                    value = p01_landmark(cohort, q, exact=True)
                    var = p01_landmark_variance(cohort, q, exact=True)
                except EmptyLandmark:
                    continue
            assert 0 <= value <= 1
            assert var >= 0

    def test_clipping_beyond_horizon_is_invisible(self):
        # with no censoring and tau beyond t, clipping rewrites late times
        # but never moves a path across the window boundary
        for seed in range(80):
            rng = random.Random(seed)
            cohort = random_cohort(rng, censored=False)
            q = random_query(rng)
            tau = q.t + 0.25
            clipped = artificial_censoring(cohort, tau)
            with _quiet():
                try:
                    before = p01_cif_ratio(cohort, q, exact=True)
                    after = p01_cif_ratio(clipped, q, exact=True)
                except ZeroDenominator:
                    continue
                assert before == after
                try:
                    lm_before = p01_landmark(cohort, q, exact=True)
                except EmptyLandmark:
                    continue
                assert p01_landmark(clipped, q, exact=True) == lm_before

    def test_clipping_is_idempotent(self):
        for seed in range(80):
            rng = random.Random(seed)
            cohort = random_cohort(rng, truncated=bool(seed % 3 == 0))
            tau = 0.5 * rng.randint(1, 20)
            once = artificial_censoring(cohort, tau)
            assert artificial_censoring(once, tau) == once


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_estimates_stay_in_unit_interval(seed):
    rng = random.Random(seed)
    cohort = random_cohort(rng, max_n=25, truncated=bool(seed % 2))
    q = random_query(rng)
    with _quiet():
        for fn in (p01_landmark, p01_aalen_johansen):
            try:
                value = fn(cohort, q, exact=True)
            except EmptyLandmark:
                continue
            assert 0 <= value <= 1


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_ordered_weights_identity_everywhere(seed):
    rng = random.Random(seed)
    cohort = random_cohort(rng, max_n=25)
    q = random_query(rng)
    with _quiet():
        try:
            ratio = p01_cif_ratio(cohort, q, exact=True)
        except ZeroDenominator:
            return
        assert p01_km_integral(cohort, q, exact=True) == ratio
