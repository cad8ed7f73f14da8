"""Frozen hand-worked values for the brute-force oracle.

Every expected value below was derived on paper from the defining formulas
before any estimator code existed.  If one of these fails, the oracle itself
is wrong and nothing else in the suite can be trusted.
"""

from fractions import Fraction as F

import oracle_bruteforce as ob

# Three fully observed subjects, no censoring, no delayed entry:
#   A falls ill at 1 and dies at 3
#   B dies directly at 2
#   C falls ill at 3 and dies at 6
COHORT3 = [
    ob.subject(0, 1, "ill", 3, "abs"),
    ob.subject(0, 2, "abs"),
    ob.subject(0, 3, "ill", 6, "abs"),
]

# Same cohort plus D, censored in the initial state at 2.5.
COHORT4 = COHORT3 + [ob.subject(0, F(5, 2), "cen")]

LO, HI = F(3, 2), F(7, 2)


def test_risk_set_counts():
    assert ob.y_state0(COHORT4, 2) == 3
    assert ob.y_total(COHORT4, 2) == 4
    assert ob.y_total(COHORT4, F(5, 2)) == 3
    assert ob.y_ill(COHORT4, 2) == 1


def test_classification():
    kinds = [ob.classify(s, LO, HI)[1] for s in COHORT4]
    assert kinds == ["ev2", "ev2", "ev1", "cen"]
    times = [ob.classify(s, LO, HI)[0] for s in COHORT4]
    assert times == [3, 2, 6, F(5, 2)]


def test_km_state0():
    assert ob.km_state0(COHORT3, LO) == F(2, 3)
    assert ob.km_state0(COHORT4, LO) == F(3, 4)
    assert ob.km_state0(COHORT4, 3) == 0


def test_cif_event1():
    assert ob.cif_event1(COHORT3, LO, HI) == F(1, 3)
    assert ob.cif_event1(COHORT4, LO, HI) == F(3, 8)


def test_ratio_estimator():
    assert ob.p01_ratio(COHORT3, LO, HI) == F(1, 2)
    assert ob.p01_ratio(COHORT4, LO, HI) == F(1, 2)


def test_landmark_estimator():
    assert len(ob.landmark(COHORT4, LO)) == 3
    assert ob.p01_landmark(COHORT3, LO, HI) == F(1, 2)
    assert ob.p01_landmark(COHORT4, LO, HI) == F(2, 3)


def test_landmark_variance():
    assert ob.variance_landmark(COHORT3, LO, HI) == F(1, 8)
    assert ob.variance_landmark(COHORT4, LO, HI) == F(2, 27)


def test_ordered_weights_form_matches_ratio():
    assert ob.stute_sum(COHORT3, LO, HI) == F(1, 2)
    assert ob.stute_sum(COHORT4, LO, HI) == F(1, 2)


def test_ordered_weights_single_subject():
    one = [ob.subject(0, 2, "ill", 5, "abs")]
    assert ob.stute_sum(one, LO, HI) == 1


def test_ipcw_matches_cif():
    assert ob.ipcw_value(COHORT3, LO, HI) == F(1, 3)
    assert ob.ipcw_value(COHORT4, LO, HI) == F(3, 8)


def test_uncensored_weight():
    assert ob.tsai_crowley_weight(COHORT4, LO, HI, 6) == F(1, 2)
    assert ob.tsai_crowley_weight(COHORT3, LO, HI, 6) == 1


def test_occupation_probability():
    assert ob.aalen_johansen_p01(COHORT3, LO, HI) == F(1, 2)
    assert ob.aalen_johansen_p01(COHORT4, LO, HI) == F(2, 3)


def test_multinomial():
    assert ob.multinomial_p01(COHORT3, LO, HI) == F(1, 2)
