"""Brute-force reference implementations in exact rational arithmetic.

Everything in this module is written for auditability, not speed: risk sets
are recounted from scratch at every time point with a direct loop over the
cohort, and products/sums follow the defining formulas term by term.  No code
is shared with the package under test; subjects are plain dicts with Fraction
times, so any agreement with the package is evidence, not tautology.

Subject layout::

    {"entry": Fraction, "exit0": Fraction, "cause0": "ill"|"abs"|"cen",
     "exit1": Fraction|None, "cause1": "abs"|"cen"|None}

``exit0`` ends the stay in the initial state, ``exit1`` (illness subjects
only) ends the illness stay.  A subject recruited while already ill has
``entry >= exit0``; such subjects never contribute to initial-state risk
sets because their transition out of state 0 happened before observation
began.
"""

from __future__ import annotations

from fractions import Fraction


def subject(entry, exit0, cause0, exit1=None, cause1=None):
    return {
        "entry": Fraction(entry),
        "exit0": Fraction(exit0),
        "cause0": cause0,
        "exit1": None if exit1 is None else Fraction(exit1),
        "cause1": cause1,
    }


def final_time(s):
    return s["exit0"] if s["exit1"] is None else s["exit1"]


def is_observed(s):
    if s["cause0"] == "cen":
        return False
    if s["cause0"] == "abs":
        return True
    return s["cause1"] == "abs"


def entered_in_state0(s):
    return s["entry"] < s["exit0"]


# ---------------------------------------------------------------------------
# risk sets, recounted by full enumeration at every call


def y_state0(cohort, v):
    """Number at risk in the initial state just before time v."""
    return sum(
        1 for s in cohort if entered_in_state0(s) and s["entry"] < v <= s["exit0"]
    )


def d_state0_event(cohort, v):
    """Observed exits from the initial state at exactly v (any destination)."""
    return sum(
        1
        for s in cohort
        if entered_in_state0(s) and s["exit0"] == v and s["cause0"] != "cen"
    )


def d_state0_censor(cohort, v):
    return sum(
        1
        for s in cohort
        if entered_in_state0(s) and s["exit0"] == v and s["cause0"] == "cen"
    )


def y_total(cohort, v):
    """Number still under observation just before v (any living state)."""
    return sum(1 for s in cohort if s["entry"] < v <= final_time(s))


def y_ill(cohort, v):
    """Number observed in the illness state just before v."""
    count = 0
    for s in cohort:
        if s["cause0"] != "ill":
            continue
        start = max(s["entry"], s["exit0"])
        if start < v <= s["exit1"]:
            count += 1
    return count


# ---------------------------------------------------------------------------
# classification of the derived two-risk datum for a window (s, t]


def classify(s, lo, hi):
    """Return (time, kind) with kind in {"ev1", "ev2", "cen"}.

    kind "ev1" marks paths that left the initial state into illness inside
    (lo, hi] and were still alive after hi; every other fully observed path
    is "ev2".
    """
    time = final_time(s)
    if not is_observed(s):
        return time, "cen"
    if s["cause0"] == "ill" and lo < s["exit0"] <= hi < time:
        return time, "ev1"
    return time, "ev2"


def _kappa(cohort, lo, hi):
    return [classify(s, lo, hi) for s in cohort]


def _d_kind(data, v, kind):
    return sum(1 for time, k in data if time == v and k == kind)


def _d_any_event(data, v):
    return _d_kind(data, v, "ev1") + _d_kind(data, v, "ev2")


def _event_times(data):
    return sorted({time for time, k in data if k != "cen"})


# ---------------------------------------------------------------------------
# estimators, written straight from their defining formulas


def km_state0(cohort, horizon):
    """Product-limit survival of the initial state at `horizon` (inclusive)."""
    times = sorted(
        {s["exit0"] for s in cohort if entered_in_state0(s) and s["exit0"] <= horizon}
    )
    out = Fraction(1)
    for v in times:
        d = d_state0_event(cohort, v)
        y = y_state0(cohort, v)
        if d and y:
            out *= 1 - Fraction(d, y)
    return out


def cif_event1(cohort, lo, hi):
    """Limit of the cumulative incidence of "ev1" observations.

    Direct evaluation: at each event time u, the prefactor is the product of
    one-minus-hazard factors over all event times strictly before u.
    """
    data = _kappa(cohort, lo, hi)
    total = Fraction(0)
    for u in _event_times(data):
        d1 = _d_kind(data, u, "ev1")
        if not d1:
            continue
        pref = Fraction(1)
        for v in _event_times(data):
            if v >= u:
                break
            y = y_total(cohort, v)
            if y:
                pref *= 1 - Fraction(_d_any_event(data, v), y)
        total += pref * Fraction(d1, y_total(cohort, u))
    return total


def p01_ratio(cohort, lo, hi):
    return cif_event1(cohort, lo, hi) / km_state0(cohort, lo)


def landmark(cohort, lo):
    if lo == 0:
        return [s for s in cohort if s["entry"] == 0 and s["exit0"] > 0]
    return [s for s in cohort if s["entry"] < lo < s["exit0"]]


def p01_landmark(cohort, lo, hi):
    return cif_event1(landmark(cohort, lo), lo, hi)


def variance_landmark(cohort, lo, hi):
    """Delta-method variance of the landmark estimator, from exact derivatives.

    The estimate is a polynomial in the hazard increments h(u, kind) of the
    landmark subset's event times.  It is affine in each single increment,
    so its partial derivative is its value at h = 1 minus its value at h = 0
    with every other increment held.  At each u the increments are
    multinomial shares of the y(u) at risk: Var h = h (1 - h) / y and
    Cov(h1, h2) = -h1 h2 / y.
    """
    sub = landmark(cohort, lo)
    data = _kappa(sub, lo, hi)
    times = _event_times(data)
    kinds = ("ev1", "ev2")
    hazards = [
        {kind: Fraction(_d_kind(data, u, kind), y_total(sub, u)) for kind in kinds}
        for u in times
    ]

    def estimate(increments):
        total, surv = Fraction(0), Fraction(1)
        for h in increments:
            total += surv * h["ev1"]
            surv *= 1 - h["ev1"] - h["ev2"]
        return total

    def derivative(i, kind):
        values = []
        for at in (Fraction(1), Fraction(0)):
            held = [dict(h) for h in hazards]
            held[i][kind] = at
            values.append(estimate(held))
        return values[0] - values[1]

    var = Fraction(0)
    for i, u in enumerate(times):
        h = hazards[i]
        grad = {kind: derivative(i, kind) for kind in kinds}
        cov = {
            (a, b): (h[a] * (1 - h[a]) if a == b else -h[a] * h[b]) / y_total(sub, u)
            for a in kinds
            for b in kinds
        }
        var += sum(grad[a] * grad[b] * cov[a, b] for a in kinds for b in kinds)
    return var


def censoring_survival(cohort, data, u):
    """Product-limit of the censoring distribution, strictly before u.

    Censoring hazards use the post-event risk set Y - dN so that tied events
    take precedence over censorings.
    """
    cens_times = sorted({time for time, k in data if k == "cen"})
    out = Fraction(1)
    for v in cens_times:
        if v >= u:
            break
        y = y_total(cohort, v) - _d_any_event(data, v)
        dc = _d_kind(data, v, "cen")
        if dc and y:
            out *= 1 - Fraction(dc, y)
        elif dc and not y:
            out *= 0
    return out


def ipcw_value(cohort, lo, hi):
    """Inverse-censoring-weighted average of "ev1" indicators."""
    data = _kappa(cohort, lo, hi)
    n0 = sum(1 for s in cohort if s["entry"] == 0)
    total = Fraction(0)
    for u in _event_times(data):
        d1 = _d_kind(data, u, "ev1")
        if d1:
            total += Fraction(d1, 1) / censoring_survival(cohort, data, u)
    return total / n0


def stute_sum(cohort, lo, hi):
    """Ordered-weights form of the ratio estimator.

    Subjects are ranked by final observed time with events preceding
    censorings at ties; the i-th observed subject carries the usual
    product-limit jump mass.
    """
    order = sorted(
        range(len(cohort)),
        key=lambda i: (final_time(cohort[i]), 0 if is_observed(cohort[i]) else 1, i),
    )
    n = len(cohort)
    num = Fraction(0)
    surv = Fraction(1)
    for rank, i in enumerate(order, start=1):
        s = cohort[i]
        if is_observed(s):
            mass = surv * Fraction(1, n - rank + 1)
            if s["cause0"] == "ill" and lo < s["exit0"] <= hi < final_time(s):
                num += mass
            surv *= 1 - Fraction(1, n - rank + 1)
    return num / km_state0(cohort, lo)


def tsai_crowley_weight(cohort, lo, hi, u):
    """Two-block product estimate of the joint uncensored probability at u."""
    block1 = Fraction(1)
    cens0 = sorted(
        {
            s["exit0"]
            for s in cohort
            if entered_in_state0(s) and s["cause0"] == "cen" and s["exit0"] <= lo
        }
    )
    for v in cens0:
        dc = d_state0_censor(cohort, v)
        y = y_state0(cohort, v) - d_state0_event(cohort, v)
        if dc and y:
            block1 *= 1 - Fraction(dc, y)
        elif dc:
            block1 *= 0
    if u <= lo:
        return block1
    sub = landmark(cohort, lo)
    data = _kappa(sub, lo, hi)
    block2 = Fraction(1)
    for v in sorted({time for time, k in data if k == "cen"}):
        if not lo < v < u:
            continue
        dc = _d_kind(data, v, "cen")
        y = y_total(sub, v) - _d_any_event(data, v)
        if dc and y:
            block2 *= 1 - Fraction(dc, y)
        elif dc:
            block2 *= 0
    return block1 * block2


def aalen_johansen_p01(cohort, lo, hi):
    """Markov occupation-probability estimate, state 0 at lo to state 1 at hi.

    Transition hazards are recomputed at every distinct observed transition
    time; delayed entry into either living state is honoured by the risk-set
    counts.  Instantaneous illness-to-absorption paths never enter the
    illness risk set and contribute no illness exit.
    """
    times = set()
    for s in cohort:
        if entered_in_state0(s) and s["cause0"] != "cen":
            times.add(s["exit0"])
        if s["cause0"] == "ill" and s["cause1"] == "abs":
            start = max(s["entry"], s["exit0"])
            if start < s["exit1"]:
                times.add(s["exit1"])
    p0, p1 = Fraction(1), Fraction(0)
    for v in sorted(times):
        if not lo < v <= hi:
            continue
        y0 = y_state0(cohort, v)
        y1 = y_ill(cohort, v)
        d01 = sum(
            1
            for s in cohort
            if entered_in_state0(s) and s["cause0"] == "ill" and s["exit0"] == v
        )
        d02 = sum(
            1
            for s in cohort
            if entered_in_state0(s) and s["cause0"] == "abs" and s["exit0"] == v
        )
        d12 = 0
        for s in cohort:
            if s["cause0"] == "ill" and s["cause1"] == "abs" and s["exit1"] == v:
                if max(s["entry"], s["exit0"]) < v:
                    d12 += 1
        h01 = Fraction(d01, y0) if y0 else Fraction(0)
        h02 = Fraction(d02, y0) if y0 else Fraction(0)
        h12 = Fraction(d12, y1) if y1 else Fraction(0)
        p1 = p1 * (1 - h12) + p0 * h01
        p0 = p0 * (1 - h01 - h02)
    return p1


def multinomial_p01(cohort, lo, hi):
    """Crude ratio for fully observed, fully recruited cohorts."""
    denom = sum(1 for s in cohort if s["exit0"] > lo)
    num = 0
    for s in cohort:
        if s["cause0"] == "ill" and lo < s["exit0"] <= hi < s["exit1"]:
            num += 1
    return Fraction(num, denom)
