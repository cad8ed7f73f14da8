"""Nonparametric estimators of the illness transition probability.

Every estimator targets P01(s, t): the probability of occupying the illness
state at time t given occupancy of the initial state at time s, without any
Markov assumption.  Estimators accept cohorts of IllnessDeathRecord and a
TransitionQuery, and return floats by default.  With ``exact=True`` all
arithmetic runs in fractions.Fraction, which makes algebraic identities
between the different representations testable to equality rather than
tolerance.

The four registered estimators (``ESTIMATORS``: check, mm, mm-stute, aj)
are curves in t over the cohort's columns (``counting.Columns``, which
callers read once per cohort): each builds the product-limit grid once per
(cohort, s) and evaluates only the t-dependent illness indicator per t.
The scalar forms are one-point curves.
The same array code serves float and ``exact=True`` (object arrays of
Fraction); every sum and product runs left to right along the grid
(``np.cumsum``/``np.cumprod``), so floats equal a plain loop bit for bit.
Every product-limit survival and incidence, of the curves and of the
counting-process functions alike, comes from one primitive (``_survival``
and ``_incidence``); tests/loop_reference.py holds the loop forms.
With weights (a row per resample) or on a batch of cohorts (Columns with a
row per cohort) a curve gives a (len(ts), rows) array, NaN for a row that
fails, and warns of nothing; the floats are those of each row on its own.

Conventions shared by all routines: at tied times, events precede
censorings; any hazard increment with an empty risk set contributes a unit
factor; products over an empty index set are 1 and sums 0.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import partial
from itertools import compress
from typing import Callable, Iterable, Sequence

import numpy as np

from .counting import Columns, CountingProcesses, StepFunction, build_counting, to_records
from .counting import _ABSORBED, _CENSORED, _at_risk, _among, _grid, _landmark_columns
from .counting import _pick, _tally
from .errors import (
    CensoredCohort,
    DegenerateWeight,
    DelayedEntry,
    EmptyLandmark,
    EmptyRiskSet,
    RangeWarning,
    SupportWarning,
    ZeroDenominator,
)
from .records import IllnessDeathRecord, TransitionQuery

Number = float | Fraction

_FRACTION = np.frompyfunc(Fraction, 2, 1)


def _one(exact: bool) -> Number:
    return Fraction(1) if exact else 1.0


def _ratio(num, den, exact: bool):
    """num / den for integer scalars or arrays, as Fraction or float."""
    return _FRACTION(num, den) if exact else num / den


def _warn_censored_tail(events, censorings) -> None:
    """SupportWarning when the largest observed time is a censoring."""
    if len(censorings) and np.max(censorings) >= np.max(events, initial=-np.inf):
        warnings.warn(
            "largest observation is censored; the incidence limit is only "
            "partially identified",
            SupportWarning,
            stacklevel=3,
        )


def _survival(d, y, exact: bool, start: Number | None = None) -> np.ndarray:
    """Product-limit survival from start (1 by default) over a sorted grid.

    Element i is the survival just before grid time i, the last element the
    survival through the last grid time: cumprod(1 - d / max(y, 1)) along
    the last axis.  A grid time without an event, an empty risk set
    included, gets a factor of exactly 1, as a loop that skips it would.
    """
    factors = 1 - _ratio(d, np.maximum(y, 1), exact)
    first = [_one(exact) if start is None else start]
    if factors.ndim > 1:  # a row per resample
        first = np.full((*factors.shape[:-1], 1), first[0])
    return np.cumprod(np.concatenate((first, factors), axis=-1), axis=-1)


def _incidence(before: np.ndarray, dn1, y, exact: bool) -> np.ndarray:
    """Running kind-1 incidence: masses surv(T-) * dn1 / y, summed left to right.

    Element i is the incidence through grid time i.  ``np.cumsum`` adds in
    a loop's order, as every sum in this module does; ``np.sum`` adds
    pairwise and the builtin ``sum`` compensates, which changes the last bits.
    """
    return np.cumsum(before * _ratio(dn1, np.maximum(y, 1), exact), axis=-1)


def _steps(cp: CountingProcesses, jumps, values, initial: Number) -> StepFunction:
    """The step function with the values at the grid times marked by jumps."""
    times = tuple(compress(cp.times, jumps))
    return StepFunction(initial, times, tuple(values[jumps].tolist()))


def _km_steps(cp: CountingProcesses, exact: bool) -> StepFunction:
    """State-0 survival, stepping at each state-0 exit time."""
    surv = _survival(cp.dn0, cp.y0, exact)[1:]
    return _steps(cp, np.greater(cp.dn0, 0), surv, _one(exact))


def _cif_steps(cp: CountingProcesses, exact: bool) -> StepFunction:
    """Incidence of kind-1 observations, stepping at each of them."""
    before = _survival(np.add(cp.dn1, cp.dn2), cp.y, exact)[:-1]
    running = _incidence(before, cp.dn1, cp.y, exact)
    return _steps(cp, np.greater(cp.dn1, 0), running, _one(exact) * 0)


def kaplan_meier(cp: CountingProcesses, horizon: float, exact: bool = False) -> Number:
    """Product-limit probability of still occupying state 0 at `horizon`.

    The product runs over observed state-0 exit times up to and including
    the horizon.
    """
    return _km_steps(cp, exact)(horizon)


def kaplan_meier_curve(cp: CountingProcesses) -> StepFunction:
    """State-0 survival as a right-continuous step function."""
    return _km_steps(cp, False)


def cif_limit(cp: CountingProcesses, exact: bool = False) -> Number:
    """Limit of the cumulative incidence of kind-1 observations."""
    times = np.asarray(cp.times, dtype=float)
    events = np.add(cp.dn1, cp.dn2) > 0
    _warn_censored_tail(times[events], times[np.greater(cp.dnc, 0)])
    return _cif_steps(cp, exact)(math.inf)


def cif_curve(cp: CountingProcesses) -> StepFunction:
    """Partial sums of the incidence limit as a step function."""
    return _cif_steps(cp, False)


def _censoring_survival(dc, y, d, exact: bool, start: Number | None = None):
    """Censoring survival from start: just before each grid time, then after all.

    Factors 1 - dc / (y - d) use the post-event risk set, so events tied
    with a censoring take precedence; y >= d + dc on the grid, so y - d > 0
    wherever a censoring occurs.
    """
    return _survival(dc, np.subtract(y, d), exact, start)


# ---------------------------------------------------------------------------
# the array kernel behind the registered estimators


class _ProductLimit:
    """Pooled event process of a cohort on the grid of its distinct final times.

    Every subject is at risk at its own final time, so ``y >= 1`` on this
    grid; times that are only state-0 exits would add unit factors and zero
    masses, so leaving them out changes no value, not even in float.
    ``surv`` is the pooled survival just before each grid time, then
    through the last.
    With ``weights`` (subject multiplicities, a row per resample) each count
    has a row per resample; a time no resampled subject reaches adds exactly
    the unit factor and zero mass of leaving it out.  A batch of cohorts
    (Columns with a row per replication) has a grid per row (see _grid).
    """

    def __init__(self, cols: Columns, exact: bool, weights: np.ndarray | None = None):
        self.exact, self.weights = exact, weights
        self.times, self.index = _grid(cols.final)
        m = self.times.shape[-1]
        self.y = _at_risk(cols.entry, cols.final, self.times, weights)
        observed = _among(weights, cols.observed)
        self.d = _tally(_pick(self.index, cols.observed, m), m, observed)
        self.surv = _survival(self.d, self.y, exact)

    def event1_counts(self, event1: np.ndarray) -> np.ndarray:
        """Per-t kind-1 counts on the grid, from a (len(ts), n) mask."""
        m = len(self.times)
        rows, subjects = np.nonzero(event1)
        flat = rows * m + self.index[subjects]
        return np.bincount(flat, minlength=len(event1) * m).reshape(-1, m)

    def incidence(self, event1: np.ndarray) -> np.ndarray:
        """Incidence limit per t: the kind-1 masses of each row, summed (with
        weights or a batch, one t at a time, a row of resamples or cohorts each)."""
        before, m, w = self.surv[..., :-1], self.times.shape[-1], self.weights
        if w is None and self.index.ndim == 1:
            return _incidence(before, self.event1_counts(event1), self.y, self.exact)[:, -1]
        counts = (_tally(_pick(self.index, e, m), m, _among(w, e)) for e in event1)
        return np.array([_incidence(before, c, self.y, self.exact)[:, -1] for c in counts])


def _query_times(s: float, ts: Iterable[float]) -> np.ndarray:
    """ts as a float array, validated like TransitionQuery(s, t) for each t.

    A float64 array is checked in one pass (0 <= s <= min(ts) < inf makes
    s finite too); anything else, or any array that fails the check, goes
    through TransitionQuery for its exact error.  Only float64 elements pass
    TransitionQuery's type check (numpy ints, bools and narrower floats do
    not), so only float64 takes the shortcut.
    """
    if (
        type(ts) is np.ndarray
        and ts.dtype == np.float64
        and ts.ndim == 1
        and len(ts)
        and isinstance(s, (int, float))
        and np.isfinite(ts).all()
        and 0 <= s <= ts.min()
    ):
        return ts
    ts = list(ts)
    for t in ts or [s]:
        TransitionQuery(s, t)  # same validation and errors as a single query
    return np.asarray(ts, dtype=float)


def _state0_survival(cols: Columns, s: float, exact: bool, weights=None) -> Number:
    """Product-limit state-0 survival at s, the denominator of both mm forms
    (with weights or a batch, one per row, NaN where it is zero)."""
    if not len(cols.final):
        raise EmptyRiskSet("empty cohort")
    state0 = cols.state0
    exits = state0 & (cols.cause0 != _CENSORED) & (cols.exit0 <= s)
    times, index = _grid(_pick(cols.exit0, exits))
    d0 = _tally(index, times.shape[-1], _among(weights, exits))
    starts, ends = (_pick(at, state0) for at in (cols.entry, cols.exit0))
    y0 = _at_risk(starts, ends, times, _among(weights, state0))
    den = _survival(d0, y0, exact)[..., -1]
    if weights is not None or den.ndim:
        return np.where(den == 0, np.nan, den)
    if den == 0:
        raise ZeroDenominator(f"estimated state-0 survival at s={s} is zero")
    return den


def _check_curve(
    cohort: Iterable[IllnessDeathRecord],
    s: float,
    ts: Iterable[float],
    exact: bool = False,
    weights: np.ndarray | None = None,
) -> list[Number] | np.ndarray:
    ts = _query_times(s, ts)
    cols = Columns.of(cohort)
    sub = _landmark_columns(cols, s)  # a batch keeps its shape
    if weights is None and cols.final.ndim == 1:
        _warn_censored_tail(sub.final[sub.observed], sub.final[~sub.observed])
        return _ProductLimit(sub, exact).incidence(sub.event1(s, ts)).tolist()
    present = cols.landmark(s)
    if weights is not None:
        weights = present = weights[:, present]
    values = _ProductLimit(sub, exact, weights).incidence(sub.event1(s, ts))
    return np.where(present.sum(axis=-1) == 0, np.nan, values)  # empty landmark


def _pooled_incidence(cols: Columns, event1, exact: bool, weights=None) -> np.ndarray:
    """mm: the incidence limit of the full cohort's pooled event process."""
    return _ProductLimit(cols, exact, weights).incidence(event1)


def _ordered_incidence(cols: Columns, event1, exact: bool, weights=None) -> np.ndarray:
    """mm-stute: the same sum with the ordered-weights jump masses."""
    # final time, events before censorings, then id; lexsort is stable
    order = np.lexsort((cols.id_rank, ~cols.observed, cols.final))  # a batch: per row
    if weights is not None:  # a subject of weight w takes w consecutive ranks
        order = np.repeat(np.tile(order, len(weights)), weights[:, order].ravel())
        order = order.reshape(len(weights), -1)  # rows of equal total weight
    n = width = order.shape[-1]
    if cols.final.ndim > 1:  # a row per cohort: its own subjects, then padding
        n = np.count_nonzero(cols.final < np.inf, -1)[:, None]
        order = order + width * np.arange(len(order))[:, None]  # into the flat batch
    left = np.maximum(n - np.arange(width), 1)  # n - rank + 1, and 1 on padding
    masses = _survival(cols.observed.ravel()[order], left, exact)[..., :-1] * _ratio(1, left, exact)
    zero = _one(exact) * 0
    sums = [np.cumsum(np.where(e.ravel()[order], masses, zero), axis=-1)[..., -1] for e in event1]
    return np.array(sums, dtype=masses.dtype)


def _ratio_curve(
    incidence: Callable[..., np.ndarray],
    cohort: Iterable[IllnessDeathRecord],
    s: float,
    ts: Iterable[float],
    exact: bool = False,
    weights: np.ndarray | None = None,
) -> list[Number] | np.ndarray:
    """Both mm forms: full-cohort incidence per t over state-0 survival at s.

    ``incidence(columns, event1 mask, exact, weights)`` gives the numerators;
    the errors, SupportWarning and RangeWarning (ratio above 1) are shared.
    """
    ts = _query_times(s, ts)
    cols = Columns.of(cohort)
    den = _state0_survival(cols, s, exact, weights)
    out = incidence(cols, cols.event1(s, ts), exact, weights) / den
    if weights is not None or cols.final.ndim > 1:
        return out  # NaN where the denominator is
    _warn_censored_tail(cols.final[cols.observed], cols.final[~cols.observed])
    for value in out:
        if value > 1:
            message = f"ratio estimate {float(value):.6g} exceeds 1"
            warnings.warn(message, RangeWarning, stacklevel=2)
    return out.tolist()


def _aj_curve(
    cohort: Iterable[IllnessDeathRecord],
    s: float,
    ts: Iterable[float],
    exact: bool = False,
    weights: np.ndarray | None = None,
) -> list[Number] | np.ndarray:
    ts = _query_times(s, ts)
    cols = Columns.of(cohort)
    present = cols.landmark(s)
    if not present.any():
        raise EmptyLandmark(f"no subject in state 0 at s={s}")
    state0, ill = cols.state0, cols.ill
    start1 = np.maximum(cols.entry, cols.exit0)
    seen_ill = ill & (start1 < cols.final)  # joins the illness risk set
    # the transitions 0 -> 1, 0 -> 2 and 1 -> 2 inside (s, max(ts)]
    at0, at1 = ((s < at) & (at <= ts.max(initial=s)) for at in (cols.exit0, cols.final))
    movers = [(at0 & state0 & ill, cols.exit0), (at0 & (cols.cause0 == _ABSORBED), cols.exit0)]
    movers.append((at1 & seen_ill & cols.observed, cols.final))
    moves = [_pick(at, who) for who, at in movers]
    times, index = _grid(np.concatenate(moves, axis=-1))  # each time > s
    parts = np.split(index, np.cumsum([move.shape[-1] for move in moves])[:-1], axis=-1)
    d01, d02, d12 = (
        _tally(part, times.shape[-1], _among(weights, who))
        for part, (who, _) in zip(parts, movers)
    )
    y0, y1 = (
        _at_risk(_pick(start, who), _pick(end, who), times, _among(weights, who))
        for who, start, end in ((state0, cols.entry, cols.exit0), (seen_ill, start1, cols.final))
    )
    # an empty risk set carries no transition, so its hazards are 0
    h01, h02 = (_ratio(d, np.maximum(y0, 1), exact) for d in (d01, d02))
    h12 = _ratio(d12, np.maximum(y1, 1), exact)
    # state-0 occupation just before each transition time, multiplied left to
    # right, times the share of it that falls ill there
    keep0 = 1 - h01 - h02
    first = np.full((*keep0.shape[:-1], 1), _one(exact), keep0.dtype)
    inflow = np.cumprod(np.concatenate((first, keep0), axis=-1), axis=-1)[..., :-1] * h01
    # per transition time a Python number, or with weights or a batch a vector of rows
    plain = weights is None and cols.final.ndim == 1
    steps = [a.tolist() if plain else a.T for a in (1 - h12, inflow)]
    p1 = _one(exact) * 0 if plain else np.full(h01.shape[:-1], _one(exact) * 0)
    history = [p1]  # p1 after each transition time
    for keep1, enter1 in zip(*steps):
        p1 = p1 * keep1 + enter1
        history.append(p1)
    after = (times <= ts.reshape(-1, *(1,) * times.ndim)).sum(axis=-1)  # grid times up to t
    if plain:
        return [history[i] for i in after]
    values = np.array(history)[after.reshape(len(ts), -1), np.arange(len(p1))]
    if weights is not None:
        present = weights[:, present]
    return np.where(present.sum(axis=-1) == 0, np.nan, values)


# The registry the CLI, the bootstrap and the Monte-Carlo harness share.
ESTIMATORS: dict[str, Callable[..., list[Number]]] = {
    "check": _check_curve,
    "mm": partial(_ratio_curve, _pooled_incidence),
    "mm-stute": partial(_ratio_curve, _ordered_incidence),
    "aj": _aj_curve,
}


def p01_curve(
    cohort: Iterable[IllnessDeathRecord],
    s: float,
    ts: Iterable[float],
    method: str,
    exact: bool = False,
) -> list[Number]:
    """P01(s, t) for every t in ts, by one sweep of the cohort.

    ``method`` names a registered estimator: ``check`` (p01_landmark),
    ``mm`` (p01_cif_ratio), ``mm-stute`` (p01_km_integral) or ``aj``
    (p01_aalen_johansen).  The result lists one value per t, in the order
    of ts, each equal to the scalar form at TransitionQuery(s, t), with the
    same warnings and errors; every error depends on s alone.
    """
    if method not in ESTIMATORS:
        known = ", ".join(ESTIMATORS)
        raise ValueError(f"unknown method {method!r}; choose from {known}")
    return ESTIMATORS[method](cohort, s, ts, exact)


def p01_landmark(
    cohort: Sequence[IllnessDeathRecord],
    query: TransitionQuery,
    exact: bool = False,
) -> Number:
    """Landmark estimator: incidence limit on the subset in state 0 at s.

    Robust to left-truncation because conditioning on the landmark makes
    the question one about the subset's own future.  Raises EmptyLandmark
    when no subject is under observation in state 0 at s.
    """
    return p01_curve(cohort, query.s, [query.t], "check", exact)[0]


def p01_cif_ratio(
    cohort: Sequence[IllnessDeathRecord],
    query: TransitionQuery,
    exact: bool = False,
) -> Number:
    """Full-cohort estimator: incidence limit over state-0 survival at s.

    Consistent without any Markov assumption when entry is universal at the
    origin.  Warns (RangeWarning) if the ratio exceeds one, which can happen
    in small samples because numerator and denominator are estimated from
    different processes.
    """
    return p01_curve(cohort, query.s, [query.t], "mm", exact)[0]


def p01_km_integral(
    cohort: Sequence[IllnessDeathRecord],
    query: TransitionQuery,
    exact: bool = False,
) -> Number:
    """Ordered-weights form of the full-cohort ratio estimator.

    Subjects are ranked by final observed time, events before censorings at
    ties and record id as the last resort; the i-th subject carries the
    product-limit jump mass.  Algebraically identical to p01_cif_ratio under
    these tie rules, which ``exact=True`` makes checkable to equality.
    """
    return p01_curve(cohort, query.s, [query.t], "mm-stute", exact)[0]


def p01_aalen_johansen(
    cohort: Sequence[IllnessDeathRecord],
    query: TransitionQuery,
    exact: bool = False,
) -> Number:
    """Markov occupation-probability estimator of the same quantity.

    Propagates (state-0, state-1) occupation probabilities through the
    empirical transition hazards on (s, t].  Consistent when the process is
    Markov; used as a comparator because it remains computable, and biased,
    when it is not.  Handles delayed entry into either living state.  A
    subject whose illness and absorption are tied never enters the illness
    risk set and contributes no illness exit.
    """
    return p01_curve(cohort, query.s, [query.t], "aj", exact)[0]


def p01_landmark_variance(
    cohort: Sequence[IllnessDeathRecord],
    query: TransitionQuery,
    exact: bool = False,
) -> Number:
    """Plug-in variance of the landmark estimator.

    Sums squared influence of each pooled-process jump: a kind-1 jump at u
    perturbs by the mass not yet committed (one minus the remaining
    incidence), a kind-2 jump by the remaining incidence itself, both scaled
    by the survival factor through u.  The remaining incidence is built by
    one backward recursion over the grid.
    """
    sub = _landmark_columns(cohort, query.s)
    grid = _ProductLimit(sub, exact)
    dn1 = grid.event1_counts(sub.event1(query.s, np.array([query.t])))[0]
    jump1 = _ratio(dn1, grid.y, exact)
    jump2 = _ratio(grid.d - dn1, grid.y, exact)
    zero = _one(exact) * 0
    surv = grid.surv[1:]  # through each grid time
    # remaining incidence strictly after each grid time, per t by recursion
    step, factor = jump1.tolist(), (1 - _ratio(grid.d, grid.y, exact)).tolist()
    remaining = [zero] * len(step)
    acc = zero
    for i in range(len(step) - 2, -1, -1):
        acc = step[i + 1] + factor[i + 1] * acc
        remaining[i] = acc
    remaining = np.array(remaining, dtype=surv.dtype)
    tail = surv * surv * (1 - remaining) * (1 - remaining) * jump1
    committed = surv * remaining
    # per grid time, the kind-1 term before the kind-2 term
    terms = np.stack((tail, committed * committed * jump2), axis=1).ravel()
    return np.cumsum(terms).tolist()[-1]


def cif_limit_ipcw(
    cohort: Sequence[IllnessDeathRecord],
    query: TransitionQuery,
    exact: bool = False,
) -> Number:
    """Incidence limit as an inverse-censoring-weighted average.

    Requires full recruitment at the origin.  Each kind-1 observation is
    weighted by the inverse product-limit censoring survival just before its
    time; censoring hazards use the post-event risk set so tied events take
    precedence.  Identical to cif_limit on the same cohort.
    """
    cp = build_counting(cohort, query)
    if cp.y_origin != cp.size:
        raise DelayedEntry("weighted form requires every entry at the origin")
    dn1 = np.asarray(cp.dn1, dtype=np.int64)
    events = dn1 > 0
    weights = _censoring_survival(cp.dnc, cp.y, np.add(cp.dn1, cp.dn2), exact)[:-1]
    if (weights[events] == 0).any():
        raise DegenerateWeight("censoring weight vanished before the last kind-1 event")
    terms = _ratio(dn1[events], 1, exact) / weights[events]
    total = np.cumsum(np.concatenate(([_one(exact) * 0], terms))).tolist()[-1]
    return total / cp.y_origin


def tsai_crowley_weight(
    cohort: Sequence[IllnessDeathRecord],
    query: TransitionQuery,
    u: float,
    exact: bool = False,
) -> Number:
    """Two-block product estimate of remaining jointly uncensored mass at u.

    The first block accumulates state-0 censoring up to the landmark s, the
    second block censoring of the landmark subset's pooled process strictly
    inside (s, u).  Factors condition on the post-event risk set at ties.
    """
    cols = Columns.of(cohort)
    cp = build_counting(cols, query)
    k = bisect_right(cp.times, query.s)
    out = _censoring_survival(cp.dn0c[:k], cp.y0[:k], cp.dn0[:k], exact).tolist()[-1]
    if u <= query.s:
        return out
    sub = build_counting(cols, query, landmark=True)
    k = bisect_left(sub.times, u)
    d = np.add(sub.dn1[:k], sub.dn2[:k])
    return _censoring_survival(sub.dnc[:k], sub.y[:k], d, exact, out).tolist()[-1]


def risk_set_stability(
    cohort: Sequence[IllnessDeathRecord], query: TransitionQuery
) -> float:
    """Smallest pooled risk set inside (s, t], relative to the landmark size.

    A diagnostic for the landmark estimator: values near zero mean the tail
    of the window is supported by very few subjects.
    """
    cp = build_counting(cohort, query, landmark=True)
    inside = cp.y[: bisect_right(cp.times, query.t)]
    return min(inside, default=cp.y_origin) / cp.y_origin


def multinomial_uncensored(
    cohort: Sequence[IllnessDeathRecord],
    query: TransitionQuery,
    exact: bool = False,
) -> Number:
    """Crude ratio for fully observed cohorts recruited at the origin.

    The empirical share of subjects in state 0 at s whose illness onset lies
    in (s, t] with absorption after t.  Every product-limit estimator in
    this module collapses to this ratio when nothing is censored.  Raises
    DelayedEntry on a delayed entry, otherwise CensoredCohort on a censoring.
    """
    cols = Columns.of(cohort)
    if (cols.entry > 0).any():
        raise DelayedEntry("crude ratio requires every entry at the origin")
    if not cols.observed.all():
        raise CensoredCohort("crude ratio requires every absorption observed")
    den = int(np.count_nonzero(cols.exit0 > query.s))
    if not den:
        raise ZeroDenominator(f"no subject beyond s={query.s}")
    num = int(np.count_nonzero(cols.event1(query.s, np.array([query.t]))))
    return _ratio(num, den, exact)


def artificial_censoring(
    cohort: Iterable[IllnessDeathRecord], tau: float
) -> list[IllnessDeathRecord]:
    """Replace every observed time u by min(u, tau), clips becoming events.

    The point of the transform is identifiability: min(u, tau) is known to
    equal tau for every observation still alive or censored beyond tau, so
    a clipped time is an OBSERVED absorption at tau, never a censoring.  A
    stay in state 0 reaching past tau collapses to a direct absorption at
    tau.  Times at or before tau are untouched, so a cohort whose largest
    observed time is at most tau comes back unchanged.  Subjects entering
    observation at or beyond tau have no window left and are dropped.
    """
    if not (tau > 0):
        raise ValueError("tau must be positive")
    cohort = list(cohort)
    keep, clipped = Columns.of(cohort).clip(tau)
    return to_records(compress((r.id for r in cohort), keep), clipped)
