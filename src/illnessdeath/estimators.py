"""Nonparametric estimators of the illness transition probability.

Every estimator targets P01(s, t): the probability of occupying the illness
state at time t given occupancy of the initial state at time s, without any
Markov assumption.  Estimators accept cohorts of IllnessDeathRecord and a
TransitionQuery, and return floats by default.  With ``exact=True`` all
arithmetic runs in fractions.Fraction, which makes algebraic identities
between the different representations testable to equality rather than
tolerance.

The four registered estimators (``ESTIMATORS``: check, mm, mm-stute, aj)
are curves in t over the cohort's columns (``records.Columns``) in two
steps.  ``prepare(cohort, s, ts, exact=False)`` does the work of the cohort
alone, once: its grids, each subject's grid index, its masks and ranks; it
raises every EstimationError of the cohort.  ``evaluate(prepared,
weights=None)`` does the counts, risk sets and running products and sums,
and never raises; weighted evaluation goes only through it.  With weights
(integer subject multiplicities, a row per resample, on a cohort that
prepared; float weights are truncated or rejected, never weighed) or on a
batch of cohorts (Columns with a row per cohort) it gives a
(len(ts), rows) array, NaN for a row that fails, and warns of nothing; the
floats are those of each row on its own.  The scalar forms are one-point
curves.  Float and ``exact=True`` (object arrays of Fraction) share the
array code; every sum and product runs left to right
(``np.cumsum``/``np.cumprod``), so floats equal a plain loop bit for bit.
Every product-limit survival comes from ``_survival`` and every incidence
from ``_incidence`` or, at the kind-1 times alone, ``_ProductLimit``;
tests/loop_reference.py holds the loop forms.

Conventions shared by all routines: at tied times, events precede
censorings; any hazard increment with an empty risk set contributes a unit
factor; products over an empty index set are 1 and sums 0.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import compress, islice
from typing import Callable, Iterable, Sequence

import numpy as np

from .counting import CountingProcesses, StepFunction, build_counting
from .counting import _RiskSets, _Tally, _grid, _pick
from .errors import (
    CensoredCohort,
    DegenerateWeight,
    DelayedEntry,
    EmptyLandmark,
    EmptyRiskSet,
    EstimationError,
    RangeWarning,
    SupportWarning,
    ZeroDenominator,
)
from .records import _ABSORBED, _CENSORED, Columns, IllnessDeathRecord, TransitionQuery, to_records

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
    first = np.full((*factors.shape[:-1], 1), _one(exact) if start is None else start)
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
# the array kernel behind the registered estimators: each is prepared once per
# (cohort, s, ts) and evaluated per set of weights


class _ProductLimit:
    """Product-limit process of the subjects in keep on the grid of their
    distinct times, with events where the events mask holds and the kind-1
    counts of each t of a (len(ts), n) event1 mask.

    Precondition: every kept subject enters before the first grid time (a
    landmark before s, mm at 0), so y(v) = #(time >= v): the events plus the
    rest, each kept subject tallied once at its own grid index, summed from
    the right, exact in integers, on a batch's grid per row (see _grid) at
    the first place of a time, the one with its events.  A time no kept (or
    weighted) subject has adds a factor of exactly 1 and a zero mass; a t's
    incidence sums its kind-1 times alone (keys), as any other adds
    before * 0 / y = +0.0 to a sum >= +0.0.
    """

    def __init__(self, time: np.ndarray, keep, events, event1, exact: bool):
        times, index = _grid(_pick(time, keep))
        m = times.shape[-1]
        self.events, self.rest = _Tally(index, m, events), _Tally(index, m, ~events)
        self.kind1 = [_Tally(index, m, e) for e in event1]
        self.exact, self.index, self.event1 = exact, index, event1

    def counts(self, weights=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Events d, risk sets y, and the survival before each time, then after."""
        d = self.events(weights)
        y = np.cumsum((d + self.rest(weights))[..., ::-1], axis=-1)[..., ::-1]
        return d, y, _survival(d, y, self.exact)

    @cached_property
    def keys(self) -> tuple:
        """The kind-1 tally of every t (see _Tally.kept), its distinct keys and
        their counts, each key's (t, row) cell and its place in it, from 1,
        and, for weights, each kind-1 subject tallied at its key."""
        kind1 = _Tally(self.index, self.events.m, self.event1)
        keys, inverse, c = np.unique(kind1.kept[1], return_inverse=True, return_counts=True)
        cell = keys // kind1.m  # t * rows + row
        place = np.arange(1, len(keys) + 1) - np.searchsorted(cell, cell)
        return kind1, keys, c, cell, place, _Tally(inverse, len(keys))

    def incidence(self, weights=None) -> tuple[np.ndarray, np.ndarray]:
        """Incidence limit per t (a row per cohort or resample) and y: masses
        before * c / max(y, 1) at the keys, each cell summed left to right."""
        _, y, surv = self.counts(weights)
        kind1, keys, c, cell, place, weighed = self.keys
        if weights is None:
            before, at = surv[..., :-1].ravel(), y.ravel()
        else:  # c with a column per resample
            c = weighed(weights.take(kind1.kept[0], 1, mode="wrap")).T
            before, at = surv[:, :-1].T, y.T
        jumps = _ratio(c, np.maximum(at.take(keys, 0, mode="wrap"), 1), self.exact)
        masses = before.take(keys, 0, mode="wrap") * jumps  # a key wraps onto its row's grid
        cells, width, columns = self.event1.shape[:-1], place.max(initial=0) + 1, c.shape[1:]
        padded = np.full((math.prod(cells), width, *columns), _one(self.exact) * 0, masses.dtype)
        padded[cell, place] = masses
        return np.cumsum(padded, axis=1)[:, -1].reshape(*cells, *columns), y


def _query_times(s: float, ts: Iterable[float]) -> np.ndarray:
    """ts as a float array, each t checked by TransitionQuery(s, t) (s alone
    if there is no t), with its errors."""
    ts = list(ts)
    for t in ts or [s]:
        TransitionQuery(s, t)
    return np.asarray(ts, dtype=float)


def _prepare_check(cohort, s: float, ts, exact: bool = False):
    """The landmark subset's grid, and its final times and observed flags."""
    ts = _query_times(s, ts)
    cols = Columns.of(cohort)
    present = cols.landmark(s)
    if cols.final.ndim == 1 and not present.any():
        raise EmptyLandmark(f"no subject in state 0 at landmark s={s}")
    grid = _ProductLimit(cols.final, present, cols.observed, cols.event1(s, ts), exact)
    return grid, cols.final[present], cols.observed[present]


def _check(p, weights=None) -> list[Number] | np.ndarray:
    grid, final, observed = p
    values, y = grid.incidence(weights)
    if y.ndim > 1:  # under weights or on a batch
        return np.where(y[..., 0] == 0, np.nan, values)  # an empty landmark
    _warn_censored_tail(final[observed], final[~observed])
    return values.tolist()


class _FullCohort:
    """Both mm forms: the state-0 grid of their denominator, and when first
    asked for the pooled grid (mm) or the ordered ranks (mm-stute).  The last
    weights' denominator is kept for the other form.  Both identify P01 only
    when every subject is observed from the origin, so a delayed entry raises
    DelayedEntry before anything else (a NaN row in a batch).  Exits after
    s sit just past s, with no event: a factor of 1, and y up to s unchanged."""

    def __init__(self, cohort, s: float, ts, exact: bool = False):
        ts = _query_times(s, ts)
        cols = self.cols = Columns.of(cohort)
        self.exact = exact
        self.delayed = (cols.entry > 0) & (cols.entry < np.inf)  # padding enters at inf
        plain = cols.final.ndim == 1
        if plain and self.delayed.any():
            raise DelayedEntry("full-cohort ratio requires every entry at the origin")
        if not len(cols.final):
            raise EmptyRiskSet("empty cohort")
        self.event1 = cols.event1(s, ts)
        state0, stop = cols.state0, np.minimum(cols.exit0, np.nextafter(s, np.inf))
        exits = state0 & (cols.cause0 != _CENSORED) & (cols.exit0 <= s)
        self.state0 = _ProductLimit(stop, state0, exits, [], exact)
        self._last: tuple = (self, None)  # (weights, denominator); self is never weights
        if plain and self.denominator() == 0:
            raise ZeroDenominator(f"estimated state-0 survival at s={s} is zero")

    def denominator(self, weights=None):
        """Product-limit state-0 survival at s (one per row)."""
        if self._last[0] is not weights:
            self._last = weights, self.state0.counts(weights)[2][..., -1]
        return self._last[1]

    @cached_property
    def pooled(self) -> _ProductLimit:
        return _ProductLimit(self.cols.final, True, self.cols.observed, self.event1, self.exact)

    @cached_property
    def order(self) -> np.ndarray:
        # final time, events before censorings, then id; lexsort is stable
        cols = self.cols
        return np.lexsort((cols.id_rank, ~cols.observed, cols.final))  # a batch: per row


def _ratio_of(p: _FullCohort, incidence: np.ndarray, weights) -> list[Number] | np.ndarray:
    """Full-cohort incidence per t over state-0 survival at s (NaN where it
    is zero), with the SupportWarning and RangeWarning (ratio above 1)."""
    den, cols = p.denominator(weights), p.cols
    if weights is not None or cols.final.ndim > 1:
        out = incidence / np.where(den == 0, np.nan, den)
        return np.where(p.delayed.any(-1), np.nan, out)  # a batch row with a delayed entry
    out = incidence / den
    _warn_censored_tail(cols.final[cols.observed], cols.final[~cols.observed])
    for value in out:
        if value > 1:
            message = f"ratio estimate {float(value):.6g} exceeds 1"
            warnings.warn(message, RangeWarning, stacklevel=2)
    return out.tolist()


def _pooled_ratio(p: _FullCohort, weights=None) -> list[Number] | np.ndarray:
    """mm: the incidence limit of the full cohort's pooled event process."""
    return _ratio_of(p, p.pooled.incidence(weights)[0], weights)


def _ordered_ratio(p: _FullCohort, weights=None) -> list[Number] | np.ndarray:
    """mm-stute: the same sum with the ordered-weights jump masses."""
    cols, order, exact = p.cols, p.order, p.exact
    if weights is not None:  # a subject of weight w takes w consecutive ranks
        order = np.repeat(np.tile(order, len(weights)), weights.take(order, 1).ravel())
        order = order.reshape(len(weights), -1)  # rows of equal total weight
    n = width = order.shape[-1]
    if cols.final.ndim > 1:  # a row per cohort: its own subjects, then padding
        n = np.count_nonzero(cols.final < np.inf, -1)[:, None]
        order = order + width * np.arange(len(order))[:, None]  # into the flat batch
    left = np.maximum(n - np.arange(width), 1)  # n - rank + 1, and 1 on padding
    masses = _survival(cols.observed.ravel()[order], left, exact)[..., :-1] * _ratio(1, left, exact)
    zero = _one(exact) * 0
    sums = [np.cumsum(np.where(e.ravel()[order], masses, zero), axis=-1)[..., -1] for e in p.event1]
    return _ratio_of(p, np.array(sums, masses.dtype).reshape(len(sums), *order.shape[:-1]), weights)


def _prepare_aj(cohort, s: float, ts, exact: bool = False):
    """The landmark, the counts of each kind of move and the two risk sets on
    the grid of the transition times in (s, max(ts)], and the numbers of grid
    times up to some t (reads) with each t's place in them."""
    ts = _query_times(s, ts)
    cols = Columns.of(cohort)
    present = cols.landmark(s)
    if not present.any():
        raise EmptyLandmark(f"no subject in state 0 at s={s}")
    state0, ill = cols.state0, cols.ill
    start1 = np.maximum(cols.entry, cols.exit0)
    seen_ill = ill & (start1 < cols.final)  # joins the illness risk set
    # the transitions 0 -> 1, 0 -> 2 and 1 -> 2 inside (s, max(ts)]; both
    # moves out of state 0 leave at exit0, told apart by cause0
    at0, at1 = ((s < at) & (at <= ts.max(initial=s)) for at in (cols.exit0, cols.final))
    to1, to2 = state0 & ill, cols.cause0 == _ABSORBED
    movers = [(at0 & (to1 | to2), cols.exit0), (at1 & seen_ill & cols.observed, cols.final)]
    times, index = _grid(np.concatenate([_pick(at, who) for who, at in movers], axis=-1))
    leave0, leave1 = np.split(index, 2, axis=-1)
    m = times.shape[-1]
    moves = [_Tally(leave0, m, to1), _Tally(leave0, m, to2), _Tally(leave1, m)]
    risk = [
        _RiskSets(times, who, start, end)
        for who, start, end in ((state0, cols.entry, cols.exit0), (seen_ill, start1, cols.final))
    ]
    after = (times <= ts[:, None, None]).sum(axis=-1)  # grid times up to t, (len(ts), 1 or rows)
    reads = sorted({0, *after.ravel().tolist()})  # the step counts some t reads, and 0
    return present, exact, moves, risk, reads, np.searchsorted(reads, after)


def _aj(p, weights=None) -> list[Number] | np.ndarray:
    present, exact, moves, risk, reads, place = p
    d01, d02, d12 = (move(weights) for move in moves)
    y0, y1 = (sizes(weights) for sizes in risk)
    # an empty risk set carries no transition, so its hazards are 0
    h01, h02 = (_ratio(d, np.maximum(y0, 1), exact) for d in (d01, d02))
    h12 = _ratio(d12, np.maximum(y1, 1), exact)
    # state-0 occupation just before each transition time, multiplied left to
    # right, times the share of it that falls ill there.  keep0 is 0 where all
    # at risk leave (1 - h01 - h02 can round below it), else >= 1/y0 less a
    # few ulps (integer d01 + d02 <= y0 - 1): nothing is below +0.0, so a step
    # with no 0 -> 1 or 1 -> 2 move (stay 1.0, enter +0.0) leaves p1 bit for
    # bit; under weights, which leave many such steps, only the others run
    zero = _one(exact) * 0
    keep0 = np.where((d01 + d02 == y0) & (y0 > 0), zero, 1 - h01 - h02)
    first = np.full((*keep0.shape[:-1], 1), _one(exact), keep0.dtype)
    inflow = np.cumprod(np.concatenate((first, keep0), axis=-1), axis=-1)[..., :-1] * h01
    keep1, enter1 = np.atleast_2d(1 - h12, inflow)
    if weights is not None:
        run = np.flatnonzero(((d01 > 0) | (d12 > 0)).any(0))
        keep1, enter1, reads = keep1.take(run, -1), enter1.take(run, -1), np.searchsorted(run, reads)
    # per transition time one number for one row (a vector of one costs more
    # per step), or a vector of rows (resamples or cohorts)
    if len(keep1) == 1:
        steps, p1 = zip(keep1[0].tolist(), enter1[0].tolist()), zero
    else:
        steps, p1 = zip(keep1.T, enter1.T), np.full(len(keep1), zero)
    kept = []  # p1 after each step count in reads
    for skip in np.diff(reads, prepend=0).tolist():
        for stay, enter in islice(steps, skip):
            p1 = p1 * stay + enter
        kept.append(p1)
    values = np.take_along_axis(np.array(kept).reshape(len(kept), -1), place, 0)
    if weights is None and present.ndim == 1:
        return values[:, 0].tolist()
    held = present if weights is None else weights[:, present]  # the landmark's weight
    return np.where(held.sum(-1) == 0, np.nan, values)


class Estimator:
    """A registered estimator: ``prepare`` and ``evaluate`` (see the module
    docstring); called, it is ``evaluate(prepare(...))``."""

    def __init__(self, prepare: Callable, evaluate: Callable):
        self.prepare, self.evaluate = prepare, evaluate

    def __call__(self, cohort, s: float, ts, exact: bool = False):
        return self.evaluate(self.prepare(cohort, s, ts, exact))


# The registry the CLI, the bootstrap and the Monte-Carlo harness share.
ESTIMATORS: dict[str, Estimator] = {
    "check": Estimator(_prepare_check, _check),
    "mm": Estimator(_FullCohort, _pooled_ratio),
    "mm-stute": Estimator(_FullCohort, _ordered_ratio),
    "aj": Estimator(_prepare_aj, _aj),
}


def prepare_methods(cols: Columns, s: float, ts, methods):
    """Yield each method and its prepared cohort, or the EstimationError its
    preparation raised.  Each prepare step runs once, when first needed (the
    two mm forms share one), and is let go after its last method."""
    steps = [ESTIMATORS[method].prepare for method in methods]
    done: dict = {}
    for i, (method, step) in enumerate(zip(methods, steps)):
        if step not in done:
            try:
                done[step] = step(cols, s, ts)
            except EstimationError as err:
                done[step] = err
        yield method, done[step] if step in steps[i + 1 :] else done.pop(step)


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
    origin; raises DelayedEntry on any entry above 0.  Warns (RangeWarning)
    if the ratio exceeds one, which can happen in small samples because
    numerator and denominator are estimated from different processes.
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


def landmark_variance_curve(
    cohort: Iterable[IllnessDeathRecord],
    s: float,
    ts: Iterable[float],
    exact: bool = False,
) -> list[Number]:
    """Delta-method variance of the landmark estimator for every t in ts, by
    one sweep of the landmark subset's product-limit grid (see
    p01_landmark_variance)."""
    return _landmark_variance(_prepare_check(cohort, s, ts, exact))


def _landmark_variance(p) -> list[Number]:
    """landmark_variance_curve on check's prepared grid."""
    grid, exact = p[0], p[0].exact
    d, y, surv = grid.counts()
    before, keep = surv[:-1], 1 - _ratio(d, y, exact)
    out = []
    for dn1 in (kind1() for kind1 in grid.kind1):  # a t at a time: O(m) memory
        h1, h2 = _ratio(dn1, y, exact), _ratio(d - dn1, y, exact)
        incidence = _incidence(before, dn1, y, exact)
        after = incidence[-1] - incidence  # F(inf) - F(u)
        r = after / np.where(after == 0, 1, keep)  # 0 past a y = d time
        a1 = before - r  # and a2 = -r
        terms = (a1 * a1 * h1 * (1 - h1) + r * r * h2 * (1 - h2) + 2 * a1 * r * h1 * h2) / y
        out += np.cumsum(terms)[-1:].tolist()
    return out


def p01_landmark_variance(
    cohort: Sequence[IllnessDeathRecord],
    query: TransitionQuery,
    exact: bool = False,
) -> Number:
    """Delta-method variance of the landmark estimator.

    At each grid time u of the landmark subset, with y at risk, the hazard
    increments h1 = dn1 / y (kind 1) and h2 = dn2 / y (kind 2) are
    multinomial, and the incidence limit F is affine in each, with
    derivatives a1 = S(u-) - r(u) and a2 = -r(u), where
    r(u) = (F(inf) - F(u)) / (1 - h1 - h2) (0 where nothing is left):

        Var = sum_u [a1^2 h1 (1 - h1) + a2^2 h2 (1 - h2) - 2 a1 a2 h1 h2] / y,

    exactly p (1 - p) / m on an uncensored landmark of m subjects.
    """
    return landmark_variance_curve(cohort, query.s, [query.t], exact)[0]


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
    if math.isnan(u):
        raise ValueError("u must not be NaN")
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
    den = int(np.count_nonzero(cols.landmark(query.s)))
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
