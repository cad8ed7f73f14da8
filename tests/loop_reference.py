"""Loop forms of the product-limit estimators, the reference for the array core.

These are the estimators as plain loops over one query's counting
processes (``build_counting``) or over the records, one grid time or one t
at a time: the state-0 Kaplan-Meier and the incidence step functions, the
censoring survival, the weighted incidence, the Tsai-Crowley weight, the
risk-set diagnostic and the four registered estimators with the landmark
variance.  The array code in ``illnessdeath.estimators`` sums and
multiplies in the same order, so tests/test_curve.py demands equality with
these, in float as well as in exact mode, together with the same Python
types, warnings and exception types.  Nothing here calls an estimator of
the package, except the bootstrap loop.  The record loops of the cohort
CSV reader and of artificial censoring are the reference for the column
reader and ``Columns.clip`` (tests/test_ingest.py).  The bootstrap loop at
the end builds every resample as a cohort of its own and runs the
package's unweighted curve on it, the reference for the weighted
resamples of ``illnessdeath.inference`` (tests/test_inference.py).  The
Monte-Carlo loop does the same for each replication, the reference for
the batches of replications of ``illnessdeath.simulation``
(tests/test_simulation.py).
"""

from __future__ import annotations

import csv
import math
import warnings
from bisect import bisect_left, bisect_right
from fractions import Fraction
from statistics import NormalDist

import numpy as np

from illnessdeath import (
    BiasVarianceRow,
    BiasVarianceTable,
    Cause,
    CiResult,
    DegenerateCohort,
    DegenerateWeight,
    DelayedEntry,
    EmptyLandmark,
    EstimationError,
    IllnessDeathRecord,
    MalformedRecord,
    StepFunction,
    SupportWarning,
    TooManyFailures,
    TransitionQuery,
    ZeroDenominator,
    build_counting,
    landmark_subset,
    true_p01,
    validate_record,
)
from illnessdeath import simulation
from illnessdeath._rng import philox
from illnessdeath.counting import Columns
from illnessdeath.estimators import ESTIMATORS


def _one(exact):
    return Fraction(1) if exact else 1.0


def _ratio(num, den, exact):
    return Fraction(num, den) if exact else num / den


def _warn_censored_tail(events, censorings):
    last_event = max(events) if events else None
    if censorings and (last_event is None or max(censorings) >= last_event):
        warnings.warn(
            "largest observation is censored; the incidence limit is only "
            "partially identified",
            SupportWarning,
            stacklevel=3,
        )


def km_steps(cp, exact):
    """State-0 survival; a state-0 exit time with an empty risk set is no step."""
    times, values = [], []
    out = _one(exact)
    for v, d, y in zip(cp.times, cp.dn0, cp.y0):
        if d and y:
            out *= 1 - _ratio(d, y, exact)
            times.append(v)
            values.append(out)
    return StepFunction(_one(exact), tuple(times), tuple(values))


def cif_steps(cp, exact):
    """Incidence of kind-1 observations, stepping at each of them.

    At each time, first credit the kind-1 mass weighted by the survival of
    the pooled event process strictly before that time, then absorb the
    time's events into the survival factor.
    """
    times, values = [], []
    total = _one(exact) * 0
    surv = _one(exact)
    for i, v in enumerate(cp.times):
        y = cp.y[i]
        if not y:
            continue
        if cp.dn1[i]:
            total += surv * _ratio(cp.dn1[i], y, exact)
            times.append(v)
            values.append(total)
        d = cp.dn(i)
        if d:
            surv *= 1 - _ratio(d, y, exact)
    return StepFunction(_one(exact) * 0, tuple(times), tuple(values))


def censoring_survival(dc, y, d, g, exact):
    """Censoring survival from g just before each grid time, then through the last."""
    for c, at_risk, events in zip(dc, y, d):
        yield g
        if c:
            g *= 1 - _ratio(c, at_risk - events, exact)
    yield g


def kaplan_meier(cp, horizon, exact=False):
    return km_steps(cp, exact)(horizon)


def kaplan_meier_curve(cp):
    return km_steps(cp, False)


def cif_limit(cp, exact=False):
    _warn_censored_tail(
        [v for i, v in enumerate(cp.times) if cp.dn(i)],
        [v for i, v in enumerate(cp.times) if cp.dnc[i]],
    )
    return cif_steps(cp, exact)(math.inf)


def cif_curve(cp):
    return cif_steps(cp, False)


def cif_limit_ipcw(cohort, query, exact=False):
    cp = build_counting(cohort, query)
    if cp.y_origin != cp.size:
        raise DelayedEntry("weighted form requires every entry at the origin")
    d = map(cp.dn, range(len(cp.times)))
    weights = censoring_survival(cp.dnc, cp.y, d, _one(exact), exact)
    total = _one(exact) * 0
    for dn1, g in zip(cp.dn1, weights):
        if dn1:
            if g == 0:
                raise DegenerateWeight(
                    "censoring weight vanished before the last kind-1 event"
                )
            total += _ratio(dn1, 1, exact) / g
    return total / cp.y_origin


def tsai_crowley_weight(cohort, query, u, exact=False):
    cp = build_counting(cohort, query)
    upto_s = bisect_right(cp.times, query.s)
    *_, out = censoring_survival(cp.dn0c[:upto_s], cp.y0, cp.dn0, _one(exact), exact)
    if u <= query.s:
        return out
    sub = build_counting(cohort, query, landmark=True)
    before_u = bisect_left(sub.times, u)
    d = map(sub.dn, range(before_u))
    *_, out = censoring_survival(sub.dnc[:before_u], sub.y, d, out, exact)
    return out


def risk_set_stability(cohort, query):
    cp = build_counting(cohort, query, landmark=True)
    base = cp.y_origin
    worst = 1.0
    for i, v in enumerate(cp.times):
        if v > query.t:
            break
        worst = min(worst, cp.y[i] / base)
    return worst


def query_times(s, ts):
    """A curve's t grid, checked by one TransitionQuery per t (s alone if none)."""
    ts = list(ts)
    for t in ts or [s]:
        TransitionQuery(s, t)
    return np.asarray(ts, dtype=float)


def landmark(cohort, query, exact=False):
    return cif_limit(build_counting(cohort, query, landmark=True), exact=exact)


def _state0_survival(cp, query, exact):
    den = kaplan_meier(cp, query.s, exact=exact)
    if den == 0:
        raise ZeroDenominator(f"estimated state-0 survival at s={query.s} is zero")
    return den


def cif_ratio(cohort, query, exact=False):
    cp = build_counting(cohort, query)
    den = _state0_survival(cp, query, exact)
    return cif_limit(cp, exact=exact) / den


def km_integral(cohort, query, exact=False):
    cp = build_counting(cohort, query)
    den = _state0_survival(cp, query, exact)
    order = sorted(cohort, key=lambda r: (r.final_time, not r.observed, r.id))
    n = len(order)
    num = _one(exact) * 0
    surv = _one(exact)
    for rank, r in enumerate(order, start=1):
        if not r.observed:
            continue
        mass = surv * _ratio(1, n - rank + 1, exact)
        if r.cause0 is Cause.ILL and query.s < r.exit0 <= query.t < r.final_time:
            num += mass
        surv *= 1 - _ratio(1, n - rank + 1, exact)
    return num / den


def aalen_johansen(cohort, query, exact=False):
    records = list(cohort)
    if not landmark_subset(records, query.s):
        raise EmptyLandmark(f"no subject in state 0 at s={query.s}")
    entries0, exit0s, starts1, exit1s = [], [], [], []
    d01, d02, d12 = {}, {}, {}
    for r in records:
        if not r.entered_ill:
            entries0.append(r.entry)
            exit0s.append(r.exit0)
            if r.cause0 is Cause.ILL:
                d01[r.exit0] = d01.get(r.exit0, 0) + 1
            elif r.cause0 is Cause.ABSORBED:
                d02[r.exit0] = d02.get(r.exit0, 0) + 1
        if r.cause0 is Cause.ILL:
            start = max(r.entry, r.exit0)
            if start < r.exit1:
                starts1.append(start)
                exit1s.append(r.exit1)
                if r.cause1 is Cause.ABSORBED:
                    d12[r.exit1] = d12.get(r.exit1, 0) + 1
    for times in (entries0, exit0s, starts1, exit1s):
        times.sort()
    one = _one(exact)
    p0, p1 = one, one * 0
    for v in sorted(set(d01) | set(d02) | set(d12)):
        if not query.s < v <= query.t:
            continue
        y0 = bisect_left(entries0, v) - bisect_left(exit0s, v)
        y1 = bisect_left(starts1, v) - bisect_left(exit1s, v)
        h01 = _ratio(d01.get(v, 0), y0, exact) if y0 else one * 0
        h02 = _ratio(d02.get(v, 0), y0, exact) if y0 else one * 0
        h12 = _ratio(d12.get(v, 0), y1, exact) if y1 else one * 0
        p1 = p1 * (1 - h12) + p0 * h01
        p0 = p0 * (1 - h01 - h02)
    return p1


def landmark_variance(cohort, query, exact=False):
    cp = build_counting(cohort, query, landmark=True)
    one = _one(exact)
    zero = one * 0
    m = len(cp.times)
    remaining = [zero] * m
    acc = zero
    for i in range(m - 2, -1, -1):
        j = i + 1
        y = cp.y[j]
        if y:
            acc = _ratio(cp.dn1[j], y, exact) + (1 - _ratio(cp.dn(j), y, exact)) * acc
        remaining[i] = acc
    var = zero
    surv = one
    for i in range(m):
        y = cp.y[i]
        if not y:
            continue
        surv *= 1 - _ratio(cp.dn(i), y, exact)
        if cp.dn1[i]:
            tail = 1 - remaining[i]
            var += surv * surv * tail * tail * _ratio(cp.dn1[i], y, exact)
        if cp.dn2[i]:
            committed = surv * remaining[i]
            var += committed * committed * _ratio(cp.dn2[i], y, exact)
    return var


BY_METHOD = {
    "check": landmark,
    "mm": cif_ratio,
    "mm-stute": km_integral,
    "aj": aalen_johansen,
}


# ---------------------------------------------------------------------------
# The record loops of the cohort CSV reader and of artificial censoring,
# the reference for the column reader and the column clip.


def read_cohort(source) -> list[IllnessDeathRecord]:
    """Each row of a csv.DictReader through validate_record, in turn."""
    reader = csv.DictReader(source)
    if reader.fieldnames is None:
        raise MalformedRecord("empty input: no header row")
    missing = {"id", "exit0", "cause0"} - set(reader.fieldnames)
    if missing:
        raise MalformedRecord(f"missing columns: {', '.join(sorted(missing))}")
    cohort = []
    seen: set[str] = set()
    for row in reader:
        record = validate_record(row, line=reader.line_num)
        if record.id in seen:
            raise MalformedRecord(f"line {reader.line_num}: duplicate id {record.id!r}")
        seen.add(record.id)
        cohort.append(record)
    return cohort


def artificial_censoring(cohort, tau) -> list[IllnessDeathRecord]:
    if not (tau > 0):
        raise ValueError("tau must be positive")
    out = []
    for r in cohort:
        if r.entry >= tau:
            continue
        if r.exit0 > tau:
            out.append(IllnessDeathRecord(r.id, r.entry, tau, Cause.ABSORBED))
        elif r.exit1 is not None and r.exit1 > tau:
            out.append(
                IllnessDeathRecord(r.id, r.entry, r.exit0, r.cause0, tau, Cause.ABSORBED)
            )
        else:
            out.append(r)
    return out


# ---------------------------------------------------------------------------
# The bootstrap as a loop over resampled cohorts, the reference for the
# weighted resamples.


def resample_estimates(cohort, query, estimator, n_boot, seed) -> list[float | None]:
    """Each resample's estimate on its own cohort (cols.take), None if it fails."""
    curve = ESTIMATORS[estimator]
    cols = Columns.of(cohort)
    n = len(cols.final)
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for b in range(n_boot):
            idx = philox(seed, b).integers(0, n, size=n)
            try:
                out.append(float(curve(cols.take(idx), query.s, [query.t])[0]))
            except EstimationError:
                out.append(None)
    return out


def bootstrap_ci(cohort, query, estimator="check", n_boot=1000, level=0.95, seed=0):
    """bootstrap_ci with one estimator call per resampled cohort."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        point = float(ESTIMATORS[estimator](cohort, query.s, [query.t])[0])
    raw = resample_estimates(cohort, query, estimator, n_boot, seed)
    estimates = [x for x in raw if x is not None]
    failed = n_boot - len(estimates)
    if failed > n_boot / 2:
        raise TooManyFailures(f"{failed} of {n_boot} resamples failed")
    estimates.sort()
    boot_var = float(np.asarray(estimates).var(ddof=1))
    alpha = 1 - level

    def lower_quantile(p):
        return estimates[max(1, math.ceil(len(estimates) * p)) - 1]

    def clip(lo, hi):
        return max(lo, 0.0), min(hi, 1.0)

    half = NormalDist().inv_cdf(1 - alpha / 2) * math.sqrt(boot_var)
    return CiResult(
        point=point,
        boot_variance=boot_var,
        quantile_ci=clip(lower_quantile(alpha / 2), lower_quantile(1 - alpha / 2)),
        normal_ci=clip(point - half, point + half),
        level=level,
        n_boot=n_boot,
        n_failed=failed,
    )


# ---------------------------------------------------------------------------
# The Monte-Carlo harness as a loop over replications, one cohort and one
# estimator call at a time, the reference for the batches of replications.


def mc_replication(config, rep, estimators, landmark, times):
    """Cohort size and (estimator, t) estimates of one replication, None where
    an estimator fails; a replication that retains no subject has size 0."""
    try:
        _, cols = simulation._simulate_columns(config, rep)
    except DegenerateCohort:
        return 0, [None] * (len(estimators) * len(times))
    cells = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in estimators:
            try:
                values = ESTIMATORS[name](cols, landmark, times)
            except EstimationError:
                cells.extend([None] * len(times))
            else:
                cells.extend(float(v) for v in values)
    return len(cols.final), cells


def run_monte_carlo(config, estimators, eval_times, landmark):
    """run_monte_carlo with one estimator call per replication."""
    unknown = [e for e in estimators if e not in ESTIMATORS]
    if unknown:
        raise ValueError(f"unknown estimator(s): {', '.join(unknown)}")
    times = list(eval_times)
    if any(t < landmark for t in times):
        raise ValueError("every evaluation time must be >= the landmark")
    outcomes = [
        mc_replication(config, rep, estimators, landmark, times)
        for rep in range(config.replications)
    ]
    sizes = [size for size, _ in outcomes]
    if all(size == 0 for size in sizes):
        raise DegenerateCohort("every replication retained no subjects")
    rows = []
    for e_idx, name in enumerate(estimators):
        for t_idx, t in enumerate(times):
            flat = e_idx * len(times) + t_idx
            values = [cells[flat] for _, cells in outcomes if cells[flat] is not None]
            truth = true_p01(
                TransitionQuery(landmark, t),
                config.hazard_ill,
                config.hazard_direct,
                config.progression_factor,
            )
            arr = np.asarray(values, dtype=float)
            bias = float(arr.mean()) - truth if len(arr) else math.nan
            variance = float(arr.var(ddof=1)) if len(arr) > 1 else math.nan
            excluded = config.replications - len(values)
            rows.append(BiasVarianceRow(name, landmark, t, bias, variance, len(arr), excluded))
    return BiasVarianceTable(tuple(rows), float(np.mean(sizes)), config, landmark)
