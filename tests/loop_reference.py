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
CSV reader and writer and of artificial censoring are the reference for
the column reader, ``write_columns`` and ``Columns.clip``
(tests/test_ingest.py), and the text form of its plain-block gate, the
reference for ``records._split``; the loop of records built from columns
by the record constructor, the reference for ``records.to_records``
(tests/test_records.py).  The bootstrap loop at the end builds every
resample as a cohort of its own and runs the package's unweighted curve
on it, the reference for the weighted resamples of
``illnessdeath.inference`` (tests/test_inference.py).  The Monte-Carlo
loop does the same for each replication, the reference for
the batches of replications of ``illnessdeath.simulation``
(tests/test_simulation.py); its draw loop, one array per numpy call and
per replication, stacked, the reference for the rows that
``simulation._draws`` fills; and the check of a batch's retained subjects
gathered in row-major order, the reference for ``simulation._batch``'s
error.
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
from illnessdeath._rng import streams
from illnessdeath.counting import Columns
from illnessdeath.estimators import ESTIMATORS
from illnessdeath.records import check_columns


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
    if cp.y_origin != cp.size:
        raise DelayedEntry("full-cohort ratio requires every entry at the origin")
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
        # everyone at risk leaves: state 0 is empty (1 - h01 - h02 can round off 0)
        p0 = one * 0 if y0 and d01.get(v, 0) + d02.get(v, 0) == y0 else p0 * (1 - h01 - h02)
    return p1


def landmark_variance(cohort, query, exact=False):
    cp = build_counting(cohort, query, landmark=True)
    one = _one(exact)
    zero = one * 0
    # forward: per grid time, the survival before it and the incidence through it
    surv, incidence, path = one, zero, []
    for i in range(len(cp.times)):
        y = cp.y[i]
        if not y:
            continue
        h1, h2 = _ratio(cp.dn1[i], y, exact), _ratio(cp.dn2[i], y, exact)
        keep = 1 - _ratio(cp.dn(i), y, exact)
        incidence += surv * h1
        path.append((surv, incidence, h1, h2, keep, y))
        surv *= keep
    var = zero
    for before, through, h1, h2, keep, y in path:
        after = incidence - through
        r = after / keep if after else zero
        a1, a2 = before - r, -r
        var += (a1 * a1 * h1 * (1 - h1) + a2 * a2 * h2 * (1 - h2) - 2 * a1 * a2 * h1 * h2) / y
    return var


BY_METHOD = {
    "check": landmark,
    "mm": cif_ratio,
    "mm-stute": km_integral,
    "aj": aalen_johansen,
}


# ---------------------------------------------------------------------------
# The record loops of the cohort CSV reader and writer, of artificial
# censoring and of columns made records, the reference for the column
# reader, the column writer, the column clip and records.to_records.


def read_cohort(source) -> list[IllnessDeathRecord]:
    """Each row of a csv.DictReader through validate_record, in turn; a
    csv.Error is the MalformedRecord of the line it stopped on."""
    reader = csv.DictReader(source)
    try:
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
    except csv.Error as err:
        raise MalformedRecord(f"line {reader.reader.line_num}: {err}") from None
    return cohort


def split(lines, width):
    """The plain-block gate of the column reader, on the block's text: its
    fields split at the commas when every line is one csv.reader row of
    ``width`` fields with a plain line end, None otherwise (the reference
    for records._split)."""
    n, text = len(lines), "\0,".join(lines)  # a NUL ends each line but the last
    if (
        '"' in text
        or text.count("\0") != n - 1
        or text.count("\n\0") != n - 1
        or text.count("\n") != n - 1 + lines[-1].endswith("\n")
        or "\r" in text and text.count("\r") != text.count("\r\n")
        or len(text) > (limit := csv.field_size_limit()) and max(map(len, lines)) > limit
    ):
        return None
    flat = text.split(",")
    ends = flat[width - 1 :: width]  # each line's last field, with its line end
    if len(flat) != n * width or "".join(ends).count("\0") != n - 1:
        return None
    flat[width - 1 :: width] = [x.rstrip("\r\n\0") for x in ends]
    return flat


def write_cohort(cohort, sink) -> None:
    """Each record through csv.writer, its times at 12 significant digits."""
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(("id", "entry", "exit0", "cause0", "exit1", "cause1"))
    for r in cohort:
        writer.writerow(
            [
                r.id,
                f"{r.entry:.12g}",
                f"{r.exit0:.12g}",
                int(r.cause0),
                "" if r.exit1 is None else f"{r.exit1:.12g}",
                "" if r.cause1 is None else int(r.cause1),
            ]
        )


def to_records(ids, cols) -> list[IllnessDeathRecord]:
    """Each row through the record constructor, in turn, with Python float
    times and Cause members; a subject never ill exits state 0 at its final
    time."""
    columns = (cols.entry, cols.exit0, cols.ill, cols.final, cols.observed)
    cohort = []
    for ident, entry, exit0, is_ill, end, absorbed in zip(
        ids, *(column.tolist() for column in columns)
    ):
        cause = Cause.ABSORBED if absorbed else Cause.CENSORED
        path = (exit0, Cause.ILL, end, cause) if is_ill else (end, cause)
        cohort.append(IllnessDeathRecord(ident, entry, *path))
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
    """Each resample's estimate on its own cohort (cols.take), None if it fails.
    Resample b draws from a Philox generator seeded by SeedSequence((seed, b)),
    built here directly so that the reference shares no keying code."""
    curve = ESTIMATORS[estimator]
    cols = Columns.of(cohort)
    n = len(cols.final)
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for b in range(n_boot):
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, b))))
            idx = rng.integers(0, n, size=n)
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
# The draws of a batch of replications as a loop over their streams, each
# numpy call returning an array of its own, the rows stacked at the end.


def _exponential(rng, n, rate):
    """n exponential times; at rate 0 the event never happens and nothing is drawn."""
    return rng.exponential(1 / rate, n) if rate > 0 else np.full(n, np.inf)


def _skew_normal(rng, n, cfg):
    # delta representation: |N(0,1)| tilts a second independent normal
    delta = cfg.shape / math.sqrt(1 + cfg.shape**2)
    u0 = rng.standard_normal(n)
    u1 = rng.standard_normal(n)
    return cfg.location + cfg.scale * (delta * np.abs(u0) + math.sqrt(1 - delta * delta) * u1)


def draws(config, reps):
    """Entry, onset, illness marks, absorption and censoring times of the
    replications reps, a row each: onsets, illness marks, censoring spans,
    then the two normal blocks of the entry sampler, from each stream."""
    rows = []
    for rng in streams(config.seed, reps):
        lam = config.hazard_ill + config.hazard_direct
        onset, ill = _exponential(rng, config.n, lam), rng.random(config.n) < config.hazard_ill / lam
        span = _exponential(rng, config.n, config.censor_hazard)
        if config.truncation is not None:
            entry = np.maximum(_skew_normal(rng, config.n, config.truncation), 0.0)
        else:
            entry = np.zeros(config.n)
        rows.append((entry, onset, ill, span))
    entry, onset, ill, span = (np.stack(column) for column in zip(*rows))
    absorb = np.where(ill, config.progression_factor * onset, onset)
    return entry, onset, ill, absorb, entry + span


def batch_check(reps, alive, cols):
    """Check the retained subjects of a padded batch gathered in row-major
    order, subject i of replication r named r{r}s{i}."""
    kept = np.argwhere(alive)
    retained = Columns(*(c[alive] for c in cols))
    check_columns(retained, lambda i: f"r{reps[kept[i, 0]]}s{kept[i, 1]}")


# ---------------------------------------------------------------------------
# The Monte-Carlo harness as a loop over replications, one cohort and one
# estimator call at a time, the reference for the batches of replications.


def mc_replication(config, rep, estimators, landmark, times):
    """Cohort size and (estimator, t) estimates of one replication, None where
    an estimator fails; a replication that retains no subject has size 0."""
    try:
        cols = Columns.of(simulation.simulate_cohort(config, rep))
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
