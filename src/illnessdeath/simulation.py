"""Cohort generators and the Monte-Carlo bias/variance harness.

The synthetic law is deliberately non-Markov: illness onset is exponential,
a fixed fraction of subjects pass through the illness state, and their total
lifetime is a deterministic multiple of the onset time, so the past (the
onset time) carries information about the future.  Occupation probabilities
under this law have a closed form, which the harness uses as the truth when
tabulating bias.

Reproducibility contract: replication r of a run with seed q draws from
``numpy.random.Philox`` keyed by ``SeedSequence((q, r))``, the keys of a
batch hashed in one pass (_rng), and within a replication the draw order is
onset times, illness marks, censoring spans, then the two normal blocks of
the entry sampler.  Results therefore depend only on (seed, r), never on how
replications are batched or scheduled across workers.  Each stream fills its
own row of a batch's standard draws in that order; the scaling, marks and
entry arithmetic then run once per batch, element for element the floats of
one draw call per replication.  The batch is classified, checked and
estimated at once, a row per replication.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import itertools
import math
import os
from dataclasses import dataclass, replace
from typing import IO, Sequence

import numpy as np

from ._rng import streams
from .errors import DegenerateCohort, EstimationError
from .estimators import ESTIMATORS, _query_times
from .records import _ABSORBED, _CENSORED, _ILL, Columns, IllnessDeathRecord, TransitionQuery
from .records import check_columns, to_records, valid_rows

DEFAULT_SEED = 26
DEFAULT_EVAL_TIMES = (30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0)
DEFAULT_LANDMARK = 10.0
WORKERS_ENV = "ILLNESSDEATH_WORKERS"
# subjects per batch of Monte-Carlo replications (at least one replication)
BATCH_CELLS = 1 << 13


def _require_finite(prefix: str, **values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{prefix}{name} must be finite")


@dataclass(frozen=True)
class TruncationConfig:
    """Skew-normal study-entry law, clamped at the time origin."""

    location: float = -5.0
    scale: float = 10.0
    shape: float = 10.0

    def __post_init__(self) -> None:
        if not (self.scale > 0):
            raise ValueError("truncation scale must be positive")
        _require_finite("truncation ", **vars(self))


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters of one simulated study."""

    n: int = 100
    hazard_ill: float = 0.039
    hazard_direct: float = 0.026
    progression_factor: float = 1.7
    censor_hazard: float = 0.013
    truncation: TruncationConfig | None = None
    seed: int = DEFAULT_SEED
    replications: int = 1000

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not (self.hazard_ill > 0 and self.hazard_direct > 0):
            raise ValueError("transition hazards must be positive")
        if not self.censor_hazard >= 0:
            raise ValueError("censor hazard must be >= 0 (0 disables censoring)")
        if not (self.progression_factor > 1):
            raise ValueError("progression factor must exceed 1")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        rates = ("hazard_ill", "hazard_direct", "progression_factor", "censor_hazard")
        _require_finite("", **{name: getattr(self, name) for name in rates})


def true_p01(
    query: TransitionQuery,
    hazard_ill: float = 0.039,
    hazard_direct: float = 0.026,
    progression_factor: float = 1.7,
) -> float:
    """Closed-form illness occupation probability under the simulated law.

    A subject occupies the illness state at t iff it is of the illness kind
    with onset in (max(s, t/factor), t]; conditioning on state 0 at s divides
    by the onset survival at s.
    """
    lam = hazard_ill + hazard_direct
    share = hazard_ill / lam
    lower = max(query.s, query.t / progression_factor)
    if lower >= query.t:
        return 0.0
    return (
        share
        * (math.exp(-lam * lower) - math.exp(-lam * query.t))
        / math.exp(-lam * query.s)
    )


_POWERS_OF_TEN = 10 ** np.arange(1, 19)


def _decimal_rank(indices: np.ndarray) -> np.ndarray:
    """Rank of each index among all of them written as decimal strings.

    Padding every index with trailing zeros to one width keeps the string
    order; an index that pads to a longer one's value is its prefix and
    ranks first, so ties go to the shorter index.
    """
    digits = np.searchsorted(_POWERS_OF_TEN, indices, side="right")  # len(str) - 1
    padded = indices * 10 ** (digits.max(initial=0) - digits)
    rank = np.empty(len(indices), dtype=np.intp)
    rank[np.lexsort((digits, padded))] = np.arange(len(indices))
    return rank


def _classify(entry, onset, ill, absorb, cens) -> tuple[np.ndarray, Columns]:
    """The mask of the subjects alive at entry (entry < absorb) and the
    columns of every drawn subject, a row per replication in a batch.

    Each path ends at min(absorb, cens), absorbed iff absorb <= cens.  An ill
    subject whose onset precedes censoring carries its illness stay
    (recruitment during illness, onset <= entry < cens, included); every
    other subject leaves state 0 at the path's end.  Subject i of
    replication r has the id ``f"r{r}s{i}"``; the ids share their prefix,
    so ``id_rank`` ranks the indices as decimal strings.
    """
    seen_ill = ill & (onset <= cens)
    end = np.minimum(absorb, cens)
    absorbed = absorb <= cens
    cause0 = np.where(absorbed, _ABSORBED, _CENSORED).astype(np.int8)
    cause0[seen_ill] = _ILL
    exit0 = np.where(seen_ill, onset, end)
    rank = _decimal_rank(np.arange(entry.shape[-1]))
    return entry < absorb, Columns(entry, exit0, end, cause0, absorbed, rank)


def _batch(reps, draws) -> tuple[np.ndarray, Columns]:
    """The mask of the retained subjects and the columns of a batch of
    replications, a row each, padded where a subject is not retained.  The
    padded batch is checked at once; only if it fails are the retained
    subjects checked in row-major order, subject i of replication r as r{r}s{i}."""
    alive, cols = _classify(*draws)
    cols = cols.take(alive)
    if not (valid_rows(cols) | ~alive).all():  # padding is never finite
        kept = np.argwhere(alive)  # (replication, draw index) of each retained subject
        check_columns(Columns(*(c[alive] for c in cols)), lambda i: f"r{reps[kept[i, 0]]}s{kept[i, 1]}")
    return alive, cols


def _records(rep_index, alive, cols: Columns) -> list[IllnessDeathRecord]:
    """The records of the retained subjects of a batch of one replication."""
    ids = [f"r{rep_index}s{i}" for i in np.flatnonzero(alive).tolist()]
    return to_records(ids, Columns(*(c[alive] for c in cols)))


def _fill(seed: int, reps, n: int, ill: float, direct: float, *rates, normals: int = 0) -> list:
    """Row r of each block from the stream (seed, reps[r]), in order: state-0
    exit times at rate ill + direct, illness marks (ill's share), exponential
    times at each rate (inf at rate 0, where none is drawn), then ``normals``
    standard normals.  Each draw fills its row; each block is then scaled at
    once, as exponential(1 / rate) scales standard_exponential() elementwise."""
    gen = np.random.Generator  # looked up here: numpy loads np.random on first use
    exp, normal = gen.standard_exponential, gen.standard_normal
    kinds = (exp, gen.random, *[exp for rate in rates if rate > 0], *[normal] * normals)
    block = np.empty((len(kinds), len(reps), n))
    for r, rng in enumerate(streams(seed, reps)):
        for kind, rows in zip(kinds, block):
            kind(rng, out=rows[r])
    onset, mark, *rest = block
    times = [rest.pop(0) * (1 / rate) if rate > 0 else np.inf for rate in rates]
    return [onset * (1 / (ill + direct)), mark < ill / (ill + direct), *times, *rest]


def _draws(config: ScenarioConfig, reps) -> tuple[np.ndarray, ...]:
    """Entry, onset, illness marks, absorption and censoring times of the
    replications reps, a row each (_fill); the skew-normal entry, |N(0,1)|
    tilting a second normal, is clamped at the time origin."""
    trunc, law = config.truncation, (config.hazard_ill, config.hazard_direct, config.censor_hazard)
    onset, ill, span, *u = _fill(config.seed, reps, config.n, *law, normals=2 * (trunc is not None))
    if trunc is None:
        entry = np.zeros(onset.shape)
    else:
        delta, (u0, u1) = trunc.shape / math.sqrt(1 + trunc.shape**2), u
        skew = delta * np.abs(u0) + math.sqrt(1 - delta * delta) * u1
        entry = np.maximum(trunc.location + trunc.scale * skew, 0.0)
    absorb = np.where(ill, config.progression_factor * onset, onset)
    return entry, onset, ill, absorb, entry + span


def simulate_cohort(
    config: ScenarioConfig, rep_index: int = 0
) -> list[IllnessDeathRecord]:
    """Draw one cohort; retained subjects are those alive at study entry.

    Under truncation a subject enters the study at the clamped skew-normal
    time L and is retained iff L precedes its absorption time; a subject
    whose illness onset precedes L is recruited during illness and carries
    exit0 <= entry.  Censoring runs from study entry, so every retained
    subject is observed for a positive span.
    """
    alive, cols = _batch([rep_index], _draws(config, [rep_index]))
    if not alive.any():
        raise DegenerateCohort(f"replication {rep_index} retained no subjects")
    return _records(rep_index, alive, cols)


def simulate_markov_cohort(
    n: int,
    hazard_ill: float = 0.039,
    hazard_direct: float = 0.026,
    hazard_progression: float = 0.05,
    censor_hazard: float = 0.0,
    seed: int = DEFAULT_SEED,
    rep_index: int = 0,
) -> list[IllnessDeathRecord]:
    """Draw a cohort from an actual Markov law (exponential sojourns).

    Useful as a positive control: on such data the occupation-probability
    estimator and the landmark estimator target the same quantity.
    """
    if min(n, hazard_ill, hazard_direct, hazard_progression) <= 0:
        raise ValueError("n and all transition hazards must be positive")
    if not censor_hazard >= 0:
        raise ValueError("censor hazard must be >= 0")
    _require_finite("", hazard_ill=hazard_ill, hazard_direct=hazard_direct,
                    hazard_progression=hazard_progression, censor_hazard=censor_hazard)
    law = (hazard_ill, hazard_direct, hazard_progression, censor_hazard)
    onset, ill, sojourn, cens = _fill(seed, [rep_index], n, *law)
    draws = (np.zeros((1, n)), onset, ill, np.where(ill, onset + sojourn, onset), cens)
    return _records(rep_index, *_batch([rep_index], draws))


def markov_true_p01(
    query: TransitionQuery,
    hazard_ill: float = 0.039,
    hazard_direct: float = 0.026,
    hazard_progression: float = 0.05,
) -> float:
    """Closed-form occupation probability for the Markov control law."""
    lam, gap = hazard_ill + hazard_direct, query.t - query.s
    if lam == hazard_progression:
        return hazard_ill * gap * math.exp(-hazard_progression * gap)
    decay = math.exp(-hazard_progression * gap) - math.exp(-lam * gap)
    return hazard_ill / (lam - hazard_progression) * decay


# ---------------------------------------------------------------------------
# Monte-Carlo harness

@dataclass(frozen=True)
class BiasVarianceRow:
    estimator: str
    s: float
    t: float
    bias: float
    variance: float
    n_effective: int
    n_excluded: int


@dataclass(frozen=True)
class BiasVarianceTable:
    rows: tuple[BiasVarianceRow, ...]
    mean_cohort_size: float
    config: ScenarioConfig
    landmark: float

    def to_csv(self, sink: IO[str]) -> None:
        sink.write("estimator,s,t,bias,variance,n_effective,n_excluded\n")
        for r in self.rows:
            sink.write(
                f"{r.estimator},{r.s:.12g},{r.t:.12g},{r.bias:.12g},"
                f"{r.variance:.12g},{r.n_effective},{r.n_excluded}\n"
            )


def _mc_batch(args) -> tuple[np.ndarray, np.ndarray]:
    """Cohort sizes and (estimator, t, replication) estimates of a batch of
    replications, NaN where a replication fails or retained no subject."""
    config, reps, estimators, landmark, eval_times = args
    alive, cols = _batch(reps, _draws(config, reps))
    cells = np.full((len(estimators), len(eval_times), len(reps)), np.nan)
    for k, name in enumerate(estimators):
        with contextlib.suppress(EstimationError):  # every replication fails alike
            cells[k] = ESTIMATORS[name](cols, landmark, eval_times)
    sizes = alive.sum(axis=1)
    cells[..., sizes == 0] = np.nan
    return sizes, cells


def _worker_count(workers: int | None) -> int:
    if workers is not None:
        return max(1, workers)
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"{WORKERS_ENV} must be a positive integer, got {raw!r}")
    return count


def run_monte_carlo(
    config: ScenarioConfig,
    estimators: Sequence[str] = ("check", "mm"),
    eval_times: Sequence[float] = DEFAULT_EVAL_TIMES,
    landmark: float = DEFAULT_LANDMARK,
    workers: int | None = None,
) -> BiasVarianceTable:
    """Tabulate bias and variance of the chosen estimators against truth.

    Replications where an estimator fails at some t (empty landmark, zero
    denominator, dead risk set) are excluded from that cell only and counted
    in n_excluded.  The result is a deterministic function of the config and
    arguments; the batches (a row per replication) and the worker count only
    schedule work.
    """
    if unknown := [e for e in estimators if e not in ESTIMATORS]:
        raise ValueError(f"unknown estimator(s): {', '.join(unknown)}")
    times = list(eval_times)
    if any(t < landmark for t in times):
        raise ValueError("every evaluation time must be >= the landmark")
    grid = _query_times(landmark, times)  # every t checked before any draw
    reps, nworkers = config.replications, _worker_count(workers)
    # even batches of at most BATCH_CELLS subjects, at least one per worker
    batch = -(-reps // max(nworkers, -(-reps * config.n // BATCH_CELLS)))
    tasks = [
        (config, range(first, min(first + batch, reps)), tuple(estimators), landmark, grid)
        for first in range(0, reps, batch)
    ]
    if nworkers > 1 and len(tasks) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=nworkers) as pool:
            outcomes = list(pool.map(_mc_batch, tasks))
    else:
        outcomes = [_mc_batch(t) for t in tasks]
    sizes, cells = (np.concatenate(part, axis=-1) for part in zip(*outcomes))
    if not sizes.any():
        raise DegenerateCohort("every replication retained no subjects")
    # the cells with no excluded replication reduced along the replication
    # axis at once, each row's sums the cell's own; the others one by one
    cells = cells.reshape(-1, reps)
    kept = np.count_nonzero(~np.isnan(cells), -1)
    whole = kept == reps
    mean, var = np.full((2, len(cells)), math.nan)
    mean[whole] = cells[whole].mean(-1)
    var[whole] = cells[whole].var(-1, ddof=1) if reps > 1 else math.nan
    for cell in np.flatnonzero(~whole & (kept > 0)).tolist():
        arr = cells[cell][~np.isnan(cells[cell])]
        mean[cell], var[cell] = arr.mean(), arr.var(ddof=1) if len(arr) > 1 else math.nan
    rows, law = [], (config.hazard_ill, config.hazard_direct, config.progression_factor)
    for (name, t), bias, variance, n in zip(
        itertools.product(estimators, times), mean.tolist(), var.tolist(), kept.tolist()
    ):
        bias -= true_p01(TransitionQuery(landmark, t), *law)
        rows.append(BiasVarianceRow(name, landmark, t, bias, variance, n, reps - n))
    return BiasVarianceTable(tuple(rows), float(np.mean(sizes)), config, landmark)


# ---------------------------------------------------------------------------
# named study designs


@dataclass(frozen=True)
class Scenario:
    """A config bundled with the estimators and grid it is reported on."""

    config: ScenarioConfig
    estimators: tuple[str, ...]
    eval_times: tuple[float, ...] = DEFAULT_EVAL_TIMES
    landmark: float = DEFAULT_LANDMARK


def preset(
    name: str,
    n: int | None = None,
    replications: int | None = None,
    seed: int | None = None,
) -> Scenario:
    """Named designs: light/heavy censoring and the left-truncated study."""
    base = {
        "table1": (ScenarioConfig(censor_hazard=0.013), ("check", "mm", "aj")),
        "table2": (ScenarioConfig(censor_hazard=0.035), ("check", "mm", "aj")),
        "table3": (
            ScenarioConfig(censor_hazard=0.013, truncation=TruncationConfig()),
            ("aj", "check"),
        ),
    }
    if name not in base:
        raise ValueError(f"unknown scenario {name!r}; choose from {sorted(base)}")
    config, estimators = base[name]
    return _override(Scenario(config, estimators), n, replications, seed)


def _override(
    scenario: Scenario, n: int | None, replications: int | None, seed: int | None
) -> Scenario:
    """The scenario with every given (not None) size, count or seed replaced."""
    given = {"n": n, "replications": replications, "seed": seed}
    overrides = {key: value for key, value in given.items() if value is not None}
    return replace(scenario, config=replace(scenario.config, **overrides))
