"""Cohort generators and the Monte-Carlo bias/variance harness.

The synthetic law is deliberately non-Markov: illness onset is exponential,
a fixed fraction of subjects pass through the illness state, and their total
lifetime is a deterministic multiple of the onset time, so the past (the
onset time) carries information about the future.  Occupation probabilities
under this law have a closed form, which the harness uses as the truth when
tabulating bias.

Reproducibility contract: replication r of a run with seed q draws from
``numpy.random.Philox`` keyed by ``SeedSequence((q, r))``, and within a
replication the draw order is onset times, illness marks, censoring spans,
then the two normal blocks of the entry sampler.  Results therefore depend
only on (seed, r), never on how replications are batched or scheduled
across workers.  The harness draws each replication on its own, then
classifies and estimates a batch of them at once, a row per replication.
"""

from __future__ import annotations

import contextlib
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import IO, Sequence

import numpy as np

from ._rng import philox
from .counting import _ABSORBED, _CENSORED, _ILL, Columns, check_columns, to_records
from .errors import DegenerateCohort, EstimationError
from .estimators import ESTIMATORS, _query_times
from .records import IllnessDeathRecord, TransitionQuery

DEFAULT_SEED = 26
DEFAULT_EVAL_TIMES = (30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0)
DEFAULT_LANDMARK = 10.0
WORKERS_ENV = "ILLNESSDEATH_WORKERS"
# subjects per batch of Monte-Carlo replications (at least one replication)
BATCH_CELLS = 1 << 13


def _require_finite(config, prefix: str, names: tuple[str, ...]) -> None:
    for name in names:
        if not math.isfinite(getattr(config, name)):
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
        _require_finite(self, "truncation ", ("location", "scale", "shape"))


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
        _require_finite(self, "", rates)


def _skew_normal(
    rng: np.random.Generator, n: int, cfg: TruncationConfig
) -> np.ndarray:
    # delta representation: |N(0,1)| tilts a second independent normal
    delta = cfg.shape / math.sqrt(1 + cfg.shape**2)
    u0 = rng.standard_normal(n)
    u1 = rng.standard_normal(n)
    return cfg.location + cfg.scale * (
        delta * np.abs(u0) + math.sqrt(1 - delta * delta) * u1
    )


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


def _exponential(rng: np.random.Generator, n: int, rate: float) -> np.ndarray:
    """n exponential times; at rate 0 the event never happens and nothing is drawn."""
    return rng.exponential(1 / rate, n) if rate > 0 else np.full(n, np.inf)


def _onset_and_illness(rng, n, ill, direct) -> tuple[np.ndarray, np.ndarray]:
    """The first two draws of every generator: state-0 exit times and kinds."""
    lam = ill + direct
    return _exponential(rng, n, lam), rng.random(n) < ill / lam


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


def _records(rep_index, keep, cols: Columns) -> list[IllnessDeathRecord]:
    """The records of classified subjects; ``keep`` holds their draw indices."""
    return to_records([f"r{rep_index}s{i}" for i in keep.tolist()], cols)


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


def _cohort(rep_index, draws) -> tuple[np.ndarray, Columns]:
    """Draw indices and columns of the retained subjects of one replication."""
    alive, cols = _classify(*draws)
    keep = np.flatnonzero(alive)
    cols = cols.take(keep)._replace(id_rank=_decimal_rank(keep))
    check_columns(cols, lambda row: f"r{rep_index}s{keep[row]}")
    return keep, cols


def _draws(config: ScenarioConfig, reps) -> tuple[np.ndarray, ...]:
    """Entry, onset, illness marks, absorption and censoring times of the
    replications reps, a row each, each drawn from its own stream."""
    rows = []
    for rep in reps:
        rng = philox(config.seed, rep)
        onset, ill = _onset_and_illness(rng, config.n, config.hazard_ill, config.hazard_direct)
        span = _exponential(rng, config.n, config.censor_hazard)
        if config.truncation is not None:
            entry = np.maximum(_skew_normal(rng, config.n, config.truncation), 0.0)
        else:
            entry = np.zeros(config.n)
        rows.append((entry, onset, ill, span))
    entry, onset, ill, span = (np.stack(column) for column in zip(*rows))
    absorb = np.where(ill, config.progression_factor * onset, onset)
    return entry, onset, ill, absorb, entry + span


def _simulate_columns(config: ScenarioConfig, rep_index: int = 0) -> tuple[np.ndarray, Columns]:
    """Draw indices and columns of simulate_cohort(config, rep_index)."""
    keep, cols = _cohort(rep_index, [column[0] for column in _draws(config, [rep_index])])
    if not len(keep):
        raise DegenerateCohort(f"replication {rep_index} retained no subjects")
    return keep, cols


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
    return _records(rep_index, *_simulate_columns(config, rep_index))


def _markov_columns(
    n, hazard_ill, hazard_direct, hazard_progression, censor_hazard, seed, rep_index
) -> tuple[np.ndarray, Columns]:
    """Draw indices and columns of simulate_markov_cohort."""
    if min(n, hazard_ill, hazard_direct, hazard_progression) <= 0:
        raise ValueError("n and all transition hazards must be positive")
    if not censor_hazard >= 0:
        raise ValueError("censor hazard must be >= 0")
    rng = philox(seed, rep_index)
    onset, ill = _onset_and_illness(rng, n, hazard_ill, hazard_direct)
    sojourn = _exponential(rng, n, hazard_progression)
    cens = _exponential(rng, n, censor_hazard)
    absorb = np.where(ill, onset + sojourn, onset)
    return _cohort(rep_index, (np.zeros(n), onset, ill, absorb, cens))


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
    draw = _markov_columns(
        n, hazard_ill, hazard_direct, hazard_progression, censor_hazard, seed, rep_index
    )
    return _records(rep_index, *draw)


def markov_true_p01(
    query: TransitionQuery,
    hazard_ill: float = 0.039,
    hazard_direct: float = 0.026,
    hazard_progression: float = 0.05,
) -> float:
    """Closed-form occupation probability for the Markov control law."""
    lam = hazard_ill + hazard_direct
    if lam == hazard_progression:
        return (
            hazard_ill
            * (query.t - query.s)
            * math.exp(-hazard_progression * (query.t - query.s))
        )
    gap = query.t - query.s
    return (
        hazard_ill
        / (lam - hazard_progression)
        * (math.exp(-hazard_progression * gap) - math.exp(-lam * gap))
    )


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
    alive, cols = _classify(*_draws(config, reps))
    cols = cols.take(alive)  # a row per replication, padded
    kept = np.argwhere(alive)  # (replication, draw index) of each retained subject
    check_columns(Columns(*(c[alive] for c in cols)), lambda i: f"r{reps[kept[i, 0]]}s{kept[i, 1]}")
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
    unknown = [e for e in estimators if e not in ESTIMATORS]
    if unknown:
        raise ValueError(f"unknown estimator(s): {', '.join(unknown)}")
    times = list(eval_times)
    if any(t < landmark for t in times):
        raise ValueError("every evaluation time must be >= the landmark")
    # checked here once, so that each curve's own check of the grid is one pass
    grid = _query_times(landmark, times)
    reps, nworkers = config.replications, _worker_count(workers)
    # even batches of at most BATCH_CELLS subjects, at least one per worker
    batch = -(-reps // max(nworkers, -(-reps * config.n // BATCH_CELLS)))
    tasks = [
        (config, range(first, min(first + batch, reps)), tuple(estimators), landmark, grid)
        for first in range(0, reps, batch)
    ]
    if nworkers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            outcomes = list(pool.map(_mc_batch, tasks))
    else:
        outcomes = [_mc_batch(t) for t in tasks]
    sizes, cells = (np.concatenate(part, axis=-1) for part in zip(*outcomes))
    if not sizes.any():
        raise DegenerateCohort("every replication retained no subjects")
    rows = []
    for e_idx, name in enumerate(estimators):
        for t_idx, t in enumerate(times):
            values = cells[e_idx, t_idx]
            arr = values[~np.isnan(values)]
            excluded = reps - len(arr)
            truth = true_p01(
                TransitionQuery(landmark, t),
                config.hazard_ill,
                config.hazard_direct,
                config.progression_factor,
            )
            bias = float(arr.mean()) - truth if len(arr) else math.nan
            variance = float(arr.var(ddof=1)) if len(arr) > 1 else math.nan
            rows.append(
                BiasVarianceRow(name, landmark, t, bias, variance, len(arr), excluded)
            )
    return BiasVarianceTable(
        rows=tuple(rows),
        mean_cohort_size=float(np.mean(sizes)),
        config=config,
        landmark=landmark,
    )


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
