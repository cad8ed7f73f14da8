"""Bootstrap confidence intervals for the transition-probability estimators.

Resampling is by subject with replacement.  Resample b of a run with seed q
draws its indices from ``numpy.random.Philox`` keyed by
``SeedSequence((q, b))``, a call's keys hashed in one pass, so intervals are
reproducible and independent of any scheduling.  A resample's draws become
subject weights on the cohort's own grid, which give the floats of the
resample as a cohort of its own.  The caller prepares each method once per
cohort (estimators.Estimator); the point estimate and every chunk of weights
are evaluated on that preparation, the weights only through ``evaluate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

from ._rng import streams
from .errors import EstimationError, TooManyFailures
from .estimators import ESTIMATORS
from .records import Columns, IllnessDeathRecord, TransitionQuery


# A chunk holds about CHUNK_CELLS weights, at least one resample: its arrays
# stay near CHUNK_CELLS elements whatever the cohort's size.
CHUNK_CELLS = 1 << 14


def _clip_unit(lo: float, hi: float) -> tuple[float, float]:
    return max(lo, 0.0), min(hi, 1.0)


@dataclass(frozen=True)
class CiResult:
    """Point estimate with bootstrap variance and two interval constructions.

    ``quantile_ci`` inverts the empirical resample distribution (lower
    empirical quantile function), ``normal_ci`` is point +- z * bootstrap
    standard error; both are clipped to the unit interval afterwards.
    """

    point: float
    boot_variance: float
    quantile_ci: tuple[float, float]
    normal_ci: tuple[float, float]
    level: float
    n_boot: int
    n_failed: int


def _lower_quantile(ordered: Sequence[float], p: float) -> float:
    # inverse-CDF convention: smallest order statistic with CDF >= p
    k = max(1, math.ceil(len(ordered) * p))
    return ordered[k - 1]


def resample_estimates(ready: dict, n: int, n_boot: int, seed: int) -> dict[str, np.ndarray]:
    """Each method's (len(ts), n_boot) estimates, NaN where a resample fails,
    one chunk of draws for every method.  ready maps each method to its
    cohort of n subjects, prepared once, or to the EstimationError that
    preparing it raised: such a method has none.  The two mm forms share
    their preparation and so their denominator."""
    ready = {method: p for method, p in ready.items() if not isinstance(p, EstimationError)}
    chunk = max(1, CHUNK_CELLS // max(n, 1))
    parts: dict[str, list[np.ndarray]] = {method: [] for method in ready}
    rngs = streams(seed, range(n_boot))
    for first in range(0, n_boot, chunk):
        rows = range(min(chunk, n_boot - first))  # one bincount of (row, subject) keys
        keys = np.concatenate([next(rngs).integers(0, n, size=n) + n * row for row in rows])
        weights = np.bincount(keys, minlength=len(rows) * n).reshape(len(rows), n)
        for method, prepared in ready.items():
            parts[method].append(ESTIMATORS[method].evaluate(prepared, weights))
    out = {method: np.concatenate(part, axis=1) for method, part in parts.items() if part}
    assert all(a.shape[1] == n_boot for a in out.values()), "a chunk of resamples was lost"
    return out


def interval(point: float, estimates: np.ndarray, level: float) -> CiResult:
    """The intervals of one (method, t) from its resample estimates.  Failures
    (NaN) are dropped and counted; more than half of them raise TooManyFailures,
    as the rest no longer approximate the sampling distribution."""
    n_boot = len(estimates)
    ordered = sorted(estimates[~np.isnan(estimates)].tolist())
    failed = n_boot - len(ordered)
    if failed > n_boot / 2:
        raise TooManyFailures(f"{failed} of {n_boot} resamples failed")
    boot_var = float(np.var(ordered, ddof=1)) if len(ordered) > 1 else math.nan
    alpha = 1 - level
    quantile_ci = _clip_unit(*(_lower_quantile(ordered, p) for p in (alpha / 2, 1 - alpha / 2)))
    z = NormalDist().inv_cdf(1 - alpha / 2)
    half = z * math.sqrt(boot_var)
    normal_ci = _clip_unit(point - half, point + half)
    return CiResult(point, boot_var, quantile_ci, normal_ci, level, n_boot, failed)


def bootstrap_ci(
    cohort: Sequence[IllnessDeathRecord],
    query: TransitionQuery,
    estimator: str = "check",
    n_boot: int = 1000,
    level: float = 0.95,
    seed: int = 0,
) -> CiResult:
    """Subject-level bootstrap for one estimator at one query (see interval).
    The point estimate warns as p01_curve does for that cohort and query."""
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}")
    if not 0 < level < 1:
        raise ValueError("level must be inside (0, 1)")
    if n_boot < 2:
        raise ValueError("n_boot must be >= 2")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    cols, steps = Columns.of(cohort), ESTIMATORS[estimator]
    prepared = steps.prepare(cols, query.s, [query.t])
    point = float(steps.evaluate(prepared)[0])
    boot = resample_estimates({estimator: prepared}, len(cols.final), n_boot, seed)
    return interval(point, boot[estimator][0], level)
