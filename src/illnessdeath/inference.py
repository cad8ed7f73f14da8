"""Bootstrap confidence intervals for the transition-probability estimators.

Resampling is by subject with replacement.  Resample b of a run with seed q
draws its indices from ``numpy.random.Philox`` keyed by
``SeedSequence((q, b))``, so intervals are reproducible and independent of
any parallel scheduling above this layer.  A resample's draws become subject
weights on the cohort's own grid, which give the resampled cohort's floats.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

from ._rng import philox
from .counting import Columns
from .errors import EstimationError, TooManyFailures
from .estimators import ESTIMATORS
from .records import IllnessDeathRecord, TransitionQuery


# A chunk holds about CHUNK_CELLS weights and at least MIN_CHUNK resamples (aj's
# loop costs the same per chunk): past 1024 subjects its arrays grow as 16 * n.
CHUNK_CELLS, MIN_CHUNK = 1 << 14, 16


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


def resample_estimates(
    cols: Columns, s: float, ts: Sequence[float], methods, n_boot: int, seed: int
) -> dict[str, np.ndarray]:
    """Each method's (len(ts), n_boot) estimates, NaN where a resample fails,
    one chunk of draws for every method; a method that fails on cols has none."""
    n = len(cols.final)
    chunk = max(MIN_CHUNK, CHUNK_CELLS // max(n, 1))
    parts: dict[str, list[np.ndarray]] = {method: [] for method in methods}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for first in range(0, n_boot, chunk):
            resamples = range(first, min(first + chunk, n_boot))
            draws = (philox(seed, b).integers(0, n, size=n) for b in resamples)
            weights = np.stack([np.bincount(idx, minlength=n) for idx in draws])
            for method in methods:
                with contextlib.suppress(EstimationError):
                    parts[method].append(ESTIMATORS[method](cols, s, ts, False, weights))
    return {method: np.concatenate(part, axis=1) for method, part in parts.items() if part}


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
    quantile_ci = _clip_unit(
        _lower_quantile(ordered, alpha / 2),
        _lower_quantile(ordered, 1 - alpha / 2),
    )
    z = NormalDist().inv_cdf(1 - alpha / 2)
    half = z * math.sqrt(boot_var)
    normal_ci = _clip_unit(point - half, point + half)
    return CiResult(
        point=point,
        boot_variance=boot_var,
        quantile_ci=quantile_ci,
        normal_ci=normal_ci,
        level=level,
        n_boot=n_boot,
        n_failed=failed,
    )


def bootstrap_ci(
    cohort: Sequence[IllnessDeathRecord],
    query: TransitionQuery,
    estimator: str = "check",
    n_boot: int = 1000,
    level: float = 0.95,
    seed: int = 0,
) -> CiResult:
    """Subject-level bootstrap for one estimator at one query (see interval)."""
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}")
    if not 0 < level < 1:
        raise ValueError("level must be inside (0, 1)")
    if n_boot < 2:
        raise ValueError("n_boot must be >= 2")
    cols = Columns.of(cohort)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        point = float(ESTIMATORS[estimator](cols, query.s, [query.t])[0])
    boot = resample_estimates(cols, query.s, [query.t], [estimator], n_boot, seed)
    return interval(point, boot[estimator][0], level)
