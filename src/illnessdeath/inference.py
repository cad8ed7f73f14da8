"""Bootstrap confidence intervals for the transition-probability estimators.

Resampling is by subject with replacement.  Resample b of a run with seed q
draws its indices from ``numpy.random.Philox`` keyed by
``SeedSequence((q, b))``, so intervals are reproducible and independent of
any parallel scheduling above this layer.
"""

from __future__ import annotations

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


def bootstrap_ci(
    cohort: Sequence[IllnessDeathRecord],
    query: TransitionQuery,
    estimator: str = "check",
    n_boot: int = 1000,
    level: float = 0.95,
    seed: int = 0,
) -> CiResult:
    """Subject-level bootstrap for one estimator at one query.

    Resamples where the estimator fails (empty landmark, zero denominator)
    are dropped and counted; more failures than half of n_boot raises
    TooManyFailures because the remaining resamples no longer approximate
    the sampling distribution.
    """
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}")
    if not 0 < level < 1:
        raise ValueError("level must be inside (0, 1)")
    if n_boot < 2:
        raise ValueError("n_boot must be >= 2")
    curve = ESTIMATORS[estimator]
    cols = Columns.of(cohort)
    n = len(cols.final)
    estimates: list[float] = []
    failed = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        point = float(curve(cols, query.s, [query.t])[0])
        for b in range(n_boot):
            idx = philox(seed, b).integers(0, n, size=n)
            try:
                estimates.append(float(curve(cols.take(idx), query.s, [query.t])[0]))
            except EstimationError:
                failed += 1
    if failed > n_boot / 2:
        raise TooManyFailures(f"{failed} of {n_boot} resamples failed")
    estimates.sort()
    arr = np.asarray(estimates)
    boot_var = float(arr.var(ddof=1))
    alpha = 1 - level
    quantile_ci = _clip_unit(
        _lower_quantile(estimates, alpha / 2),
        _lower_quantile(estimates, 1 - alpha / 2),
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
