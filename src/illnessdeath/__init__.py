"""Nonparametric transition-probability estimation for illness-death data.

The observable is a progressive three-state path (initial -> illness ->
absorbing, with a direct initial -> absorbing route) under right-censoring
and delayed entry.  The quantity of interest is P01(s, t): the probability
of occupying the illness state at time t conditional on the initial state
at time s, with no Markov assumption.

Estimators:

- ``p01_landmark`` conditions on the subset in state 0 at s and reads the
  answer off a competing-risks incidence limit inside that subset; it is
  the estimator of choice under left-truncation, with a delta-method
  variance (``p01_landmark_variance``; ``landmark_variance_curve`` for a
  grid of t).
- ``p01_cif_ratio`` normalises the full-cohort incidence limit by state-0
  survival at s; ``p01_km_integral`` is its ordered-weights form and
  ``cif_limit_ipcw`` the inverse-censoring-weighted form of the numerator
  (all three agree algebraically, which the test suite checks in exact
  rational arithmetic).
- ``p01_aalen_johansen`` is the Markov occupation-probability comparator.
- ``p01_curve`` evaluates any of the four (``check``, ``mm``, ``mm-stute``,
  ``aj``) on a whole grid of t in one sweep of the cohort; the scalar
  functions above are its one-point forms.

``simulation`` contains generators with a closed-form truth and the
bias/variance Monte-Carlo harness; ``inference`` adds subject-level
bootstrap confidence intervals; ``cli`` exposes everything over CSV.
"""

__version__ = "0.1.0"

from .counting import CountingProcesses, StepFunction, build_counting
from .errors import (
    CensoredCohort,
    DegenerateCohort,
    DegenerateWeight,
    DelayedEntry,
    EmptyLandmark,
    EmptyRiskSet,
    EstimationError,
    MalformedRecord,
    RangeWarning,
    SupportWarning,
    TooManyFailures,
    ZeroDenominator,
)
from .estimators import (
    artificial_censoring,
    cif_curve,
    cif_limit,
    cif_limit_ipcw,
    kaplan_meier,
    kaplan_meier_curve,
    landmark_variance_curve,
    multinomial_uncensored,
    p01_aalen_johansen,
    p01_cif_ratio,
    p01_curve,
    p01_km_integral,
    p01_landmark,
    p01_landmark_variance,
    risk_set_stability,
    tsai_crowley_weight,
)
from .inference import CiResult, bootstrap_ci
from .records import (
    Cause,
    CompetingRisksObservation,
    EventKind,
    IllnessDeathRecord,
    TransitionQuery,
    derive_competing_risks,
    landmark_subset,
    read_cohort,
    validate_record,
    write_cohort,
)
from .simulation import (
    BiasVarianceRow,
    BiasVarianceTable,
    Scenario,
    ScenarioConfig,
    TruncationConfig,
    markov_true_p01,
    preset,
    run_monte_carlo,
    simulate_cohort,
    simulate_markov_cohort,
    true_p01,
)

__all__ = [
    "BiasVarianceRow",
    "BiasVarianceTable",
    "Cause",
    "CensoredCohort",
    "CiResult",
    "CompetingRisksObservation",
    "CountingProcesses",
    "DegenerateCohort",
    "DegenerateWeight",
    "DelayedEntry",
    "EmptyLandmark",
    "EmptyRiskSet",
    "EstimationError",
    "EventKind",
    "IllnessDeathRecord",
    "MalformedRecord",
    "RangeWarning",
    "Scenario",
    "ScenarioConfig",
    "StepFunction",
    "SupportWarning",
    "TooManyFailures",
    "TransitionQuery",
    "TruncationConfig",
    "ZeroDenominator",
    "artificial_censoring",
    "bootstrap_ci",
    "build_counting",
    "cif_curve",
    "cif_limit",
    "cif_limit_ipcw",
    "derive_competing_risks",
    "kaplan_meier",
    "kaplan_meier_curve",
    "landmark_subset",
    "landmark_variance_curve",
    "markov_true_p01",
    "multinomial_uncensored",
    "p01_aalen_johansen",
    "p01_cif_ratio",
    "p01_curve",
    "p01_km_integral",
    "p01_landmark",
    "p01_landmark_variance",
    "preset",
    "read_cohort",
    "risk_set_stability",
    "run_monte_carlo",
    "simulate_cohort",
    "simulate_markov_cohort",
    "true_p01",
    "tsai_crowley_weight",
    "validate_record",
    "write_cohort",
]
