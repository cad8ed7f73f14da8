"""Exception and warning types shared across the package."""


class MalformedRecord(ValueError):
    """A subject record violates the data-model invariants."""


class EstimationError(Exception):
    """Base class for failures while evaluating an estimator."""


class EmptyRiskSet(EstimationError):
    """No subject is at risk where the estimator needs a risk set."""


class EmptyLandmark(EmptyRiskSet):
    """No subject is under observation in the initial state at the landmark."""


class ZeroDenominator(EstimationError):
    """The normalising survival probability is exactly zero."""


class DegenerateWeight(EstimationError):
    """The censoring weight hit zero while weighted mass remains."""


class DelayedEntry(EstimationError, ValueError):
    """The estimator requires every subject under observation from the origin."""


class CensoredCohort(EstimationError, ValueError):
    """The estimator requires every absorption to be observed."""


class DegenerateCohort(EstimationError):
    """A simulated cohort retained no subjects."""


class TooManyFailures(EstimationError):
    """More than half of the bootstrap resamples failed to produce a value."""


class SupportWarning(UserWarning):
    """The largest observation is censored, so a tail limit is not identified."""


class RangeWarning(UserWarning):
    """An estimate fell outside the unit interval before any clipping."""
