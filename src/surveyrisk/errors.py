"""Exception hierarchy for the surveyrisk package.

Every error raised by the public API derives from :class:`SurveyRiskError`,
so callers can catch one base class at the boundary (the CLI does exactly
that) while tests and library users can still discriminate precise failure
modes by subclass.
"""

from __future__ import annotations

__all__ = [
    "SurveyRiskError",
    "NonPositiveCell",
    "ShapeError",
    "NotNormalized",
    "ZeroTruth",
    "MissingPriorCounts",
    "ZeroGroupCount",
    "DomainError",
    "MissingNStar",
    "RejectionBudgetExceeded",
    "Unattainable",
    "SimulationNoise",
    "ParseError",
]


class SurveyRiskError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# model construction and validation
# ---------------------------------------------------------------------------

class NonPositiveCell(SurveyRiskError):
    """A cell probability is zero or negative; the model requires m_ij > 0."""


class ShapeError(SurveyRiskError):
    """Dimensions disagree (group counts, cell layouts, vector lengths)."""


class NotNormalized(SurveyRiskError):
    """Probabilities do not sum to 1 within tolerance and renormalization
    was not requested."""


# ---------------------------------------------------------------------------
# divergence and estimation
# ---------------------------------------------------------------------------

class ZeroTruth(SurveyRiskError):
    """The reference distribution of a KL divergence has a nonpositive entry."""


class MissingPriorCounts(SurveyRiskError):
    """An operation needs prior-survey counts but none were supplied."""


class ZeroGroupCount(SurveyRiskError):
    """A present-survey group total is zero; conditionals are undefined.

    Callers are expected to enforce the discard rule (resample until every
    group is represented) before estimating, so reaching this error means
    the rule was skipped.
    """


class DomainError(SurveyRiskError):
    """A numeric argument lies outside the operation's domain."""


class MissingNStar(SurveyRiskError):
    """A prior-survey sample size is required for this estimator kind."""


# ---------------------------------------------------------------------------
# simulation and planning
# ---------------------------------------------------------------------------

class RejectionBudgetExceeded(SurveyRiskError):
    """A replication would need, or needed, more present draws than the
    discard budget allows.

    Raised before drawing when an upper bound a on the acceptance
    probability has a * budget < 1 + ln R for R replications, so that the
    worst replication expects more draws than the budget (always when n is
    below the number of groups), and during drawing when an unlucky run
    exhausts it anyway.  Either way n is deep in the small-sample regime
    where some group is almost never observed; increase n.
    """


class Unattainable(SurveyRiskError):
    """No sample size satisfies the requested risk target (the limiting
    risk still exceeds it)."""


class SimulationNoise(SurveyRiskError):
    """The simulated risk curve is too noisy at the configured replication
    count to bracket the target; increase replications."""


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

class ParseError(SurveyRiskError):
    """A model or counts file is malformed; the message carries line
    diagnostics."""
