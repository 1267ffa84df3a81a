"""Estimation risk for two-stage multinomial surveys with a coarse prior.

A present survey classifies n units into groups and cells within groups;
an earlier, larger survey classified n* units into the groups only.  The
package quantifies the Kullback-Leibler risk of the three maximum
likelihood cell-probability estimators that differ in where the group
marginals come from (present survey, prior survey, or both pooled),
both by truncated expansion (``risk_app``) and by Monte Carlo
(``simulate_risk``), and answers the two design questions built on top:
how large a survey must be to match another design's risk
(``required_sample_size``) and whether pooling the prior survey in is
expected to help (``advise``).
"""

from __future__ import annotations

from .asymptotics import (
    RiskApproximation,
    risk_app,
    risk_gap_present_pooled,
    risk_gap_present_prior,
)
from .datasets import BUNDLED_MODEL_NAMES, bundled_model
from .divergence import (
    ChainRuleBreakdown,
    ProbabilityEstimate,
    chain_rule,
    kl_divergence,
)
from .errors import (
    DomainError,
    MissingNStar,
    MissingPriorCounts,
    NonPositiveCell,
    NotNormalized,
    ParseError,
    RejectionBudgetExceeded,
    ShapeError,
    SimulationNoise,
    SurveyRiskError,
    Unattainable,
    ZeroGroupCount,
    ZeroTruth,
)
from .estimators import EstimatorKind, estimate
from .model import (
    DerivedQuantities,
    SurveyCounts,
    TwoStageModel,
    build_model,
    derive,
)
from .montecarlo import (
    BLOCK_SIZE,
    RiskEstimate,
    SimulationConfig,
    discard_probability,
    sample_surveys,
    simulate_risk,
)
from .planning import (
    AdviceContext,
    Decision,
    Recommendation,
    RssKind,
    RssQuery,
    advise,
    advise_from_marginals,
    required_sample_size,
)

__version__ = "0.1.0"

__all__ = [
    "AdviceContext",
    "BLOCK_SIZE",
    "BUNDLED_MODEL_NAMES",
    "ChainRuleBreakdown",
    "Decision",
    "DerivedQuantities",
    "DomainError",
    "EstimatorKind",
    "MissingNStar",
    "MissingPriorCounts",
    "NonPositiveCell",
    "NotNormalized",
    "ParseError",
    "ProbabilityEstimate",
    "Recommendation",
    "RejectionBudgetExceeded",
    "RiskApproximation",
    "RiskEstimate",
    "RssKind",
    "RssQuery",
    "ShapeError",
    "SimulationConfig",
    "SimulationNoise",
    "SurveyCounts",
    "SurveyRiskError",
    "TwoStageModel",
    "Unattainable",
    "ZeroGroupCount",
    "ZeroTruth",
    "advise",
    "advise_from_marginals",
    "build_model",
    "bundled_model",
    "chain_rule",
    "derive",
    "discard_probability",
    "estimate",
    "kl_divergence",
    "required_sample_size",
    "risk_app",
    "risk_gap_present_pooled",
    "risk_gap_present_prior",
    "sample_surveys",
    "simulate_risk",
    "__version__",
]
