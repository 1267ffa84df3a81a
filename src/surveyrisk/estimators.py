"""The three maximum-likelihood estimators of the cell probabilities.

All three share the within-group conditionals from the present survey,

    phat_ij = x_ij / x_i.

and differ only in the first-stage sample behind the group marginals
(:meth:`EstimatorKind.first_stage`):

    present   mhat_i.  = x_i. / n                  (one sample, both stages)
    prior     mhat*_i. = x*_i / n*                 (marginals from the coarse
                                                    survey alone)
    pooled    mhat^p_i. = (x_i. + x*_i) / (n + n*) (marginals from both)

so the pooled marginal is exactly the n : n* convex combination of the
other two.  :meth:`EstimatorKind.prior_size` is the one rule for what
each kind takes (the present kind ignores n*, the other two need it);
every entry point checks its kind through it before any work.  Each
cell estimate is assembled as a ratio of integer products and rounded
once in the final division, which keeps the output normalized to
machine precision and the estimates reproducible bit for bit.

Zero group totals x_i. are a hard error here: conditioning away such
samples (the discard rule) is the simulation engine's job, and silently
patching it at this layer would hide a broken caller.
"""

from __future__ import annotations

import numpy as np

from .divergence import ProbabilityEstimate
from .errors import DomainError, MissingNStar, MissingPriorCounts, ZeroGroupCount
from .model import CheckedEnum, SurveyCounts, as_int

__all__ = ["EstimatorKind", "estimate"]


class EstimatorKind(CheckedEnum):
    """Where the first-stage marginals come from."""

    PRESENT = "present"
    PRIOR = "prior"
    POOLED = "pooled"

    def first_stage(self, present, prior):
        """The present part, the prior part or their sum: of group counts
        (ints or int64 arrays) or of the sizes n and n*."""
        if self is EstimatorKind.PRESENT:
            return present
        if self is EstimatorKind.PRIOR:
            return prior
        return present + prior

    @classmethod
    def prior_size(cls, kind, n_star):
        """None for the present kind, which ignores ``n_star``, else n* as
        an int >= 1; a non-member raises DomainError, no n* MissingNStar."""
        if not isinstance(kind, EstimatorKind):
            raise DomainError(f"kind must be an EstimatorKind, got {kind!r}")
        if kind is cls.PRESENT:
            return None
        if n_star is None:
            raise MissingNStar(f"estimator {kind.value!r} needs n_star")
        return as_int(n_star, "n_star")


def estimate(kind: EstimatorKind, counts: SurveyCounts) -> ProbabilityEstimate:
    """Compute one estimator's cell-probability estimate from counts.

    A ``kind`` that is not an EstimatorKind member, or ``counts`` that are
    not SurveyCounts, raises DomainError.
    """
    if not isinstance(counts, SurveyCounts):
        raise DomainError(f"counts must be SurveyCounts, got {type(counts).__name__}")
    n_star = counts.n_star
    # the kind check; ``or 1`` leaves a missing or empty prior survey to
    # the count checks below, whose errors name the counts
    needs_prior = EstimatorKind.prior_size(kind, n_star or 1) is not None
    totals = counts.group_totals
    n = counts.n
    if n < 1:
        raise DomainError("present survey is empty (n = 0)")
    for i, t in enumerate(totals):
        if t == 0:
            raise ZeroGroupCount(
                f"group {i} has no present observations; the discard rule "
                f"must be applied before estimating"
            )

    if needs_prior:
        if n_star is None:
            raise MissingPriorCounts(f"estimator {kind.value!r} needs prior counts")
        if n_star < 1:
            raise DomainError("prior survey is empty (n* = 0)")

    size = kind.first_stage(n, n_star)
    prior = counts.prior or (None,) * len(totals)
    groups = []
    for row, t, xs in zip(counts.present, totals, prior):
        part, den = kind.first_stage(t, xs), size * t
        # exact integers and one correctly rounded division per cell, so
        # the present kind's (t * x_ij) / (n * t) is bitwise x_ij / n
        groups.append(np.array([(part * x) / den for x in row], dtype=np.float64))
    return ProbabilityEstimate(cells=tuple(groups))
