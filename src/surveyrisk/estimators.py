"""The three maximum-likelihood estimators of the cell probabilities.

All three share the within-group conditionals from the present survey,

    phat_ij = x_ij / x_i.

and differ only in where the group marginals come from:

    present   mhat_i.  = x_i. / n                  (one sample, both stages)
    prior     mhat*_i. = x*_i / n*                 (marginals from the coarse
                                                    survey alone)
    pooled    mhat^p_i. = (x_i. + x*_i) / (n + n*) (marginals from both)

so the pooled marginal is exactly the n : n* convex combination of the
other two.  Each cell estimate is assembled as a ratio of integer
products and rounded once in the final division, which keeps the output
normalized to machine precision and the estimates reproducible bit for
bit.

Zero group totals x_i. are a hard error here: conditioning away such
samples (the discard rule) is the simulation engine's job, and silently
patching it at this layer would hide a broken caller.
"""

from __future__ import annotations

import enum

import numpy as np

from .divergence import ProbabilityEstimate
from .errors import DomainError, MissingPriorCounts, ZeroGroupCount
from .model import SurveyCounts

__all__ = ["EstimatorKind", "estimate"]


class EstimatorKind(enum.Enum):
    """Where the first-stage marginals come from."""

    PRESENT = "present"
    PRIOR = "prior"
    POOLED = "pooled"


def estimate(kind: EstimatorKind, counts: SurveyCounts) -> ProbabilityEstimate:
    """Compute one estimator's cell-probability estimate from counts.

    A ``kind`` that is not an EstimatorKind member raises DomainError.
    """
    if not isinstance(kind, EstimatorKind):
        raise DomainError(f"kind must be an EstimatorKind, got {kind!r}")
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

    if kind is EstimatorKind.PRESENT:
        groups = [
            np.array([x / n for x in row], dtype=np.float64)
            for row in counts.present
        ]
        return ProbabilityEstimate(cells=tuple(groups))

    if counts.prior is None:
        raise MissingPriorCounts(f"estimator {kind.value!r} needs prior counts")
    n_star = counts.n_star
    assert n_star is not None
    if n_star < 1:
        raise DomainError("prior survey is empty (n* = 0)")

    groups = []
    for row, t, xs in zip(counts.present, totals, counts.prior):
        if kind is EstimatorKind.PRIOR:
            num, den = xs, n_star * t
        else:  # POOLED
            num, den = t + xs, (n + n_star) * t
        # num * x_ij and den are exact integers; one float division per cell
        groups.append(np.array([(num * x) / den for x in row], dtype=np.float64))
    return ProbabilityEstimate(cells=tuple(groups))
