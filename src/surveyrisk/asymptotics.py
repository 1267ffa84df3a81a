"""Second-order expansions of the expected KL loss, and their differences.

For a full multinomial model of dimension p with cell probabilities m and
sample size n, the expected KL loss of the MLE expands as

    p/(2n) + (M - 1)/(12 n^2) + o(n^-2),        M = sum 1/m_k.

For the two-stage layout, write I for the number of groups, s_i = J_i - 1,
S = sum_i s_i, M_f = sum 1/m_i., and A_i = 2 sum_j 1/p_ij - 2 for the
second-order coefficient of the i-th within-group MLE risk.  The three
estimators share the present survey's within-group conditionals and
differ only in their first-stage marginals, which each estimates from a
first-stage sample of size N of which the prior survey supplies the
share w:

  estimator   N          w
  present     n          0
  prior       n*         1
  pooled      n + n*     n*/(n+n*)

Dropping o(n^-2) and o(N^-2) remainders, every estimator's risk is

  (I-1)/(2N) + S/(2n) + (M_f-1)/(12N^2)
             + sum_i (A_i + 12(1-m_i.)s_i w)/m_i. / (24n^2).

These truncated forms are exactly what this module evaluates; nothing
here estimates the dropped remainder.  For the prior estimator, N = inf
gives the within-group floor that no prior survey can lower.

The difference from the present estimator's risk drives estimator
comparison and the advisor:

  present - other = (I-1)/2 (1/n - 1/N) + (M_f-1)/12 (1/n^2 - 1/N^2)
                    - w sum_i s_i (1/m_i. - 1) / (2n^2).

The A_i terms cancel, so each gap is a closed form in first-stage
quantities only; the advisor exploits this by plugging in estimated
marginals.  Sums accumulate with ``math.fsum`` in ascending group order,
so published six-digit values reproduce deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import MissingNStar
from .estimators import EstimatorKind
from .model import DerivedQuantities, as_int

__all__ = [
    "RiskApproximation",
    "risk_app",
    "risk_gap_present_prior",
    "risk_gap_present_pooled",
]


@dataclass(frozen=True)
class RiskApproximation:
    """A truncated risk expansion evaluated at concrete sample sizes.

    ``first_order`` collects the 1/n and 1/n* terms, ``second_order`` the
    quadratic ones; ``total`` is their sum, computed once.
    """

    first_order: float
    second_order: float
    total: float
    kind: EstimatorKind
    n: int
    n_star: int | None


def _first_stage(
    kind: EstimatorKind, n: int, n_star: int | float | None
) -> tuple[int | float, float]:
    """(N, w): the first-stage sample size and the prior survey's share."""
    if kind is EstimatorKind.PRESENT:
        return n, 0.0
    if kind is EstimatorKind.PRIOR:
        return n_star, 1.0
    return n + n_star, n_star / (n + n_star)


def risk_app(
    kind: EstimatorKind,
    dq: DerivedQuantities,
    n: int,
    n_star: int | None = None,
) -> RiskApproximation:
    """Evaluate one estimator's truncated risk expansion.

    For the prior estimator, ``n_star=math.inf`` gives the limit of its
    risk as the prior survey grows without bound: the within-group floor
    that no prior survey can lower.  Otherwise sizes are integers >= 1
    (numpy integers work).  ``n_star`` is ignored for the present estimator.
    """
    n = as_int(n, "n")
    if kind is EstimatorKind.PRESENT:
        n_star = None
    elif n_star is None:
        raise MissingNStar(f"estimator {kind.value!r} needs n_star")
    elif not (kind is EstimatorKind.PRIOR and n_star == math.inf):
        n_star = as_int(n_star, "n_star")
    N, w = _first_stage(kind, n, n_star)
    if kind is EstimatorKind.PRESENT:
        # one division of p = I-1+S: (I-1)/(2n) + S/(2n) rounds differently
        first = dq.p_total / (2.0 * n)
    else:
        first = (dq.marginals.size - 1) / (2.0 * N) + float(dq.s.sum()) / (2.0 * n)
    second = (dq.M_f - 1.0) / (12.0 * N * N) + math.fsum(
        (a + 12.0 * (1.0 - m) * s * w) / m
        for a, m, s in zip(dq.A.tolist(), dq.marginals.tolist(), dq.s.tolist())
    ) / (24.0 * n * n)
    return RiskApproximation(
        first_order=first,
        second_order=second,
        total=first + second,
        kind=kind,
        n=n,
        n_star=n_star,
    )


# ---------------------------------------------------------------------------
# risk differences (decision statistics)
# ---------------------------------------------------------------------------
# The A_i terms cancel exactly in both differences, so the gaps depend only
# on first-stage quantities (I, s_i, m_i., M_f).  The advisor exploits this:
# it evaluates gap_first_stage with *estimated* marginals plugged in.

def gap_first_stage(
    kind: EstimatorKind,
    s: Sequence[int],
    marginals: Sequence[float],
    M_f: float,
    n: int,
    n_star: int,
) -> float:
    """risk(present) - risk(kind) from first-stage quantities only."""
    n, n_star = as_int(n, "n"), as_int(n_star, "n_star")
    N, w = _first_stage(kind, n, n_star)
    # sum_i s_i (1/m_i. - 1); zero only when every group has one cell
    c = math.fsum(si * (1.0 / m - 1.0) for si, m in zip(s, marginals))
    return (
        (len(marginals) - 1) / 2.0 * (1.0 / n - 1.0 / N)
        + (M_f - 1.0) / 12.0 * (1.0 / (n * n) - 1.0 / (N * N))
        - w * c / (2.0 * n * n)
    )


def risk_gap_present_prior(dq: DerivedQuantities, n: int, n_star: int) -> float:
    """risk(present) - risk(prior) from the truncated expansions.

    Positive means the prior-marginal estimator is the better one at these
    sizes.  At n = n* this collapses to -sum_i s_i (1/m_i. - 1) / (2n^2),
    which is negative whenever any multi-cell group exists: with equal
    sample sizes, reusing the present sample for both stages always beats
    splitting the stages across independent samples.
    """
    return gap_first_stage(
        EstimatorKind.PRIOR, dq.s.tolist(), dq.marginals.tolist(), dq.M_f, n, n_star
    )


def risk_gap_present_pooled(dq: DerivedQuantities, n: int, n_star: int) -> float:
    """risk(present) - risk(pooled) from the truncated expansions.

    This is the advisor's decision statistic: positive favors pooling the
    two surveys, negative says the pooled estimator is expected to do
    worse than ignoring the prior survey entirely (the small-n pathology).
    """
    return gap_first_stage(
        EstimatorKind.POOLED, dq.s.tolist(), dq.marginals.tolist(), dq.M_f, n, n_star
    )
