"""Second-order expansions of the expected KL loss, and their differences.

For a full multinomial model of dimension p with cell probabilities m and
sample size n, the expected KL loss of the MLE expands as

    p/(2n) + (M - 1)/(12 n^2) + o(n^-2),        M = sum 1/m_k.

For the two-stage layout, write I for the number of groups, s_i = J_i - 1,
S = sum_i s_i, M_f = sum 1/m_i., and A_i = 2 sum_j 1/p_ij - 2 for the
second-order coefficient of the i-th within-group MLE risk.  The three
estimators share the present survey's within-group conditionals and
differ only in their first-stage marginals, which each estimates from a
first-stage sample of size N = ``kind.first_stage(n, n*)``, of which the
prior survey supplies the share w:

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
import sys
from dataclasses import dataclass
from typing import Sequence

from .estimators import EstimatorKind
from .errors import DomainError
from .model import TwoStageModel, as_int, derive

__all__ = ["RiskApproximation", "risk_app"]


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


def risk_app(
    kind: EstimatorKind,
    model: TwoStageModel,
    n: int,
    n_star: int | None = None,
) -> RiskApproximation:
    """Evaluate one estimator's truncated risk expansion for ``model``.

    For the prior estimator, ``n_star=math.inf`` gives the limit of its
    risk as the prior survey grows without bound: the within-group floor
    that no prior survey can lower.  Otherwise sizes are integers >= 1
    (numpy integers work).  ``n_star`` is ignored for the present estimator.
    A ``model`` that is not a TwoStageModel, a ``kind`` that is not an
    EstimatorKind member, n + n* past the float range, or a risk past it
    raises DomainError.
    """
    dq = derive(model)
    if not (kind is EstimatorKind.PRIOR and n_star == math.inf):
        n_star = EstimatorKind.prior_size(kind, n_star)
    n = as_int(n, "n")
    N = kind.first_stage(n, n_star)
    if N != math.inf and N > sys.float_info.max:
        raise DomainError("n + n* must be within the float range")
    # the prior survey's share of N; 1 in the n* = inf limit
    w = 1.0 if N == math.inf else kind.first_stage(0, n_star) / N
    if kind is EstimatorKind.PRESENT:
        # one division of p = I-1+S: (I-1)/(2n) + S/(2n) rounds differently
        first = dq.p_total / (2.0 * n)
    else:
        first = (dq.marginals.size - 1) / (2.0 * N) + float(dq.s.sum()) / (2.0 * n)
    try:
        second = (dq.M_f - 1.0) / (12.0 * N * N) + math.fsum(
            (a + 12.0 * (1.0 - m) * s * w) / m
            for a, m, s in zip(dq.A.tolist(), dq.marginals.tolist(), dq.s.tolist())
        ) / (24.0 * n * n)
    except OverflowError:
        second = math.inf
    if not math.isfinite(second):
        raise DomainError("the risk expansion passes the float range; the "
                          "model's smallest cells are too small")
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
    n: int,
    n_star: int | None,
) -> float:
    """risk(present) - risk(kind) from the truncated expansions, given
    only first-stage quantities; M_f is summed from ``marginals``.

    Positive means ``kind`` is the better estimator at these sizes.  For
    the pooled kind this is the advisor's decision statistic; a negative
    value says pooling is expected to do worse than ignoring the prior
    survey (the small-n pathology).  For the prior kind at n = n* it
    collapses to -sum_i s_i (1/m_i. - 1) / (2n^2), negative whenever any
    group has more than one cell; the present kind's is 0, at any n*.  A
    ``kind`` that is not an EstimatorKind member raises DomainError.
    """
    n_star = EstimatorKind.prior_size(kind, n_star)
    n = as_int(n, "n")
    N = kind.first_stage(n, n_star)
    w = kind.first_stage(0, n_star) / N
    M_f = math.fsum(1.0 / m for m in marginals)
    # sum_i s_i (1/m_i. - 1); zero only when every group has one cell
    c = math.fsum(si * (1.0 / m - 1.0) for si, m in zip(s, marginals))
    return (
        (len(marginals) - 1) / 2.0 * (1.0 / n - 1.0 / N)
        + (M_f - 1.0) / 12.0 * (1.0 / (n * n) - 1.0 / (N * N))
        - w * c / (2.0 * n * n)
    )
