"""Second-order expansions of the expected KL loss, and their differences.

For a full multinomial model of dimension p with cell probabilities m and
sample size n, the expected KL loss of the MLE expands as

    p/(2n) + (M - 1)/(12 n^2) + o(n^-2),        M = sum 1/m_k.

For the two-stage layout, write I for the number of groups, s_i = J_i - 1,
M_f = sum 1/m_i., and A_i for the second-order coefficient of the i-th
within-group MLE risk (A_i = 2 sum_j 1/p_ij - 2 when the second-stage
model is full).  Dropping o(n^-2) and o(n*^-2) remainders, the three
estimators' risks are

  present:  (I-1+S)/(2n) + (M_f-1)/(12n^2)
                         + sum_i A_i/m_i. / (24n^2)

  prior:    (I-1)/(2n*) + S/(2n) + (M_f-1)/(12n*^2)
                         + sum_i (A_i + 12(1-m_i.)s_i)/m_i. / (24n^2)

  pooled:   (I-1)/(2(n+n*)) + S/(2n) + (M_f-1)/(12(n+n*)^2)
                         + sum_i (A_i + 12(1-m_i.)s_i w)/m_i. / (24n^2)

with S = sum_i s_i and w = n*/(n+n*).  These truncated forms are exactly
what this module evaluates; nothing here estimates the dropped remainder.

Two risk differences drive estimator comparison and the advisor:

  present - prior  = (I-1)/2 (1/n - 1/n*) + (M_f-1)/12 (1/n^2 - 1/n*^2)
                     - sum_i s_i (1/m_i. - 1) / (2n^2)

  present - pooled = (I-1)/2 (1/n - 1/(n+n*))
                     + (M_f-1)/12 (1/n^2 - 1/(n+n*)^2)
                     - w * sum_i s_i (1/m_i. - 1) / (2n^2)

The A_i terms cancel exactly in both, so each gap is a closed form in
first-stage quantities only; the advisor exploits this by plugging in
estimated marginals.  Sums accumulate with ``math.fsum`` in ascending
group order, so published six-digit values reproduce deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, MissingNStar
from .estimators import EstimatorKind
from .model import DerivedQuantities, as_int

__all__ = [
    "RiskApproximation",
    "risk_full_model",
    "risk_app",
    "risk_app_closed_form",
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


def risk_full_model(p: int, M: float, n: int) -> float:
    """Truncated MLE risk of a flat (one-stage) multinomial model."""
    p, n = as_int(p, "p"), as_int(n, "n")
    bound = float(p + 1) ** 2
    if M < bound * (1.0 - 1e-12):
        raise DomainError(
            f"M={M!r} is below the Cauchy-Schwarz floor (p+1)^2={bound!r}"
        )
    return p / (2.0 * n) + (M - 1.0) / (12.0 * n * n)


# ---------------------------------------------------------------------------
# the first- and second-order terms of each estimator's expansion
# ---------------------------------------------------------------------------

def _second_stage_sum(dq: DerivedQuantities, A: np.ndarray, weight: float) -> float:
    """sum_i (A_i + 12 (1-m_i.) s_i * weight) / m_i., fsum-accumulated."""
    return math.fsum(
        (a + 12.0 * (1.0 - m) * s * weight) / m
        for a, m, s in zip(A.tolist(), dq.marginals.tolist(), dq.s.tolist())
    )


def _present_terms(dq, n: float, A: np.ndarray) -> tuple[float, float]:
    first = dq.p_prime / (2.0 * n)
    second = (dq.M_f - 1.0) / (12.0 * n * n) + _second_stage_sum(dq, A, 0.0) / (
        24.0 * n * n
    )
    return first, second


def _prior_terms(dq, n: float, n_star: float, A: np.ndarray) -> tuple[float, float]:
    I = dq.marginals.size
    first = (I - 1) / (2.0 * n_star) + float(dq.s.sum()) / (2.0 * n)
    second = (dq.M_f - 1.0) / (12.0 * n_star * n_star) + _second_stage_sum(
        dq, A, 1.0
    ) / (24.0 * n * n)
    return first, second


def _pooled_terms(dq, n: float, n_star: float, A: np.ndarray) -> tuple[float, float]:
    I = dq.marginals.size
    pooled = n + n_star
    first = (I - 1) / (2.0 * pooled) + float(dq.s.sum()) / (2.0 * n)
    second = (dq.M_f - 1.0) / (12.0 * pooled * pooled) + _second_stage_sum(
        dq, A, n_star / pooled
    ) / (24.0 * n * n)
    return first, second


_TERMS = {
    EstimatorKind.PRIOR: _prior_terms,
    EstimatorKind.POOLED: _pooled_terms,
}


def _resolve_A(dq: DerivedQuantities, A: Sequence[float] | None) -> np.ndarray:
    if A is None:
        return dq.A
    arr = np.asarray(A, dtype=np.float64)
    if arr.shape != dq.A.shape:
        raise DomainError(
            f"A override has shape {arr.shape}, expected {dq.A.shape}"
        )
    return arr


def risk_app(
    kind: EstimatorKind,
    dq: DerivedQuantities,
    n: int,
    n_star: int | None = None,
    A: Sequence[float] | None = None,
) -> RiskApproximation:
    """Evaluate one estimator's truncated risk expansion.

    ``A`` optionally overrides the per-group second-order coefficients,
    for second-stage models other than the full one.  For the prior
    estimator, ``n_star=math.inf`` gives the limit of its risk as the prior
    survey grows without bound: the within-group floor that no prior
    survey can lower.  Otherwise sizes are integers >= 1 (numpy's work).
    """
    n = as_int(n, "n")
    coeffs = _resolve_A(dq, A)
    if kind is EstimatorKind.PRESENT:
        first, second = _present_terms(dq, float(n), coeffs)
        n_star = None
    else:
        if n_star is None:
            raise MissingNStar(f"estimator {kind.value!r} needs n_star")
        if not (kind is EstimatorKind.PRIOR and n_star == math.inf):
            n_star = as_int(n_star, "n_star")
        first, second = _TERMS[kind](dq, float(n), float(n_star), coeffs)
    return RiskApproximation(
        first_order=first,
        second_order=second,
        total=first + second,
        kind=kind,
        n=n,
        n_star=n_star,
    )


def risk_app_closed_form(
    kind: EstimatorKind,
    dq: DerivedQuantities,
    n: int,
    n_star: int | None = None,
) -> float:
    """Algebraically reduced risk expressions, valid only when every
    second-stage model is full.

    These are redundant with :func:`risk_app` by construction and exist as
    an independent cross-check: the package asserts agreement to 1e-12 on
    every build.
    """
    n = as_int(n, "n")
    I = dq.marginals.size
    p = dq.p_total
    M, M_f = dq.M, dq.M_f
    if kind is EstimatorKind.PRESENT:
        return p / (2.0 * n) + (M - 1.0) / (12.0 * n * n)
    if n_star is None:
        raise MissingNStar(f"estimator {kind.value!r} needs n_star")
    n_star = as_int(n_star, "n_star")
    J = dq.s + 1
    if kind is EstimatorKind.PRIOR:
        tail = M + math.fsum(
            (6.0 * j - 7.0) / m for j, m in zip(J.tolist(), dq.marginals.tolist())
        ) - 6.0 * (p + 1 - I)
        return (
            (I - 1) / (2.0 * n_star)
            + (p + 1 - I) / (2.0 * n)
            + (M_f - 1.0) / (12.0 * n_star * n_star)
            + tail / (12.0 * n * n)
        )
    pooled = n + n_star
    mix = math.fsum(
        j / m for j, m in zip(J.tolist(), dq.marginals.tolist())
    ) - M_f - (p - I + 1)
    tail = M - M_f + 6.0 * n_star / pooled * mix
    return (
        (I - 1) / (2.0 * pooled)
        + (p - I + 1) / (2.0 * n)
        + (M_f - 1.0) / (12.0 * pooled * pooled)
        + tail / (12.0 * n * n)
    )


# ---------------------------------------------------------------------------
# risk differences (decision statistics)
# ---------------------------------------------------------------------------
# The A_i terms cancel exactly in both differences, so the gaps depend only
# on first-stage quantities (I, s_i, m_i., M_f).  The advisor exploits this:
# it evaluates the same helpers with *estimated* marginals plugged in.

def _weighted_dimension_sum(s, marginals) -> float:
    """sum_i s_i (1/m_i. - 1); zero only when every group has one cell."""
    return math.fsum(
        si * (1.0 / m - 1.0) for si, m in zip(s, marginals)
    )


def gap_present_prior_first_stage(
    s: Sequence[int], marginals: Sequence[float], M_f: float, n: int, n_star: int
) -> float:
    """risk(present) - risk(prior) from first-stage quantities only."""
    n, n_star = as_int(n, "n"), as_int(n_star, "n_star")
    c = _weighted_dimension_sum(s, marginals)
    I = len(marginals)
    return (
        (I - 1) / 2.0 * (1.0 / n - 1.0 / n_star)
        + (M_f - 1.0) / 12.0 * (1.0 / (n * n) - 1.0 / (n_star * n_star))
        - c / (2.0 * n * n)
    )


def gap_present_pooled_first_stage(
    s: Sequence[int], marginals: Sequence[float], M_f: float, n: int, n_star: int
) -> float:
    """risk(present) - risk(pooled) from first-stage quantities only."""
    n, n_star = as_int(n, "n"), as_int(n_star, "n_star")
    c = _weighted_dimension_sum(s, marginals)
    I = len(marginals)
    pooled = n + n_star
    return (
        (I - 1) / 2.0 * (1.0 / n - 1.0 / pooled)
        + (M_f - 1.0) / 12.0 * (1.0 / (n * n) - 1.0 / (pooled * pooled))
        - n_star / pooled * c / (2.0 * n * n)
    )


def risk_gap_present_prior(dq: DerivedQuantities, n: int, n_star: int) -> float:
    """risk(present) - risk(prior) from the truncated expansions.

    Positive means the prior-marginal estimator is the better one at these
    sizes.  At n = n* this collapses to -sum_i s_i (1/m_i. - 1) / (2n^2),
    which is negative whenever any multi-cell group exists: with equal
    sample sizes, reusing the present sample for both stages always beats
    splitting the stages across independent samples.
    """
    return gap_present_prior_first_stage(
        dq.s.tolist(), dq.marginals.tolist(), dq.M_f, n, n_star
    )


def risk_gap_present_pooled(dq: DerivedQuantities, n: int, n_star: int) -> float:
    """risk(present) - risk(pooled) from the truncated expansions.

    This is the advisor's decision statistic: positive favors pooling the
    two surveys, negative says the pooled estimator is expected to do
    worse than ignoring the prior survey entirely (the small-n pathology).
    """
    return gap_present_pooled_first_stage(
        dq.s.tolist(), dq.marginals.tolist(), dq.M_f, n, n_star
    )
