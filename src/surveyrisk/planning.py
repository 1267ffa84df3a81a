"""Sample-size planning and the pool-or-not advisor.

Required sample size (r.s.s.).  Two planning questions have the same
shape, "how large must one survey be to match the other design's risk":

* prior-vs-present: the present survey has size n0; find the least prior
  size n* at which the prior-marginal estimator's risk drops to the
  present estimator's risk at n0.  Since the prior estimator is strictly
  worse at n* = n0, the answer exceeds n0, and it may not exist at all:
  even an infinitely large prior survey cannot repair a small present
  survey (the second-stage risk term does not shrink with n*).

* present-vs-pooled: both surveys have sizes (n0, n0*); find the least
  present-only size n whose risk matches the pooled estimator's.  The
  answer always exists and is strictly less than n0 + n0*: a single
  unified survey of the combined size beats pooling two surveys.

Risks are evaluated either from the truncated expansions (method "app")
or by Monte Carlo (method "sim").  Both risk curves are monotone
decreasing in the probed size, so the solver brackets by doubling and
then runs integer bisection, returning the smallest integer satisfying
the inequality.  The simulation method reuses one seed across all probe
points (common random numbers); prior draws are comonotone across n* by
the engine's design, which keeps the probed curve smooth enough to
bisect.  Attainability is prescreened analytically even for the
simulation method, so an impossible target raises Unattainable rather
than burning replications; a bracket that fails for an attainable target
raises SimulationNoise instead.

Advisor.  The present-vs-pooled risk gap depends only on first-stage
quantities (I, s_i, m_i., M_f), so it can be evaluated with estimated
marginals plugged in:

* after both surveys ran ("post"), plug in the pooled marginals
  (x_i. + x*_i)/(n + n*): a positive gap says pooling lowers risk, a
  negative one says to use the present survey alone;
* at the planning stage ("plan"), plug in the prior marginals x*_i/n*
  at the candidate n: a negative gap flags n as too small for pooling
  to help, so increase it (or simplify the second stage).

A gap of exactly zero resolves to UsePooled: at the boundary of the
truncated expansion pooling is not predicted to hurt.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .asymptotics import gap_present_pooled_first_stage, risk_app
from .errors import (
    DomainError,
    MissingPriorCounts,
    ShapeError,
    SimulationNoise,
    Unattainable,
    ZeroGroupCount,
)
from .estimators import EstimatorKind
from .model import SurveyCounts, TwoStageModel, as_int, derive
from .montecarlo import SimulationConfig, simulate_risk

__all__ = [
    "RssKind",
    "RssQuery",
    "Decision",
    "AdviceContext",
    "Recommendation",
    "required_sample_size",
    "advise",
    "advise_from_marginals",
]

#: bracketing gives up at n0 * 2**MAX_DOUBLINGS
MAX_DOUBLINGS = 20


class RssKind(enum.Enum):
    PRIOR_TO_PRESENT = "prior-vs-present"
    PRESENT_TO_POOLED = "present-vs-pooled"


class Decision(enum.Enum):
    USE_POOLED = "UsePooled"
    USE_PRESENT_ONLY = "UsePresentOnly"
    INCREASE_N = "IncreaseN"


class AdviceContext(enum.Enum):
    POST_SURVEY = "PostSurvey"
    PLANNING = "Planning"


@dataclass(frozen=True)
class RssQuery:
    """What to solve for and how to evaluate risk while doing it.

    ``n0`` (and ``n0_star`` for present-vs-pooled) are integers >= 1,
    stored as Python ints; ``n0_star`` is not used for prior-vs-present.
    """

    kind: RssKind
    n0: int
    n0_star: int | None = None
    method: str = "app"
    config: SimulationConfig | None = None

    def __post_init__(self) -> None:
        n0, n0_star = as_int(self.n0, "n0"), self.n0_star
        if self.kind is RssKind.PRESENT_TO_POOLED:
            n0_star = as_int(n0_star, "a present-vs-pooled query's n0_star")
        # the instance is frozen; normalize its fields before anyone sees it
        vars(self).update(n0=n0, n0_star=n0_star)
        if self.method not in ("app", "sim"):
            raise DomainError(f"method must be 'app' or 'sim', got {self.method!r}")
        if self.method == "sim" and self.config is None:
            raise DomainError(
                "simulation method needs an explicit SimulationConfig"
            )


@dataclass(frozen=True)
class Recommendation:
    """The advisor's verdict: the plug-in gap statistic and what it implies."""

    statistic: float
    decision: Decision
    context: AdviceContext
    n: int
    n_star: int
    plug_in_marginals: tuple[float, ...]


def _least_satisfying(
    f: Callable[[int], float], start: int, on_cap_exhausted: Exception
) -> int:
    """Least integer x >= 1 with f(x) <= 0, for f monotone decreasing.

    Brackets by doubling from ``start``; bisects the bracket.  ``f`` is
    memoized so noisy (simulated) evaluations are consistent within one
    solve.
    """
    cache: dict[int, float] = {}

    def g(x: int) -> float:
        if x not in cache:
            cache[x] = f(x)
        return cache[x]

    lo, hi = 0, max(start, 1)
    doublings = 0
    while g(hi) > 0.0:
        lo = hi
        hi *= 2
        doublings += 1
        if doublings > MAX_DOUBLINGS:
            raise on_cap_exhausted
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if g(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def required_sample_size(
    query: RssQuery, model: TwoStageModel, workers: int = 1
) -> int:
    """Solve an r.s.s. query; see the module docstring for semantics.

    Returns the smallest integer sample size whose risk is at or below the
    target.  ``workers`` is forwarded to the simulation engine; it does
    not change results.
    """
    workers = as_int(workers, "workers")
    dq = derive(model)
    n0 = query.n0
    if query.method == "app":
        def risk(kind: EstimatorKind, n: int, n_star: int | None = None) -> float:
            return risk_app(kind, dq, n, n_star).total
    else:
        def risk(kind: EstimatorKind, n: int, n_star: int | None = None) -> float:
            return simulate_risk(
                kind, model, n, n_star, query.config, workers
            ).mean_loss
    cap_error: Exception = SimulationNoise(
        "could not bracket the target at the configured replication "
        "count; increase replications"
    )

    if query.kind is RssKind.PRIOR_TO_PRESENT:
        target_app = risk_app(EstimatorKind.PRESENT, dq, n0).total
        if risk_app(EstimatorKind.PRIOR, dq, n0, math.inf).total >= target_app:
            raise Unattainable(
                f"the prior estimator cannot reach the present estimator's "
                f"risk at n0={n0} for any prior size; the within-group risk "
                f"floor is too high"
            )
        if query.method == "app":
            cap_error = Unattainable("bracketing exhausted; target out of reach")
        target = risk(EstimatorKind.PRESENT, n0)

        def f(ns: int) -> float:
            return risk(EstimatorKind.PRIOR, n0, ns) - target
    else:  # present-vs-pooled: always attainable (present risk falls to 0)
        target = risk(EstimatorKind.POOLED, n0, query.n0_star)

        def f(n: int) -> float:
            return risk(EstimatorKind.PRESENT, n) - target
    return _least_satisfying(f, n0, cap_error)


# ---------------------------------------------------------------------------
# advisor
# ---------------------------------------------------------------------------

def advise_from_marginals(
    group_sizes: Sequence[int],
    marginals: Sequence[float],
    n: int,
    n_star: int,
    stage: str = "post",
) -> Recommendation:
    """Advise from explicit plug-in marginals (e.g. the true ones).

    All inputs of the gap statistic (I, s_i, M_f and the marginals) are
    recomputed from what is passed here; nothing else is consulted.
    """
    if stage not in ("post", "plan"):
        raise DomainError(f"stage must be 'post' or 'plan', got {stage!r}")
    n, n_star = as_int(n, "n"), as_int(n_star, "n_star")
    if len(group_sizes) != len(marginals):
        raise ShapeError(
            f"{len(group_sizes)} group sizes vs {len(marginals)} marginals"
        )
    if len(marginals) < 2:
        raise ShapeError("need at least 2 groups")
    for i, m in enumerate(marginals):
        if m <= 0.0:
            raise ZeroGroupCount(
                f"plug-in marginal for group {i} is {m!r}; cannot evaluate "
                f"the decision statistic"
            )
    s = [int(j) - 1 for j in group_sizes]
    if any(x < 0 for x in s):
        raise ShapeError("every group needs at least one cell")
    M_f = math.fsum(1.0 / m for m in marginals)
    stat = gap_present_pooled_first_stage(s, list(marginals), M_f, n, n_star)
    if stage == "post":
        decision = Decision.USE_POOLED if stat >= 0.0 else Decision.USE_PRESENT_ONLY
        context = AdviceContext.POST_SURVEY
    else:
        decision = Decision.INCREASE_N if stat < 0.0 else Decision.USE_POOLED
        context = AdviceContext.PLANNING
    return Recommendation(
        statistic=stat,
        decision=decision,
        context=context,
        n=n,
        n_star=n_star,
        plug_in_marginals=tuple(float(m) for m in marginals),
    )


def advise(
    counts: SurveyCounts,
    group_sizes: Sequence[int],
    stage: str = "post",
    n: int | None = None,
) -> Recommendation:
    """Advise from survey counts.

    ``group_sizes`` is the cell layout (J_i per group) and must match the
    counts.  Post-survey advice plugs the pooled marginals into the gap
    statistic at the observed (n, n*).  Planning advice needs a candidate
    present size ``n`` and plugs in the prior marginals; the present part
    of ``counts`` is ignored in that mode.
    """
    if tuple(int(j) for j in group_sizes) != counts.group_sizes:
        raise ShapeError(
            f"layout {tuple(group_sizes)} does not match counts layout "
            f"{counts.group_sizes}"
        )
    if counts.prior is None:
        raise MissingPriorCounts("advice needs prior-survey counts")
    n_star = counts.n_star
    assert n_star is not None
    if n_star < 1:
        raise DomainError("prior survey is empty (n* = 0)")

    if stage == "post":
        n_present = counts.n
        if n_present < 1:
            raise DomainError("present survey is empty (n = 0)")
        totals = counts.group_totals
        denom = n_present + n_star
        marginals = [
            (t + xs) / denom for t, xs in zip(totals, counts.prior)
        ]
        return advise_from_marginals(
            group_sizes, marginals, n_present, n_star, stage="post"
        )
    if stage == "plan":
        n = as_int(n, "planning advice's candidate present size n")
        marginals = [xs / n_star for xs in counts.prior]
        return advise_from_marginals(
            group_sizes, marginals, n, n_star, stage="plan"
        )
    raise DomainError(f"stage must be 'post' or 'plan', got {stage!r}")
