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
or by Monte Carlo (method "sim").  One routine serves both: it gallops
from a guess (steps s, 2s, 4s, ... up while the risk is above the
target, down while it is not), then runs integer bisection on the
bracket.  It probes no size above n0 * 2**MAX_DOUBLINGS.

* "app" gallops from n0 in steps of n0, that is, it doubles n0 until the
  target is met; the analytic curve is monotone decreasing, so the
  answer is the least size meeting the target.
* "sim" starts where the analytic answer a0 is, probes the simulated
  curve there, shifts the analytic curve by the measured offset and
  solves that again (no engine run) for a1, falling back to a0 when the
  shifted target lies beyond the cap.  It then gallops from a1 in steps
  of 1, 2, 4, ..., reusing every probe already made as a bracket end.
  Where the simulated curve is the analytic one shifted by a constant,
  a solve takes 3 or 4 engine runs, the target run included.

A simulated answer x is a crossing of the probed curve: risk(x) is at
or below the target and risk(x - 1) is above it, both on the same seed.
It is the unique such x only where that curve is monotone; Monte Carlo
noise can make it wiggle near a flat root.  The simulation method reuses
one seed across all probe points (common random numbers); prior draws
are comonotone across n* by the engine's design, which keeps the probed
curve smooth.  Attainability is prescreened analytically even for the
simulation method, so an impossible target raises Unattainable rather
than burning replications; a simulated curve that stays above the
target up to the cap raises SimulationNoise instead.

Advisor.  The present-vs-pooled risk gap depends only on first-stage
quantities (I, s_i, m_i., M_f), so it can be evaluated with estimated
marginals plugged in:

* after both surveys ran (``AdviceContext.POST_SURVEY``), plug in the
  pooled marginals (x_i. + x*_i)/(n + n*): a positive gap says pooling
  lowers risk, a negative one says to use the present survey alone;
* at the planning stage (``AdviceContext.PLANNING``), plug in the prior
  marginals x*_i/n* at the candidate n: a negative gap flags n as too
  small for pooling to help, so increase it (or simplify the second
  stage).

Any other ``stage`` value, strings included, raises DomainError.

A gap of exactly zero resolves to UsePooled: at the boundary of the
truncated expansion pooling is not predicted to hurt.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

from .asymptotics import gap_first_stage, risk_app
from .errors import (
    DomainError,
    MissingPriorCounts,
    NotNormalized,
    ShapeError,
    SimulationNoise,
    Unattainable,
    ZeroGroupCount,
)
from .estimators import EstimatorKind
from .model import (
    NORMALIZATION_TOL,
    CheckedEnum,
    SurveyCounts,
    TwoStageModel,
    as_int,
    as_tuple,
    check_normal,
    derive,
    fsum_total,
)
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

#: the solver probes no size above n0 * 2**MAX_DOUBLINGS
MAX_DOUBLINGS = 20


class RssKind(CheckedEnum):
    PRIOR_TO_PRESENT = "prior-vs-present"
    PRESENT_TO_POOLED = "present-vs-pooled"


class Decision(CheckedEnum):
    USE_POOLED = "UsePooled"
    USE_PRESENT_ONLY = "UsePresentOnly"
    INCREASE_N = "IncreaseN"


class AdviceContext(CheckedEnum):
    POST_SURVEY = "PostSurvey"
    PLANNING = "Planning"


@dataclass(frozen=True)
class RssQuery:
    """What to solve for and how to evaluate risk while doing it.

    ``n0`` and a given ``n0_star`` are integers >= 1, stored as Python
    ints.  Present-vs-pooled needs ``n0_star``; prior-vs-present does not
    use it and also accepts None.  ``config`` is a SimulationConfig for
    ``method`` "sim" and None for "app"; a ``kind`` that is not an RssKind
    member, or any other config, raises DomainError.
    """

    kind: RssKind
    n0: int
    n0_star: int | None = None
    method: str = "app"
    config: SimulationConfig | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, RssKind):
            raise DomainError(f"kind must be an RssKind, got {self.kind!r}")
        n0, n0_star = as_int(self.n0, "n0"), self.n0_star
        if n0_star is not None or self.kind is RssKind.PRESENT_TO_POOLED:
            n0_star = as_int(n0_star, f"a {self.kind.value} query's n0_star")
        # the instance is frozen; normalize its fields before anyone sees it
        vars(self).update(n0=n0, n0_star=n0_star)
        if self.method not in ("app", "sim"):
            raise DomainError(f"method must be 'app' or 'sim', got {self.method!r}")
        wanted = SimulationConfig if self.method == "sim" else type(None)
        if not isinstance(self.config, wanted):
            raise DomainError(
                "method 'sim' needs a SimulationConfig and 'app' takes none")


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
    f: Callable[[int], float],
    guess: int,
    step: int,
    cap: int,
    memo: dict[int, float] | None = None,
) -> int | None:
    """Some x in [1, cap] with f(x) <= 0 < f(x - 1), or None if f(cap) > 0.

    ``f(0)`` counts as positive.  Gallops from ``guess``: upward in
    steps ``step``, ``2*step``, ``4*step``, ... while f stays positive,
    or downward the same way while it does not, and clipped to [0, cap];
    then bisects the bracket.  ``f`` is memoized in ``memo`` so noisy
    (simulated) evaluations are consistent within one solve; sizes
    already in ``memo`` serve as bracket ends.  For a monotone
    decreasing f the answer is the least x with f(x) <= 0.
    """
    memo = {} if memo is None else memo

    def g(x: int) -> float:
        if x not in memo:
            memo[x] = f(x)
        return memo[x]

    # a memoized size inside the next step is a free probe, and the
    # bracket then ends there
    if g(guess) > 0.0:
        lo = guess
        while True:
            if lo >= cap:
                return None
            x = min((y for y in memo if lo < y <= lo + step),
                    default=min(lo + step, cap))
            if g(x) <= 0.0:
                hi = x
                break
            lo, step = x, 2 * step
    else:
        hi = guess
        while True:
            x = max((y for y in memo if hi - step <= y < hi),
                    default=max(hi - step, 0))
            if x == 0 or g(x) > 0.0:
                lo = x
                break
            hi, step = x, 2 * step
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

    Returns a sample size x whose risk is at or below the target while
    the risk at x - 1 is above it: the smallest such size on the
    analytic curve, and a crossing of the probed curve for simulation.
    ``workers`` is forwarded to the simulation engine; it does not
    change results.
    """
    workers = as_int(workers, "workers")
    derive(model)  # a model of the wrong type is refused before the query
    if not isinstance(query, RssQuery):
        raise DomainError(f"query must be an RssQuery, got {type(query).__name__}")
    n0 = query.n0
    cap = n0 * 2**MAX_DOUBLINGS

    if query.kind is RssKind.PRIOR_TO_PRESENT:
        target_app = risk_app(EstimatorKind.PRESENT, model, n0).total
        if risk_app(EstimatorKind.PRIOR, model, n0, math.inf).total >= target_app:
            raise Unattainable(
                f"the prior estimator cannot reach the present estimator's "
                f"risk at n0={n0} for any prior size; the within-group risk "
                f"floor is too high"
            )

        def curve(risk: Callable[..., float]) -> Callable[[int], float]:
            """n* -> prior risk at (n0, n*) minus present risk at n0."""
            target = risk(EstimatorKind.PRESENT, n0, None)
            return lambda ns: risk(EstimatorKind.PRIOR, n0, ns) - target
    else:  # present-vs-pooled: always attainable (present risk falls to 0)

        def curve(risk: Callable[..., float]) -> Callable[[int], float]:
            """n -> present risk at n minus pooled risk at (n0, n0*)."""
            target = risk(EstimatorKind.POOLED, n0, query.n0_star)
            return lambda n: risk(EstimatorKind.PRESENT, n, None) - target

    f_app = curve(lambda kind, n, n_star: risk_app(kind, model, n, n_star).total)
    a0 = _least_satisfying(f_app, n0, n0, cap)
    if query.method == "app":
        if a0 is None:
            raise Unattainable("bracketing exhausted; target out of reach")
        return a0

    a0 = cap if a0 is None else a0
    f_sim = curve(lambda kind, n, n_star: simulate_risk(
        kind, model, n, n_star, query.config, workers).mean_loss)
    memo = {a0: f_sim(a0)}
    offset = memo[a0] - f_app(a0)
    a1 = _least_satisfying(lambda x: f_app(x) + offset, a0, 1, cap)
    found = _least_satisfying(f_sim, a0 if a1 is None else a1, 1, cap, memo)
    if found is None:
        raise SimulationNoise(
            "could not bracket the target at the configured replication "
            "count; increase replications"
        )
    return found


# ---------------------------------------------------------------------------
# advisor
# ---------------------------------------------------------------------------

def _layout(group_sizes: Sequence[int]) -> tuple[int, ...]:
    return tuple(as_int(j, "a group size", least=0)
                 for j in as_tuple(group_sizes, "group_sizes"))


def _check_stage(stage: AdviceContext) -> None:
    if not isinstance(stage, AdviceContext):
        raise DomainError(f"stage must be an AdviceContext, got {stage!r}")


def advise_from_marginals(
    group_sizes: Sequence[int],
    marginals: Sequence[float],
    n: int,
    n_star: int,
    stage: AdviceContext = AdviceContext.POST_SURVEY,
) -> Recommendation:
    """Advise from explicit plug-in marginals (e.g. the true ones).

    All inputs of the gap statistic (I, s_i, M_f and the marginals) are
    recomputed from what is passed here; nothing else is consulted.  The
    marginals must be positive, not subnormal, and sum to 1 within
    NORMALIZATION_TOL; a statistic that overflows raises DomainError.
    """
    _check_stage(stage)
    n, n_star = as_int(n, "n"), as_int(n_star, "n_star")
    group_sizes = as_tuple(group_sizes, "group_sizes")
    marginals = as_tuple(marginals, "marginals")
    if len(group_sizes) != len(marginals):
        raise ShapeError(
            f"{len(group_sizes)} group sizes vs {len(marginals)} marginals"
        )
    if len(marginals) < 2:
        raise ShapeError("need at least 2 groups")
    for i, m in enumerate(marginals):
        if not isinstance(m, numbers.Real):
            raise DomainError(f"plug-in marginal for group {i} is {m!r}, "
                              f"not a real number")
        # an exact comparison: an integer past the float range is refused too
        if not abs(m) <= sys.float_info.max:
            raise DomainError(f"plug-in marginal for group {i} is {m!r}, not finite")
        if m <= 0.0:
            raise ZeroGroupCount(
                f"plug-in marginal for group {i} is {m!r}; cannot evaluate "
                f"the decision statistic"
            )
    check_normal(marginals, "plug-in marginals")
    total = fsum_total(marginals)
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise NotNormalized(f"plug-in marginals sum to {total!r}, not 1")
    s = [j - 1 for j in _layout(group_sizes)]
    if any(x < 0 for x in s):
        raise ShapeError("every group needs at least one cell")
    try:
        stat = gap_first_stage(EstimatorKind.POOLED, s, list(marginals), n, n_star)
    except OverflowError:  # a sum or a size past the float range
        stat = math.nan
    if not math.isfinite(stat):
        raise DomainError("the decision statistic overflows at these plug-in "
                          "marginals and sizes")
    if stage is AdviceContext.POST_SURVEY:
        decision = Decision.USE_POOLED if stat >= 0.0 else Decision.USE_PRESENT_ONLY
    else:
        decision = Decision.INCREASE_N if stat < 0.0 else Decision.USE_POOLED
    return Recommendation(
        statistic=stat,
        decision=decision,
        context=stage,
        n=n,
        n_star=n_star,
        plug_in_marginals=tuple(float(m) for m in marginals),
    )


def advise(
    counts: SurveyCounts,
    group_sizes: Sequence[int],
    stage: AdviceContext = AdviceContext.POST_SURVEY,
    n: int | None = None,
) -> Recommendation:
    """Advise from survey counts.

    ``group_sizes`` is the cell layout (J_i per group) and must match the
    counts.  Post-survey advice plugs the pooled marginals into the gap
    statistic at the observed (n, n*), and refuses an ``n`` that it would
    not use.  Planning advice needs a candidate present size ``n`` and
    plugs in the prior marginals; the present part of ``counts`` is
    ignored in that mode.
    """
    if not isinstance(counts, SurveyCounts):
        raise DomainError(f"counts must be SurveyCounts, got {type(counts).__name__}")
    _check_stage(stage)
    if _layout(group_sizes) != counts.group_sizes:
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

    if stage is AdviceContext.POST_SURVEY:
        if n is not None:
            raise DomainError(
                f"post-survey advice takes n from the counts, got n={n!r}")
        n = counts.n
        if n < 1:
            raise DomainError("present survey is empty (n = 0)")
        kind = EstimatorKind.POOLED
    else:
        n = as_int(n, "planning advice's candidate present size n")
        kind = EstimatorKind.PRIOR
    size = kind.first_stage(n, n_star)
    marginals = [kind.first_stage(t, xs) / size
                 for t, xs in zip(counts.group_totals, counts.prior)]
    return advise_from_marginals(group_sizes, marginals, n, n_star, stage)
