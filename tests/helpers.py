"""Shared generators and reference formulas for the tests.

The generators are driven by a caller-supplied Generator so test files
stay deterministic; no global random state.  The reference formulas are
independent reductions of the risk expansions that the tests compare
``risk_app`` against, and the reference discard loop is the engine's
former per-row-counter loop; the package itself has no use for them.
"""

from __future__ import annotations

import math

import numpy as np

from surveyrisk import (
    DomainError,
    EstimatorKind,
    MissingNStar,
    ProbabilityEstimate,
    RejectionBudgetExceeded,
    TwoStageModel,
    build_model,
    derive,
)
from surveyrisk.asymptotics import gap_first_stage
from surveyrisk.model import as_int


def random_model(rng: np.random.Generator, max_groups: int = 5,
                 max_cells: int = 6) -> TwoStageModel:
    """A model with random layout and Gamma-drawn positive cells."""
    n_groups = int(rng.integers(2, max_groups + 1))
    sizes = rng.integers(1, max_cells + 1, size=n_groups)
    cells = [rng.gamma(shape=1.0, scale=1.0, size=int(k)) + 1e-3
             for k in sizes]
    return build_model(cells, renormalize=True)


def random_estimate(rng: np.random.Generator,
                    model: TwoStageModel) -> ProbabilityEstimate:
    """A valid estimate on the model's layout; occasionally contains an
    exactly-zero cell or a whole zeroed group, the shapes the prior
    estimator can produce."""
    groups = [rng.gamma(shape=1.0, scale=1.0, size=len(c)) + 1e-6
              for c in model.cells]
    if rng.random() < 0.3:
        g = int(rng.integers(0, len(groups)))
        j = int(rng.integers(0, groups[g].size))
        groups[g][j] = 0.0
    if rng.random() < 0.15 and len(groups) > 2:
        groups[int(rng.integers(0, len(groups)))][:] = 0.0
    total = float(np.sum(np.concatenate(groups)))
    return ProbabilityEstimate(cells=tuple(g / total for g in groups))


# ---------------------------------------------------------------------------
# reference formulas
# ---------------------------------------------------------------------------

def gap(kind: EstimatorKind, dq, n: int, n_star: int) -> float:
    """risk(present) - risk(kind) at the model's own marginals."""
    return gap_first_stage(kind, dq.s.tolist(), dq.marginals.tolist(), n, n_star)


def inverse_cell_sum(model: TwoStageModel) -> float:
    """M = sum_ij 1/m_ij, summed group-major with ``math.fsum``."""
    return math.fsum(1.0 / x for g in model.cells for x in g.tolist())


def risk_full_model(p: int, M: float, n: int) -> float:
    """Truncated MLE risk of a flat (one-stage) multinomial model."""
    p, n = as_int(p, "p"), as_int(n, "n")
    bound = float(p + 1) ** 2
    if M < bound * (1.0 - 1e-12):
        raise DomainError(
            f"M={M!r} is below the Cauchy-Schwarz floor (p+1)^2={bound!r}"
        )
    return p / (2.0 * n) + (M - 1.0) / (12.0 * n * n)


def risk_app_closed_form(
    kind: EstimatorKind,
    model: TwoStageModel,
    n: int,
    n_star: int | None = None,
) -> float:
    """Algebraically reduced risk expressions, valid only when every
    second-stage model is full.

    These are redundant with ``risk_app`` by construction and exist as an
    independent cross-check: the tests assert agreement to 1e-12.
    """
    n = as_int(n, "n")
    dq = derive(model)
    I = dq.marginals.size
    p = dq.p_total
    M, M_f = inverse_cell_sum(model), dq.M_f
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


def draw_totals_reference(gen: np.random.Generator, dq, n: int, rows: int,
                          budget: int) -> tuple[np.ndarray, int]:
    """Group totals with the discard rule, by a per-row discard counter:
    every round rescans the whole block, counts a discard against each
    failing row and gives up once some row's count exceeds ``budget``.

    Returns (totals, discarded), like ``montecarlo._draw_totals`` with
    ``_MAX_REJECTIONS`` set to ``budget``.
    """
    totals = gen.multinomial(n, dq.marginals, size=rows)
    rejections = np.zeros(rows, dtype=np.int64)
    discarded = 0
    while True:
        bad = np.flatnonzero((totals == 0).any(axis=1))
        if bad.size == 0:
            return totals, discarded
        rejections[bad] += 1
        if int(rejections.max()) > budget:
            raise RejectionBudgetExceeded(
                f"a replication discarded more than {budget} draws at n={n}")
        discarded += int(bad.size)
        totals[bad] = gen.multinomial(n, dq.marginals, size=bad.size)
