"""Kullback-Leibler loss and its two-stage chain-rule decomposition.

The loss of an estimate q against the truth m is

    D[q : m] = sum_k q_k log(q_k / m_k),        0 * log 0 := 0.

For a two-stage layout the same number splits exactly into a first-stage
part plus marginal-weighted second-stage parts:

    D[q : m] = D[q_f : m_f] + sum_i q_i. * D[q_i/q_i. : p_i]

where q_f and m_f are the group-marginal vectors.  The decomposition is
an identity, not an approximation; it is what lets the risk expansions
treat the two stages separately, and it is property-tested as such.

Zero handling follows the x log x -> 0 limit: zero-estimate entries are
skipped rather than evaluated, so no NaN can propagate, and a group whose
estimated marginal is exactly zero contributes weight 0 with its
second-stage term recorded as 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import rel_entr

from .errors import DomainError, NotNormalized, ShapeError, ZeroTruth
from .model import (NORMALIZATION_TOL, TwoStageModel, as_floats, as_tuple, derive,
                    fsum_total)

__all__ = [
    "ProbabilityEstimate",
    "ChainRuleBreakdown",
    "kl_divergence",
    "chain_rule",
]


@dataclass(frozen=True, eq=False)
class ProbabilityEstimate:
    """An estimated cell-probability layout: nonnegative, normalized,
    zeros allowed (a prior-survey group can be unobserved)."""

    cells: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        cells = tuple(as_floats(g, f"estimate group {i}")
                      for i, g in enumerate(as_tuple(self.cells, "estimate cells")))
        if not cells or any(g.ndim != 1 for g in cells):
            raise ShapeError("an estimate needs one vector of cells per group")
        # the instance is frozen; normalize its fields before anyone sees it
        vars(self).update(cells=cells)
        for i, g in enumerate(cells):
            if np.any(g < 0.0) or not np.all(np.isfinite(g)):
                raise DomainError(f"estimate group {i} has a negative or "
                                  f"non-finite entry")
        total = fsum_total(self.flat().tolist())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise NotNormalized(f"estimate sums to {total!r}")

    @property
    def group_sizes(self) -> tuple[int, ...]:
        return tuple(c.size for c in self.cells)

    def flat(self) -> np.ndarray:
        return np.concatenate(self.cells)

    def group_marginals(self) -> np.ndarray:
        return np.array([float(np.sum(c)) for c in self.cells])


@dataclass(frozen=True)
class ChainRuleBreakdown:
    """First-stage KL, per-group (weight, second-stage KL) pairs, and the
    total, which equals first_stage_kl + sum(weight * kl) exactly as
    accumulated (ascending group index)."""

    first_stage_kl: float
    per_group: tuple[tuple[float, float], ...]
    total: float


def kl_divergence(estimate, truth) -> float:
    """KL divergence of ``estimate`` from ``truth`` (flat vectors).

    ``truth`` must be strictly positive and both arguments normalized to 1
    within tolerance; ``estimate`` may contain zeros.  The sum is clamped
    at 0 so rounding on near-identical inputs cannot produce a negative
    loss.
    """
    e, t = as_floats(estimate, "estimate"), as_floats(truth, "truth")
    if e.shape != t.shape or e.ndim != 1:
        raise ShapeError(f"estimate shape {e.shape} vs truth shape {t.shape}")
    if np.any(t <= 0.0) or not np.all(np.isfinite(t)):
        raise ZeroTruth("truth must be strictly positive and finite")
    if np.any(e < 0.0) or not np.all(np.isfinite(e)):
        raise DomainError("estimate entries must be nonnegative and finite")
    se, st = fsum_total(e.tolist()), fsum_total(t.tolist())
    if abs(se - 1.0) > NORMALIZATION_TOL:
        raise NotNormalized(f"estimate sums to {se!r}")
    if abs(st - 1.0) > NORMALIZATION_TOL:
        raise NotNormalized(f"truth sums to {st!r}")
    # rel_entr(0, t) == 0, which is exactly the 0*log 0 convention
    return max(float(np.sum(rel_entr(e, t))), 0.0)


def chain_rule(estimate: ProbabilityEstimate, model: TwoStageModel) -> ChainRuleBreakdown:
    """Decompose D[estimate : model] into first- and second-stage parts."""
    dq = derive(model)
    if not isinstance(estimate, ProbabilityEstimate):
        raise DomainError("estimate must be a ProbabilityEstimate, got "
                          f"{type(estimate).__name__}")
    if estimate.group_sizes != model.group_sizes:
        raise ShapeError(
            f"estimate layout {estimate.group_sizes} does not match model "
            f"layout {model.group_sizes}"
        )
    est_marginals = estimate.group_marginals()
    first = kl_divergence(est_marginals, dq.marginals)

    per_group: list[tuple[float, float]] = []
    for w, e_cells, p_i in zip(est_marginals, estimate.cells, dq.conditionals):
        if w <= 0.0:
            per_group.append((0.0, 0.0))
            continue
        kl = max(float(np.sum(rel_entr(e_cells / w, p_i))), 0.0)
        per_group.append((float(w), kl))

    total = first
    for w, kl in per_group:
        total += w * kl
    return ChainRuleBreakdown(
        first_stage_kl=first, per_group=tuple(per_group), total=total
    )
