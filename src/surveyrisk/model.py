"""Two-stage multinomial model: validated parameters and derived quantities.

A population is partitioned into I coarse groups, and group i is further
partitioned into J_i cells, so a single observation lands in cell (i, j)
with probability m_ij.  Writing

    m_i.  = sum_j m_ij          (group marginal, first-stage parameter)
    p_ij  = m_ij / m_i.         (within-group conditional, second-stage)
    s_i   = J_i - 1             (second-stage dimension, full model)

the fine survey observes cells directly while a coarse prior survey
observes only the groups.  Everything downstream (risk expansions, the
Monte Carlo engine, sample-size planning) consumes the scalars collected
here:

    p   = (sum_i J_i) - 1               dimension of the flat cell model,
                                        equal to I - 1 + sum_i s_i
    M_f = sum_i 1/m_i.                  inverse-marginal sum
    A_i = 2 * sum_j 1/p_ij - 2          second-order coefficient of the
                                        i-th within-group MLE risk (full
                                        second-stage model)

All probabilities must be strictly positive: the risk formulas contain
1/m_ij terms and the KL loss is undefined against a zero truth.

Construction validates once; instances are frozen and their array fields
are marked read-only, so they can be shared freely across threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, NonPositiveCell, NotNormalized, ShapeError

__all__ = [
    "TwoStageModel",
    "DerivedQuantities",
    "SurveyCounts",
    "build_model",
    "derive",
]

#: construction accepts a grand total within this distance of 1
NORMALIZATION_TOL = 1e-9


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class TwoStageModel:
    """Validated cell probabilities, organized by first-stage group.

    ``labels`` names the groups (for file round-trips and CSV output) and
    ``cells`` holds one read-only float array per group, in input order.
    Use :func:`build_model` instead of constructing directly.
    """

    labels: tuple[str, ...]
    cells: tuple[np.ndarray, ...]

    @property
    def n_groups(self) -> int:
        return len(self.cells)

    @property
    def group_sizes(self) -> tuple[int, ...]:
        return tuple(c.size for c in self.cells)

    @property
    def total_cells(self) -> int:
        return sum(c.size for c in self.cells)

    def flat(self) -> np.ndarray:
        """All cell probabilities as one vector, group-major order."""
        return np.concatenate(self.cells)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TwoStageModel):
            return NotImplemented
        return (
            self.labels == other.labels
            and len(self.cells) == len(other.cells)
            and all(
                a.shape == b.shape and bool(np.all(a == b))
                for a, b in zip(self.cells, other.cells)
            )
        )


@dataclass(frozen=True)
class DerivedQuantities:
    """Every scalar and vector the risk formulas consume; see module docstring.

    ``conditionals`` is one read-only array per group.  All reductions use
    compensated summation in a fixed order, so equal models yield bitwise
    equal results.
    """

    marginals: np.ndarray
    conditionals: tuple[np.ndarray, ...]
    s: np.ndarray
    p_total: int
    M_f: float
    A: np.ndarray


def as_int(x: object, what: str, least: int = 1) -> int:
    """``x`` as a Python int if it is an integer >= ``least``, else DomainError.

    The one rule for every caller-supplied size, count, replication
    number, seed and worker count: numpy integers are accepted, while a
    fractional value is refused rather than truncated, and so is ``bool``.
    """
    try:
        value = None if isinstance(x, bool) else operator.index(x)
    except TypeError:
        value = None
    if value is None or value < least:
        raise DomainError(f"{what} must be an integer >= {least}, got {x!r}")
    return value


@dataclass(frozen=True)
class SurveyCounts:
    """Observed counts: per-cell from the present survey, per-group from the
    optional prior survey.

    Invariants checked at construction: nonnegative integers everywhere,
    and when prior counts exist their length matches the number of present
    groups.  Any integer type (numpy's included, ``bool`` excluded) is
    accepted and stored as a Python ``int``.  Shape agreement with a
    particular model is checked where the two meet (divergence, advice),
    not here.
    """

    present: tuple[tuple[int, ...], ...]
    prior: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.present) == 0:
            raise ShapeError("present counts need at least one group")
        present = tuple(
            tuple(as_int(x, f"present count of group {i}", least=0)
                  for x in row)
            for i, row in enumerate(self.present)
        )
        prior = self.prior
        if prior is not None:
            if len(prior) != len(present):
                raise ShapeError(
                    f"prior counts cover {len(prior)} groups, present "
                    f"counts cover {len(present)}"
                )
            prior = tuple(
                as_int(x, f"prior count of group {i}", least=0)
                for i, x in enumerate(prior)
            )
        # the instance is frozen; normalize its fields before anyone sees it
        vars(self).update(present=present, prior=prior)

    @property
    def group_totals(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.present)

    @property
    def n(self) -> int:
        return sum(self.group_totals)

    @property
    def n_star(self) -> int | None:
        return None if self.prior is None else sum(self.prior)

    @property
    def group_sizes(self) -> tuple[int, ...]:
        return tuple(len(row) for row in self.present)


def build_model(
    raw_cells: Iterable[Sequence[float]],
    renormalize: bool = False,
    labels: Sequence[str] | None = None,
) -> TwoStageModel:
    """Validate raw cell probabilities and return a model.

    ``raw_cells`` is one sequence of positive reals per group (groups may
    have different lengths).  With ``renormalize`` set, every cell is
    divided by the grand total; otherwise the grand total must already be
    within ``NORMALIZATION_TOL`` of 1.
    """
    groups = [np.asarray(g, dtype=np.float64) for g in raw_cells]
    if len(groups) < 2:
        raise ShapeError(f"need at least 2 groups, got {len(groups)}")
    for i, g in enumerate(groups):
        if g.ndim != 1 or g.size < 1:
            raise ShapeError(f"group {i} must be a nonempty vector of cells")
        if not np.all(np.isfinite(g)):
            raise NonPositiveCell(f"group {i} contains a non-finite cell")
        if np.any(g <= 0.0):
            j = int(np.argmax(g <= 0.0))
            raise NonPositiveCell(
                f"cell ({i}, {j}) is {g[j]!r}; every cell must be positive"
            )

    total = math.fsum(float(x) for g in groups for x in g)
    if renormalize:
        groups = [g / total for g in groups]
    elif abs(total - 1.0) > NORMALIZATION_TOL:
        raise NotNormalized(
            f"cells sum to {total!r}; pass renormalize=True or fix the input"
        )

    if labels is None:
        labels = tuple(f"g{i + 1}" for i in range(len(groups)))
    else:
        labels = tuple(str(x) for x in labels)
        if len(labels) != len(groups):
            raise ShapeError(
                f"{len(labels)} labels for {len(groups)} groups"
            )
    return TwoStageModel(labels=labels, cells=tuple(_readonly(g) for g in groups))


def derive(model: TwoStageModel) -> DerivedQuantities:
    """Compute marginals, conditionals and the expansion coefficients.

    Pure and deterministic: summation order is fixed (group-major,
    ascending index) with ``math.fsum`` for the scalar reductions, so the
    published-value reproductions are stable to full double precision.
    """
    marginals = np.array([math.fsum(g.tolist()) for g in model.cells])
    conditionals = tuple(_readonly(g / m) for g, m in zip(model.cells, marginals))
    sizes = np.array(model.group_sizes, dtype=np.int64)
    s = sizes - 1
    p_total = int(sizes.sum()) - 1
    M_f = math.fsum(1.0 / m for m in marginals.tolist())
    A = np.array(
        [2.0 * math.fsum(1.0 / p for p in c.tolist()) - 2.0 for c in conditionals]
    )
    return DerivedQuantities(
        marginals=_readonly(marginals),
        conditionals=conditionals,
        s=_readonly(s),
        p_total=p_total,
        M_f=M_f,
        A=_readonly(A),
    )
