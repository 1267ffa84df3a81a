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

All probabilities must be strictly positive and not subnormal: the risk
formulas contain 1/m_ij terms and the KL loss is undefined against a
zero truth.

Construction validates once, however a model is built; instances are
frozen and hold read-only copies, so they can be shared across threads.
"""

from __future__ import annotations

import enum
import math
import operator
import sys
from dataclasses import dataclass, field
from typing import Iterable, NoReturn, Sequence

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
    ``cells`` holds one float64 vector per group, in input order.
    Construction checks every model: at least 2 groups of finite, positive,
    normal cells summing to 1 within ``NORMALIZATION_TOL``, and one ``str``
    label per group.  It keeps read-only copies of the cells and computes
    the :class:`DerivedQuantities` that :func:`derive` returns.
    """

    labels: tuple[str, ...]
    cells: tuple[np.ndarray, ...]
    _derived: DerivedQuantities = field(init=False, repr=False)

    def __post_init__(self) -> None:
        cells = as_tuple(self.cells, "model cells")
        total = _check_cells(cells)
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise NotNormalized(f"cells sum to {total!r}; pass renormalize=True "
                                f"or fix the input")
        labels = as_tuple(self.labels, "labels")
        if len(labels) != len(cells) or not all(isinstance(x, str) for x in labels):
            raise ShapeError(f"need one str label per group: {len(cells)} "
                             f"groups, labels {labels!r}")
        cells = tuple(_readonly(np.array(g)) for g in cells)
        # the instance is frozen; set its fields before anyone sees it
        vars(self).update(labels=labels, cells=cells, _derived=_derive(cells))

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

    A plain record: the model computes and checks these when it is built,
    and :func:`derive` reads them.  ``conditionals`` is one read-only array
    per group.  All reductions use compensated summation in a fixed order,
    so equal models yield bitwise equal results.
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
    As in :func:`as_floats`, an integer too large for a float is refused.
    """
    try:
        value = None if isinstance(x, bool) else operator.index(x)
    except TypeError:
        value = None
    if value is None or value < least:
        raise DomainError(f"{what} must be an integer >= {least}, got {x!r}")
    if value > sys.float_info.max:
        raise DomainError(f"{what} must be an integer within the float range")
    return value


def as_tuple(x: object, what: str) -> tuple:
    """``x`` as a tuple if it is iterable and not a str or bytes, else DomainError."""
    if not isinstance(x, (str, bytes)):
        try:
            return tuple(x)
        except TypeError:
            pass
    raise DomainError(f"{what} must be a sequence, got {type(x).__name__}")


def as_floats(x: object, what: str) -> np.ndarray:
    """``x`` as a float64 array if numpy can convert it, else DomainError.

    A str or bytes element is refused even where numpy would parse it
    ("0.5"), so that one rule holds wherever real numbers are expected,
    and so is an integer too large for a float.
    """
    try:
        a = np.asarray(x)
        if a.dtype.kind in "OSU":
            for v in a.ravel().tolist():
                if isinstance(v, (str, bytes)):
                    raise DomainError(f"{what} must be real numbers, got {v!r}")
        return np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError):
        raise DomainError(f"{what} must be real numbers, got "
                          f"{type(x).__name__}") from None
    except OverflowError:
        raise DomainError(f"{what} must be real numbers within the float "
                          f"range") from None


def fsum_total(values: Iterable[float]) -> float:
    """``math.fsum`` of finite values, the total compared with 1 for
    normalization; a total past the float range is inf."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def check_normal(values: object, what: str) -> None:
    """DomainError unless every value is finite and at least the least normal
    float: the rule for the probabilities the risk formulas divide by."""
    values = np.asarray(values, dtype=np.float64)
    lo, hi = float(values.min()), float(values.max())  # NaN if any is NaN
    if not sys.float_info.min <= lo <= hi <= sys.float_info.max:
        raise DomainError(f"{what} must be finite and at least the least normal "
                          f"float {sys.float_info.min!r}, got values from "
                          f"{lo!r} to {hi!r}")


class CheckedEnum(enum.Enum):
    """An enum whose lookup of a non-member raises DomainError naming the
    members' values, not the standard library's ValueError."""

    @classmethod
    def _missing_(cls, value: object) -> NoReturn:
        choices = ", ".join(repr(m.value) for m in cls)
        raise DomainError(f"{value!r} is not a valid {cls.__name__}; "
                          f"choices: {choices}")


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
        present = as_tuple(self.present, "present counts")
        if len(present) == 0:
            raise ShapeError("present counts need at least one group")
        present = tuple(
            tuple(as_int(x, f"present count of group {i}", least=0)
                  for x in as_tuple(row, f"present counts of group {i}"))
            for i, row in enumerate(present)
        )
        prior = self.prior
        if prior is not None:
            prior = as_tuple(prior, "prior counts")
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


def _check_cells(cells: Sequence[np.ndarray]) -> float:
    """The grand total of at least 2 groups of float64 cells, each a
    nonempty vector of finite, positive, normal cells."""
    if len(cells) < 2:
        raise ShapeError(f"need at least 2 groups, got {len(cells)}")
    for i, g in enumerate(cells):
        if not (isinstance(g, np.ndarray) and g.dtype == np.float64):
            got = g.dtype if isinstance(g, np.ndarray) else type(g).__name__
            raise DomainError(f"group {i} must be real numbers, got {got}")
        if g.ndim != 1 or g.size < 1:
            raise ShapeError(f"group {i} must be a nonempty vector of cells")
        if not np.all(np.isfinite(g)):
            raise NonPositiveCell(f"group {i} contains a non-finite cell")
        if np.any(g <= 0.0):
            j = int(np.argmax(g <= 0.0))
            raise NonPositiveCell(
                f"cell ({i}, {j}) is {float(g[j])!r}; every cell must be positive"
            )
    flat = np.concatenate(cells)
    check_normal(flat, "cells")
    try:
        return math.fsum(flat.tolist())
    except OverflowError:
        raise DomainError("cells sum past the float range") from None


def build_model(
    raw_cells: Iterable[Sequence[float]],
    renormalize: bool = False,
    labels: Sequence[str] | None = None,
) -> TwoStageModel:
    """Convert raw cell probabilities and return a model.

    ``raw_cells`` is one sequence of positive reals per group (groups may
    have different lengths).  With ``renormalize`` set, every cell is
    divided by the grand total, and a quotient below the least normal
    float raises DomainError.  Groups are labelled g1, g2, ... by default.
    """
    groups = [as_floats(g, f"group {i}")
              for i, g in enumerate(as_tuple(raw_cells, "raw_cells"))]
    if renormalize:
        total = _check_cells(groups)
        groups = [g / total for g in groups]
        check_normal(np.concatenate(groups), "renormalized cells")
    if labels is None:
        labels = tuple(f"g{i + 1}" for i in range(len(groups)))
    else:
        labels = tuple(str(x) for x in as_tuple(labels, "labels"))
    return TwoStageModel(labels=labels, cells=tuple(groups))


def _derive(cells: tuple[np.ndarray, ...]) -> DerivedQuantities:
    """Derived quantities of checked cells; each sum is an ``math.fsum`` in
    a fixed order (group-major, ascending index), so stable to the bit."""
    marginals = np.array([math.fsum(g.tolist()) for g in cells])
    conditionals = tuple(_readonly(g / m) for g, m in zip(cells, marginals))
    sizes = np.array([g.size for g in cells], dtype=np.int64)
    s = sizes - 1
    p_total = int(sizes.sum()) - 1
    try:
        M_f = math.fsum(1.0 / m for m in marginals.tolist())
        A = [2.0 * math.fsum(1.0 / p for p in c.tolist()) - 2.0 for c in conditionals]
        finite = all(map(math.isfinite, [M_f, *A]))
    except OverflowError:
        finite = False
    if not finite:
        raise DomainError("the model's reciprocal cell sums M_f and A_i pass "
                          "the float range; its smallest cells are too small")
    return DerivedQuantities(
        marginals=_readonly(marginals),
        conditionals=conditionals,
        s=_readonly(s),
        p_total=p_total,
        M_f=M_f,
        A=_readonly(np.array(A)),
    )


def derive(model: TwoStageModel) -> DerivedQuantities:
    """The model's derived quantities, computed once at its construction."""
    if not isinstance(model, TwoStageModel):
        raise DomainError(f"model must be a TwoStageModel, got {type(model).__name__}")
    return model._derived
