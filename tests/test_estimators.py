"""The three maximum likelihood estimates from survey counts."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surveyrisk import (
    DomainError,
    EstimatorKind,
    MissingPriorCounts,
    SurveyCounts,
    ZeroGroupCount,
    estimate,
)


COUNTS = SurveyCounts(present=((2, 2), (3, 3)), prior=(8, 2))


def test_present_is_cell_count_over_n():
    e = estimate(EstimatorKind.PRESENT, COUNTS)
    np.testing.assert_array_equal(e.flat(), [0.2, 0.2, 0.3, 0.3])


def test_prior_reweights_groups_by_prior_marginals():
    e = estimate(EstimatorKind.PRIOR, COUNTS)
    np.testing.assert_array_equal(e.flat(), [0.4, 0.4, 0.1, 0.1])


def test_pooled_marginal_mixes_both_surveys():
    e = estimate(EstimatorKind.POOLED, COUNTS)
    np.testing.assert_array_equal(e.flat(), [0.3, 0.3, 0.2, 0.2])


def test_zero_prior_group_propagates_to_zero_cells():
    counts = SurveyCounts(present=((2, 2), (3, 3)), prior=(10, 0))
    e = estimate(EstimatorKind.PRIOR, counts)
    np.testing.assert_array_equal(e.flat(), [0.5, 0.5, 0.0, 0.0])
    assert float(np.sum(e.flat())) == 1.0


def test_errors():
    with pytest.raises(MissingPriorCounts):
        estimate(EstimatorKind.PRIOR, SurveyCounts(present=((2, 2), (3, 3))))
    with pytest.raises(ZeroGroupCount):
        estimate(EstimatorKind.PRESENT, SurveyCounts(present=((0, 0), (3, 3))))
    with pytest.raises(DomainError):
        estimate(EstimatorKind.PRESENT, SurveyCounts(present=((0, 0), (0, 0))))
    with pytest.raises(DomainError):
        estimate(EstimatorKind.POOLED,
                 SurveyCounts(present=((1, 1), (1, 1)), prior=(0, 0)))


def _random_counts(rng):
    n_groups = int(rng.integers(2, 6))
    present = []
    for _ in range(n_groups):
        size = int(rng.integers(1, 5))
        row = rng.integers(0, 40, size=size)
        if row.sum() == 0:
            row[0] = 1
        present.append(tuple(int(v) for v in row))
    prior = tuple(int(v) for v in rng.integers(0, 50, size=n_groups))
    if sum(prior) == 0:
        prior = (1,) + prior[1:]
    return SurveyCounts(present=tuple(present), prior=prior)


def test_shared_conditionals_and_convex_pooled_marginal():
    """All three estimates factor through the same conditionals, and the
    pooled marginal is the exact n : n* mixture of the other two.  Checked
    in exact rational arithmetic so no tolerance is involved."""
    rng = np.random.default_rng(99)
    for _ in range(100):
        counts = _random_counts(rng)
        n, n_star = counts.n, counts.n_star
        kinds = {k: estimate(k, counts) for k in EstimatorKind}
        marg = {k: e.group_marginals() for k, e in kinds.items()}

        for gi, (total, row) in enumerate(zip(counts.group_totals,
                                              counts.present)):
            for k, e in kinds.items():
                w = Fraction(*_marginal_fraction(k, counts, gi))
                for j, x in enumerate(row):
                    want = w * Fraction(x, total)
                    assert e.cells[gi][j] == float(want)

        mixed = (n * marg[EstimatorKind.PRESENT]
                 + n_star * marg[EstimatorKind.PRIOR]) / (n + n_star)
        np.testing.assert_allclose(marg[EstimatorKind.POOLED], mixed,
                                   rtol=0, atol=1e-15)


def _marginal_fraction(kind, counts, gi):
    if kind is EstimatorKind.PRESENT:
        return counts.group_totals[gi], counts.n
    if kind is EstimatorKind.PRIOR:
        return counts.prior[gi], counts.n_star
    return (counts.group_totals[gi] + counts.prior[gi],
            counts.n + counts.n_star)


@st.composite
def _large_counts(draw):
    """2-4 groups of 1-3 cells with counts up to 2**62, every group
    observed in the present survey and a nonempty prior survey."""
    def counts(size):
        return st.lists(st.integers(0, 2**62), min_size=size,
                        max_size=size).filter(any)

    layout = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    present = tuple(tuple(draw(counts(k))) for k in layout)
    return SurveyCounts(present=present, prior=tuple(draw(counts(len(layout)))))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_large_counts(), st.sampled_from(list(EstimatorKind)))
def test_cells_are_the_exact_ratio_rounded_once(counts, kind):
    """Every cell is the exact rational (part * x_ij) / (size * x_i.) of
    the kind's first-stage part and size, rounded once, also where the
    integer products are far wider than a float's 53 bits."""
    e = estimate(kind, counts)
    for gi, (total, row) in enumerate(zip(counts.group_totals,
                                          counts.present)):
        part, size = _marginal_fraction(kind, counts, gi)
        for j, x in enumerate(row):
            assert e.cells[gi][j] == float(Fraction(part * x, size * total))


def test_proportional_prior_counts_reproduce_present():
    """Prior counts exactly proportional to the present group totals give
    the same estimate as the present estimator."""
    counts = SurveyCounts(present=((2, 2), (3, 3)), prior=(12, 18))
    pre = estimate(EstimatorKind.PRESENT, counts)
    pri = estimate(EstimatorKind.PRIOR, counts)
    np.testing.assert_array_equal(pre.flat(), pri.flat())


def test_estimates_sum_to_one():
    rng = np.random.default_rng(5)
    for _ in range(50):
        counts = _random_counts(rng)
        for k in EstimatorKind:
            total = float(np.sum(estimate(k, counts).flat()))
            assert abs(total - 1.0) <= 1e-12
