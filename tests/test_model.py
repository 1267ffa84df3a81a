"""Model construction, validation, and derived quantities."""

from __future__ import annotations

import math

import numpy as np
import pytest

from surveyrisk import (
    DomainError,
    NonPositiveCell,
    NotNormalized,
    ShapeError,
    SurveyCounts,
    build_model,
    bundled_model,
    derive,
)
from surveyrisk import EstimatorKind, estimate
from helpers import inverse_cell_sum


def test_build_model_accepts_normalized_cells():
    m = build_model([[0.25, 0.25], [0.25, 0.25]])
    assert m.n_groups == 2
    assert m.group_sizes == (2, 2)
    assert m.total_cells == 4
    assert m.labels == ("g1", "g2")
    np.testing.assert_array_equal(m.flat(), [0.25, 0.25, 0.25, 0.25])


def test_build_model_rejects_unnormalized_without_flag():
    with pytest.raises(NotNormalized):
        build_model([[0.3, 0.3], [0.3, 0.3]])


def test_build_model_renormalizes_on_request():
    m = build_model([[0.3, 0.3], [0.3, 0.3]], renormalize=True)
    assert math.isclose(float(np.sum(m.flat())), 1.0, abs_tol=1e-15)
    np.testing.assert_allclose(m.flat(), 0.25, atol=1e-15)


def test_build_model_rejects_bad_cells():
    with pytest.raises(NonPositiveCell):
        build_model([[0.5, 0.0], [0.25, 0.25]])
    with pytest.raises(NonPositiveCell):
        build_model([[0.5, -0.1], [0.3, 0.3]], renormalize=True)
    with pytest.raises(NonPositiveCell):
        build_model([[0.5, float("nan")], [0.25, 0.25]], renormalize=True)


def test_build_model_rejects_degenerate_layouts():
    # a single group has no first stage to estimate
    with pytest.raises(ShapeError):
        build_model([[0.5, 0.5]])
    with pytest.raises(ShapeError):
        build_model([[0.5, 0.5], []])


def test_build_model_label_mismatch():
    with pytest.raises(ShapeError):
        build_model([[0.5], [0.5]], labels=("only-one",))


def test_model_cells_are_read_only():
    m = build_model([[0.25, 0.25], [0.25, 0.25]])
    with pytest.raises(ValueError):
        m.cells[0][0] = 0.9


def test_model_equality_is_by_value():
    a = build_model([[0.25, 0.25], [0.25, 0.25]])
    b = build_model([[0.25, 0.25], [0.25, 0.25]])
    c = build_model([[0.2, 0.3], [0.25, 0.25]])
    assert a == b
    assert a != c


def test_derive_uniform_two_group_model():
    """Hand-checkable derived quantities on the 2x2 uniform model."""
    m = build_model([[0.25, 0.25], [0.25, 0.25]])
    dq = derive(m)
    np.testing.assert_array_equal(dq.marginals, [0.5, 0.5])
    np.testing.assert_array_equal(dq.conditionals[0], [0.5, 0.5])
    np.testing.assert_array_equal(dq.s, [1, 1])
    assert dq.p_total == 3
    # two-stage dimension I - 1 + sum_i s_i
    assert dq.marginals.size - 1 + int(dq.s.sum()) == 3
    assert inverse_cell_sum(m) == 16.0
    assert dq.M_f == 4.0
    # second-stage coefficient: 2 * (2 + 2) - 2 per group
    np.testing.assert_array_equal(dq.A, [6.0, 6.0])


def test_derive_bundled_uniform_model():
    m = bundled_model("example1-uniform100x2")
    dq = derive(m)
    assert dq.p_total == 199
    assert dq.marginals.size - 1 + int(dq.s.sum()) == 199
    assert inverse_cell_sum(m) == 40000.0
    assert dq.M_f == 4.0
    np.testing.assert_allclose(dq.A, 19998.0, rtol=0, atol=1e-9)


def test_derive_singleton_groups():
    """Groups of one cell have no second stage: s_i = 0, A_i = 0."""
    dq = derive(build_model([[0.3], [0.7]]))
    np.testing.assert_array_equal(dq.s, [0, 0])
    np.testing.assert_array_equal(dq.A, [0.0, 0.0])
    assert dq.p_total == 1
    assert dq.marginals.size - 1 + int(dq.s.sum()) == 1


def test_survey_counts_validation():
    ok = SurveyCounts(present=((2, 2), (3, 3)), prior=(8, 2))
    assert ok.n == 10
    assert ok.n_star == 10
    assert ok.group_totals == (4, 6)
    assert ok.group_sizes == (2, 2)

    with pytest.raises(DomainError):
        SurveyCounts(present=((2, -1), (3, 3)))
    with pytest.raises(DomainError):
        SurveyCounts(present=((2.5, 1), (3, 3)))  # type: ignore[arg-type]
    with pytest.raises(ShapeError):
        SurveyCounts(present=((2, 2), (3, 3)), prior=(8, 2, 1))


def test_survey_counts_without_prior():
    c = SurveyCounts(present=((1, 0), (0, 4)))
    assert c.prior is None
    assert c.n_star is None


def test_survey_counts_accept_numpy_integers():
    plain = SurveyCounts(present=((3, 2), (1, 1)), prior=(4, 6))
    mixed = SurveyCounts(present=((np.int64(3), 2), (1, np.uint8(1))),
                         prior=(np.int32(4), 6))
    assert mixed == plain
    assert all(type(x) is int for row in mixed.present for x in row)
    assert all(type(x) is int for x in mixed.prior)
    for kind in EstimatorKind:
        got = estimate(kind, mixed).flat()
        want = estimate(kind, plain).flat()
        assert got.tobytes() == want.tobytes()

    with pytest.raises(DomainError):
        SurveyCounts(present=((True, 2), (1, 1)))
    with pytest.raises(DomainError):
        SurveyCounts(present=((np.float64(3.0), 2), (1, 1)))
    with pytest.raises(DomainError):
        SurveyCounts(present=((3, 2), (1, 1)), prior=(np.int64(-1), 6))
