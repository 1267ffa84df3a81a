"""Truncated risk expansions, closed forms, and gap formulas."""

from __future__ import annotations

import math

import numpy as np
import pytest

from surveyrisk import (
    DomainError,
    EstimatorKind,
    MissingNStar,
    build_model,
    bundled_model,
    derive,
    risk_app,
)
from surveyrisk.asymptotics import gap_first_stage
from helpers import (
    gap,
    inverse_cell_sum,
    random_model,
    risk_app_closed_form,
    risk_full_model,
)

UNIFORM = bundled_model("example1-uniform100x2")


def test_full_model_formula():
    assert risk_full_model(p=199, M=40000.0, n=200) == 199 / 400 + 39999 / 480000
    assert math.isclose(risk_full_model(p=1, M=4.0, n=10), 0.0525,
                        rel_tol=1e-15)
    assert math.isclose(risk_full_model(p=199, M=40000.0, n=1000),
                        0.102833, abs_tol=5e-7)


def test_full_model_validation():
    with pytest.raises(DomainError):
        risk_full_model(p=0, M=4.0, n=10)
    with pytest.raises(DomainError):
        risk_full_model(p=1, M=4.0, n=0)
    # M below the (p+1)^2 Cauchy-Schwarz floor cannot come from any
    # probability vector
    with pytest.raises(DomainError):
        risk_full_model(p=3, M=10.0, n=10)


def test_present_expansion_reference_values():
    assert math.isclose(risk_app(EstimatorKind.PRESENT, UNIFORM, 200).total,
                        0.580831, abs_tol=5e-7)
    assert math.isclose(risk_app(EstimatorKind.PRESENT, UNIFORM, 1000).total,
                        0.102833, abs_tol=5e-7)


def test_prior_and_pooled_expansion_reference_values():
    assert math.isclose(
        risk_app(EstimatorKind.PRIOR, UNIFORM, 200, 200).total,
        0.583306, abs_tol=5e-7)
    assert math.isclose(
        risk_app(EstimatorKind.POOLED, UNIFORM, 200, 200).total,
        0.580814, abs_tol=5e-7)
    assert math.isclose(
        risk_app(EstimatorKind.POOLED, UNIFORM, 90, 1000).total,
        1.523153, abs_tol=5e-7)


def test_risk_approximation_structure():
    r = risk_app(EstimatorKind.PRIOR, UNIFORM, 200, 300)
    assert r.total == r.first_order + r.second_order
    assert r.kind is EstimatorKind.PRIOR
    assert (r.n, r.n_star) == (200, 300)
    rp = risk_app(EstimatorKind.PRESENT, UNIFORM, 200)
    assert rp.n_star is None


def test_missing_and_invalid_arguments():
    with pytest.raises(MissingNStar):
        risk_app(EstimatorKind.PRIOR, UNIFORM, 200)
    with pytest.raises(MissingNStar):
        risk_app(EstimatorKind.POOLED, UNIFORM, 200)
    with pytest.raises(DomainError):
        risk_app(EstimatorKind.PRESENT, UNIFORM, 0)
    with pytest.raises(DomainError):
        risk_app(EstimatorKind.PRIOR, UNIFORM, 200, 0)


def test_closed_forms_match_general_expansions():
    """With full second-stage models the reduced closed forms and the
    general expansions are the same polynomial in 1/n, 1/n*."""
    rng = np.random.default_rng(11)
    for _ in range(100):
        model = random_model(rng)
        n = int(rng.integers(10, 5000))
        n_star = int(rng.integers(10, 5000))
        for kind in EstimatorKind:
            ns = None if kind is EstimatorKind.PRESENT else n_star
            a = risk_app(kind, model, n, ns).total
            b = risk_app_closed_form(kind, model, n, ns)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_present_closed_form_equals_full_model_formula():
    """The present estimator is the unrestricted MLE, so its two-stage
    expansion collapses to the single-multinomial formula."""
    rng = np.random.default_rng(13)
    for _ in range(50):
        model = random_model(rng)
        n = int(rng.integers(10, 3000))
        a = risk_app(EstimatorKind.PRESENT, model, n).total
        b = risk_full_model(derive(model).p_total, inverse_cell_sum(model), n)
        assert math.isclose(a, b, rel_tol=1e-12)


def test_gap_equals_difference_of_totals():
    rng = np.random.default_rng(17)
    for _ in range(100):
        model = random_model(rng)
        dq = derive(model)
        n = int(rng.integers(10, 2000))
        ns = int(rng.integers(10, 2000))
        pre = risk_app(EstimatorKind.PRESENT, model, n).total
        pri = risk_app(EstimatorKind.PRIOR, model, n, ns).total
        poo = risk_app(EstimatorKind.POOLED, model, n, ns).total
        assert abs(gap(EstimatorKind.PRIOR, dq, n, ns) - (pre - pri)) <= 1e-15 * 100
        assert abs(gap(EstimatorKind.POOLED, dq, n, ns) - (pre - poo)) <= 1e-15 * 100


def test_gap_present_prior_at_equal_sizes():
    """At n = n* the first-order parts cancel and the gap collapses to
    -(1/2n^2) * sum of s_i (1/m_i - 1), always favoring the present
    estimator."""
    rng = np.random.default_rng(19)
    for _ in range(50):
        dq = derive(random_model(rng))
        n = int(rng.integers(10, 2000))
        want = -sum(float(s) * (1.0 / float(m) - 1.0)
                    for s, m in zip(dq.s, dq.marginals)) / (2.0 * n * n)
        got = gap(EstimatorKind.PRIOR, dq, n, n)
        assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-18)
        if any(s > 0 for s in dq.s):
            assert got < 0.0


def test_gap_reference_values():
    assert math.isclose(gap(EstimatorKind.PRIOR, derive(UNIFORM), 200, 200),
                        -0.002475, abs_tol=1e-9)
    assert math.isclose(gap(EstimatorKind.POOLED, derive(UNIFORM), 200, 200),
                        1.71875e-5, abs_tol=1e-12)
    assert math.isclose(gap(EstimatorKind.POOLED, derive(UNIFORM), 90, 1000),
                        -0.006085554173537789, abs_tol=1e-15)


@pytest.mark.parametrize("bad", ["prior", "pooled", "POOLED", 2, None])
def test_gap_of_a_kind_that_is_not_a_member_is_refused(bad):
    """A kind outside the enum used to fall through to the pooled branch:
    ``"prior"`` on breast-cancer gave the pooled gap at (200, 600)."""
    model = bundled_model("example2-breast-cancer")
    dq = derive(model)
    args = (dq.s.tolist(), dq.marginals.tolist(), 200, 600)
    want = (risk_app(EstimatorKind.PRESENT, model, 200).total
            - risk_app(EstimatorKind.PRIOR, model, 200, 600).total)
    assert abs(gap_first_stage(EstimatorKind.PRIOR, *args) - want) <= 1e-13
    # the present kind ignores n*, like every other entry point
    assert gap_first_stage(EstimatorKind.PRESENT, *args[:3], None) == 0.0
    with pytest.raises(DomainError, match="EstimatorKind"):
        gap_first_stage(bad, *args)


def test_gap_vanishes_without_second_stage():
    dq = derive(build_model([[0.3], [0.7]]))
    n = 50
    assert gap(EstimatorKind.PRIOR, dq, n, n) == 0.0


def test_gap_present_pooled_positive_at_tiny_prior():
    """A one-unit prior survey still helps slightly in the expansion when
    n is moderate: the first-order term dominates."""
    for cells in ([[0.25, 0.25], [0.25, 0.25]], [[0.2, 0.2], [0.3, 0.3]]):
        dq = derive(build_model(cells))
        assert gap(EstimatorKind.POOLED, dq, 100, 1) > 0.0


def test_pooled_always_beats_prior_in_expansion():
    rng = np.random.default_rng(23)
    for _ in range(100):
        model = random_model(rng)
        n = int(rng.integers(5, 3000))
        ns = int(rng.integers(1, 3000))
        poo = risk_app(EstimatorKind.POOLED, model, n, ns).total
        pri = risk_app(EstimatorKind.PRIOR, model, n, ns).total
        assert poo < pri


def test_risk_decreases_in_n():
    rng = np.random.default_rng(29)
    for _ in range(20):
        model = random_model(rng)
        ns = int(rng.integers(50, 500))
        for kind in EstimatorKind:
            arg = None if kind is EstimatorKind.PRESENT else ns
            values = [risk_app(kind, model, n, arg).total
                      for n in range(20, 400, 20)]
            assert all(a > b for a, b in zip(values, values[1:]))


def test_pathological_region_is_increasing_in_prior_size():
    values = [risk_app(EstimatorKind.POOLED, UNIFORM, 90, ns).total
              for ns in range(100, 1001, 100)]
    assert all(a < b for a, b in zip(values, values[1:]))
    # and all of them sit above the present-only risk
    pre = risk_app(EstimatorKind.PRESENT, UNIFORM, 90).total
    assert all(pre < v for v in values)

