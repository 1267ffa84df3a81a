"""Kullback-Leibler loss and the two-stage decomposition identity."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surveyrisk import (
    DomainError,
    EstimatorKind,
    NotNormalized,
    ProbabilityEstimate,
    ShapeError,
    SurveyCounts,
    ZeroTruth,
    build_model,
    chain_rule,
    estimate,
    kl_divergence,
)
from helpers import random_estimate, random_model


def test_kl_identity_case_is_zero():
    assert kl_divergence(np.array([0.3, 0.7]), np.array([0.3, 0.7])) == 0.0


def test_kl_two_term_hand_value():
    got = kl_divergence(np.array([0.5, 0.5]), np.array([0.25, 0.75]))
    want = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert math.isclose(got, want, rel_tol=0, abs_tol=1e-15)


def test_kl_zero_entry_contributes_nothing():
    got = kl_divergence(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    assert math.isclose(got, math.log(2.0), rel_tol=0, abs_tol=1e-15)
    assert math.isfinite(got)


def test_kl_error_paths():
    with pytest.raises(ShapeError):
        kl_divergence(np.array([1.0]), np.array([0.5, 0.5]))
    with pytest.raises(ZeroTruth):
        kl_divergence(np.array([0.5, 0.5]), np.array([0.0, 1.0]))
    with pytest.raises(DomainError):
        kl_divergence(np.array([-0.5, 1.5]), np.array([0.5, 0.5]))
    with pytest.raises(NotNormalized):
        kl_divergence(np.array([0.5, 0.6]), np.array([0.5, 0.5]))
    with pytest.raises(NotNormalized):
        kl_divergence(np.array([0.5, 0.5]), np.array([0.5, 0.6]))


def test_kl_nonnegative_on_random_pairs():
    rng = np.random.default_rng(7)
    for _ in range(200):
        k = int(rng.integers(2, 30))
        t = rng.gamma(1.0, 1.0, size=k) + 1e-4
        t /= t.sum()
        e = rng.gamma(1.0, 1.0, size=k)
        e /= e.sum()
        assert kl_divergence(e, t) >= 0.0


def test_estimate_wrapper_validation():
    with pytest.raises(DomainError):
        ProbabilityEstimate(cells=(np.array([-0.1, 0.6]), np.array([0.5])))
    with pytest.raises(NotNormalized):
        ProbabilityEstimate(cells=(np.array([0.5, 0.6]), np.array([0.5])))


def test_chain_rule_identity_case():
    m = build_model([[0.25, 0.25], [0.25, 0.25]])
    e = ProbabilityEstimate(cells=tuple(np.array(c) for c in m.cells))
    br = chain_rule(e, m)
    assert br.first_stage_kl == 0.0
    assert br.total == 0.0
    assert all(kl == 0.0 for _, kl in br.per_group)


def test_chain_rule_first_stage_only():
    """Uniform conditionals make every second-stage term vanish, so the
    total is exactly the first-stage divergence."""
    m = build_model([[0.25, 0.25], [0.25, 0.25]])
    e = ProbabilityEstimate(cells=(np.array([0.3, 0.3]), np.array([0.2, 0.2])))
    br = chain_rule(e, m)
    want_first = kl_divergence(np.array([0.6, 0.4]), np.array([0.5, 0.5]))
    assert math.isclose(br.first_stage_kl, want_first, abs_tol=1e-15)
    assert math.isclose(br.first_stage_kl, 0.020136, abs_tol=5e-7)
    assert br.per_group == ((0.6, 0.0), (0.4, 0.0))
    assert br.total == br.first_stage_kl


def test_chain_rule_zero_marginal_group():
    m = build_model([[0.25, 0.25], [0.25, 0.25]])
    e = ProbabilityEstimate(cells=(np.array([0.0, 0.0]), np.array([0.5, 0.5])))
    br = chain_rule(e, m)
    assert br.per_group[0] == (0.0, 0.0)
    direct = kl_divergence(e.flat(), m.flat())
    assert math.isclose(br.total, direct, rel_tol=0, abs_tol=1e-12)


def test_chain_rule_shape_mismatch():
    m = build_model([[0.25, 0.25], [0.25, 0.25]])
    e = ProbabilityEstimate(cells=(np.array([0.5]), np.array([0.25, 0.25])))
    with pytest.raises(ShapeError):
        chain_rule(e, m)


def test_chain_rule_matches_direct_divergence():
    """The decomposition is an identity, checked on random layouts."""
    rng = np.random.default_rng(2024)
    for _ in range(250):
        m = random_model(rng)
        e = random_estimate(rng, m)
        br = chain_rule(e, m)
        direct = kl_divergence(e.flat(), m.flat())
        assert abs(br.total - direct) <= 1e-12


@st.composite
def _model_and_counts(draw):
    """A model of 2-5 groups of 1-4 cells, present counts with every group
    observed, and prior counts in which any group may be zero."""
    layout = draw(st.lists(st.integers(1, 4), min_size=2, max_size=5))
    weights = [[draw(st.integers(1, 50)) for _ in range(k)] for k in layout]
    model = build_model(weights, renormalize=True)
    present = []
    for k in layout:
        cells = draw(st.lists(st.integers(0, 500), min_size=k, max_size=k))
        if sum(cells) == 0:
            cells[draw(st.integers(0, k - 1))] = draw(st.integers(1, 500))
        present.append(tuple(cells))
    groups = len(layout)
    prior = draw(st.lists(st.one_of(st.just(0), st.integers(1, 2000)),
                          min_size=groups, max_size=groups).filter(any))
    return model, SurveyCounts(present=tuple(present), prior=prior)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(_model_and_counts())
def test_chain_rule_total_is_the_divergence_for_every_estimator(case):
    """The identity the engine's loss rests on: for each estimator's
    estimate, zero prior groups included, the chain-rule total is the
    direct divergence to within 1e-12 relative."""
    model, counts = case
    for kind in EstimatorKind:
        est = estimate(kind, counts)
        direct = kl_divergence(est.flat(), model.flat())
        assert math.isclose(chain_rule(est, model).total, direct,
                            rel_tol=1e-12, abs_tol=0.0)
