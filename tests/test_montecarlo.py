"""Simulation engine: reproducibility, conditioning, and accuracy."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from surveyrisk import (
    BLOCK_SIZE,
    DomainError,
    EstimatorKind,
    MissingNStar,
    RejectionBudgetExceeded,
    SimulationConfig,
    build_model,
    bundled_model,
    derive,
    discard_probability,
    risk_app,
    risk_full_model,
    sample_surveys,
    simulate_risk,
)

UNIFORM_2X2 = build_model([[0.25, 0.25], [0.25, 0.25]])
BREAST_CANCER = bundled_model("example2-breast-cancer")


def test_config_validation():
    with pytest.raises(DomainError):
        SimulationConfig(replications=0)
    with pytest.raises(DomainError):
        SimulationConfig(replications=10, max_rejections_per_rep=0)
    with pytest.raises(DomainError):
        SimulationConfig(replications=10, seed=-1)


def test_simulate_requires_prior_size_for_prior_kinds():
    cfg = SimulationConfig(replications=8)
    with pytest.raises(MissingNStar):
        simulate_risk(EstimatorKind.PRIOR, UNIFORM_2X2, 20, None, cfg)
    with pytest.raises(DomainError):
        simulate_risk(EstimatorKind.POOLED, UNIFORM_2X2, 20, 0, cfg)


def test_fixed_seed_is_deterministic():
    cfg = SimulationConfig(replications=3_000, seed=11)
    a = simulate_risk(EstimatorKind.POOLED, UNIFORM_2X2, 30, 40, cfg)
    b = simulate_risk(EstimatorKind.POOLED, UNIFORM_2X2, 30, 40, cfg)
    assert a == b


def test_worker_count_does_not_change_results():
    """Bitwise equality across parallelism, with enough replications to
    span several scheduling blocks."""
    reps = 3 * BLOCK_SIZE + 123
    cfg = SimulationConfig(replications=reps, seed=5)
    results = [
        simulate_risk(EstimatorKind.POOLED, UNIFORM_2X2, 25, 25, cfg,
                      workers=w)
        for w in (1, 2, 8)
    ]
    assert results[0].mean_loss == results[1].mean_loss == results[2].mean_loss
    assert results[0].std_error == results[1].std_error == results[2].std_error
    assert results[0].discard_rate == results[1].discard_rate \
        == results[2].discard_rate


def test_replications_below_one_block():
    cfg = SimulationConfig(replications=37, seed=0)
    r = simulate_risk(EstimatorKind.PRESENT, UNIFORM_2X2, 25, None, cfg)
    assert r.replications == 37
    assert r.mean_loss > 0.0
    assert r.std_error > 0.0


def test_common_random_numbers_share_present_draws():
    """All three kinds on one seed see the same present surveys, so the
    discard bookkeeping is identical and paired risk differences are
    low-variance."""
    cfg = SimulationConfig(replications=4_000, seed=17)
    pre = simulate_risk(EstimatorKind.PRESENT, BREAST_CANCER, 60, None, cfg)
    pri = simulate_risk(EstimatorKind.PRIOR, BREAST_CANCER, 60, 300, cfg)
    poo = simulate_risk(EstimatorKind.POOLED, BREAST_CANCER, 60, 300, cfg)
    assert pre.discard_rate == pri.discard_rate == poo.discard_rate
    assert pre.discard_rate > 0.0
    # paired ordering: pooling cannot lose to the prior-only marginal here
    assert poo.mean_loss < pri.mean_loss


def test_estimate_fields():
    cfg = SimulationConfig(replications=500, seed=1)
    r = simulate_risk(EstimatorKind.PRIOR, UNIFORM_2X2, 40, 70, cfg)
    assert r.kind is EstimatorKind.PRIOR
    assert (r.n, r.n_star) == (40, 70)
    assert r.replications == 500
    assert 0.0 <= r.discard_rate < 1.0
    assert r.mean_loss >= 0.0


def test_mean_matches_expansion_at_large_n():
    """Second-order accuracy: at n = 10^4 the expansion and the simulation
    agree to within Monte Carlo noise."""
    app = risk_app(EstimatorKind.PRESENT, derive(UNIFORM_2X2), 10_000).total
    cfg = SimulationConfig(replications=20_000, seed=1)
    r = simulate_risk(EstimatorKind.PRESENT, UNIFORM_2X2, 10_000, None, cfg)
    assert abs(r.mean_loss - app) <= 3.0 * r.std_error + 1e-8


def test_singleton_groups_match_one_stage_formula():
    """With one cell per group only the first stage exists, and the mean
    loss must track the flat-multinomial risk formula."""
    m = build_model([[0.3], [0.7]])
    app = risk_full_model(p=1, M=float(derive(m).M), n=2000)
    cfg = SimulationConfig(replications=200_000, seed=3)
    r = simulate_risk(EstimatorKind.PRESENT, m, 2000, None, cfg)
    assert abs(r.mean_loss - app) <= 3.0 * r.std_error + 1e-7


def test_rejection_budget_is_enforced():
    skewed = build_model([[0.499, 0.499], [0.001, 0.001]])
    cfg = SimulationConfig(replications=64, seed=1, max_rejections_per_rep=3)
    with pytest.raises(RejectionBudgetExceeded):
        simulate_risk(EstimatorKind.PRESENT, skewed, 5, None, cfg)


def test_sample_surveys_postconditions():
    rng = np.random.default_rng(5)
    counts, discarded = sample_surveys(BREAST_CANCER, 200, 1000, rng)
    assert counts.n == 200
    assert counts.n_star == 1000
    assert counts.group_sizes == BREAST_CANCER.group_sizes
    assert all(t >= 1 for t in counts.group_totals)
    assert discarded >= 0

    counts0, _ = sample_surveys(BREAST_CANCER, 200, 0, rng)
    assert counts0.prior is None


def test_sample_surveys_small_n_keeps_groups_nonempty():
    rng = np.random.default_rng(42)
    for _ in range(200):
        counts, _ = sample_surveys(UNIFORM_2X2, 2, 0, rng)
        assert all(t >= 1 for t in counts.group_totals)


def test_discard_probability_inclusion_exclusion():
    """For two groups the closed form is elementary; check against it."""
    m = build_model([[0.4, 0.4], [0.1, 0.1]])
    for n in (3, 10, 25):
        want = 0.8 ** n + 0.2 ** n  # both-empty term is 0 for n >= 1
        assert math.isclose(discard_probability(m, n), want, rel_tol=1e-12)
    assert discard_probability(m, 1) == 1.0  # one unit always leaves a gap


def test_discard_rate_tracks_oracle():
    cfg = SimulationConfig(replications=100_000, seed=2024)
    q = discard_probability(BREAST_CANCER, 200)
    r = simulate_risk(EstimatorKind.PRESENT, BREAST_CANCER, 200, None, cfg)
    trials = cfg.replications / (1.0 - r.discard_rate)
    se = math.sqrt(q * (1.0 - q) / trials)
    assert abs(r.discard_rate - q) <= 3.0 * se


def test_discard_rate_decays_exponentially():
    """The discard event dies off at exponential speed in n: the rate at
    2n falls below I times the squared rate at n."""
    cfg = SimulationConfig(replications=100_000, seed=2024)
    d200 = simulate_risk(EstimatorKind.PRESENT, BREAST_CANCER, 200, None,
                         cfg).discard_rate
    d400 = simulate_risk(EstimatorKind.PRESENT, BREAST_CANCER, 400, None,
                         cfg).discard_rate
    assert d400 < d200 ** 2 * BREAST_CANCER.n_groups
    # and the analytic oracle agrees with the same statement
    q200 = discard_probability(BREAST_CANCER, 200)
    q400 = discard_probability(BREAST_CANCER, 400)
    assert q400 < q200 ** 2 * BREAST_CANCER.n_groups


def test_present_size_below_group_count_fails_fast():
    """At n < I every present draw leaves a group empty, so the engine
    refuses the run up front instead of exhausting its rejection budget."""
    n = BREAST_CANCER.n_groups - 2
    cfg = SimulationConfig(replications=20_000, seed=0)
    start = time.perf_counter()
    with pytest.raises(RejectionBudgetExceeded, match="below the number of groups"):
        simulate_risk(EstimatorKind.PRESENT, BREAST_CANCER, n, None, cfg)
    with pytest.raises(RejectionBudgetExceeded, match="below the number of groups"):
        sample_surveys(BREAST_CANCER, n, 100, np.random.default_rng(0))
    assert time.perf_counter() - start < 0.5
