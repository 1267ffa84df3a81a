"""Acceptance suite: the package's end-to-end guarantees.

Each test pins one externally visible behavior to reference values:
the tabulated risk approximations and required sample sizes for the
three bundled models, statistical agreement of the simulator with
those tables, qualitative estimator orderings on shared seeds, the
core algebraic identities, and the discard-rule probability.  Verdicts
are echoed as one PASS/FAIL line per criterion in the terminal summary
(see conftest.py).

Statistical assertions use seeds calibrated offline; the margins are
wide relative to the measured run-to-run spread, so these tests are
stable rather than flaky.
"""

from __future__ import annotations

import math
import time

import numpy as np

from conftest import criterion
from helpers import random_estimate, random_model, risk_app_closed_form
from surveyrisk import (
    BLOCK_SIZE,
    EstimatorKind,
    RssKind,
    RssQuery,
    SimulationConfig,
    SurveyCounts,
    bundled_model,
    chain_rule,
    discard_probability,
    estimate,
    kl_divergence,
    required_sample_size,
    risk_app,
    simulate_risk,
)

UNIFORM = "example1-uniform100x2"
CANCER = "example2-breast-cancer"
HOUSEHOLD = "example3-household"

# Risk table for the uniform 100x2 model:
# (n, n_star, present_app, prior_app, pooled_app).
UNIFORM_RISK_APP = (
    (100, 100000, 1.328325, 1.333205, 1.333195),
    (150, 100000, 0.811478, 0.812538, 0.812532),
    (200, 100000, 0.580831, 0.580805, 0.580800),
    (250, 100000, 0.451332, 0.450917, 0.450913),
    (300, 100000, 0.368703, 0.368138, 0.368135),
    (200, 200, 0.580831, 0.583306, 0.580814),
    (400, 400, 0.269583, 0.270202, 0.269266),
    (600, 600, 0.175092, 0.175367, 0.174813),
    (800, 800, 0.129583, 0.129738, 0.129348),
    (1000, 1000, 0.102833, 0.102932, 0.102633),
    (90, 100, 1.517068, 1.528729, 1.520553),
    (90, 200, 1.517068, 1.526210, 1.521638),
    (90, 300, 1.517068, 1.525373, 1.522167),
    (90, 400, 1.517068, 1.524955, 1.522480),
    (90, 500, 1.517068, 1.524705, 1.522687),
    (90, 600, 1.517068, 1.524538, 1.522835),
    (90, 700, 1.517068, 1.524418, 1.522945),
    (90, 800, 1.517068, 1.524329, 1.523030),
    (90, 900, 1.517068, 1.524260, 1.523098),
    (90, 1000, 1.517068, 1.524204, 1.523153),
)

# Simulated present risk for the uniform model at n=200 (10^6-replication
# reference average; its own standard error is below 7e-6).
UNIFORM_PRESENT_SIM_200 = 0.571440

UNIFORM_RSS_PRIOR = {
    400: 791, 600: 895, 800: 1063, 1000: 1247, 1200: 1437,
    1400: 1631, 1600: 1826, 1800: 2023, 2000: 2220,
}
UNIFORM_RSS_POOLED = {
    400: 401, 600: 601, 800: 801, 1000: 1002, 1200: 1202,
    1400: 1403, 1600: 1603, 1800: 1804, 2000: 2004,
}

# (n, n_star) -> (present_app, prior_app, pooled_app), printed at 4 decimals.
CANCER_RISK_APP = {
    (200, 200): (0.0367, 0.0383, 0.0320),
    (200, 600): (0.0367, 0.0315, 0.0298),
    (200, 1000): (0.0367, 0.0301, 0.0290),
    (600, 200): (0.0119, 0.0188, 0.0110),
    (600, 600): (0.0119, 0.0120, 0.0102),
    (600, 1000): (0.0119, 0.0107, 0.0098),
    (1000, 200): (0.0071, 0.0152, 0.0067),
    (1000, 600): (0.0071, 0.0085, 0.0063),
    (1000, 1000): (0.0071, 0.0071, 0.0061),
}
# 10^4-replication reference averages for two of those configurations.
CANCER_RISK_SIM = {
    (200, 200): (0.0361, 0.0384, 0.0322),
    (1000, 1000): (0.0071, 0.0072, 0.0061),
}
CANCER_RSS_PRIOR = {200: 236, 400: 433, 600: 633, 800: 832, 1000: 1032}
CANCER_RSS_POOLED = {200: 226, 400: 459, 600: 692, 800: 925, 1000: 1158}

HOUSEHOLD_RISK_APP = {
    (1000, 1000): (0.0332, 0.0335, 0.0321),
    (1000, 2000): (0.0332, 0.0323, 0.0317),
    (1000, 3000): (0.0332, 0.0319, 0.0315),
    (2000, 1000): (0.0157, 0.0170, 0.0153),
    (2000, 2000): (0.0157, 0.0158, 0.0151),
    (2000, 3000): (0.0157, 0.0153, 0.0150),
    (3000, 1000): (0.0102, 0.0120, 0.0100),
    (3000, 2000): (0.0102, 0.0107, 0.0099),
    (3000, 3000): (0.0102, 0.0103, 0.0098),
}
HOUSEHOLD_RSS_PRIOR = {
    1000: 1157, 1500: 1650, 2000: 2146, 2500: 2644, 3000: 3143,
}
HOUSEHOLD_RSS_POOLED = {
    1000: 1031, 1500: 1552, 2000: 2074, 2500: 2595, 3000: 3117,
}

# Shared-seed calibration for the ordering checks: at 20000 replications
# the smallest margin (prior minus pooled across all 38 configurations)
# was measured at 4e-6 with a paired spread near 5e-8, and the pooled
# n=90 monotonicity steps stay above 2e-5 across seeds.
ORDERING_SEED = 12345
ORDERING_REPS = 20_000


def _sim(kind, model, n, n_star, reps, seed):
    cfg = SimulationConfig(replications=reps, seed=seed)
    return simulate_risk(kind, model, n, n_star, cfg)


@criterion(1, "uniform-model risk approximations")
def test_uniform_model_risk_table():
    model = bundled_model(UNIFORM)
    t0 = time.monotonic()
    for n, n_star, pre, pri, poo in UNIFORM_RISK_APP:
        assert abs(risk_app(EstimatorKind.PRESENT, model, n).total - pre) <= 5e-7
        assert abs(risk_app(EstimatorKind.PRIOR, model, n, n_star).total - pri) <= 5e-7
        assert abs(risk_app(EstimatorKind.POOLED, model, n, n_star).total - poo) <= 5e-7
    assert time.monotonic() - t0 < 1.0


@criterion(2, "uniform-model required sample sizes")
def test_uniform_model_required_sample_sizes():
    model = bundled_model(UNIFORM)
    t0 = time.monotonic()
    for n0, want in UNIFORM_RSS_PRIOR.items():
        got = required_sample_size(RssQuery(RssKind.PRIOR_TO_PRESENT, n0), model)
        assert abs(got - want) <= 1
    for n0, want in UNIFORM_RSS_POOLED.items():
        got = required_sample_size(
            RssQuery(RssKind.PRESENT_TO_POOLED, n0, n0_star=n0), model
        )
        assert abs(got - want) <= 1
    assert time.monotonic() - t0 < 1.0


@criterion(3, "dataset-model risk and sample-size tables")
def test_dataset_models_risk_and_rss_tables():
    t0 = time.monotonic()
    for name, risks, rss_prior, rss_pooled in (
        (CANCER, CANCER_RISK_APP, CANCER_RSS_PRIOR, CANCER_RSS_POOLED),
        (HOUSEHOLD, HOUSEHOLD_RISK_APP, HOUSEHOLD_RSS_PRIOR, HOUSEHOLD_RSS_POOLED),
    ):
        model = bundled_model(name)
        for (n, n_star), (pre, pri, poo) in risks.items():
            assert abs(risk_app(EstimatorKind.PRESENT, model, n).total - pre) <= 5e-4
            assert abs(risk_app(EstimatorKind.PRIOR, model, n, n_star).total - pri) <= 5e-4
            assert abs(risk_app(EstimatorKind.POOLED, model, n, n_star).total - poo) <= 5e-4
        for n0, want in rss_prior.items():
            got = required_sample_size(RssQuery(RssKind.PRIOR_TO_PRESENT, n0), model)
            assert abs(got - want) <= 2
        for n0, want in rss_pooled.items():
            got = required_sample_size(
                RssQuery(RssKind.PRESENT_TO_POOLED, n0, n0_star=n0), model
            )
            assert abs(got - want) <= 2
    assert time.monotonic() - t0 < 1.0


@criterion(4, "simulator matches tabulated risks")
def test_simulator_matches_risk_tables():
    t0 = time.monotonic()
    uniform = bundled_model(UNIFORM)
    est = _sim(EstimatorKind.PRESENT, uniform, 200, None, 100_000, 12345)
    tol = max(3.0 * est.std_error, 2e-3)
    assert abs(est.mean_loss - UNIFORM_PRESENT_SIM_200) <= tol

    cancer = bundled_model(CANCER)
    kinds = (EstimatorKind.PRESENT, EstimatorKind.PRIOR, EstimatorKind.POOLED)
    for (n, n_star), targets in CANCER_RISK_SIM.items():
        for kind, want in zip(kinds, targets):
            got = _sim(kind, cancer, n, n_star, 10_000, 12345)
            assert abs(got.mean_loss - want) <= 3.0 * got.std_error + 0.02 * want
    assert time.monotonic() - t0 < 120.0


@criterion(5, "estimator orderings on shared seeds")
def test_estimator_orderings_on_shared_seeds():
    uniform = bundled_model(UNIFORM)
    pooled_mean: dict[tuple[int, int], float] = {}

    # Pooling the prior survey into the first stage beats using the prior
    # survey alone in every tabulated configuration, for all three models.
    for name, configs in (
        (UNIFORM, [(row[0], row[1]) for row in UNIFORM_RISK_APP]),
        (CANCER, list(CANCER_RISK_APP)),
        (HOUSEHOLD, list(HOUSEHOLD_RISK_APP)),
    ):
        model = bundled_model(name)
        for n, n_star in configs:
            pri = _sim(EstimatorKind.PRIOR, model, n, n_star,
                       ORDERING_REPS, ORDERING_SEED)
            poo = _sim(EstimatorKind.POOLED, model, n, n_star,
                       ORDERING_REPS, ORDERING_SEED)
            assert poo.mean_loss < pri.mean_loss, (name, n, n_star)
            if name is UNIFORM:
                pooled_mean[(n, n_star)] = poo.mean_loss

    def present(n: int) -> float:
        return _sim(EstimatorKind.PRESENT, uniform, n, None,
                    ORDERING_REPS, ORDERING_SEED).mean_loss

    # Small-n pathology: at n=90 the present estimator beats pooling no
    # matter how large the prior survey, and growing the prior survey
    # makes pooling strictly worse.
    pre_90 = present(90)
    ladder = [pooled_mean[(90, k)] for k in range(100, 1001, 100)]
    assert all(pre_90 < value for value in ladder)
    assert all(a < b for a, b in zip(ladder, ladder[1:]))

    # At n = n* = 200 pooling still loses to the present survey alone,
    # and on a total-size basis a single survey of n + n* observations
    # beats pooling two surveys of that combined size.
    assert present(200) < pooled_mean[(200, 200)]
    assert present(400) < pooled_mean[(200, 200)]
    assert present(800) < pooled_mean[(400, 400)]


def _random_counts(rng: np.random.Generator) -> SurveyCounts:
    groups = rng.integers(2, 5)
    present = tuple(
        tuple(int(c) for c in rng.integers(1, 30, size=rng.integers(1, 5)))
        for _ in range(groups)
    )
    prior = tuple(int(c) for c in rng.integers(1, 50, size=groups))
    return SurveyCounts(present=present, prior=prior)


@criterion(6, "algebraic and determinism properties")
def test_algebraic_and_determinism_properties():
    rng = np.random.default_rng(606)

    # Chain rule: staged decomposition equals the direct divergence.
    for _ in range(1000):
        model = random_model(rng)
        est = random_estimate(rng, model)
        direct = kl_divergence(est.flat(), model.flat())
        assert direct >= 0.0
        assert abs(chain_rule(est, model).total - direct) <= 1e-12

    # Divergence is zero exactly at equality.
    for _ in range(25):
        truth = random_model(rng).flat()
        assert kl_divergence(truth, truth) == 0.0
        shifted = truth.copy()
        delta = 0.5 * min(shifted[0], shifted[1])
        shifted[0] += delta
        shifted[1] -= delta
        assert kl_divergence(shifted, truth) > 0.0

    # Pooled first-stage marginals are the sample-size convex combination
    # of the present and prior marginals.
    for _ in range(100):
        counts = _random_counts(rng)
        pre = estimate(EstimatorKind.PRESENT, counts).group_marginals()
        pri = estimate(EstimatorKind.PRIOR, counts).group_marginals()
        poo = estimate(EstimatorKind.POOLED, counts).group_marginals()
        n, n_star = counts.n, counts.n_star
        blend = (n * pre + n_star * pri) / (n + n_star)
        np.testing.assert_allclose(poo, blend, rtol=0.0, atol=1e-15)

    # The reduced closed forms agree with the general expansion.
    for _ in range(100):
        model = random_model(rng)
        n = int(rng.integers(1, 5000))
        n_star = int(rng.integers(1, 5000))
        for kind in EstimatorKind:
            general = risk_app(kind, model, n, n_star).total
            closed = risk_app_closed_form(kind, model, n, n_star)
            assert abs(closed - general) <= 1e-12 * max(1.0, abs(general))

    # Required sample sizes are the least integers meeting the target.
    uniform = bundled_model(UNIFORM)
    r = required_sample_size(RssQuery(RssKind.PRIOR_TO_PRESENT, 1000), uniform)
    target = risk_app(EstimatorKind.PRESENT, uniform, 1000).total
    assert risk_app(EstimatorKind.PRIOR, uniform, 1000, r).total <= target
    assert risk_app(EstimatorKind.PRIOR, uniform, 1000, r - 1).total > target
    r = required_sample_size(
        RssQuery(RssKind.PRESENT_TO_POOLED, 1000, n0_star=1000), uniform
    )
    target = risk_app(EstimatorKind.POOLED, uniform, 1000, 1000).total
    assert risk_app(EstimatorKind.PRESENT, uniform, r).total <= target
    assert risk_app(EstimatorKind.PRESENT, uniform, r - 1).total > target

    # Worker count never changes results: bitwise-equal estimates.
    cfg = SimulationConfig(replications=2 * BLOCK_SIZE + 100, seed=31)
    serial = simulate_risk(EstimatorKind.POOLED, uniform, 200, 300, cfg, workers=1)
    fanned = simulate_risk(EstimatorKind.POOLED, uniform, 200, 300, cfg, workers=8)
    assert serial == fanned


@criterion(7, "discard-rule probability and decay")
def test_discard_rate_oracle_and_decay():
    model = bundled_model(CANCER)
    rates = {}
    for n in (200, 400):
        oracle = discard_probability(model, n)
        est = simulate_risk(
            EstimatorKind.PRESENT, model, n, None,
            SimulationConfig(replications=100_000, seed=2024),
        )
        # Total multinomial draws behind the observed rate.
        draws = est.replications / (1.0 - est.discard_rate)
        se = math.sqrt(oracle * (1.0 - oracle) / draws)
        assert abs(est.discard_rate - oracle) <= 3.0 * se
        rates[n] = (est.discard_rate, oracle)
    assert rates[400][1] <= rates[200][1] / 10.0
    assert rates[400][0] <= rates[200][0] / 10.0
