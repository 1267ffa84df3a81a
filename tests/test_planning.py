"""Required sample sizes and the pooling advisor."""

from __future__ import annotations

import math

import numpy as np
import pytest

import surveyrisk.planning as planning
from surveyrisk import (
    AdviceContext,
    Decision,
    DomainError,
    EstimatorKind,
    MissingPriorCounts,
    Recommendation,
    RiskEstimate,
    RssKind,
    RssQuery,
    ShapeError,
    SimulationConfig,
    SimulationNoise,
    SurveyCounts,
    Unattainable,
    ZeroGroupCount,
    advise,
    advise_from_marginals,
    bundled_model,
    derive,
    required_sample_size,
    risk_app,
    risk_gap_present_pooled,
)

UNIFORM = bundled_model("example1-uniform100x2")
UNIFORM_DQ = derive(UNIFORM)


def test_query_validation():
    with pytest.raises(DomainError):
        RssQuery(kind=RssKind.PRIOR_TO_PRESENT, n0=0)
    with pytest.raises(DomainError):
        RssQuery(kind=RssKind.PRESENT_TO_POOLED, n0=100)  # needs n0_star
    with pytest.raises(DomainError):
        RssQuery(kind=RssKind.PRIOR_TO_PRESENT, n0=100, method="nope")
    with pytest.raises(DomainError):
        RssQuery(kind=RssKind.PRIOR_TO_PRESENT, n0=100, method="sim")


def test_query_n0_star_is_an_integer_for_both_kinds():
    """A given n0_star goes through the one integer rule for either kind,
    also for prior-vs-present, which does not use it."""
    for kind in RssKind:
        for bad in ("abc", 400.5, 0, True, math.nan):
            with pytest.raises(DomainError):
                RssQuery(kind=kind, n0=400, n0_star=bad)
        n0_star = RssQuery(kind=kind, n0=400, n0_star=np.int64(400)).n0_star
        assert type(n0_star) is int and n0_star == 400
    assert RssQuery(kind=RssKind.PRIOR_TO_PRESENT, n0=400).n0_star is None


def test_prior_to_present_reference_points():
    for n0, want in ((400, 791), (1000, 1247)):
        q = RssQuery(kind=RssKind.PRIOR_TO_PRESENT, n0=n0)
        assert required_sample_size(q, UNIFORM) == want


def test_present_to_pooled_reference_point():
    q = RssQuery(kind=RssKind.PRESENT_TO_POOLED, n0=400, n0_star=400)
    assert required_sample_size(q, UNIFORM) == 401


def test_smallest_integer_property():
    """The returned size satisfies the risk inequality and its predecessor
    does not; direct evaluation, no solver involved."""
    for n0 in (400, 700, 1000):
        q = RssQuery(kind=RssKind.PRIOR_TO_PRESENT, n0=n0)
        n_star = required_sample_size(q, UNIFORM)
        target = risk_app(EstimatorKind.PRESENT, UNIFORM_DQ, n0).total
        at = risk_app(EstimatorKind.PRIOR, UNIFORM_DQ, n0, n_star).total
        before = risk_app(EstimatorKind.PRIOR, UNIFORM_DQ, n0, n_star - 1).total
        assert at <= target < before

        qp = RssQuery(kind=RssKind.PRESENT_TO_POOLED, n0=n0, n0_star=n0)
        n = required_sample_size(qp, UNIFORM)
        target = risk_app(EstimatorKind.POOLED, UNIFORM_DQ, n0, n0).total
        at = risk_app(EstimatorKind.PRESENT, UNIFORM_DQ, n).total
        before = risk_app(EstimatorKind.PRESENT, UNIFORM_DQ, n - 1).total
        assert at <= target < before


def test_matching_prior_needs_more_than_equal_size():
    """At n0 = n0* the prior estimator is strictly worse, so matching the
    present risk always takes a bigger prior survey."""
    for model_name in ("example1-uniform100x2", "example2-breast-cancer",
                       "example3-household"):
        model = bundled_model(model_name)
        n0 = 1000
        q = RssQuery(kind=RssKind.PRIOR_TO_PRESENT, n0=n0)
        assert required_sample_size(q, model) > n0


def test_pooled_is_matched_below_combined_size():
    for model_name in ("example1-uniform100x2", "example2-breast-cancer",
                       "example3-household"):
        model = bundled_model(model_name)
        q = RssQuery(kind=RssKind.PRESENT_TO_POOLED, n0=800, n0_star=800)
        assert required_sample_size(q, model) < 1600


def test_unattainable_when_prior_floor_exceeds_target():
    """Deep in the small-n regime no prior survey size catches up: the
    conditional-estimation part of the prior risk already exceeds the
    present risk."""
    for n0 in (90, 100):
        q = RssQuery(kind=RssKind.PRIOR_TO_PRESENT, n0=n0)
        with pytest.raises(Unattainable):
            required_sample_size(q, UNIFORM)
        qs = RssQuery(kind=RssKind.PRIOR_TO_PRESENT, n0=n0, method="sim",
                      config=SimulationConfig(replications=64, seed=0))
        with pytest.raises(Unattainable):
            required_sample_size(qs, UNIFORM)


def test_simulation_method_is_deterministic_and_sane():
    cfg = SimulationConfig(replications=20_000, seed=7)
    q = RssQuery(kind=RssKind.PRESENT_TO_POOLED, n0=400, n0_star=400,
                 method="sim", config=cfg)
    first = required_sample_size(q, UNIFORM)
    second = required_sample_size(q, UNIFORM)
    assert first == second
    assert first == 401  # steep risk curve pins the answer exactly

    qp = RssQuery(kind=RssKind.PRIOR_TO_PRESENT, n0=400, method="sim",
                  config=cfg)
    got = required_sample_size(qp, UNIFORM)
    assert got == required_sample_size(qp, UNIFORM)
    # the risk curve is flat near this root, so noise moves the crossing;
    # within the observed app-vs-sim spread for this model
    assert 600 <= got <= 1600


def test_simulation_noise_when_bracketing_fails(monkeypatch):
    """If simulated prior risk never reaches the target before the doubling
    cap, the solver reports noise rather than an answer."""

    def never_below(kind, model, n, n_star=None, config=None, workers=1):
        mean = 1.0 if kind is EstimatorKind.PRIOR else 0.5
        return RiskEstimate(mean_loss=mean, std_error=0.0,
                            replications=8, discard_rate=0.0,
                            kind=kind, n=n, n_star=n_star)

    monkeypatch.setattr(planning, "simulate_risk", never_below)
    q = RssQuery(kind=RssKind.PRIOR_TO_PRESENT, n0=400, method="sim",
                 config=SimulationConfig(replications=8, seed=0))
    with pytest.raises(SimulationNoise):
        required_sample_size(q, UNIFORM)


def _fake_engine(monkeypatch, mean_loss):
    """Stand ``mean_loss(kind, n, n_star)`` in for the engine the solver
    calls; returns the list of (kind, n, n_star) it is called with."""
    calls = []

    def fake(kind, model, n, n_star=None, config=None, workers=1):
        calls.append((kind, n, n_star))
        return RiskEstimate(mean_loss=mean_loss(kind, n, n_star),
                            std_error=0.0, replications=8, discard_rate=0.0,
                            kind=kind, n=n, n_star=n_star)

    monkeypatch.setattr(planning, "simulate_risk", fake)
    return calls


def _sim_query(kind):
    return RssQuery(kind=kind, n0=400, n0_star=400, method="sim",
                    config=SimulationConfig(replications=8, seed=0))


def _app_total(kind, n, n_star):
    return risk_app(kind, UNIFORM_DQ, n, n_star).total


def _probed_curve(kind, mean_loss):
    """x -> risk at x minus the target, as the solver forms it."""
    if kind is RssKind.PRIOR_TO_PRESENT:
        target = mean_loss(EstimatorKind.PRESENT, 400, None)
        return lambda x: mean_loss(EstimatorKind.PRIOR, 400, x) - target
    target = mean_loss(EstimatorKind.POOLED, 400, 400)
    return lambda x: mean_loss(EstimatorKind.PRESENT, x, None) - target


@pytest.mark.parametrize("kind, shift", [
    (RssKind.PRIOR_TO_PRESENT, 1.5e-4),   # analytic 791, shifted about 1040
    (RssKind.PRESENT_TO_POOLED, 3e-2),    # analytic 401, shifted about 450
])
def test_simulated_solve_follows_a_shifted_curve(monkeypatch, kind, shift):
    """A simulated curve that is the analytic one plus a constant is solved
    exactly, far from the analytic answer, in a handful of engine runs."""
    probed = EstimatorKind.PRIOR if kind is RssKind.PRIOR_TO_PRESENT \
        else EstimatorKind.PRESENT

    def mean_loss(k, n, n_star):
        return _app_total(k, n, n_star) + (shift if k is probed else 0.0)

    calls = _fake_engine(monkeypatch, mean_loss)
    f = _probed_curve(kind, mean_loss)
    want = 1
    while f(want) > 0.0:
        want += 1
    assert required_sample_size(_sim_query(kind), UNIFORM) == want
    analytic = required_sample_size(RssQuery(kind=kind, n0=400, n0_star=400),
                                    UNIFORM)
    assert want - analytic > 40
    assert len(calls) <= 8


@pytest.mark.parametrize("phase", range(7))
def test_simulated_solve_returns_a_crossing_of_a_sawtooth(monkeypatch, phase):
    """Near a flat root a noisy curve crosses the target many times; the
    answer is one of those crossings, whichever way the solver gallops."""

    def mean_loss(k, n, n_star):
        if k is EstimatorKind.PRIOR:
            return _app_total(k, n, n_star) + 2e-5 * ((n_star + phase) % 7)
        return _app_total(k, n, n_star) + 6e-5

    _fake_engine(monkeypatch, mean_loss)
    f = _probed_curve(RssKind.PRIOR_TO_PRESENT, mean_loss)
    crossings = [x for x in range(600, 1200) if f(x) <= 0.0 < f(x - 1)]
    assert len(crossings) > 1
    got = required_sample_size(_sim_query(RssKind.PRIOR_TO_PRESENT), UNIFORM)
    assert got in crossings


def test_simulated_solve_gallops_past_an_unreachable_shifted_target(monkeypatch):
    """The probe at the analytic answer lies so far above the target that
    the shifted analytic curve never meets it before the cap; the solver
    still finds where the simulated curve crosses."""

    def mean_loss(k, n, n_star):
        if k is EstimatorKind.PRIOR:
            return 1.0 if n_star < 5000 else 0.0
        return 0.5

    calls = _fake_engine(monkeypatch, mean_loss)
    assert required_sample_size(
        _sim_query(RssKind.PRIOR_TO_PRESENT), UNIFORM) == 5000
    assert len(calls) <= 30


#: (kind, n, n*) of every risk_app call an app-mode solve makes on the
#: uniform model at n0 = n0* = 400: the doubling-then-bisection probes
APP_CALLS = {
    RssKind.PRIOR_TO_PRESENT: [
        ("present", 400, None), ("prior", 400, math.inf), ("present", 400, None),
        ("prior", 400, 400), ("prior", 400, 800), ("prior", 400, 600),
        ("prior", 400, 700), ("prior", 400, 750), ("prior", 400, 775),
        ("prior", 400, 787), ("prior", 400, 793), ("prior", 400, 790),
        ("prior", 400, 791),
    ],
    RssKind.PRESENT_TO_POOLED: [
        ("pooled", 400, 400), ("present", 400, None), ("present", 800, None),
        ("present", 600, None), ("present", 500, None), ("present", 450, None),
        ("present", 425, None), ("present", 412, None), ("present", 406, None),
        ("present", 403, None), ("present", 401, None),
    ],
}


@pytest.mark.parametrize("kind", list(RssKind))
def test_analytic_solve_probes_by_doubling_from_n0(monkeypatch, kind):
    calls = []

    def recording(k, dq, n, n_star=None):
        calls.append((k.value, n, n_star))
        return risk_app(k, dq, n, n_star)

    monkeypatch.setattr(planning, "risk_app", recording)
    required_sample_size(RssQuery(kind=kind, n0=400, n0_star=400), UNIFORM)
    assert calls == APP_CALLS[kind]


def test_advise_from_truth_marginals_pathological_point():
    rec = advise_from_marginals(UNIFORM.group_sizes,
                                UNIFORM_DQ.marginals.tolist(), 90, 1000)
    assert isinstance(rec, Recommendation)
    assert rec.context is AdviceContext.POST_SURVEY
    assert rec.decision is Decision.USE_PRESENT_ONLY
    assert math.isclose(rec.statistic, -0.006085554173537789, abs_tol=1e-15)


def test_advise_from_truth_marginals_well_behaved_point():
    m2 = bundled_model("example2-breast-cancer")
    dq2 = derive(m2)
    rec = advise_from_marginals(m2.group_sizes, dq2.marginals.tolist(),
                                1000, 1000)
    assert rec.decision is Decision.USE_POOLED
    assert rec.statistic > 0.0
    # the statistic is exactly the expansion gap at the plug-in marginals
    assert math.isclose(rec.statistic,
                        risk_gap_present_pooled(dq2, 1000, 1000),
                        rel_tol=0, abs_tol=0)


def test_advise_planning_stage_decisions():
    rec_low = advise_from_marginals(UNIFORM.group_sizes, [0.5, 0.5], 90, 1000,
                                    stage="plan")
    assert rec_low.context is AdviceContext.PLANNING
    assert rec_low.decision is Decision.INCREASE_N
    rec_ok = advise_from_marginals(UNIFORM.group_sizes, [0.5, 0.5], 2000, 1000,
                                   stage="plan")
    assert rec_ok.decision is Decision.USE_POOLED


def test_advise_counts_post_survey_uses_pooled_marginals():
    """Counts proportional to the truth reproduce the truth-plug-in
    statistic exactly."""
    counts = SurveyCounts(present=tuple((1,) * 100 for _ in range(2)),
                          prior=(500, 500))
    rec = advise(counts, UNIFORM.group_sizes)
    oracle = advise_from_marginals(UNIFORM.group_sizes, [0.5, 0.5],
                                   counts.n, counts.n_star)
    assert rec.statistic == oracle.statistic
    assert rec.decision is oracle.decision
    assert rec.plug_in_marginals == (0.5, 0.5)


def test_advise_counts_planning_ignores_present_cells():
    counts = SurveyCounts(present=((1, 1), (1, 1)), prior=(500, 500))
    rec = advise(counts, (2, 2), stage="plan", n=90)
    assert rec.context is AdviceContext.PLANNING
    assert rec.n == 90
    assert rec.plug_in_marginals == (0.5, 0.5)


def test_advise_scaling_preserves_pooling_decisions():
    """Scaling all sizes by k divides the first-order part of the statistic
    by k and the second-order part by k^2, so a positive statistic stays
    positive.  A negative one need not: the pathology fades as surveys
    grow, which is exactly what the sign flip expresses."""
    rng = np.random.default_rng(31)
    for _ in range(50):
        sizes = tuple(int(v) for v in rng.integers(1, 8, size=3))
        marg = rng.dirichlet((2.0, 2.0, 2.0))
        n = int(rng.integers(20, 500))
        n_star = int(rng.integers(20, 500))
        base = advise_from_marginals(sizes, marg.tolist(), n, n_star)
        if base.decision is Decision.USE_POOLED:
            for k in (2, 5, 10):
                scaled = advise_from_marginals(sizes, marg.tolist(),
                                               k * n, k * n_star)
                assert scaled.decision is Decision.USE_POOLED
    # the documented counterexample for the negative side
    assert advise_from_marginals((100, 100), [0.5, 0.5], 90, 1000).statistic < 0
    assert advise_from_marginals((100, 100), [0.5, 0.5], 900, 10000).statistic > 0


def test_advise_error_paths():
    with pytest.raises(MissingPriorCounts):
        advise(SurveyCounts(present=((1, 1), (1, 1))), (2, 2))
    with pytest.raises(ShapeError):
        advise(SurveyCounts(present=((1, 1), (1, 1)), prior=(5, 5)), (2, 3))
    with pytest.raises(DomainError):
        advise(SurveyCounts(present=((1, 1), (1, 1)), prior=(5, 5)),
               (2, 2), stage="plan")  # no candidate n
    with pytest.raises(ZeroGroupCount):
        advise(SurveyCounts(present=((1, 1), (1, 1)), prior=(10, 0)),
               (2, 2), stage="plan", n=50)
    with pytest.raises(DomainError):
        advise_from_marginals((2, 2), [0.5, 0.5], 90, 1000, stage="nope")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("stage", ["post", "plan"])
def test_non_finite_plug_in_marginals_are_refused(bad, stage):
    """A NaN or infinite marginal once gave a NaN or meaningless statistic
    and a decision; it is refused, naming the group."""
    with pytest.raises(DomainError, match="group 0"):
        advise_from_marginals((3, 3), [bad, 0.5], 100, 100, stage)


def test_advisor_group_sizes_are_integers():
    """A fractional or bool group size is refused rather than truncated,
    numpy integers give the same statistic, and a zero-cell group is still
    a shape error."""
    m2 = bundled_model("example2-breast-cancer")
    marg = derive(m2).marginals.tolist()
    for bad in ((3.9, 3, 3, 3, 3), (True, 3, 3, 3, 3)):
        with pytest.raises(DomainError):
            advise_from_marginals(bad, marg, 200, 600)
    want = advise_from_marginals(m2.group_sizes, marg, 200, 600)
    got = advise_from_marginals(tuple(np.int64(j) for j in m2.group_sizes),
                                marg, 200, 600)
    assert got == want
    with pytest.raises(ShapeError):
        advise_from_marginals((0, 3, 3, 3, 3), marg, 200, 600)
    counts = SurveyCounts(present=((1, 1), (1, 1)), prior=(5, 5))
    with pytest.raises(DomainError):
        advise(counts, (2.5, 2))
    assert advise(counts, (np.int64(2), 2)) == advise(counts, (2, 2))
