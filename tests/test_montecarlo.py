"""Simulation engine: reproducibility, conditioning, and accuracy."""

from __future__ import annotations

import math
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from surveyrisk import (
    BLOCK_SIZE,
    BUNDLED_MODEL_NAMES,
    DomainError,
    EstimatorKind,
    MissingNStar,
    RejectionBudgetExceeded,
    RssKind,
    RssQuery,
    SimulationConfig,
    SurveyCounts,
    advise,
    advise_from_marginals,
    build_model,
    bundled_model,
    derive,
    discard_probability,
    estimate,
    kl_divergence,
    required_sample_size,
    risk_app,
    risk_gap_present_pooled,
    risk_gap_present_prior,
    sample_surveys,
    simulate_risk,
)
from surveyrisk import montecarlo
from surveyrisk.montecarlo import _binom_inverse
from helpers import inverse_cell_sum, risk_app_closed_form, risk_full_model

UNIFORM_2X2 = build_model([[0.25, 0.25], [0.25, 0.25]])
BREAST_CANCER = bundled_model("example2-breast-cancer")


def test_config_validation():
    with pytest.raises(DomainError):
        SimulationConfig(replications=0)
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
    app = risk_full_model(p=1, M=inverse_cell_sum(m), n=2000)
    cfg = SimulationConfig(replications=200_000, seed=3)
    r = simulate_risk(EstimatorKind.PRESENT, m, 2000, None, cfg)
    assert abs(r.mean_loss - app) <= 3.0 * r.std_error + 1e-7


def test_rejection_budget_is_enforced(monkeypatch):
    skewed = build_model([[0.499, 0.499], [0.001, 0.001]])
    cfg = SimulationConfig(replications=64, seed=1)
    monkeypatch.setattr(montecarlo, "_memo", None)
    monkeypatch.setattr(montecarlo, "_MAX_REJECTIONS", 3)
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


def test_sizes_whose_estimates_overflow_int64_are_refused():
    """The prior and pooled estimates multiply counts in int64; products
    up to (n + n*) * n would wrap silently, so such sizes are refused
    before anything is drawn."""
    cfg = SimulationConfig(replications=20_000, seed=0)
    start = time.perf_counter()
    for kind in (EstimatorKind.PRIOR, EstimatorKind.POOLED):
        with pytest.raises(DomainError, match="2\\*\\*63"):
            simulate_risk(kind, BREAST_CANCER, 200, 2**62, cfg)
    assert time.perf_counter() - start < 0.5


def _inverse_grid():
    """(u, r, q) rows for the inverse-CDF cross-check.

    Seeded uniforms and trial counts, plus the edges: u = 0, u below
    1e-300, u a few ulps under 1 (where the floating CDF is flat), u
    within two ulps of a CDF value, r = 0 and r = 1, r above 3e9, and q
    within 1e-6 of 0 and of 1.

    Uniforms below 1e-300 are paired with small r only: where cdf(0)
    underflows below u, ``binom.ppf`` itself warns that it cannot
    bracket the root.  The engine's uniforms are multiples of 2**-53, so
    it never asks for such a point.
    """
    rng = np.random.default_rng(20190415)
    tiny = [0.0, 5e-324, 1e-310, 1e-301]
    top = [1.0 - j * 2.0**-53 for j in range(1, 17)]
    for q in (1e-6, 0.013, 0.25, 0.5, 0.61803, 0.97, 1.0 - 1e-6):
        r = rng.integers(0, 3_001, size=2_000)
        r[:50] = rng.integers(0, 2, size=50)
        u = rng.random(r.size)
        u[50:50 + len(top)] = top
        # within two ulps of cdf(k), where the floating CDF and the root
        # finder inside binom.ppf can round the comparison differently
        ties = np.arange(100, 600)
        rt = r[ties]
        k = np.round(rt * q + rng.normal(0.0, 2.0, ties.size)
                     * np.sqrt(rt * q * (1.0 - q)))
        c = binom.cdf(np.clip(k, 0, rt), rt, q)
        u[ties] = np.clip(c + rng.integers(-2, 3, ties.size) * np.spacing(c),
                          0.0, 1.0)
        yield u, r, q
        small = np.repeat(np.array([0, 1, 2, 5, 30], dtype=np.int64), len(tiny))
        yield np.tile(tiny, 5), small, q
        # trial counts too large for the (trials, count) key
        huge = np.array([3_037_000_498, 4 * 10**9, 10**12], dtype=np.int64)
        yield rng.random(30), np.repeat(huge, 10), q


def test_binom_inverse_matches_binom_ppf_exactly():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u, r, q in _inverse_grid():
            got = _binom_inverse(u, r.astype(np.int64), q)
            want = np.maximum(binom.ppf(u, r, q), 0.0)
            assert got.dtype == np.int64
            assert np.array_equal(got, want), (q, np.flatnonzero(got != want))


@pytest.mark.parametrize("bad", [200.5, 600.7, True, "60", 0, -3])
def test_fractional_or_bool_sizes_are_refused(bad):
    """A fractional size would be truncated somewhere inside the draw and
    give a wrong number instead of an error, so every size is checked up
    front; ``bool`` is refused although it is an int."""
    cfg = SimulationConfig(replications=16)
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError):
        simulate_risk(EstimatorKind.POOLED, BREAST_CANCER, bad, 600, cfg)
    with pytest.raises(DomainError):
        simulate_risk(EstimatorKind.POOLED, BREAST_CANCER, 200, bad, cfg)
    with pytest.raises(DomainError):
        sample_surveys(BREAST_CANCER, bad, 100, rng)
    with pytest.raises(DomainError):
        discard_probability(BREAST_CANCER, bad)
    if bad != 0:
        with pytest.raises(DomainError):
            sample_surveys(BREAST_CANCER, 200, bad, rng)
    with pytest.raises(DomainError):
        simulate_risk(EstimatorKind.PRESENT, BREAST_CANCER, 200, None, cfg,
                      workers=bad)
    with pytest.raises(DomainError):
        SimulationConfig(replications=bad)

    dq = derive(BREAST_CANCER)
    for kind in EstimatorKind:
        with pytest.raises(DomainError):
            risk_app(kind, dq, bad, 600)
        with pytest.raises(DomainError):
            risk_app_closed_form(kind, BREAST_CANCER, bad, 600)
    for kind in (EstimatorKind.PRIOR, EstimatorKind.POOLED):
        with pytest.raises(DomainError):
            risk_app(kind, dq, 200, bad)
        with pytest.raises(DomainError):
            risk_app_closed_form(kind, BREAST_CANCER, 200, bad)
    with pytest.raises(DomainError):
        risk_full_model(bad, 1e4, 200)
    with pytest.raises(DomainError):
        risk_full_model(14, 1e4, bad)
    sizes, marginals = BREAST_CANCER.group_sizes, dq.marginals.tolist()
    for n, n_star in ((bad, 600), (200, bad)):
        with pytest.raises(DomainError):
            risk_gap_present_prior(dq, n, n_star)
        with pytest.raises(DomainError):
            risk_gap_present_pooled(dq, n, n_star)
        with pytest.raises(DomainError):
            advise_from_marginals(sizes, marginals, n, n_star)

    with pytest.raises(DomainError):
        RssQuery(RssKind.PRIOR_TO_PRESENT, n0=bad)
    with pytest.raises(DomainError):
        RssQuery(RssKind.PRESENT_TO_POOLED, n0=bad, n0_star=400)
    with pytest.raises(DomainError):
        RssQuery(RssKind.PRESENT_TO_POOLED, n0=400, n0_star=bad)
    with pytest.raises(DomainError):
        required_sample_size(RssQuery(RssKind.PRIOR_TO_PRESENT, 400),
                             BREAST_CANCER, workers=bad)
    counts = SurveyCounts(
        present=((5, 12, 8), (13, 34, 17), (18, 27, 22), (12, 17, 11), (3, 1, 1)),
        prior=(26, 63, 67, 40, 5),
    )
    with pytest.raises(DomainError):
        advise(counts, sizes, stage="plan", n=bad)


@pytest.mark.parametrize("bad", [1.7, True, -1, 2**64, "1"])
def test_seed_outside_the_unsigned_64_bit_integers_is_refused(bad):
    """``seed=1.7`` and ``seed=True`` once ran bitwise as ``seed=1``."""
    with pytest.raises(DomainError):
        SimulationConfig(replications=16, seed=bad)


def test_expansion_limits_other_than_the_prior_floor_are_refused():
    """n* = inf is the prior estimator's documented limit and nothing
    else's; a NaN size used to give a NaN risk."""
    dq = derive(BREAST_CANCER)
    floor = risk_app(EstimatorKind.PRIOR, dq, 200, math.inf)
    assert floor.total < risk_app(EstimatorKind.PRIOR, dq, 200, 10**9).total
    for kind, n_star in ((EstimatorKind.POOLED, math.inf),
                         (EstimatorKind.PRIOR, math.nan),
                         (EstimatorKind.PRIOR, -math.inf)):
        with pytest.raises(DomainError):
            risk_app(kind, dq, 200, n_star)
    with pytest.raises(DomainError):
        risk_app(EstimatorKind.PRESENT, dq, math.inf)
    with pytest.raises(DomainError):
        risk_app_closed_form(EstimatorKind.PRIOR, BREAST_CANCER, 200,
                             math.inf)


def test_numpy_integer_sizes_match_python_ints():
    cfg = SimulationConfig(replications=300, seed=4)
    want = simulate_risk(EstimatorKind.POOLED, BREAST_CANCER, 60, 300, cfg)
    got = simulate_risk(EstimatorKind.POOLED, BREAST_CANCER, np.int32(60),
                        np.uint16(300), cfg)
    assert got == want
    assert type(got.n) is int and type(got.n_star) is int


def test_numpy_integers_match_python_ints_at_every_entry_point():
    """numpy integers are accepted wherever a size is, give bitwise the
    same results, and are stored as Python ints."""
    cfg = SimulationConfig(replications=np.int64(300), seed=np.uint64(4))
    assert cfg == SimulationConfig(replications=300, seed=4)
    assert all(type(v) is int for v in (cfg.replications, cfg.seed))
    big = SimulationConfig(replications=16, seed=np.uint64(2**64 - 1))
    assert type(big.seed) is int and big.seed == 2**64 - 1
    want = simulate_risk(EstimatorKind.POOLED, BREAST_CANCER, 60, 300,
                         SimulationConfig(replications=300, seed=4))
    assert simulate_risk(EstimatorKind.POOLED, BREAST_CANCER, 60, 300, cfg,
                         workers=np.int8(2)) == want

    dq = derive(BREAST_CANCER)
    for kind in EstimatorKind:
        want = risk_app(kind, dq, 200, 600)
        got = risk_app(kind, dq, np.int64(200), np.uint32(600))
        assert got == want
        assert type(got.n) is int
        assert got.n_star is None or type(got.n_star) is int

    for kind, n0, n0_star in ((RssKind.PRIOR_TO_PRESENT, 400, None),
                              (RssKind.PRESENT_TO_POOLED, 400, 400)):
        query = RssQuery(kind, n0=np.int64(n0),
                         n0_star=None if n0_star is None else np.int16(n0_star))
        assert type(query.n0) is int
        assert query.n0_star is None or type(query.n0_star) is int
        assert query == RssQuery(kind, n0=n0, n0_star=n0_star)
        got = required_sample_size(query, BREAST_CANCER)
        assert got == required_sample_size(RssQuery(kind, n0, n0_star),
                                           BREAST_CANCER)
        assert type(got) is int

    rec = advise_from_marginals(BREAST_CANCER.group_sizes, dq.marginals.tolist(),
                                np.int64(200), np.int32(600))
    assert rec == advise_from_marginals(BREAST_CANCER.group_sizes,
                                        dq.marginals.tolist(), 200, 600)
    assert type(rec.n) is int and type(rec.n_star) is int


# ---------------------------------------------------------------------------
# the memo of present draws
# ---------------------------------------------------------------------------

MEMO_REPS = 3 * BLOCK_SIZE + 123


def _forget_draws() -> None:
    montecarlo._memo = None


@pytest.fixture
def present_draws(monkeypatch):
    """Counts the engine's present draws; the memo starts empty."""
    calls = []
    draw = montecarlo._draw_present

    def counted(*args):
        calls.append(args[2])
        return draw(*args)

    monkeypatch.setattr(montecarlo, "_draw_present", counted)
    monkeypatch.setattr(montecarlo, "_memo", None)
    return calls


def test_memo_hit_equals_a_fresh_draw(present_draws):
    """For each kind and worker count, a call that finds its surveys in
    the memo returns bitwise what a fresh draw returns, and fresh draws
    agree across worker counts."""
    cfg = SimulationConfig(replications=MEMO_REPS, seed=23)
    blocks = -(-MEMO_REPS // BLOCK_SIZE)
    for kind in EstimatorKind:
        fresh = []
        for workers in (1, 2, 8):
            _forget_draws()
            present_draws.clear()
            cold = simulate_risk(kind, BREAST_CANCER, 60, 300, cfg, workers)
            assert len(present_draws) == blocks
            warm = simulate_risk(kind, BREAST_CANCER, 60, 300, cfg, workers)
            assert len(present_draws) == blocks
            assert warm == cold
            assert cold.discard_rate > 0.0
            fresh.append(cold)
        assert fresh[0] == fresh[1] == fresh[2]

    # a sibling kind at the same key fills the memo the same way
    for kind, sibling in ((EstimatorKind.PRIOR, EstimatorKind.POOLED),
                          (EstimatorKind.POOLED, EstimatorKind.PRIOR),
                          (EstimatorKind.PRESENT, EstimatorKind.POOLED)):
        _forget_draws()
        cold = simulate_risk(kind, BREAST_CANCER, 60, 300, cfg, 2)
        _forget_draws()
        simulate_risk(sibling, BREAST_CANCER, 60, 300, cfg, 8)
        assert simulate_risk(kind, BREAST_CANCER, 60, 300, cfg, 1) == cold


def test_changing_any_memo_key_field_draws_afresh(present_draws):
    """A model with one cell changed (the same marginals, or the same
    cells in other groups), another seed, replication count or n each
    draw new surveys, and return what they return on an empty memo."""
    base = build_model([[0.25, 0.25], [0.25, 0.25]])
    cfg = SimulationConfig(replications=5000, seed=3)
    variants = [
        (build_model([[0.25, 0.25], [0.2, 0.3]]), 25, cfg),
        (build_model([[0.25, 0.25, 0.25], [0.25]]), 25, cfg),
        (base, 25, SimulationConfig(replications=5000, seed=4)),
        (base, 25, SimulationConfig(replications=5001, seed=3)),
        (base, 26, cfg),
    ]
    for kind in EstimatorKind:
        for model, n, config in variants:
            _forget_draws()
            want = simulate_risk(kind, model, n, 40, config)
            simulate_risk(kind, base, 25, 40, cfg)
            present_draws.clear()
            assert simulate_risk(kind, model, n, 40, config) == want
            assert len(present_draws) == 2


def test_call_over_the_memo_cap_keeps_no_slot(present_draws, monkeypatch):
    cfg = SimulationConfig(replications=MEMO_REPS, seed=9)
    want = simulate_risk(EstimatorKind.POOLED, UNIFORM_2X2, 25, 25, cfg)
    assert montecarlo._memo is not None
    monkeypatch.setattr(montecarlo, "_MEMO_CAP_BYTES", 0)
    present_draws.clear()
    for workers in (1, 2):
        assert simulate_risk(EstimatorKind.POOLED, UNIFORM_2X2, 25, 25, cfg,
                             workers) == want
        assert montecarlo._memo is None
    assert len(present_draws) == 8


def test_concurrent_callers_with_different_keys_get_serial_results():
    """User threads that share the memo, with different keys or with one
    key at different n*, each get what they get alone."""
    calls = [
        (EstimatorKind.PRIOR, 60, 300, 1),
        (EstimatorKind.POOLED, 60, 900, 1),
        (EstimatorKind.POOLED, 60, 300, 2),
        (EstimatorKind.PRESENT, 200, None, 1),
    ]

    def call(kind, n, n_star, seed):
        cfg = SimulationConfig(replications=2 * BLOCK_SIZE + 7, seed=seed)
        return simulate_risk(kind, BREAST_CANCER, n, n_star, cfg, workers=2)

    want = []
    for args in calls:
        _forget_draws()
        want.append(call(*args))

    got: list[list] = [[] for _ in calls]
    start = threading.Barrier(len(calls))

    def worker(i):
        start.wait()
        for _ in range(3):
            got[i].append(call(*calls[i]))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(calls))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert got == [[w] * 3 for w in want]


def test_engine_loss_is_the_library_loss():
    """The engine's vectorized estimates and losses are the library's:
    each replication's counts, rebuilt from the memo's draws, give through
    ``estimate`` and ``kl_divergence`` a mean and standard error equal to
    the engine's to the bit, discarded draws included."""
    for name in BUNDLED_MODEL_NAMES:
        model = bundled_model(name)
        n = 60 if name == "example2-breast-cancer" else 200
        truth = model.flat()
        bounds = np.cumsum(model.group_sizes)[:-1]
        cfg = SimulationConfig(replications=300, seed=3)
        for kind in EstimatorKind:
            n_star = None if kind is EstimatorKind.PRESENT else 600
            _forget_draws()
            r = simulate_risk(kind, model, n, n_star, cfg)
            draws = montecarlo._memo
            losses, discarded = [], 0
            for b in range(-(-cfg.replications // BLOCK_SIZE)):
                _, cells, d, prior = draws.block(b, n_star)
                discarded += d
                for i, row in enumerate(cells.tolist()):
                    counts = SurveyCounts(
                        present=tuple(map(tuple, np.split(row, bounds))),
                        prior=None if prior is None else prior[i].tolist())
                    losses.append(kl_divergence(estimate(kind, counts).flat(),
                                                truth))
            losses = np.array(losses)
            assert r.mean_loss == float(np.sum(losses) / losses.size)
            assert r.std_error == float(np.std(losses, ddof=1)
                                        / math.sqrt(losses.size))
            assert r.discard_rate == discarded / (discarded + losses.size)
            if name == "example2-breast-cancer":
                assert discarded > 0


@st.composite
def _engine_cases(draw):
    """A model of 2-5 groups of 1-4 cells, n from I to 60, n* and seed.

    Group and cell weights lie in 1..4, so no group marginal is below
    1/17 and the discard loop stays short even at n = I."""
    layout = draw(st.lists(st.integers(1, 4), min_size=2, max_size=5))
    cells = [[draw(st.integers(1, 4)) * draw(st.integers(1, 4))
              for _ in range(k)] for k in layout]
    model = build_model(cells, renormalize=True)
    n = draw(st.integers(len(layout), 60))
    return model, n, draw(st.integers(1, 200)), draw(st.integers(0, 2**64 - 1))


@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(_engine_cases())
def test_workers_and_memo_do_not_change_results_on_random_models(case):
    """Workers 1 and 3, each on an empty memo and again on the memo it
    left, give equal estimates for every kind, over two blocks."""
    model, n, n_star, seed = case
    cfg = SimulationConfig(replications=BLOCK_SIZE + 1, seed=seed)
    for kind in EstimatorKind:
        got = []
        for workers in (1, 3):
            _forget_draws()
            for _ in range(2):
                got.append(simulate_risk(kind, model, n, n_star, cfg, workers))
        assert got[1:] == got[:1] * 3
