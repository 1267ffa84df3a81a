"""Simulation engine: reproducibility, conditioning, and accuracy."""

from __future__ import annotations

import math
import re
import sys
import threading
import time
import tracemalloc
import warnings
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri, rel_entr
from scipy.stats import binom

from surveyrisk import (
    AdviceContext,
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
    simulate_risk,
)
from surveyrisk import montecarlo, planning
from surveyrisk.montecarlo import _acceptance_bound, _binom_inverse
from surveyrisk.planning import MAX_DOUBLINGS
from helpers import (draw_totals_reference, gap, inverse_cell_sum,
                     risk_app_closed_form, risk_full_model)

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


@pytest.mark.parametrize("n_star, config, workers, error", [
    (None, SimulationConfig(64, 0), 1, MissingNStar),
    (2.5, SimulationConfig(64, 0), 1, DomainError),
    (100, SimulationConfig(64, 0), 0, DomainError),
    (100, 5000, 1, DomainError),
    (100, None, 1, DomainError),
], ids=["no-nstar", "fractional-nstar", "no-workers", "int-config",
        "no-config"])
def test_arguments_are_checked_before_the_model_and_the_refusal(
        n_star, config, workers, error):
    """At n = 2 below breast-cancer's 5 groups the acceptance refusal would
    fire; a bad argument is reported first, by its own error.  These once
    raised RejectionBudgetExceeded, or AttributeError for the configs."""
    with pytest.raises(error):
        simulate_risk(EstimatorKind.PRIOR, BREAST_CANCER, 2, n_star, config,
                      workers)


def test_fixed_seed_is_deterministic():
    cfg = SimulationConfig(replications=3_000, seed=11)
    a = simulate_risk(EstimatorKind.POOLED, UNIFORM_2X2, 30, 40, cfg)
    b = simulate_risk(EstimatorKind.POOLED, UNIFORM_2X2, 30, 40, cfg)
    assert a == b


def test_worker_count_does_not_change_results(executors):
    """Bitwise equality across parallelism, on a fresh draw over several
    scheduling blocks and on a memo hit at a new n*.  The caller is one of
    the workers, so a pool holds one thread fewer than the workers or the
    blocks.  A fresh draw builds one; a hit builds one only where its
    first block's prior draw reads the CDF at BLOCK_SIZE / 4 values or
    more: a table of about 3,500 counts at n* = 10**6, two points per row
    at n* = 10**7, but not a table of a few dozen at n* = 25."""
    for reps, n_star, pools in ((3 * BLOCK_SIZE + 123, 25, [[], [1], [3]]),
                                (BLOCK_SIZE + 100, 10**6, [[], [1, 1], [1, 1]]),
                                (BLOCK_SIZE + 100, 10**7, [[], [1, 1], [1, 1]])):
        cfg = SimulationConfig(replications=reps, seed=5)
        results, built = [], []
        for w in (1, 2, 8):
            _forget_draws()
            executors.clear()
            results.append([simulate_risk(EstimatorKind.POOLED, UNIFORM_2X2, 25,
                                          ns, cfg, workers=w)
                            for ns in (n_star, n_star + 1)])
            built.append([pool["max_workers"] for pool in executors])
        assert results[0] == results[1] == results[2]
        assert built == pools, n_star


def test_workers_sharing_the_blocks_run_each_once(monkeypatch):
    """The caller and the pool's threads take blocks from one iterator.
    With 8 workers, more than the cores, a thread switch every
    microsecond and a hand-off from the middle of the caller's first
    block, every block runs exactly once and the result is one worker's."""
    cfg = SimulationConfig(replications=6 * BLOCK_SIZE, seed=3)
    n_stars = (10**7, 10**7 + 1, 25)  # a draw, a hand-off, all on the caller
    want = [simulate_risk(EstimatorKind.POOLED, UNIFORM_2X2, 25, ns, cfg)
            for ns in n_stars]
    runs = []
    block_losses = montecarlo._block_losses

    def counted(kind, draws, b, n_star, on_cdf=None):
        runs.append(b)
        return block_losses(kind, draws, b, n_star, on_cdf)

    monkeypatch.setattr(montecarlo, "_block_losses", counted)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            _forget_draws()
            for ns, expected in zip(n_stars, want):
                runs.clear()
                assert simulate_risk(EstimatorKind.POOLED, UNIFORM_2X2, 25, ns, cfg,
                                     workers=8) == expected, ns
                assert sorted(runs) == list(range(6)), ns
    finally:
        sys.setswitchinterval(interval)


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
    app = risk_app(EstimatorKind.PRESENT, UNIFORM_2X2, 10_000).total
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


_THIRDS = [[1 / 3], [1 / 3], [1 / 3]]


@pytest.mark.parametrize("cells, n, budget, reps, message", [
    # acceptance bound 0.00996: 3 draws cannot be expected to accept one
    ([[0.499, 0.499], [0.001, 0.001]], 5, 3, 64, "at most 0.00996"),
    # bound 0.64: 3 * 0.64 = 1.92 is below 1 + ln 64 = 5.16
    ([[0.3, 0.3], [0.4]], 2, 3, 64, "at most 0.64.* 64 replications"),
    # bound 0.528 (acceptance 2/9): 5.28 >= 5.16, so the run starts and
    # the loop gives up
    (_THIRDS, 3, 10, 64, "discarded more than 10 draws"),
    # the same model at 256 replications: 5.28 < 1 + ln 256 = 6.55
    (_THIRDS, 3, 10, 256, "at most 0.528.* 256 replications"),
], ids=["before-drawing", "before-drawing-of-many", "while-drawing",
        "before-drawing-of-more"])
def test_rejection_budget_is_enforced(cells, n, budget, reps, message,
                                      monkeypatch):
    cfg = SimulationConfig(replications=reps, seed=1)
    monkeypatch.setattr(montecarlo, "_memo", OrderedDict())
    monkeypatch.setattr(montecarlo, "_MAX_REJECTIONS", budget)
    with pytest.raises(RejectionBudgetExceeded, match=message):
        simulate_risk(EstimatorKind.PRESENT, build_model(cells), n, None, cfg)


@st.composite
def _bound_cases(draw):
    """A model of 2-8 groups of 1-3 cells, one of them small (its cells
    scaled by 1e-1 to 1e-4), and n from 1 to 40."""
    layout = draw(st.lists(st.integers(1, 3), min_size=2, max_size=8))
    small = draw(st.integers(0, len(layout) - 1))
    scale = draw(st.sampled_from([1e-1, 1e-2, 1e-3, 1e-4]))
    cells = [[draw(st.integers(1, 9)) * (scale if i == small else 1.0)
              for _ in range(k)] for i, k in enumerate(layout)]
    return build_model(cells, renormalize=True), draw(st.integers(1, 40))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_bound_cases())
def test_acceptance_bound_bounds_the_exact_acceptance(case):
    """The pre-draw refusal rests on this bound: it is at least the exact
    acceptance probability (up to the rounding of inclusion-exclusion),
    and it is 0 exactly when n is below the number of groups."""
    model, n = case
    bound = _acceptance_bound(derive(model).marginals, n)
    assert bound >= 1.0 - discard_probability(model, n) - 1e-13
    assert (bound == 0.0) == (n < model.n_groups)


def test_near_certain_discard_fails_fast():
    """A group of marginal 1e-7 at n = 5 needs about 2e6 draws per
    replication, past the budget; the run is refused before drawing,
    where the discard loop took 11-14 s to give up.  At 3e-7 (64
    replications) and 1e-6 (4096) one replication fits the budget but the
    worst of them does not, where the loop took 13 s and 77 s to give up.
    At 1e-5 a replication needs about 2e4 draws, and the run goes ahead."""
    def model(eps):
        return build_model([[(1 - eps) / 2] * 2, [eps / 2] * 2])

    start = time.perf_counter()
    for eps, reps, bound in [(1e-7, 64, "5e-07"), (1e-7, 4096, "5e-07"),
                             (3e-7, 64, "1.5e-06"), (1e-6, 4096, "5e-06")]:
        with pytest.raises(RejectionBudgetExceeded, match=f"at most {bound}"):
            simulate_risk(EstimatorKind.PRESENT, model(eps), 5, None,
                          SimulationConfig(replications=reps, seed=0))
    assert time.perf_counter() - start < 0.5
    r = simulate_risk(EstimatorKind.PRESENT, model(1e-5), 5, None,
                      SimulationConfig(replications=1, seed=0))
    assert r.discard_rate > 0.999


@st.composite
def _discard_cases(draw):
    """A model of 2-4 groups, one of them small (its cells scaled by 0.1
    or 0.3), n from I to 12, 1-300 rows, a budget of 0-40 and a seed.
    About a third of the examples discard and pass; most others exhaust
    the budget, at budget 0 or at n = I, where nearly every draw leaves a
    group empty."""
    layout = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    small = draw(st.integers(0, len(layout) - 1))
    scale = draw(st.sampled_from([1e-1, 3e-1]))
    cells = [[draw(st.integers(1, 4)) * (scale if i == small else 1.0)
              for _ in range(k)] for i, k in enumerate(layout)]
    dq = derive(build_model(cells, renormalize=True))
    return (dq, draw(st.integers(len(layout), 12)), draw(st.integers(1, 300)),
            draw(st.integers(0, 40)), draw(st.integers(0, 2**64 - 1)))


@settings(derandomize=True, deadline=None, database=None, max_examples=50)
@given(_discard_cases())
def test_discard_loop_matches_the_per_row_counter_loop(case):
    """The engine's round-counting discard loop gives what a loop that
    counts each row's discards gives: the same totals bytes, discard
    count and generator state after it, or the same refusal at the same
    point in the stream."""
    dq, n, rows, budget, seed = case

    def run(draw):
        gen = montecarlo._block_generator(seed, 0)
        try:
            totals, discarded = draw(gen)
            got = (totals.tobytes(), discarded)
        except RejectionBudgetExceeded:
            got = "refused"
        return got, gen.random()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_MAX_REJECTIONS", budget)
        engine = run(lambda gen: montecarlo._draw_totals(gen, dq, n, rows))
    assert engine == run(
        lambda gen: draw_totals_reference(gen, dq, n, rows, budget))


def test_discard_probability_inclusion_exclusion():
    """For two groups the closed form is elementary; check against it."""
    m = build_model([[0.4, 0.4], [0.1, 0.1]])
    for n in (3, 10, 25):
        want = 0.8 ** n + 0.2 ** n  # both-empty term is 0 for n >= 1
        assert math.isclose(discard_probability(m, n), want, rel_tol=1e-12)
    assert discard_probability(m, 1) == 1.0  # one unit always leaves a gap
    with pytest.raises(DomainError, match="more than 20 groups"):
        discard_probability(build_model([[1.0]] * 21, renormalize=True), 30)


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
    assert time.perf_counter() - start < 0.5


def test_sizes_whose_estimates_overflow_int64_are_refused():
    """Sizes outside the engine's documented range for the prior and
    pooled kinds are refused before anything is drawn."""
    cfg = SimulationConfig(replications=20_000, seed=0)
    start = time.perf_counter()
    for kind in (EstimatorKind.PRIOR, EstimatorKind.POOLED):
        with pytest.raises(DomainError, match="2\\*\\*51"):
            simulate_risk(kind, BREAST_CANCER, 200, 2**62, cfg)
    assert time.perf_counter() - start < 0.5


def test_marginals_past_what_numpy_draws_raise_domain_error():
    """Cells within NORMALIZATION_TOL of 1 whose first I - 1 marginals sum
    past 1 + 1e-12 once made every kind raise numpy's ValueError
    "sum(pvals[:-1]) > 1.0"; ``risk_app`` still answers on them."""
    model = build_model([[0.6], [0.4 + 5e-10], [1e-10]])
    cfg = SimulationConfig(replications=64, seed=0)
    for kind in EstimatorKind:
        with pytest.raises(DomainError, match="sum to 1.0000000005 > .*renormalize"):
            simulate_risk(kind, model, 10**5, 200, cfg)
    assert math.isfinite(risk_app(EstimatorKind.PRESENT, model, 10**5).total)


def test_the_engine_refuses_exactly_the_marginals_numpy_refuses():
    """Near the bound, an exact sum disagrees with numpy's Kahan sum for
    a few models in a thousand; the engine refuses no more and no fewer
    than numpy.  The tiny last group makes an accepted model fail the rejection
    budget before any draw."""
    rng = np.random.default_rng(7)
    refused = 0
    for _ in range(3000):
        head = rng.random(int(rng.integers(2, 30)))
        head *= (1 + 1e-12 + int(rng.integers(-8, 9)) * 2**-52) / head.sum()
        model = build_model([*([x] for x in head), [1e-10]])
        try:
            np.random.default_rng(0).multinomial(1, derive(model).marginals)
            error = RejectionBudgetExceeded
        except ValueError:
            error = DomainError
        refused += error is DomainError
        with pytest.raises(error):
            simulate_risk(EstimatorKind.PRESENT, model, 200, None,
                          SimulationConfig(64))
    assert 0 < refused < 3000


#: a model whose prior draw has q = 0.999; the nearer q is to 1, the
#: fewer trials ``binom.ppf`` takes to start returning NaN
SKEWED = build_model([[0.999], [0.0004, 0.0006]])


@pytest.mark.parametrize("model", [UNIFORM_2X2, BREAST_CANCER, SKEWED])
@pytest.mark.parametrize("kind", [EstimatorKind.PRIOR, EstimatorKind.POOLED])
def test_largest_prior_size_gives_a_finite_risk(model, kind):
    """n* = 2**51 gives a finite risk without warnings; one past it is
    refused.  At 2**53 ``binom.ppf`` returned NaN, which became a garbage
    count and an infinite mean loss, and a run at 2**55 took longer than
    40 s."""
    cfg = SimulationConfig(replications=64, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = simulate_risk(kind, model, 200, 2**51, cfg)
    assert math.isfinite(r.mean_loss) and math.isfinite(r.std_error)
    for n_star in (2**51 + 1, 2**53, 2**55):
        with pytest.raises(DomainError, match=f"got n\\*={n_star}"):
            simulate_risk(kind, model, 200, n_star, cfg)


def test_sizes_past_int64_are_refused_for_every_kind():
    """A present size of 2**63 once raised a bare StopIteration from the
    memo's count dtype.  Any n above 2**48 is refused: at 2**52 the
    breast-cancer present mean was 8% off ``risk_app`` (z = +13), as the
    loss neared its rounding floor."""
    cfg = SimulationConfig(replications=64, seed=0)
    for kind in EstimatorKind:
        r = simulate_risk(kind, UNIFORM_2X2, 2**48, 200, cfg)
        assert math.isfinite(r.mean_loss)
        for n in (2**48 + 1, 2**63 - 2**50, 2**63):
            with pytest.raises(DomainError, match=f"at most 2\\*\\*48, got n={n}"):
                simulate_risk(kind, UNIFORM_2X2, n, 2**51, cfg)


def _inverse_grid():
    """(u, r, q) rows for the inverse-CDF cross-check.

    Seeded uniforms and trial counts, plus the edges: u = 0, u below
    1e-300, u a few ulps under 1 (where the floating CDF is flat), u
    within two ulps of a CDF value, r = 0 and r = 1, r above 3e9, bands
    of r up to 2**51, the largest n*, and q within 1e-6 of 0 and of 1.

    Uniforms below 1e-300 are paired with small r only: where cdf(0)
    underflows below u, ``binom.ppf`` itself warns that it cannot
    bracket the root.  The engine's uniforms are multiples of 2**-53, so
    it never asks for such a point.
    """
    rng = np.random.default_rng(20190415)
    rng_top = np.random.default_rng(251)
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
        # trial counts far apart past 3e9: except near q = 0 the grid's
        # index would overflow int64
        huge = np.array([3_037_000_498, 4 * 10**9, 10**12], dtype=np.int64)
        yield rng.random(30), np.repeat(huge, 10), q
        # bands of 4,096 trial counts up to 2**51, read on the grid
        for r_hi in (10**14, 2**50, 2**51):
            yield rng_top.random(30), r_hi - rng_top.integers(0, 4_096, 30), q
    yield from _band_grid()


def _band_grid():
    """(u, r, q) rows shaped like one group of a chained prior draw: the
    trial counts fill a band of R consecutive values, R = 1 (a constant
    r, as in the first group), 50 to 256 (the table's cap) and 257 (one
    past it), and q lies within 1e-6 of 0 and of 1 as well as between.
    Some uniforms lie within two ulps of a CDF value inside the band, and
    two are 0 and 1 - 2**-53."""
    rng = np.random.default_rng(2019)
    shapes = [(q, R, 4_096) for q in (3e-7, 0.013, 0.36, 0.9, 1.0 - 3e-7)
              for R in (1, 50, 137)]
    shapes += [(q, R, 9_000) for q in (3e-7, 0.36, 1.0 - 3e-7) for R in (256, 257)]
    for q, R, rows in shapes:
        r = 700 + rng.integers(0, R, size=rows)
        r[:2] = 700, 700 + R - 1
        u = rng.random(rows)
        u[2], u[3] = 0.0, 1.0 - 2.0**-53
        ties = np.arange(4, 404)
        rt = r[ties]
        k = np.round(rt * q + rng.normal(0.0, 2.0, ties.size)
                     * np.sqrt(rt * q * (1.0 - q)))
        c = binom.cdf(np.clip(k, 0, rt), rt, q)
        u[ties] = np.clip(c + rng.integers(-2, 3, ties.size) * np.spacing(c),
                          0.0, 1.0)
        yield u, r, q


def _quantiles(u):
    """The clamped normal quantiles that a block keeps with its uniforms."""
    return np.clip(ndtri(u), -montecarlo._Z_CLAMP, montecarlo._Z_CLAMP)


def test_binom_inverse_matches_binom_ppf_exactly():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u, r, q in _inverse_grid():
            got = _binom_inverse(u, _quantiles(u), r.astype(np.int64), q)
            want = np.maximum(binom.ppf(u, r, q), 0.0)
            assert got.dtype == np.int64
            assert np.array_equal(got, want), (q, np.flatnonzero(got != want))


def test_bands_up_to_the_cap_take_the_cdf_table(monkeypatch):
    """Every band of at most 256 trial counts in ``_band_grid`` is drawn
    from the CDF table, and the band one past the cap is not.  The draw
    reports through ``on_cdf`` the CDF values it computes first: the
    table's first row, C + R - 1 values, or at most two per row."""
    tables = []
    cdf_table = montecarlo._cdf_table

    def counted(r_lo, R, c_lo, C, q):
        tables.append((R, C + R - 1))
        return cdf_table(r_lo, R, c_lo, C, q)

    monkeypatch.setattr(montecarlo, "_cdf_table", counted)
    for u, r, q in _band_grid():
        tables.clear()
        reported = []
        _binom_inverse(u, _quantiles(u), r, q, reported.append)
        R = int(np.ptp(r)) + 1
        assert [trials for trials, _ in tables] == ([R] if R <= 256 else []), (q, R)
        assert reported == ([width for _, width in tables] or [2 * u.size]), (q, R)


def test_cdf_method_equals_binom_cdf_on_the_support():
    """The table's first row calls ``binom._cdf``, the distribution's CDF
    without its argument checks, at the counts 0 <= c < r only; there it
    must equal ``binom.cdf`` exactly."""
    for r in (1, 2, 37, 700, 4_000):
        c = np.arange(r)
        for q in (3e-7, 0.013, 0.36, 0.5, 0.9, 1.0 - 3e-7):
            assert np.array_equal(binom._cdf(c, r, q), binom.cdf(c, r, q)), (r, q)


#: (q, r_lo) of the CDF table checks: q within 1e-6 of 0 and of 1, the
#: breast-cancer chain's q, and trial counts of the bundled models' n*
_TABLE_CASES = [(q, r_lo) for q in (3e-7, 0.013, 0.36, 0.6029, 0.9, 1.0 - 3e-7)
                for r_lo in (700, 2_900)]


def _table_at_the_cap(q, r_lo):
    """The CDF table over 256 trial counts from r_lo and every count from
    below 0 to past the largest, with the counts."""
    R, c_lo, C = 256, -3, r_lo + 262
    counts = np.arange(c_lo, c_lo + C)
    return montecarlo._cdf_table(r_lo, R, c_lo, C, q), np.arange(r_lo, r_lo + R), counts


@pytest.mark.parametrize("q, r_lo", _TABLE_CASES)
def test_cdf_table_rounding_stays_within_its_bound_at_the_cap(q, r_lo):
    """Each of the 255 recurrence steps is a convex combination, so the
    table is within 3 * 255 * 2**-53 relative of the same recurrence run
    exactly from the same first row; extended precision stands in for
    exact (values below 1e-300 underflow and are left out)."""
    table, _, _ = _table_at_the_cap(q, r_lo)
    ref = table[0].astype(np.longdouble)
    # each step drops the lowest count, so the reference starts R - 1
    # counts lower; those counts are negative, where the CDF is 0
    R, C = table.shape
    row = np.zeros(C + R - 1, dtype=np.longdouble)
    row[R - 1:] = ref
    got = [ref]
    qq, pp = np.longdouble(q), np.longdouble(1) - np.longdouble(q)
    for j in range(1, R):
        row = qq * row[:-1] + pp * row[1:]
        got.append(row[R - 1 - j:])
    ref = np.array(got)
    keep = ref > 1e-300
    bound = 3 * 255 * 2.0**-53
    assert np.all(np.abs(table[keep] - ref[keep]) <= bound * ref[keep])


@pytest.mark.parametrize("q, r_lo", _TABLE_CASES)
def test_cdf_table_agrees_with_binom_cdf_at_the_cap(q, r_lo):
    """At every value a nonzero uniform can come near (>= 2**-53) the
    table is within 2e-13 of ``binom.cdf`` relative, a fifth of the
    check's margin; it is 0 at negative counts and within 1e-13 of 1 from
    the trials up.  Most of the difference is ``binom.cdf``'s own: against
    a 50-digit sum it is off by up to 1.2e-13 relative in the lower tail
    (r = 889, c = 440, q = 0.6029), the table by 7e-15."""
    table, r, counts = _table_at_the_cap(q, r_lo)
    want = binom.cdf(counts[None, :], r[:, None], q)
    near = want >= 2.0**-53
    assert np.all(np.abs(table[near] - want[near]) <= 2e-13 * want[near])
    assert np.all(table[:, counts < 0] == 0.0)
    outside = counts[None, :] >= r[:, None]
    assert np.all(np.abs(table[outside] - 1.0) <= 1e-13)


@pytest.mark.parametrize("name, n_star", [("example2-breast-cancer", 1_000),
                                          ("example3-household", 3_000),
                                          ("example1-uniform100x2", 2**51)])
def test_few_chained_draw_rows_reach_binom_ppf(monkeypatch, name, n_star):
    """On a block of chained prior draws, fewer than 1% of the rows fall
    through to ``binom.ppf``, counted through a stand-in for
    ``montecarlo.binom`` as the benchmark's tracer counts them.  A table
    that silently held NaN would pass the exactness tests and send most
    rows there.  At n* = 2**51 the CDF points serve the draw, and they
    correct a guess one count off as the table does: checking the guess
    alone sent 387 of 4,096 rows there."""
    ppf_rows = []

    class Counted:
        def ppf(self, u, *args):
            ppf_rows.append(np.size(u))
            return binom.ppf(u, *args)

        def __getattr__(self, attr):
            return getattr(binom, attr)

    monkeypatch.setattr(montecarlo, "binom", Counted())
    marginals = derive(bundled_model(name)).marginals
    u = np.random.default_rng(0).random((BLOCK_SIZE, marginals.size - 1))
    counts = montecarlo._draw_prior(u, _quantiles(u), marginals, n_star)
    assert (counts.sum(axis=1) == n_star).all()
    assert sum(ppf_rows) < 0.01 * u.size


@pytest.mark.parametrize("rows", [BLOCK_SIZE, 10_000 - 2 * BLOCK_SIZE])
def test_household_prior_columns_take_the_cdf_table(monkeypatch, rows):
    """At example3-household's n* = 3,000, every one of the 5 chained
    columns of a full block and of the last block of 10,000 replications
    is drawn from the CDF table: neither ``binom.cdf`` nor ``binom.ppf``
    is called.  A table rule of R * (C + R) <= 16 * rows sent 2 and 3 of
    them to the CDF points."""
    tables, calls = [], []
    cdf_table = montecarlo._cdf_table

    def counted_table(r_lo, R, c_lo, C, q):
        tables.append(R)
        return cdf_table(r_lo, R, c_lo, C, q)

    class Counted:
        def __getattr__(self, attr):
            calls.append(attr)
            return getattr(binom, attr)

    monkeypatch.setattr(montecarlo, "_cdf_table", counted_table)
    monkeypatch.setattr(montecarlo, "binom", Counted())
    marginals = derive(bundled_model("example3-household")).marginals
    u = np.random.default_rng(0).random((rows, marginals.size - 1))
    counts = montecarlo._draw_prior(u, _quantiles(u), marginals, 3_000)
    assert (counts.sum(axis=1) == 3_000).all()
    # the table's first row reads binom._cdf
    assert len(tables) == 5 and "cdf" not in calls and "ppf" not in calls


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=6),
       st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 2**32 - 1))
def test_prior_counts_are_comonotone_in_n_star(weights, a, b, seed):
    """On the same uniforms, the prior counts at n* <= n*' are at most
    those at n*' cell by cell; every row sums to n* and no count is
    negative.  The uniforms include both ends of [0, 1)."""
    marginals = np.array(weights) / sum(weights)
    u = np.random.default_rng(seed).random((64, marginals.size - 1))
    u[0], u[1] = 0.0, 1.0 - 2.0**-53
    small, large = sorted((a, b))
    counts = [montecarlo._draw_prior(u, _quantiles(u), marginals, n_star)
              for n_star in (small, large)]
    for n_star, x in zip((small, large), counts):
        assert (x >= 0).all()
        assert (x.sum(axis=1) == n_star).all()
    assert (counts[0] <= counts[1]).all()


@pytest.mark.parametrize("bad", [200.5, 600.7, True, "60", 0, -3])
def test_fractional_or_bool_sizes_are_refused(bad):
    """A fractional size would be truncated somewhere inside the draw and
    give a wrong number instead of an error, so every size is checked up
    front; ``bool`` is refused although it is an int."""
    cfg = SimulationConfig(replications=16)
    with pytest.raises(DomainError):
        simulate_risk(EstimatorKind.POOLED, BREAST_CANCER, bad, 600, cfg)
    with pytest.raises(DomainError):
        simulate_risk(EstimatorKind.POOLED, BREAST_CANCER, 200, bad, cfg)
    with pytest.raises(DomainError):
        discard_probability(BREAST_CANCER, bad)
    with pytest.raises(DomainError):
        simulate_risk(EstimatorKind.PRESENT, BREAST_CANCER, 200, None, cfg,
                      workers=bad)
    with pytest.raises(DomainError):
        SimulationConfig(replications=bad)

    dq = derive(BREAST_CANCER)
    for kind in EstimatorKind:
        with pytest.raises(DomainError):
            risk_app(kind, BREAST_CANCER, bad, 600)
        with pytest.raises(DomainError):
            risk_app_closed_form(kind, BREAST_CANCER, bad, 600)
    for kind in (EstimatorKind.PRIOR, EstimatorKind.POOLED):
        with pytest.raises(DomainError):
            risk_app(kind, BREAST_CANCER, 200, bad)
        with pytest.raises(DomainError):
            risk_app_closed_form(kind, BREAST_CANCER, 200, bad)
    with pytest.raises(DomainError):
        risk_full_model(bad, 1e4, 200)
    with pytest.raises(DomainError):
        risk_full_model(14, 1e4, bad)
    sizes, marginals = BREAST_CANCER.group_sizes, dq.marginals.tolist()
    for n, n_star in ((bad, 600), (200, bad)):
        with pytest.raises(DomainError):
            gap(EstimatorKind.PRIOR, dq, n, n_star)
        with pytest.raises(DomainError):
            gap(EstimatorKind.POOLED, dq, n, n_star)
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
        advise(counts, sizes, AdviceContext.PLANNING, n=bad)


@pytest.mark.parametrize(
    "bad", ["prior", "present", "PRIOR", 3, None, RssKind.PRIOR_TO_PRESENT])
def test_an_estimator_kind_that_is_not_a_member_is_refused(bad):
    """Each dispatch on the kind ends in the pooled branch, so any other
    value would silently give the pooled estimator's numbers."""
    counts = SurveyCounts(present=((5, 12, 8), (13, 34, 17), (18, 27, 22),
                                   (12, 17, 11), (3, 1, 1)),
                          prior=(26, 63, 67, 40, 5))
    named = re.escape(repr(bad))
    with pytest.raises(DomainError, match=named):
        risk_app(bad, BREAST_CANCER, 200, 600)
    with pytest.raises(DomainError, match=named):
        simulate_risk(bad, BREAST_CANCER, 200, 600,
                      SimulationConfig(replications=500, seed=1))
    with pytest.raises(DomainError, match=named):
        estimate(bad, counts)


@pytest.mark.parametrize(
    "bad", ["prior-vs-present", "present-vs-pooled", 1, None,
            EstimatorKind.PRIOR])
def test_an_rss_kind_that_is_not_a_member_is_refused(bad):
    named = re.escape(repr(bad))
    with pytest.raises(DomainError, match=named):
        RssQuery(bad, 400)
    with pytest.raises(DomainError, match=named):
        RssQuery(bad, 400, 400)


@pytest.mark.parametrize("bad", [1.7, True, -1, 2**64, "1"])
def test_seed_outside_the_unsigned_64_bit_integers_is_refused(bad):
    """``seed=1.7`` and ``seed=True`` once ran bitwise as ``seed=1``."""
    with pytest.raises(DomainError):
        SimulationConfig(replications=16, seed=bad)


def test_expansion_limits_other_than_the_prior_floor_are_refused():
    """n* = inf is the prior estimator's documented limit and nothing
    else's; a NaN size used to give a NaN risk."""
    floor = risk_app(EstimatorKind.PRIOR, BREAST_CANCER, 200, math.inf)
    assert floor.total < risk_app(EstimatorKind.PRIOR, BREAST_CANCER, 200,
                                  10**9).total
    for kind, n_star in ((EstimatorKind.POOLED, math.inf),
                         (EstimatorKind.PRIOR, math.nan),
                         (EstimatorKind.PRIOR, -math.inf)):
        with pytest.raises(DomainError):
            risk_app(kind, BREAST_CANCER, 200, n_star)
    with pytest.raises(DomainError):
        risk_app(EstimatorKind.PRESENT, BREAST_CANCER, math.inf)
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

    for kind in EstimatorKind:
        want = risk_app(kind, BREAST_CANCER, 200, 600)
        got = risk_app(kind, BREAST_CANCER, np.int64(200), np.uint32(600))
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

    marginals = derive(BREAST_CANCER).marginals.tolist()
    rec = advise_from_marginals(BREAST_CANCER.group_sizes, marginals,
                                np.int64(200), np.int32(600))
    assert rec == advise_from_marginals(BREAST_CANCER.group_sizes, marginals,
                                        200, 600)
    assert type(rec.n) is int and type(rec.n_star) is int


# ---------------------------------------------------------------------------
# the memo of present draws
# ---------------------------------------------------------------------------

MEMO_REPS = 3 * BLOCK_SIZE + 123


def _forget_draws() -> None:
    montecarlo._memo.clear()


def _newest():
    """The memo's most recently used slot."""
    return next(reversed(montecarlo._memo.values()))


def _key(model, n, config):
    return (model.flat().tobytes(), model.group_sizes, n, config)


@pytest.fixture
def executors(monkeypatch):
    """Counts the thread pools the engine builds; the memo starts empty."""
    built = []

    class Counted(montecarlo.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Counted)
    monkeypatch.setattr(montecarlo, "_memo", OrderedDict())
    return built


@pytest.fixture
def present_draws(monkeypatch):
    """Counts the engine's present draws; the memo starts empty."""
    calls = []
    draw = montecarlo._draw_totals

    def counted(*args):
        calls.append(args[2])
        return draw(*args)

    monkeypatch.setattr(montecarlo, "_draw_totals", counted)
    monkeypatch.setattr(montecarlo, "_memo", OrderedDict())
    return calls


def test_memo_hit_equals_a_fresh_draw(present_draws, executors):
    """For each kind and worker count, a call that finds its surveys in
    the memo returns bitwise what a fresh draw returns, and fresh draws
    agree across worker counts.  With workers, the fresh draw of several
    blocks builds one thread pool and the hit, whose prior draw reads
    CDF tables of at most a few hundred values, builds none."""
    cfg = SimulationConfig(replications=MEMO_REPS, seed=23)
    blocks = -(-MEMO_REPS // BLOCK_SIZE)
    for kind in EstimatorKind:
        fresh = []
        for workers in (1, 2, 8):
            _forget_draws()
            present_draws.clear()
            executors.clear()
            cold = simulate_risk(kind, BREAST_CANCER, 60, 300, cfg, workers)
            assert len(present_draws) == blocks
            assert len(executors) == (workers > 1)
            warm = simulate_risk(kind, BREAST_CANCER, 60, 300, cfg, workers)
            assert len(present_draws) == blocks
            assert len(executors) == (workers > 1)
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
    draw new surveys into a slot of their own beside the base key's, and
    return what they return on an empty memo."""
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
            _forget_draws()
            simulate_risk(kind, base, 25, 40, cfg)
            present_draws.clear()
            assert simulate_risk(kind, model, n, 40, config) == want
            assert len(present_draws) == 2
            assert list(montecarlo._memo) == [_key(base, 25, cfg),
                                              _key(model, n, config)]


def test_call_over_the_memo_cap_keeps_no_slot(present_draws, monkeypatch):
    """A key whose slot alone exceeds the cap draws every block afresh,
    with the same result, and neither enters the memo nor empties it."""
    cfg = SimulationConfig(replications=MEMO_REPS, seed=9)
    big = SimulationConfig(replications=MEMO_REPS + BLOCK_SIZE, seed=9)
    want = simulate_risk(EstimatorKind.POOLED, UNIFORM_2X2, 25, 25, big)
    monkeypatch.setattr(montecarlo, "_MEMO_CAP_BYTES",
                        montecarlo._slot_bytes(_key(UNIFORM_2X2, 25, cfg)))
    _forget_draws()
    simulate_risk(EstimatorKind.POOLED, UNIFORM_2X2, 25, 25, cfg)
    present_draws.clear()
    for workers in (1, 2):
        assert simulate_risk(EstimatorKind.POOLED, UNIFORM_2X2, 25, 25, big,
                             workers) == want
        assert list(montecarlo._memo) == [_key(UNIFORM_2X2, 25, cfg)]
    assert len(present_draws) == 10


def test_memo_entries_are_read_only_and_the_cap_sees_their_size(
        present_draws, monkeypatch):
    """Each array an entry stores, prior uniforms and their normal
    quantiles included, is the one the block drew, marked read-only.  The
    cap counts those arrays' bytes with the replications rounded up to
    whole blocks, plus 32 bytes per cell, which cover the key's cells,
    the conditionals and their distinct values and indices.  Whichever kind calls first, a cap of that count
    keeps the slot for all three kinds, and one byte less keeps it for
    none: each call then draws the present surveys again."""
    cfg = SimulationConfig(BLOCK_SIZE + 1, seed=5)
    want = {kind: simulate_risk(kind, BREAST_CANCER, 60, 300, cfg)
            for kind in EstimatorKind}
    key, draws = next(reversed(montecarlo._memo.items()))
    nbytes = 0
    for entry in draws._entries:
        arrays = [a for a in entry if isinstance(a, np.ndarray)]
        assert len(arrays) == 5
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 0
            nbytes += array.nbytes
    groups, cells = BREAST_CANCER.n_groups, BREAST_CANCER.total_cells
    assert nbytes == 8 * cfg.replications * (5 * groups - 2)
    per_cell = [*draws.dq.conditionals, *(a for pair in draws._distinct for a in pair)]
    assert len(key[0]) + sum(a.nbytes for a in per_cell) <= 32 * cells
    slot = montecarlo._slot_bytes(key)
    assert slot == 8 * 2 * BLOCK_SIZE * (5 * groups - 2) + 32 * cells
    for cap, kept in ((slot, True), (slot - 1, False)):
        monkeypatch.setattr(montecarlo, "_MEMO_CAP_BYTES", cap)
        for first in EstimatorKind:
            _forget_draws()
            present_draws.clear()
            for kind in (first, *(k for k in EstimatorKind if k is not first)):
                assert simulate_risk(kind, BREAST_CANCER, 60, 300, cfg) == want[kind]
                assert len(montecarlo._memo) == kept
            assert len(present_draws) == (2 if kept else 6)


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


def test_block_losses_gather_equals_the_direct_formula():
    """Each kind's block losses are bitwise the direct chain-rule sum
    ``np.sum(rel_entr(first, m) + first * second_stage, axis=1)``, for
    every bundled model, whose full blocks' first-stage counts span fewer
    values than the block has rows, and for marginals (0.01, 0.99) at
    n = n* = 10**6, whose counts span more in every block."""
    wide = build_model([[0.01], [0.99]])
    cases = [(bundled_model(name), 200, 600) for name in BUNDLED_MODEL_NAMES]
    cases.append((wide, 10**6, 10**6))
    cfg = SimulationConfig(replications=BLOCK_SIZE + 100, seed=29)
    for model, n, n_star in cases:
        marginals = derive(model).marginals
        for kind in EstimatorKind:
            ns = None if kind is EstimatorKind.PRESENT else n_star
            _forget_draws()
            simulate_risk(kind, model, n, ns, cfg)
            draws = _newest()
            for b in range(draws.n_blocks):
                totals, second_stage, _, xstar = draws.block(b, ns)
                num = kind.first_stage(totals, xstar)
                first = num / kind.first_stage(n, ns)
                want = np.sum(rel_entr(first, marginals) + first * second_stage,
                              axis=1)
                got = montecarlo._block_losses(kind, draws, b, ns)[0]
                assert got.tobytes() == want.tobytes(), (model.labels, kind, b)
                rows = num.shape[0]
                if model is wide:
                    assert int(np.ptp(num)) >= rows
                elif rows == BLOCK_SIZE:
                    assert int(np.ptp(num)) < rows


def test_engine_loss_is_the_library_loss():
    """The engine's chain-rule losses are the library's: each
    replication's counts, redrawn from the block's generator, give through
    ``estimate`` and ``kl_divergence`` the engine's loss to within
    1e-15 + 1e-12 * loss, the engine's mean and standard error are those
    of its own losses, and its discard rate counts the redraws' discards.
    The largest n is the largest size a sample-size solve from n0 = 400
    probes; there the loss is about 1e-8 and the absolute term decides."""
    for name in BUNDLED_MODEL_NAMES:
        model = bundled_model(name)
        small = 60 if name == "example2-breast-cancer" else 200
        for n in (small, 1000, 400 * 2**MAX_DOUBLINGS):
            _check_engine_losses(model, n, discards=n == 60)


def _check_engine_losses(model, n, discards):
    dq = derive(model)
    truth = model.flat()
    bounds = np.cumsum(model.group_sizes)[:-1]
    cfg = SimulationConfig(replications=300, seed=3)
    for kind in EstimatorKind:
        n_star = None if kind is EstimatorKind.PRESENT else 600
        _forget_draws()
        r = simulate_risk(kind, model, n, n_star, cfg)
        draws = _newest()
        engine, library, discarded = [], [], 0
        for b in range(-(-cfg.replications // BLOCK_SIZE)):
            rows = min(BLOCK_SIZE, cfg.replications - b * BLOCK_SIZE)
            # the contract's draw order, each group in one unchunked call
            gen = montecarlo._block_generator(cfg.seed, b)
            totals, d = montecarlo._draw_totals(gen, dq, n, rows)
            cells = np.hstack([gen.multinomial(totals[:, i], conditionals)
                               for i, conditionals in enumerate(dq.conditionals)])
            discarded += d
            prior = draws.block(b, n_star)[3]
            engine.extend(montecarlo._block_losses(kind, draws, b, n_star)[0])
            for i, row in enumerate(cells.tolist()):
                counts = SurveyCounts(
                    present=tuple(map(tuple, np.split(row, bounds))),
                    prior=None if prior is None else prior[i].tolist())
                library.append(kl_divergence(estimate(kind, counts).flat(), truth))
        np.testing.assert_allclose(engine, library, rtol=1e-12, atol=1e-15)
        engine = np.array(engine)
        assert r.mean_loss == float(np.sum(engine) / engine.size)
        assert r.std_error == float(np.std(engine, ddof=1)
                                    / math.sqrt(engine.size))
        assert r.discard_rate == discarded / (discarded + engine.size)
        if discards:
            assert discarded > 0


#: groups of 1, 7 and 150 cells: the wide group's 4096-row block takes
#: several chunks at the default chunk size, the last one partial
WIDE = build_model([np.random.default_rng(13).random(k).tolist()
                    for k in (1, 7, 150)], renormalize=True)


@pytest.mark.parametrize("model, n, discards", [(WIDE, 90, False),
                                                (BREAST_CANCER, 60, True)],
                         ids=["wide", "breast-cancer-discards"])
def test_results_do_not_depend_on_the_chunk_size(model, n, discards, monkeypatch):
    """One row per chunk and one call per group give bitwise the same
    risk estimates of every kind, and the same second-stage KLs in every
    memo block, as the default chunk size."""
    cfg = SimulationConfig(replications=BLOCK_SIZE + 1, seed=7)

    def run():
        _forget_draws()
        estimates = [simulate_risk(kind, model, n, 300, cfg) for kind in EstimatorKind]
        kls = [_newest().block(b, None)[1].tobytes() for b in range(2)]
        return estimates, kls

    want = run()
    if discards:
        assert want[0][0].discard_rate > 0.0
    for chunk_bytes in (8, 2**40):
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", chunk_bytes)
        assert run() == want


def test_a_present_block_holds_no_cell_matrix():
    """A one-block present run on the uniform 2x100 model peaks below
    4 MB of traced allocation; with the block's (4096 x 201) int64 cell
    matrix and its float copies it peaked at 12.8 MB."""
    model = bundled_model("example1-uniform100x2")
    _forget_draws()
    tracemalloc.start()
    try:
        simulate_risk(EstimatorKind.PRESENT, model, 90, None, SimulationConfig(4096, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


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


# ---------------------------------------------------------------------------
# second-stage KLs from a rel_entr table
# ---------------------------------------------------------------------------

#: four groups of equal marginal, of 1, 5, 40 and 120 cells whose weights
#: repeat (1, 2 or 3), so each wide group has a few distinct conditionals
REPEATED = build_model([(w / w.sum()).tolist() for w in (
    np.random.default_rng(5).choice([1.0, 2.0, 3.0], k) for k in (1, 5, 40, 120))],
    renormalize=True)


def _second_stage(monkeypatch, model, n, cells_per_entry, reps=BLOCK_SIZE + 3):
    """Every block's totals and second-stage KLs, drawn afresh with the
    table limit ``cells_per_entry``, and the first argument of each
    ``montecarlo.rel_entr`` call made while drawing them."""
    calls = []
    original = montecarlo.rel_entr

    def counted(x, y):
        calls.append(np.asarray(x))
        return original(x, y)

    monkeypatch.setattr(montecarlo, "rel_entr", counted)
    monkeypatch.setattr(montecarlo, "_KL_TABLE_CELLS_PER_ENTRY", cells_per_entry)
    cfg = SimulationConfig(reps, seed=11)
    key = (model.flat().tobytes(), model.group_sizes, n, cfg)
    draws = montecarlo._Draws(key, derive(model), keep=False)
    blocks = [draws.block(b, None)[:2] for b in range(draws.n_blocks)]
    monkeypatch.setattr(montecarlo, "rel_entr", original)
    return blocks, calls


@pytest.mark.parametrize("model, n", [
    (bundled_model("example1-uniform100x2"), 90),
    (bundled_model("example1-uniform100x2"), 400),
    (bundled_model("example3-household"), 90),
    (bundled_model("example3-household"), 400),
    (BREAST_CANCER, 60),
    (REPEATED, 8),
    (REPEATED, 300),
], ids=["uniform-90", "uniform-400", "household-90", "household-400",
        "breast-cancer-60", "repeated-8", "repeated-300"])
@pytest.mark.parametrize("chunk_bytes", [None, 8], ids=["chunks", "row-chunks"])
def test_second_stage_kls_from_the_table_equal_the_direct_formula(
        model, n, chunk_bytes, monkeypatch):
    """The KLs of every block are bitwise the same whether every chunk
    takes the table (a limit of 0), none does (a limit no box meets) or
    the default limit decides: one distinct conditional per group
    (uniform) or several (household, and repeated weights beside a
    one-cell group).  At n = 8 some rows have a group total of 1.  With
    one row per chunk (on 300 rows) a later chunk's largest count exceeds
    the table built so far, and the table is built again."""
    reps = BLOCK_SIZE + 3
    if chunk_bytes is not None:
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", chunk_bytes)
        reps = 300
    direct, calls = _second_stage(monkeypatch, model, n, 2**62, reps)
    assert all(x.ndim == 2 for x in calls)
    table, calls = _second_stage(monkeypatch, model, n, 0, reps)
    assert all(x.ndim == 3 for x in calls)
    if chunk_bytes is not None:
        assert len(calls) > model.n_groups * len(table)
    default, _ = _second_stage(monkeypatch, model, n,
                               montecarlo._KL_TABLE_CELLS_PER_ENTRY, reps)
    for want, *got in zip(direct, table, default):
        for totals, kls in got:
            assert np.array_equal(totals, want[0])
            assert np.array_equal(kls, want[1])
    if n == 8:
        assert (direct[0][0] == 1).any()


def test_the_table_limit_is_exact(monkeypatch):
    """A group's table of T totals by K counts by V distinct conditionals
    is used while T * K * V * ``_KL_TABLE_CELLS_PER_ENTRY`` is at most the
    group's cells in the block, rows * J; a limit one higher draws the
    group's KLs directly, with the same bytes."""
    model = build_model([[0.1] * 5, [0.25, 0.25]])
    rows = 1000
    _, calls = _second_stage(monkeypatch, model, 40, 0, reps=rows)
    T, K, V = calls[0].shape[0], calls[0].shape[1], 1
    limit = rows * 5 // (T * K * V)
    assert limit >= 1
    got = {}
    for cells_per_entry, tabled in ((limit, True), (limit + 1, False)):
        got[tabled], calls = _second_stage(monkeypatch, model, 40, cells_per_entry,
                                           reps=rows)
        assert (calls[0].shape == (T, K, V)) is tabled
        assert any(x.shape == (rows, 5) for x in calls) is not tabled
    assert np.array_equal(got[True][0][1], got[False][0][1])


@pytest.mark.parametrize("name, n, tabled", [
    ("example1-uniform100x2", 90, True),
    ("example1-uniform100x2", 400, True),
    ("example2-breast-cancer", 3000, False),
], ids=["uniform-90", "uniform-400", "breast-cancer-3000"])
def test_many_cell_groups_take_the_table(monkeypatch, name, n, tabled):
    """At the default limit, a uniform 2x100 block calls ``rel_entr`` on
    at most an eighth of its cells, counted through a stand-in for
    ``montecarlo.rel_entr`` as the benchmark's tracer counts them, while
    breast-cancer at n = 3000, whose few cells spread over hundreds of
    counts, evaluates every cell."""
    model = bundled_model(name)
    _, calls = _second_stage(monkeypatch, model, n, montecarlo._KL_TABLE_CELLS_PER_ENTRY,
                             reps=BLOCK_SIZE)
    cells = BLOCK_SIZE * model.total_cells
    elements = sum(x.size for x in calls)
    if tabled:
        assert elements <= cells / montecarlo._KL_TABLE_CELLS_PER_ENTRY
    else:
        assert elements == cells


# ---------------------------------------------------------------------------
# the memo keeps several keys
# ---------------------------------------------------------------------------

UNIFORM = bundled_model("example1-uniform100x2")
RSS_QUERY = RssQuery(RssKind.PRESENT_TO_POOLED, 400, 400, method="sim",
                     config=SimulationConfig(BLOCK_SIZE, seed=0))
#: the memo key of the solve's target run
RSS_TARGET = _key(UNIFORM, 400, RSS_QUERY.config)


@pytest.fixture
def generators(monkeypatch):
    """Counts the block generators the engine makes, by (seed, block), and
    the simulate_risk calls of the solver, by (kind, n, n*); the memo
    starts empty."""
    made, probes = {}, []
    make = montecarlo._block_generator
    simulate = planning.simulate_risk

    def counted(seed, b):
        made[seed, b] = made.get((seed, b), 0) + 1
        return make(seed, b)

    def probe(kind, model, n, n_star, *args):
        probes.append((kind, n, n_star))
        return simulate(kind, model, n, n_star, *args)

    monkeypatch.setattr(montecarlo, "_block_generator", counted)
    monkeypatch.setattr(planning, "simulate_risk", probe)
    monkeypatch.setattr(montecarlo, "_memo", OrderedDict())
    return made, probes


def test_a_solve_draws_each_key_once(generators):
    """The present-vs-pooled solve on the uniform model at (400, 400)
    probes the pooled target and present n = 401 and 400, whose present
    surveys are those of the target: it draws them once.  Afterwards the
    memo keeps both keys, the target's the most recently used."""
    made, probes = generators
    assert required_sample_size(RSS_QUERY, UNIFORM) == 401
    assert probes == [(EstimatorKind.POOLED, 400, 400),
                      (EstimatorKind.PRESENT, 401, None),
                      (EstimatorKind.PRESENT, 400, None)]
    assert made == {(0, 0): 2}
    assert list(montecarlo._memo) == [_key(UNIFORM, 401, RSS_QUERY.config),
                                      RSS_TARGET]


def test_solves_in_a_row_share_their_draws(generators):
    """A second solve finds both of the first one's keys in the memo and
    draws nothing."""
    made, _ = generators
    assert required_sample_size(RSS_QUERY, UNIFORM) == 401
    assert required_sample_size(RSS_QUERY, UNIFORM) == 401
    assert made == {(0, 0): 2}


def test_a_solve_reuses_a_slot_filled_before_it(generators):
    """A slot filled before the solve, at the key of its second probe
    (n = 401), is found there: the solve draws only n = 400."""
    made, _ = generators
    simulate_risk(EstimatorKind.PRESENT, UNIFORM, 401, None, RSS_QUERY.config)
    made.clear()
    assert required_sample_size(RSS_QUERY, UNIFORM) == 401
    assert made == {(0, 0): 1}


def test_a_cap_of_one_key_keeps_one_slot(generators, monkeypatch):
    """Under a cap of one key's bytes the memo keeps one slot at a time,
    so the solve draws n = 400 again after n = 401, with the same
    answer."""
    made, _ = generators
    monkeypatch.setattr(montecarlo, "_MEMO_CAP_BYTES",
                        montecarlo._slot_bytes(RSS_TARGET))
    slots = []
    simulate = planning.simulate_risk

    def watched(*args):
        result = simulate(*args)
        slots.append(len(montecarlo._memo))
        return result

    monkeypatch.setattr(planning, "simulate_risk", watched)
    assert required_sample_size(RSS_QUERY, UNIFORM) == 401
    assert slots == [1, 1, 1]
    assert made == {(0, 0): 3}
    assert list(montecarlo._memo) == [RSS_TARGET]


def test_the_cap_drops_the_least_recently_used_slot(generators, monkeypatch):
    """Under a cap of two keys' bytes, keys A, B, A, C leave A and C in
    the memo: A is found there, and B is drawn again."""
    made, _ = generators
    config = {key: SimulationConfig(BLOCK_SIZE, seed)
              for key, seed in zip("ABC", (1, 2, 3))}
    monkeypatch.setattr(montecarlo, "_MEMO_CAP_BYTES",
                        2 * montecarlo._slot_bytes(_key(UNIFORM_2X2, 20, config["A"])))

    def call(key):
        return simulate_risk(EstimatorKind.PRESENT, UNIFORM_2X2, 20, None, config[key])

    want = {key: call(key) for key in "ABC"}
    _forget_draws()
    made.clear()
    assert [call(key) for key in "ABACAB"] == [want[key] for key in "ABACAB"]
    assert made == {(1, 0): 1, (2, 0): 2, (3, 0): 1}
    assert list(montecarlo._memo) == [_key(UNIFORM_2X2, 20, config[k]) for k in "AB"]


def test_threads_evicting_one_another_get_serial_results(monkeypatch):
    """Six threads, more than the cores, call four keys in turns under a
    cap of two keys' bytes with a short switch interval, so slots are
    found, made and dropped concurrently: every call returns what it
    returns alone, and the memo ends within the cap, each key once."""
    configs = [SimulationConfig(64, seed) for seed in range(4)]
    want = [simulate_risk(EstimatorKind.POOLED, UNIFORM_2X2, 20, 30, config)
            for config in configs]
    monkeypatch.setattr(montecarlo, "_memo", OrderedDict())
    cap = 2 * montecarlo._slot_bytes(_key(UNIFORM_2X2, 20, configs[0]))
    monkeypatch.setattr(montecarlo, "_MEMO_CAP_BYTES", cap)
    wrong = []

    def worker(offset):
        for i in range(200):
            k = (offset + i) % len(configs)
            try:
                got = simulate_risk(EstimatorKind.POOLED, UNIFORM_2X2, 20, 30,
                                    configs[k])
            except Exception as exc:  # a thread's error would otherwise be lost
                got = exc
            if got != want[k]:
                wrong.append((k, got))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert 1 <= len(montecarlo._memo) <= 2
    assert sum(map(montecarlo._slot_bytes, montecarlo._memo)) <= cap
