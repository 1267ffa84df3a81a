"""Reproducible, parallel Monte Carlo estimation of estimator risk.

Sampling model.  One replication draws a present survey of size n from
the cell probabilities and, when needed, a prior survey of size n* from
the group marginals.  The engine takes the marginals and within-group
conditionals from :func:`surveyrisk.model.derive`, the same values the
risk expansions use.  Present draws are conditioned on every group total
being nonzero (otherwise the within-group conditionals are undefined):
a draw with an empty group is discarded and redrawn whole, never
renormalized.  Below n = I (the number of groups) every present draw
is discarded, so such a run is refused before drawing.  Prior draws are
unconditioned; a zero prior group count is fine because the
corresponding estimate contributes zero loss under the 0 log 0
convention.

Reproducibility contract.  Replications are partitioned into fixed blocks
of ``BLOCK_SIZE``.  Block b uses its own counter-based Philox generator
keyed by the 128-bit pair (seed, b), and draws in a fixed order:

  1. first-stage group totals: one multinomial(n, marginals) per
     replication (numpy's generator, which chains conditioned binomials);
  2. rejection pass: rows with an empty group are redrawn, ascending row
     order, until all rows pass or a row exhausts its rejection budget;
  3. second-stage cells: per group, multinomial(group total, conditionals);
  4. prior counts: a (rows, I-1) uniform array, then a chained binomial
     inverse-CDF per group.  The counts are exactly the integers
     ``scipy.stats.binom.ppf`` returns, reached through a checked guess:
     a skew-corrected normal quantile, accepted where one CDF pass over
     the distinct (trials, count) points brackets the uniform, and
     ``binom.ppf`` itself for the few rows it does not.

Step 4 spends exactly one uniform per (replication, group) regardless of
n*, so runs at different n* but the same seed see comonotone prior counts;
simulated risk curves over n* are then smooth enough for the sample-size
solver to bisect.  Because prior variates are drawn after all present
variates, the three estimator kinds see identical surveys for a given
seed (common random numbers), which makes paired comparisons sharp.

Per-replication losses land in a preallocated buffer at their replication
index, and the mean is a single pairwise reduction over that buffer, so
results are bitwise identical for any worker count.  Worker threads each
own their blocks end to end; the only shared write target is the buffer,
at disjoint indices.

Memo of present draws.  A block's present surveys and the Philox state
after them depend only on (model cells, group sizes, n, seed,
replications), never on the kind, n* or ``workers``.  The module keeps
one slot under that key, an object that draws its own blocks and keeps,
per block, the totals, the cells, the discard count and that state, so a
prior draw continues the same stream; and the prior counts for the most
recent n* only, so a prior and a pooled call at the same (n, n*) draw
them once.  Counts are stored read-only in the smallest of uint8,
uint16, uint32 and int64 that holds their sum.  Totals and prior counts
are widened to int64 when read, and cells meet an int64 operand in every
product, so the int64 estimates are exactly what they were.  A call with
another key replaces the slot; a call whose counts would exceed
``_MEMO_CAP_BYTES`` keeps nothing and releases it.  A hit returns
exactly what a fresh draw would, so results do not change.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.special import ndtri, rel_entr
from scipy.stats import binom

from .errors import (
    DomainError,
    MissingNStar,
    RejectionBudgetExceeded,
)
from .estimators import EstimatorKind
from .model import DerivedQuantities, SurveyCounts, TwoStageModel, as_int, derive

__all__ = [
    "BLOCK_SIZE",
    "SimulationConfig",
    "RiskEstimate",
    "sample_surveys",
    "simulate_risk",
    "discard_probability",
]

#: replications per RNG block; part of the reproducibility contract,
#: results change if this changes
BLOCK_SIZE = 4096

#: draws one replication may discard before the run gives up; read when
#: each block draws
_MAX_REJECTIONS = 10**6

#: bytes of counts the memo of present draws may hold; a call that
#: would store more is not memoized
_MEMO_CAP_BYTES = 64 * 2**20


@dataclass(frozen=True)
class SimulationConfig:
    """Integer fields, stored as Python ints; the seed is below 2**64."""

    replications: int
    seed: int = 0

    def __post_init__(self) -> None:
        seed = as_int(self.seed, "seed", least=0)
        if seed >= 2**64:
            raise DomainError(f"seed must be below 2**64, got {seed}")
        # the instance is frozen; normalize its fields before anyone sees it
        vars(self).update(
            replications=as_int(self.replications, "replications"),
            seed=seed,
        )


@dataclass(frozen=True)
class RiskEstimate:
    """Monte Carlo mean loss with its uncertainty and discard accounting.

    ``std_error`` is the unbiased sample standard deviation of the
    per-replication losses divided by sqrt(replications).  The discard
    rate is discarded / (discarded + accepted), an unbiased frequency of
    the rejection event for a single draw.
    """

    mean_loss: float
    std_error: float
    replications: int
    discard_rate: float
    kind: EstimatorKind
    n: int
    n_star: int | None


def _block_generator(seed: int, block_index: int) -> np.random.Generator:
    key = np.array([seed, block_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _check_present_size(n: object, model: TwoStageModel) -> int:
    n = as_int(n, "n")
    if n < model.n_groups:
        raise RejectionBudgetExceeded(
            f"n={n} is below the number of groups ({model.n_groups}), so "
            f"every present draw leaves some group empty"
        )
    return n


def _draw_present(
    gen: np.random.Generator,
    dq: DerivedQuantities,
    n: int,
    rows: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Group totals and cells for ``rows`` replications, discard rule applied.

    Returns (totals, cells, discarded).
    """
    totals = gen.multinomial(n, dq.marginals, size=rows).astype(np.int64)
    rejections = np.zeros(rows, dtype=np.int64)
    discarded = 0
    while True:
        bad = np.flatnonzero((totals == 0).any(axis=1))
        if bad.size == 0:
            break
        rejections[bad] += 1
        worst = int(rejections.max())
        if worst > _MAX_REJECTIONS:
            raise RejectionBudgetExceeded(
                f"a replication discarded more than {_MAX_REJECTIONS} draws "
                f"at n={n}; some group is almost never observed at this size"
            )
        discarded += int(bad.size)
        totals[bad] = gen.multinomial(n, dq.marginals, size=bad.size)

    cells = np.empty((rows, dq.p_total + 1), dtype=np.int64)
    start = 0
    for gi, conditionals in enumerate(dq.conditionals):
        stop = start + conditionals.size
        cells[:, start:stop] = gen.multinomial(totals[:, gi], conditionals)
        start = stop
    return totals, cells, discarded


#: rows whose uniform lies within this relative distance of a CDF value
#: at the guessed count go to ``binom.ppf``, whose own comparisons may
#: round the other way there
_TIE_RTOL = 1e-12

#: bound on the normal quantile in the guess, so that u = 0 (ndtri = -inf)
#: and a zero standard deviation give a finite guess; the check corrects it
_Z_CLAMP = 40.0


def _binom_inverse(u: np.ndarray, r: np.ndarray, q: float) -> np.ndarray:
    """``np.maximum(binom.ppf(u, r, q), 0)`` as int64, for int64 trial
    counts r and one probability q.

    A skew-corrected (Cornish-Fisher) normal quantile guesses each count
    k; the guess stands where cdf(k - 1) < u <= cdf(k), with u clear of
    both values by ``_TIE_RTOL``.  The CDF is evaluated once per distinct
    (trials, count) point, which is far fewer points than rows.  Rows the
    check does not settle are passed to ``binom.ppf``.
    """
    # a CDF point (r, c) is keyed as r * width + c + 1, for the counts
    # c = k - 1 and c = k; past about 3e9 trials the key overflows int64
    width = int(r.max(initial=0)) + 2
    if width * width > np.iinfo(np.int64).max:
        return np.maximum(binom.ppf(u, r, q), 0.0).astype(np.int64)

    mean = r * q
    sd = np.sqrt(mean * (1.0 - q))
    z = np.clip(ndtri(u), -_Z_CLAMP, _Z_CLAMP)
    guess = np.ceil(mean + sd * z + (1.0 - 2.0 * q) * (z * z - 1.0) / 6.0 - 0.5)
    k = np.clip(guess, 0, r).astype(np.int64)

    keys = np.concatenate((r * width + k, r * width + k + 1))
    points, where = np.unique(keys, return_inverse=True)
    cdf = binom.cdf(points % width - 1, points // width, q)[where]
    below, at = cdf[:u.size], cdf[u.size:]
    settled = (below < u * (1.0 - _TIE_RTOL)) & (u * (1.0 + _TIE_RTOL) < at)

    rest = np.flatnonzero(~settled)
    if rest.size:
        k[rest] = np.maximum(binom.ppf(u[rest], r[rest], q), 0.0)
    return k


def _draw_prior(
    gen: np.random.Generator, marginals: np.ndarray, n_star: int, rows: int
) -> np.ndarray:
    """Multinomial(n*, marginals) per row via a chained binomial inverse CDF.

    One uniform per (row, group) keeps draws comonotone across n*.  Group
    i is drawn from what is left with probability m_i over the tail sum
    m_i + ... + m_I, computed once per group rather than by subtraction.
    """
    I = marginals.size
    u = gen.random((rows, I - 1))
    out = np.empty((rows, I), dtype=np.int64)
    remaining = np.full(rows, n_star, dtype=np.int64)
    values = marginals.tolist()
    for i in range(I - 1):
        q = values[i] / math.fsum(values[i:])
        draw = _binom_inverse(u[:, i], remaining, q)
        out[:, i] = draw
        remaining -= draw
    out[:, I - 1] = remaining
    return out


class _Draws:
    """The draws of one key (model cells, group sizes, n, config), made
    block by block on demand: per block a present entry (totals, cells,
    discarded, Philox state after the present draw) and a prior entry
    (n*, prior counts).  Each entry is replaced whole, so threads that
    share the object never see half of one.  With ``keep`` false nothing
    is stored and every block draws afresh.
    """

    def __init__(self, key: tuple, dq: DerivedQuantities, keep: bool = True) -> None:
        self.key = key
        _, _, self.n, self.config = key
        self.dq = dq
        self.keep = keep
        n_blocks = -(-self.config.replications // BLOCK_SIZE)
        self._present: list[tuple | None] = [None] * n_blocks
        self._prior: list[tuple | None] = [None] * n_blocks

    def block(self, b: int, n_star: int | None) -> tuple:
        """(totals, cells, discarded, prior counts) of block b; the prior
        counts are drawn after the present surveys, and are None when
        ``n_star`` is."""
        rows = min(BLOCK_SIZE, self.config.replications - b * BLOCK_SIZE)
        present = self._present[b]
        if present is None:
            gen = _block_generator(self.config.seed, b)
            totals, cells, discarded = _draw_present(gen, self.dq, self.n, rows)
            present = (_narrow(totals, self.n), _narrow(cells, self.n),
                       discarded, gen.bit_generator.state)
            if self.keep:
                self._present[b] = present
        *surveys, state = present
        if n_star is None:
            return (*surveys, None)
        prior = self._prior[b]
        if prior is None or prior[0] != n_star:
            gen = _block_generator(self.config.seed, b)
            gen.bit_generator.state = state
            prior = (n_star, _narrow(
                _draw_prior(gen, self.dq.marginals, n_star, rows), n_star))
            if self.keep:
                self._prior[b] = prior
        return (*surveys, prior[1])


_memo: _Draws | None = None
_memo_lock = threading.Lock()


def _memo_slot(key: tuple, dq: DerivedQuantities, nbytes: int) -> _Draws:
    """The memo slot for ``key``, made afresh when the key changes; over
    the cap, a slot that keeps nothing, and the module slot is released."""
    global _memo
    with _memo_lock:
        if nbytes > _MEMO_CAP_BYTES:
            _memo = None
            return _Draws(key, dq, keep=False)
        if _memo is None or _memo.key != key:
            _memo = _Draws(key, dq)
        return _memo


def _count_dtype(total: int) -> np.dtype:
    """The smallest of uint8, uint16, uint32 and int64 that holds ``total``."""
    return next(np.dtype(t) for t in (np.uint8, np.uint16, np.uint32, np.int64)
                if total <= np.iinfo(t).max)


def _narrow(counts: np.ndarray, total: int) -> np.ndarray:
    """Read-only copy of counts at most ``total`` in ``_count_dtype(total)``."""
    out = counts.astype(_count_dtype(total))
    out.flags.writeable = False
    return out


def _block_losses(
    kind: EstimatorKind,
    draws: _Draws,
    b: int,
    truth: np.ndarray,
    sizes: tuple[int, ...],
    n_star: int | None,
) -> tuple[np.ndarray, int]:
    totals, cells, discarded, xstar = draws.block(b, n_star)
    n = draws.n
    # cells stay narrow: each product below meets an int64 operand, which
    # widens them to the same int64 values, and a division gives float64
    if kind is EstimatorKind.PRESENT:
        est = cells / float(n)
    else:
        xstar_rep = np.repeat(xstar.astype(np.int64), sizes, axis=1)
        totals_rep = np.repeat(totals.astype(np.int64), sizes, axis=1)
        if kind is EstimatorKind.PRIOR:
            est = (xstar_rep * cells) / (n_star * totals_rep)
        else:  # POOLED
            est = ((totals_rep + xstar_rep) * cells) / ((n + n_star) * totals_rep)

    return np.sum(rel_entr(est, truth), axis=1), discarded


def simulate_risk(
    kind: EstimatorKind,
    model: TwoStageModel,
    n: int,
    n_star: int | None = None,
    config: SimulationConfig = SimulationConfig(replications=10_000),
    workers: int = 1,
) -> RiskEstimate:
    """Estimate one estimator's risk by averaging simulated losses.

    For a fixed (seed, replications, model, kind, n, n*) the result is
    identical for every ``workers`` value, and for a memo hit (see the
    module docstring) and a fresh draw.  ``n_star`` is ignored for the
    present estimator.  Sizes and ``workers`` must be integers (numpy
    integers work; a fractional value or a bool raises DomainError).  A
    present size below the number of groups raises
    RejectionBudgetExceeded at once, since no draw could be accepted, and
    for the prior and pooled estimators (n + n*) * n >= 2**63 raises
    DomainError.
    """
    n = _check_present_size(n, model)
    if kind is EstimatorKind.PRESENT:
        n_star = None
    else:
        if n_star is None:
            raise MissingNStar(f"estimator {kind.value!r} needs n_star")
        n_star = as_int(n_star, "n_star")
        # the prior and pooled estimates multiply counts in int64, each
        # product at most (n + n*) * n
        if (n + n_star) * n >= 2**63:
            raise DomainError(
                f"(n + n*) * n must be below 2**63 for the engine's int64 "
                f"estimates, got n={n}, n*={n_star}"
            )
    workers = as_int(workers, "workers")

    dq = derive(model)
    truth = model.flat()
    sizes = model.group_sizes
    reps = config.replications
    losses = np.empty(reps, dtype=np.float64)
    n_blocks = (reps + BLOCK_SIZE - 1) // BLOCK_SIZE
    discards = np.zeros(n_blocks, dtype=np.int64)
    width = len(sizes) + truth.size
    nbytes = reps * width * _count_dtype(n).itemsize
    if n_star is not None:
        nbytes += reps * len(sizes) * _count_dtype(n_star).itemsize
    draws = _memo_slot((truth.tobytes(), sizes, n, config), dq, nbytes)

    def run_block(b: int) -> None:
        block, discards[b] = _block_losses(kind, draws, b, truth, sizes, n_star)
        losses[b * BLOCK_SIZE:b * BLOCK_SIZE + block.size] = block

    if workers == 1 or n_blocks == 1:
        for b in range(n_blocks):
            run_block(b)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for future in [pool.submit(run_block, b) for b in range(n_blocks)]:
                future.result()

    mean = float(np.sum(losses) / reps)
    se = float(np.std(losses, ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    discarded_total = int(discards.sum())
    return RiskEstimate(
        mean_loss=mean,
        std_error=se,
        replications=reps,
        discard_rate=discarded_total / (discarded_total + reps),
        kind=kind,
        n=n,
        n_star=n_star,
    )


def sample_surveys(
    model: TwoStageModel,
    n: int,
    n_star: int,
    rng: np.random.Generator,
) -> tuple[SurveyCounts, int]:
    """Draw one pair of surveys; returns (counts, number of discarded draws).

    The present draw is rejected and redrawn until every group total is
    nonzero; the prior draw (omitted when ``n_star`` is 0) is an
    unconditioned multinomial over the group marginals, drawn by the
    engine's own prior sampler.  As in :func:`simulate_risk`, a size that
    is not an integer raises DomainError and n below the number of groups
    raises RejectionBudgetExceeded, both before drawing; the rejection
    budget is the engine's.
    """
    n = _check_present_size(n, model)
    n_star = as_int(n_star, "n_star", least=0)
    dq = derive(model)
    _, cells, discarded = _draw_present(rng, dq, n, 1)
    bounds = np.cumsum(model.group_sizes)[:-1]
    present = tuple(tuple(row) for row in np.split(cells[0], bounds))
    prior = None
    if n_star > 0:
        prior = tuple(_draw_prior(rng, dq.marginals, n_star, 1)[0])
    return SurveyCounts(present=present, prior=prior), discarded


def discard_probability(model: TwoStageModel, n: int) -> float:
    """Exact probability that a present draw of size n leaves some group
    empty, by inclusion-exclusion over groups.

    This is the expected discard rate of :func:`simulate_risk` and decays
    exponentially in n, with rate set by the largest (1 - m_i.).
    """
    n = as_int(n, "n")
    marginals = derive(model).marginals.tolist()
    I = len(marginals)
    if I > 20:
        raise DomainError(
            "inclusion-exclusion over more than 20 groups is not supported"
        )
    terms = []
    for k in range(1, I + 1):
        sign = 1.0 if k % 2 == 1 else -1.0
        for subset in combinations(marginals, k):
            left = 1.0 - math.fsum(subset)
            if left > 0.0:
                terms.append(sign * left**n)
    return min(max(math.fsum(terms), 0.0), 1.0)
