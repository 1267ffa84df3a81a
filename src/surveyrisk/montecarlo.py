"""Reproducible, parallel Monte Carlo estimation of estimator risk.

Sampling model.  One replication draws a present survey of size n from
the cell probabilities and, when needed, a prior survey of size n* from
the group marginals.  The engine takes the marginals and within-group
conditionals from :func:`surveyrisk.model.derive`, the same values the
risk expansions use.  Present draws are conditioned on every group total
being nonzero (otherwise the within-group conditionals are undefined):
a draw with an empty group is discarded and redrawn whole, never
renormalized.  A run of R replications is refused before drawing when a
one-sided bound a on the acceptance probability (0 below n = I, the number
of groups) has a * ``_MAX_REJECTIONS`` < 1 + ln R: the worst replication
expects about H_R / a draws, and H_R <= 1 + ln R.  Prior draws are
unconditioned; a zero prior group count is fine because the corresponding
estimate contributes zero loss under the 0 log 0 convention.

Reproducibility contract.  Replications are partitioned into fixed blocks
of ``BLOCK_SIZE``.  Block b uses its own counter-based Philox generator
keyed by the 128-bit pair (seed, b), and draws in a fixed order:

  1. first-stage group totals: one multinomial(n, marginals) per
     replication (numpy's generator, which chains conditioned binomials);
  2. rejection rounds: each round redraws, in ascending row order, only
     the rows whose last draw left a group empty.  A row is redrawn only
     while it fails, so one still failing after k rounds was discarded k
     times: the round count is the worst row's discard count;
  3. second-stage cells: per group, multinomial(group total, conditionals),
     a wide group in row chunks taken in row order, which consume the
     stream exactly as one call over all rows would;
  4. prior uniforms: a (rows, I-1) array, drawn whatever the kind, and
     kept with their clamped normal quantiles, computed once; the prior
     counts are a chained binomial inverse-CDF of the uniforms per group,
     exactly the integers ``scipy.stats.binom.ppf`` returns, reached at
     each n* through a checked guess: a skew-corrected normal quantile,
     accepted or moved by one count where the CDF brackets the uniform,
     and ``binom.ppf`` itself for the few rows it does not.  A CDF table
     holds the group's R trial counts by the C guessed counts: one row of
     ``binom.cdf``, then R - 1 steps of the exact recurrence in the trial
     count, each a convex combination, so it stays within about 1e-13 of
     the exact CDF relative, a tenth of the check's margin.  Past R = 256,
     or where its first row would hold more values than twice the rows,
     it gives way to ``binom.cdf`` at the distinct (trials, count) points
     of the same grid, which settle the rows the same way.

Step 4 spends exactly one uniform per (replication, group) regardless of
n*, so runs at different n* but the same seed see comonotone prior counts;
simulated risk curves over n* are then smooth enough for the sample-size
solver to bisect.  Because prior variates are drawn after all present
variates, the three estimator kinds see identical surveys for a given
seed (common random numbers), which makes paired comparisons sharp.

Per-replication losses land in a preallocated buffer at their replication
index, and the mean is a single pairwise reduction over that buffer, so
results are bitwise identical for any worker count.  One thread runs each
block end to end; the only shared write target is the buffer, at disjoint
indices.  The caller is one of the workers: a call that draws shares its
blocks with the others, and a memo hit runs them all on the caller.

Loss by the chain rule.  The three estimators share the present
survey's within-group conditionals x_i./t_i and differ only in their
first-stage marginals q_f: t/n (present), x*/n* (prior) or
(t + x*)/(n + n*) (pooled).  By the chain rule (see
:mod:`surveyrisk.divergence`) each replication's loss is

    D[q_f : m_f] + sum_i q_f,i * D_i,    D_i = D[x_i./t_i : p_i],

and D_i depends on neither the kind nor n*.  It is computed once per
present draw, group by group, as the sum of rel_entr(x_ij / t_i, p_ij);
a loss then costs I columns, not a pass over every cell.  A group whose
block has many cells over few counts gathers those terms from a table
of rel_entr(k / t, v) over its range of totals t, the counts k drawn so
far and its distinct conditionals v, while the table has at most one
entry per ``_KL_TABLE_CELLS_PER_ENTRY`` of the block's cells; the
table's arguments are the same int64 true divisions, so D keeps its
bytes.  The first-stage terms rel_entr(num / N, m_f), for the kind's
counts num and size N, are gathered the same way from a table over the
block's range of num, while that range is no longer than the block.  A
row's I terms are summed by column adds in group order, numpy's own
order for a row sum of at most 7 groups.  The identity is exact, the
rounding is not the same, so engine losses equal ``kl_divergence`` of
the library's estimate to within 1e-15 + 1e-12 * loss, not bitwise.
The absolute term is what counts at large n: the rounding error of
either sum stays near a unit in the last place of 1, while the loss
shrinks like 1/n.

Memo of draws.  A block's present surveys and prior uniforms depend
only on (model cells, group sizes, n, seed, replications), never on the
kind, n* or ``workers``.  The module keeps one slot (:class:`_Draws`) per
such key, least recently used first, and drops the oldest while the slots
together could exceed ``_MEMO_CAP_BYTES``; a key whose slot alone could
exceed it is kept nowhere.  A slot's entry for a block holds the
present totals, the second-stage KLs, the discard count, the prior
uniforms with their normal quantiles, and the prior counts of the latest
n*.  A hit returns exactly what a fresh draw would, so results do not
change.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.special import ndtri, rel_entr
from scipy.stats import binom

from .errors import DomainError, RejectionBudgetExceeded
from .estimators import EstimatorKind
from .model import DerivedQuantities, TwoStageModel, as_int, derive

__all__ = [
    "BLOCK_SIZE",
    "SimulationConfig",
    "RiskEstimate",
    "simulate_risk",
    "discard_probability",
]

#: replications per RNG block; part of the reproducibility contract,
#: results change if this changes
BLOCK_SIZE = 4096

#: draws one replication may discard before the run gives up, which is
#: the rounds of redraws a block may take; read when each block draws
_MAX_REJECTIONS = 10**6

#: bytes of int64 cells per second-stage multinomial call; wider groups
#: are drawn in row chunks, which changes no result
_CHUNK_BYTES = 2**18

#: bytes of entries the memo of draws may hold; a key whose entries
#: could hold more is not memoized
_MEMO_CAP_BYTES = 64 * 2**20

#: a group's second-stage KLs are gathered from a table of rel_entr(k / t, v)
#: while the table has at most one entry per this many of the group's cells
#: in the block
_KL_TABLE_CELLS_PER_ENTRY = 8


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


def _acceptance_bound(marginals: np.ndarray, n: int) -> float:
    """Upper bound on P(a size-n present draw observes every group), 0 if
    n < I: prod_{k<I} (1 - (1 - q_k)^(n-k+1)), q_k = m_k / (m_k + ... + m_I)
    over ascending marginals.  Given groups 1..k-1 observed, at most n-k+1
    draws are left, and each lands in group k with probability q_k."""
    m = np.sort(marginals)
    q = (m / np.cumsum(m[::-1])[::-1])[:-1].tolist()
    return 0.0 if n < m.size else math.prod(
        -math.expm1((n - k) * math.log1p(-qk)) for k, qk in enumerate(q))


def _draw_totals(
    gen: np.random.Generator,
    dq: DerivedQuantities,
    n: int,
    rows: int,
) -> tuple[np.ndarray, int]:
    """Group totals for ``rows`` replications, discard rule applied.

    Returns (totals, discarded).
    """
    totals = gen.multinomial(n, dq.marginals, size=rows)
    bad = np.flatnonzero((totals == 0).any(axis=1))
    discarded = rounds = 0
    while bad.size:
        rounds += 1
        if rounds > _MAX_REJECTIONS:
            raise RejectionBudgetExceeded(
                f"a replication discarded more than {_MAX_REJECTIONS} draws "
                f"at n={n}; some group is almost never observed at this size"
            )
        discarded += int(bad.size)
        redrawn = gen.multinomial(n, dq.marginals, size=bad.size)
        totals[bad] = redrawn
        bad = bad[(redrawn == 0).any(axis=1)]
    return totals, discarded


#: rows whose uniform lies within this relative distance of a CDF value
#: at the guessed count go to ``binom.ppf``, whose own comparisons may
#: round the other way there
_TIE_RTOL = 1e-12

#: bound on the normal quantile in the guess, so that u = 0 (ndtri = -inf)
#: and a zero standard deviation give a finite guess; the check corrects it.
#: Every uniform in [2**-53, 1 - 2**-53] lies inside, and a bound near them
#: keeps u = 0 from widening the CDF table's counts
_Z_CLAMP = 8.3

#: the CDF table spans at most this many trial counts, which bounds the
#: roundings of its recurrence; a wider grid takes the CDF points
_TABLE_MAX_TRIALS = 256


def _cdf_table(r_lo: int, R: int, c_lo: int, C: int, q: float) -> np.ndarray:
    """``binom.cdf(c, r, q)`` for the R trial counts r_lo <= r < r_lo + R and
    the C counts c_lo <= c < c_lo + C, as an (R, C) array.

    The row at r_lo is ``binom.cdf``'s, over the counts down to c_lo - R + 1:
    ``binom._cdf``, the same CDF without its argument checks, at the
    counts 0 <= c < r_lo, and its support rules elsewhere, 0 below 0 and
    1 from r_lo up.  Each next row follows from the exact identity
    F(c; r + 1) = q F(c - 1; r) + (1 - q) F(c; r), one correlation that
    drops the lowest count.  Each step is a convex combination of
    nonnegative values, so it adds at most three roundings of relative
    error (one of them in 1 - q): after R - 1 <= 255 steps the table is
    within 3 * 255 * 2**-53, about 8.5e-14, of the exact recurrence from
    its first row, a tenth of ``_TIE_RTOL``; only values that underflow,
    below 1e-300, lose their relative precision.  ``binom.cdf`` itself is
    off by up to about 1.2e-13 relative in the lower tail, so the two
    agree within 2e-13.
    """
    width = C + R - 1
    c0 = c_lo - R + 1
    a = min(max(-c0, 0), width)
    b = min(max(r_lo - c0, a), width)
    row = np.empty(width)
    row[:a] = 0.0
    row[b:] = 1.0
    row[a:b] = binom._cdf(np.arange(c0 + a, c0 + b), r_lo, q)
    kernel = np.array([q, 1.0 - q])
    table = np.empty((R, C))
    table[0] = row[R - 1:]
    for j in range(1, R):
        row = np.correlate(row, kernel)
        table[j] = row[R - 1 - j:]
    return table


def _binom_inverse(u: np.ndarray, z: np.ndarray, r: np.ndarray, q: float) -> np.ndarray:
    """``np.maximum(binom.ppf(u, r, q), 0)`` as int64, for int64 trial
    counts r and one probability q.

    ``z`` is ``np.clip(ndtri(u), -_Z_CLAMP, _Z_CLAMP)``, which a block
    computes once for every n*; it only feeds the guess, so the counts
    are exact whatever it holds.  A skew-corrected (Cornish-Fisher)
    normal quantile at z guesses each count k.  The CDF is read on one
    grid, the R trial counts of the rows by the C guessed counts widened by
    two below and one above: from a table over the whole grid
    (:func:`_cdf_table`) while R <= ``_TABLE_MAX_TRIALS`` and its first
    row, C + R - 1 CDF values, costs no more than two points per row;
    otherwise from ``binom.cdf`` once per distinct point.  Each row reads
    counts k - 1 and k, the rows left k - 2 .. k + 1; where some but not
    all of them lie below u, their number places the answer, unless u lies
    within ``_TIE_RTOL`` of one of them or below 2**-1000, where the
    table's subnormal roundings may exceed that margin.  The rows still
    left go to ``binom.ppf``, and so does a grid whose index would
    overflow int64 (R * C >= 2**63).
    """
    mean = r * q
    sd = np.sqrt(mean * (1.0 - q))
    guess = np.ceil(mean + sd * z + (1.0 - 2.0 * q) * (z * z - 1.0) / 6.0 - 0.5)
    k = np.clip(guess, 0, r).astype(np.int64)
    lo, hi = np.where(u > 2.0**-1000, u * (1.0 - _TIE_RTOL), 0.0), u * (1.0 + _TIE_RTOL)

    r_lo, k_lo = int(r.min()), int(k.min())
    R = int(r.max()) - r_lo + 1
    C = int(k.max()) - k_lo + 4  # counts k_lo - 2 .. k_hi + 1
    if R <= _TABLE_MAX_TRIALS and C + R - 1 <= 2 * u.size:
        cdf_at = _cdf_table(r_lo, R, k_lo - 2, C, q).ravel().take
    else:
        if R * C >= 2**63:  # the grid's index would overflow int64
            return np.maximum(binom.ppf(u, r, q), 0.0).astype(np.int64)
        def cdf_at(at: np.ndarray) -> np.ndarray:
            points, where = np.unique(at, return_inverse=True)
            return binom.cdf(points % C + k_lo - 2, points // C + r_lo, q)[where]
    at = (r - r_lo) * C + (k - k_lo + 1)  # count k - 1 of row r
    f = cdf_at(np.concatenate((at, at + 1)))
    rest = np.flatnonzero(~((f[:u.size] < lo) & (hi < f[u.size:])))
    if not rest.size:  # every guess held: no correction pass
        return k
    at, lo, hi = at[rest] - 1, lo[rest], hi[rest]
    f = cdf_at((at + np.arange(4)[:, None]).ravel()).reshape(4, rest.size)
    under = f < lo
    below = under.sum(axis=0)
    k[rest] += below - 2
    rest = rest[~(under | (hi < f)).all(axis=0) | (below == 0) | (below == 4)]
    if rest.size:
        k[rest] = np.maximum(binom.ppf(u[rest], r[rest], q), 0.0)
    return k


def _draw_prior(
    u: np.ndarray, z: np.ndarray, marginals: np.ndarray, n_star: int
) -> np.ndarray:
    """Multinomial(n*, marginals) per row of the (rows, I-1) uniforms ``u``
    via a chained binomial inverse CDF, ``z`` their clamped normal
    quantiles (see :func:`_binom_inverse`).

    A pure function of ``u``: the same uniforms at every n* keep draws
    comonotone across n*.  Group i is drawn from what is left with
    probability m_i over the tail sum m_i + ... + m_I, computed once per
    group rather than by subtraction.
    """
    rows, I = u.shape[0], marginals.size
    out = np.empty((rows, I), dtype=np.int64)
    remaining = np.full(rows, n_star, dtype=np.int64)
    values = marginals.tolist()
    for i in range(I - 1):
        q = values[i] / math.fsum(values[i:])
        draw = _binom_inverse(u[:, i], z[:, i], remaining, q)
        out[:, i] = draw
        remaining -= draw
    out[:, I - 1] = remaining
    return out


class _Draws:
    """The draws of one key (model cells, group sizes, n, config), made
    block by block on demand.  Block b keeps one entry (totals,
    second-stage KLs, discarded, prior uniforms, their clamped normal
    quantiles, n*, prior counts), each array the one the block drew,
    marked read-only; the prior counts are those of the latest n*, so a
    prior and a pooled call at one (n, n*) draw them once.  An entry is
    replaced whole, so threads that share the object never see half of
    one.  With ``keep`` false nothing is stored and every block draws
    afresh.  Each group's distinct
    conditionals are found once, for the KL table of step 3.
    """

    def __init__(self, key: tuple, dq: DerivedQuantities, keep: bool = True) -> None:
        _, _, self.n, self.config = key
        self.dq = dq
        self.keep = keep
        self.n_blocks = -(-self.config.replications // BLOCK_SIZE)
        self._entries: list[tuple | None] = [None] * self.n_blocks
        # each group's distinct conditionals, and each cell's among them
        self._distinct = [np.unique(c, return_inverse=True) for c in dq.conditionals]

    def block(self, b: int, n_star: int | None) -> tuple:
        """(totals, second-stage KLs, discarded, prior counts) of block b;
        the prior counts are None when ``n_star`` is."""
        entry = self._entries[b]
        if entry is None:
            rows = min(BLOCK_SIZE, self.config.replications - b * BLOCK_SIZE)
            gen = _block_generator(self.config.seed, b)
            totals, discarded = _draw_totals(gen, self.dq, self.n, rows)
            # D[x_i./t_i : p_i] per row and group; every t_i is at least 1
            d = np.empty(totals.shape, dtype=np.float64)
            for gi, conditionals in enumerate(self.dq.conditionals):
                values, inv = self._distinct[gi]
                t_lo, t_hi = int(totals[:, gi].min()), int(totals[:, gi].max())
                T, V = t_hi - t_lo + 1, values.size
                table, K = None, 0
                step = max(1, _CHUNK_BYTES // (8 * conditionals.size))
                for lo in range(0, rows, step):
                    t = totals[lo:lo + step, gi]
                    x = gen.multinomial(t, conditionals)
                    top = int(x.max()) + 1
                    if top > K:  # counts 0 .. K - 1, at most t_hi
                        K, table = min(max(2 * K, top), t_hi + 1), None
                        if T * K * V * _KL_TABLE_CELLS_PER_ENTRY <= rows * conditionals.size:
                            k_over_t = np.arange(K) / np.arange(t_lo, t_hi + 1)[:, None]
                            table = rel_entr(k_over_t[:, :, None], values).ravel()
                    if table is None:
                        kl = rel_entr(x / t[:, None], conditionals)
                    else:
                        # entry (t, k, v) is rel_entr(k / t, v): the same int64
                        # true division and the same ufunc as the line above,
                        # gathered into the same (rows, J) array, so D keeps
                        # its bytes
                        at = x * V
                        at += inv
                        at += ((t - t_lo) * (K * V))[:, None]
                        kl = table.take(at)
                    d[lo:lo + step, gi] = np.sum(kl, axis=1)
            u = gen.random((rows, self.dq.marginals.size - 1))
            z = np.clip(ndtri(u), -_Z_CLAMP, _Z_CLAMP)
            for array in (totals, d, u, z):
                array.flags.writeable = False
            entry = (totals, d, discarded, u, z, None, None)
        totals, d, discarded, u, z, drawn, xstar = entry
        if n_star is not None and drawn != n_star:
            xstar = _draw_prior(u, z, self.dq.marginals, n_star)
            xstar.flags.writeable = False
            entry = (totals, d, discarded, u, z, n_star, xstar)
        if self.keep:
            self._entries[b] = entry
        return totals, d, discarded, None if n_star is None else xstar


#: the memo of draws: one slot per key, least recently used first
_memo: OrderedDict[tuple, _Draws] = OrderedDict()
_memo_lock = threading.Lock()


def _slot_bytes(key: tuple) -> int:
    """Every array a slot can hold: 8 * R * (5I - 2) bytes of entries for
    I groups and R replications rounded up to whole blocks, and 32 bytes
    per cell for the key's cells, the conditionals and their distinct
    values and indices.  The rounding keeps the slots few, so that what
    each one holds besides its arrays stays small next to the cap."""
    cells, group_sizes, _, config = key
    rows = -(-config.replications // BLOCK_SIZE) * BLOCK_SIZE
    return 8 * rows * (5 * len(group_sizes) - 2) + 4 * len(cells)


def _memo_slot(key: tuple, dq: DerivedQuantities) -> _Draws:
    """The memo's slot for ``key``, found or made, now the most recently
    used; the least recently used slots are dropped while the slots
    together could exceed ``_MEMO_CAP_BYTES``.  A key whose slot alone
    could exceed it gets a slot that keeps nothing, outside the memo."""
    nbytes = _slot_bytes(key)
    if nbytes > _MEMO_CAP_BYTES:
        return _Draws(key, dq, keep=False)
    with _memo_lock:
        draws = _memo.pop(key, None) or _Draws(key, dq)
        while nbytes + sum(map(_slot_bytes, _memo)) > _MEMO_CAP_BYTES:
            _memo.popitem(last=False)
        _memo[key] = draws
        return draws


def _block_losses(
    kind: EstimatorKind, draws: _Draws, b: int, n_star: int | None
) -> tuple[np.ndarray, int]:
    """Per-replication losses of block b by the chain rule, and its
    discard count: D[q_f : m_f] + sum_i q_f,i D_i for the kind's
    first-stage estimate q_f = num / size."""
    totals, second_stage, discarded, xstar = draws.block(b, n_star)
    num, size = kind.first_stage(totals, xstar), kind.first_stage(draws.n, n_star)
    first, marginals = num / size, draws.dq.marginals
    lo, hi = int(num.min()), int(num.max())
    if hi - lo < num.shape[0]:
        # row k - lo is rel_entr(k / size, m_f): the same int64 true division
        # and the same ufunc as the line below, so every term keeps its bytes
        table = rel_entr(np.arange(lo, hi + 1)[:, None] / size, marginals).ravel()
        at = (num - lo) * marginals.size
        at += np.arange(marginals.size)
        terms = table.take(at)
    else:
        terms = rel_entr(first, marginals)
    terms += first * second_stage
    # numpy's order for np.sum(axis=1) up to 7 groups; pairwise from 8
    losses = terms[:, 0].copy()
    for column in terms.T[1:]:
        losses += column
    return losses, discarded


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
    identical for every ``workers`` value, and for a fresh draw and a memo
    hit (see the module docstring), whichever kind filled the memo.  Every
    argument is checked before any work: :meth:`EstimatorKind.prior_size`
    checks the kind and n* (the present kind ignores n*); sizes and
    ``workers`` are integers (numpy's too), and a fractional or bool one,
    n > 2**48, n* > 2**51, or a ``config`` that is not a SimulationConfig
    raises DomainError, as do marginals that numpy's multinomial refuses.
    Then R replications at a size whose acceptance bound a
    (:func:`_acceptance_bound`) has a * ``_MAX_REJECTIONS`` < 1 + ln R
    raise RejectionBudgetExceeded before drawing, and R whose losses do
    not fit in memory raise DomainError.
    """
    n_star = EstimatorKind.prior_size(kind, n_star)
    n = as_int(n, "n")
    # the loss shrinks like 1/n; past 2**48 it nears the chain rule's
    # rounding floor of about 1e-15 and the mean drifts off the risk
    if n > 2**48:
        raise DomainError(f"n must be at most 2**48, got n={n}")
    # binom.ppf draws the rows the CDF check leaves, and it returns NaN
    # once the count nears 0.75 * 2**52
    if n_star is not None and n_star > 2**51:
        raise DomainError(f"n* must be at most 2**51, got n*={n_star}")
    if not isinstance(config, SimulationConfig):
        raise DomainError(f"config must be a SimulationConfig, got {config!r}")
    workers = as_int(workers, "workers")
    dq = derive(model)
    head = c = 0.0  # numpy's Kahan sum of the first I - 1 marginals
    for v in dq.marginals[:-1].tolist():
        y = v - c
        t = head + y
        c, head = (t - head) - y, t
    if head > 1.0 + 1e-12:  # where numpy's multinomial refuses them
        raise DomainError(f"the first {dq.marginals.size - 1} group marginals sum "
                          f"to {head!r} > 1 + 1e-12; build the model with renormalize")
    reps = config.replications
    accept = _acceptance_bound(dq.marginals, n)
    if accept * _MAX_REJECTIONS < 1 + math.log(reps):
        raise RejectionBudgetExceeded(
            f"at n={n} a present draw observes every group with probability at "
            f"most {accept:.3g} (0 below the number of groups), so the worst of "
            f"{reps} replications expects over {_MAX_REJECTIONS} draws")

    try:
        losses = np.empty(reps, dtype=np.float64)
    except MemoryError:
        raise DomainError(
            f"the losses of {reps} replications do not fit in memory") from None
    key = (model.flat().tobytes(), model.group_sizes, n, config)
    draws = _memo_slot(key, dq)
    n_blocks = draws.n_blocks
    discards = np.zeros(n_blocks, dtype=np.int64)
    blocks = iter(range(n_blocks))

    def run_blocks() -> None:
        for b in blocks:  # next() on a range iterator is atomic
            block, discards[b] = _block_losses(kind, draws, b, n_star)
            losses[b * BLOCK_SIZE:b * BLOCK_SIZE + block.size] = block

    # the caller is one of the workers; the others share the blocks only
    # when the call draws them, or when its slot keeps nothing
    threads = min(workers, n_blocks) - 1 if None in draws._entries else 0
    if not threads:
        run_blocks()
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(run_blocks) for _ in range(threads)]
            run_blocks()
            for future in futures:
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
