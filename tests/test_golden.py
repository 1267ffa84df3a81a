"""Golden fixture: simulated values pinned to the last bit.

Each entry is the full-precision ``repr`` of (mean_loss, std_error,
discard_rate) for one (model, kind, n, n*, replications, seed).  The
cases cover all three bundled models, the prior and pooled kinds, a
present size with discards (breast-cancer at n = 60), replication counts
that are not multiples of ``BLOCK_SIZE`` and a seed above 2**63.

A change that moves any of these values, even in the last bit, changes
what the package reproduces.  Update the fixture only on purpose, and
record why in CHANGES.md; ``python tests/test_golden.py`` prints the
current values in the fixture's layout.
"""

from __future__ import annotations

import numpy as np

from surveyrisk import (
    EstimatorKind,
    SimulationConfig,
    bundled_model,
    sample_surveys,
    simulate_risk,
)

#: (model, kind, n, n*, replications, seed) -> (mean_loss, std_error, discard_rate)
SIMULATED = {
    ("example1-uniform100x2", "prior", 200, 600, 5000, 7):
        (0.5731845825279915, 0.0005801988485471751, 0.0),
    ("example1-uniform100x2", "pooled", 90, 1000, 4097, 2019):
        (1.0844685443293027, 0.0008514933618345438, 0.0),
    ("example2-breast-cancer", "present", 60, None, 6000, 0):
        (0.11922625094602339, 0.0005562496858991662, 0.2679355783308931),
    ("example2-breast-cancer", "prior", 60, 300, 6000, 0):
        (0.10147233586046109, 0.0005747033434566234, 0.2679355783308931),
    ("example2-breast-cancer", "pooled", 60, 300, 6000, 0):
        (0.09931064769965009, 0.0005496967968740516, 0.2679355783308931),
    ("example2-breast-cancer", "pooled", 200, 1000, 9000, 20190415):
        (0.029328508722547122, 0.000130439749635762, 0.010662855886556008),
    ("example3-household", "prior", 1000, 1000, 5000, 3):
        (0.0302233173813171, 7.91386846815633e-05, 0.0),
    ("example3-household", "pooled", 300, 2000, 4100, 2**63 + 5):
        (0.09473699475566272, 0.0002824123512110953, 0.00048756704046806434),
}

#: (model, n, n*, default_rng seed) -> (present cells, prior counts, discarded)
SAMPLED = {
    ("example2-breast-cancer", 40, 500, 11): (
        ((2, 5, 2), (1, 6, 5), (4, 4, 4), (3, 2, 1), (0, 0, 1)),
        (64, 157, 165, 104, 10),
        2,
    ),
    ("example3-household", 500, 2000, 3): (
        ((1, 0, 3, 3, 2, 2, 0, 0, 1, 0), (1, 5, 8, 7, 28, 26, 10, 2, 1, 1),
         (3, 7, 6, 21, 23, 48, 36, 18, 7, 5), (3, 3, 9, 13, 7, 31, 22, 18, 11, 5),
         (3, 4, 17, 15, 14, 18, 10, 8, 3, 0), (0, 2, 2, 4, 0, 1, 2, 0, 0, 0)),
        (86, 381, 611, 544, 332, 46),
        0,
    ),
}


def _simulate(name, kind, n, n_star, reps, seed):
    cfg = SimulationConfig(replications=reps, seed=seed)
    r = simulate_risk(EstimatorKind(kind), bundled_model(name), n, n_star, cfg)
    return (r.mean_loss, r.std_error, r.discard_rate)


def _sample(name, n, n_star, seed):
    counts, discarded = sample_surveys(
        bundled_model(name), n, n_star, np.random.default_rng(seed)
    )
    return (counts.present, counts.prior, discarded)


def test_simulated_values_are_pinned_bitwise():
    got = {key: _simulate(*key) for key in SIMULATED}
    assert got == SIMULATED


def test_sampled_surveys_are_pinned():
    got = {key: _sample(*key) for key in SAMPLED}
    assert got == SAMPLED


if __name__ == "__main__":
    for key in SIMULATED:
        print(f"    {key!r}:\n        {_simulate(*key)!r},")
    for key in SAMPLED:
        print(f"    {key!r}: {_sample(*key)!r},")
