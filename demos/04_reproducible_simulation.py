"""
Simulation you can cite: fixed seeds, worker-proof means, discards
==================================================================

The Monte Carlo engine draws surveys in fixed-size blocks keyed by
(seed, block index), so a result is pinned by the seed and replication
count alone.  Splitting the blocks across worker threads changes wall
time, never the numbers.  A repeat call with the same model, n, seed and
replication count takes its surveys from the engine's memo, which keeps
the draws of the most recently used keys within 64 MB, so it is faster,
and its numbers are again the same.
Samples whose present survey leaves some group empty are discarded and
redrawn; the engine reports how often that happened.
"""

import time

from surveyrisk import (
    EstimatorKind,
    SimulationConfig,
    bundled_model,
    discard_probability,
    risk_app,
    simulate_risk,
)

model = bundled_model("example2-breast-cancer")
cfg = SimulationConfig(replications=50_000, seed=7)

t0 = time.time()
serial = simulate_risk(EstimatorKind.POOLED, model, 200, 200, cfg, workers=1)
t1 = time.time()
fanned = simulate_risk(EstimatorKind.POOLED, model, 200, 200, cfg, workers=8)
t2 = time.time()

# the second call finds the first call's surveys in the memo, so its
# time is the estimates and losses alone, not a parallel speed-up
print(f"1 worker : mean {serial.mean_loss!r}  ({t1 - t0:.2f}s, draws the surveys)")
print(f"8 workers: mean {fanned.mean_loss!r}  ({t2 - t1:.2f}s, reuses them)")
print(f"bitwise identical: {serial == fanned}")

# The discard rule conditions on every age group being observed at
# least once.  Its probability has an exact inclusion-exclusion form.
print()
for n in (200, 400):
    est = simulate_risk(
        EstimatorKind.PRESENT, model, n, None,
        SimulationConfig(replications=50_000, seed=7),
    )
    exact = discard_probability(model, n)
    print(f"n={n}: discard rate {est.discard_rate:.6f}   exact {exact:.6f}")

# With enough replications the simulated mean homes in on the truncated
# expansion wherever the sample sizes are comfortably large.
print()
app = risk_app(EstimatorKind.POOLED, model, 1000, 1000).total
sim = simulate_risk(
    EstimatorKind.POOLED, model, 1000, 1000,
    SimulationConfig(replications=50_000, seed=7), workers=8,
)
gap = sim.mean_loss - app
print(f"pooled risk at (1000, 1000): app {app:.6f}   "
      f"sim {sim.mean_loss:.6f} +- {sim.std_error:.6f}   gap {gap:+.6f}")
