"""
When a bigger prior survey makes pooling worse
==============================================

Folk wisdom says more data never hurts.  For the pooled estimator that
is false once the present survey is small relative to the number of
cells: the extra prior observations sharpen the first-stage marginals,
which puts more weight on second-stage conditionals that the small
present survey estimates badly.

Below, the present survey is frozen at n=90 on the uniform 100x2 model
and the prior survey grows from 100 to 1000.  The pooled risk climbs
with every step, and the present estimator alone beats pooling at every
size.  A quick simulation on a shared seed confirms the expansion is
not an artifact of truncation.
"""

from surveyrisk import (
    EstimatorKind,
    SimulationConfig,
    bundled_model,
    risk_app,
    simulate_risk,
)

model = bundled_model("example1-uniform100x2")
cfg = SimulationConfig(replications=20_000, seed=12345)

pre_app = risk_app(EstimatorKind.PRESENT, model, 90).total
pre_sim = simulate_risk(EstimatorKind.PRESENT, model, 90, None, cfg).mean_loss
print(f"present alone at n=90:   app {pre_app:.6f}   sim {pre_sim:.6f}")
print()
print(f"{'n*':>6} {'pooled app':>12} {'pooled sim':>12}")
for n_star in range(100, 1001, 100):
    app = risk_app(EstimatorKind.POOLED, model, 90, n_star).total
    sim = simulate_risk(EstimatorKind.POOLED, model, 90, n_star, cfg).mean_loss
    print(f"{n_star:>6} {app:>12.6f} {sim:>12.6f}")

print()
print("Both columns increase monotonically and stay above the present-only")
print("risk: in this region the prior survey is pure poison for pooling.")
