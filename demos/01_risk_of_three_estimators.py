"""
Three ways to estimate a two-stage table, and what each one risks
=================================================================

A present survey observes every cell of a two-stage classification; a
coarser prior survey observed only the first-stage groups.  All three
maximum-likelihood estimators share the within-group conditionals and
differ only in where the group marginals come from: the present sample,
the prior sample, or the pooled counts of both.

This script tabulates the truncated risk expansion (expected
Kullback-Leibler loss) of each estimator on the bundled uniform model
with two groups of 100 equiprobable cells, for a grid of survey sizes.
"""

from surveyrisk import EstimatorKind, bundled_model, risk_app

name = "example1-uniform100x2"
model = bundled_model(name)

print(f"model: {name}  (groups={model.n_groups}, cells={model.total_cells})")
print()
print(f"{'n':>6} {'n*':>8} {'present':>10} {'prior':>10} {'pooled':>10}  best")
for n, n_star in [
    (100, 100_000),
    (200, 100_000),
    (300, 100_000),
    (200, 200),
    (400, 400),
    (800, 800),
    (1000, 1000),
]:
    pre = risk_app(EstimatorKind.PRESENT, model, n).total
    pri = risk_app(EstimatorKind.PRIOR, model, n, n_star).total
    poo = risk_app(EstimatorKind.POOLED, model, n, n_star).total
    best = min(("present", pre), ("prior", pri), ("pooled", poo), key=lambda t: t[1])
    print(f"{n:>6} {n_star:>8} {pre:>10.6f} {pri:>10.6f} {poo:>10.6f}  {best[0]}")

print()
print("Pooling always beats the prior estimator, but whether it beats the")
print("present survey alone depends on the sample sizes; see the second")
print("demo for the region where pooling backfires.")
