"""
How many observations buy the same accuracy?
============================================

Two planning questions, answered by integer bisection on the risk
curves of the breast-cancer model (five age groups, three malignancy
levels):

* A prior survey only observes age groups.  How large must it be for
  the prior estimator to match a present survey of size n0?
* Pooling two surveys of n0 observations each uses 2*n0 in total.  How
  large a single present survey has the same risk?

The advisor then turns the pooled-versus-present comparison into a
decision rule for concrete survey counts.
"""

from surveyrisk import (
    AdviceContext,
    Decision,
    RssKind,
    RssQuery,
    SurveyCounts,
    advise,
    bundled_model,
    required_sample_size,
)

model = bundled_model("example2-breast-cancer")

print("prior survey size matching a present survey of n0 observations:")
for n0 in (200, 400, 600, 800, 1000):
    need = required_sample_size(RssQuery(RssKind.PRIOR_TO_PRESENT, n0), model)
    print(f"  n0 = {n0:>4}  ->  n* = {need:>5}  ({need / n0:.2f}x)")

print()
print("single present survey matching pooled surveys of (n0, n0):")
for n0 in (200, 400, 600, 800, 1000):
    need = required_sample_size(
        RssQuery(RssKind.PRESENT_TO_POOLED, n0, n0_star=n0), model
    )
    print(f"  pooled ({n0:>4}, {n0:>4})  ->  n = {need:>5}  of 2*n0 = {2 * n0}")

# The same machinery drives the advisor.  Feed it the observed counts;
# it plugs the estimated marginals into the risk gap between the present
# and pooled estimators and reads off the sign.
counts = SurveyCounts(
    present=((5, 12, 8), (13, 34, 17), (18, 27, 22), (12, 17, 11), (3, 1, 1)),
    prior=(26, 63, 67, 40, 5),
)
rec = advise(counts, model.group_sizes)
print()
print(f"post-survey advice for n={rec.n}, n*={rec.n_star}:")
print(f"  risk-gap statistic {rec.statistic:+.6f}  ->  {rec.decision.value}")

# At the planning stage only the prior survey exists.  Increasing the
# planned present size flips the decision once n leaves the
# pathological region.
print()
print("planning against the same prior survey:")
for n in (20, 30, 60):
    planned = advise(counts, model.group_sizes, AdviceContext.PLANNING, n=n)
    hint = "pool both surveys" if planned.decision is Decision.USE_POOLED \
        else "present survey too small"
    print(f"  n = {n:>3}:  statistic {planned.statistic:+.6f}"
          f"  ->  {planned.decision.value}  ({hint})")
