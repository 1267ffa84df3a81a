"""
Bring your own table: model and counts files end to end
=======================================================

Everything the bundled examples do works for user-supplied models.  This
script writes a small two-stage model file and a matching counts file,
loads them back, and walks the full pipeline: estimates, their exact
loss against the assumed truth, risk approximations, and the pooling
advisor.  The same files drive the command line:

    surveyrisk risk --model coffee.model --estimator all --method app \
        --n 120 --nstar 500
    surveyrisk advise --model coffee.model --counts coffee.counts
"""

import tempfile
from pathlib import Path

from surveyrisk import (
    EstimatorKind,
    chain_rule,
    estimate,
    kl_divergence,
    risk_app,
)
from surveyrisk.cli import load_model, parse_counts_text

MODEL_TEXT = """\
# Morning beverage, split by brew style and then by size.
model coffee-shop
renormalize on
group espresso : 0.18 0.12 0.10
group filter   : 0.22 0.20
group tea      : 0.08 0.06 0.04
"""

COUNTS_TEXT = """\
present
21 14 12
27 24
9 7 6
prior
210 240 50
"""

with tempfile.TemporaryDirectory(prefix="surveyrisk-demo-") as workdir:
    model_path = Path(workdir) / "coffee.model"
    model_path.write_text(MODEL_TEXT)
    model = load_model(str(model_path))
counts = parse_counts_text(COUNTS_TEXT)

print(f"loaded groups {dict(zip(model.labels, model.group_sizes))}"
      f" from {model_path}")

# Point estimates and their realized loss against the assumed truth.
truth = model.flat()
print()
for kind in EstimatorKind:
    est = estimate(kind, counts)
    loss = kl_divergence(est.flat(), truth)
    parts = chain_rule(est, model)
    print(f"{kind.name.lower():>8}: loss {loss:.6f}"
          f"  (first stage {parts.first_stage_kl:.6f})")

# Expected losses at the observed design size.
n, n_star = counts.n, counts.n_star
print()
print(f"risk at n={n}, n*={n_star}:")
for kind in EstimatorKind:
    extra = None if kind is EstimatorKind.PRESENT else n_star
    print(f"{kind.name.lower():>8}: {risk_app(kind, model, n, extra).total:.6f}")
