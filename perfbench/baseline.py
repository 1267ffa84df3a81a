"""Sanity report against the hand-measured table in ROADMAP.md (not a gate).

    python3 perfbench/baseline.py

prints, as markdown, simulate_risk milliseconds per kind at 20k
replications with one worker for the table's three (model, n, n*) rows,
and the number of simulate_risk probes of the simulation-mode
prior-vs-present solve (breast-cancer, n0 = 400, 20k replications),
counted with the benchmark's tracer.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run._import_package()

import tracing  # noqa: E402
from surveyrisk import bundled_model, planning  # noqa: E402
from surveyrisk.estimators import EstimatorKind  # noqa: E402
from surveyrisk.montecarlo import SimulationConfig, simulate_risk  # noqa: E402

ROWS = (("example1-uniform100x2", 200, 600), ("example2-breast-cancer", 200, 600),
        ("example3-household", 1000, 1000))
CONFIG = SimulationConfig(replications=20_000, seed=0)


def main() -> None:
    print("| model | (n, n*) | present | prior | pooled |")
    print("|---|---|---|---|---|")
    for name, n, n_star in ROWS:
        model = bundled_model(name)
        ms = []
        for kind in EstimatorKind:
            simulate_risk(kind, model, n, n_star, CONFIG)  # warm-up
            start = time.perf_counter()
            simulate_risk(kind, model, n, n_star, CONFIG)
            ms.append(f"{1e3 * (time.perf_counter() - start):.0f}")
        print(f"| {name} | ({n}, {n_star}) | " + " | ".join(ms) + " |")

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        query = planning.RssQuery(planning.RssKind.PRIOR_TO_PRESENT, 400,
                                  method="sim", config=CONFIG)
        start = time.perf_counter()
        rss = planning.required_sample_size(query, bundled_model("example2-breast-cancer"))
        seconds = time.perf_counter() - start
    finally:
        tracer.restore()
    probes = sum(s.name == "montecarlo.simulate_risk" for s in tracer.spans)
    print(f"\nprior-vs-present, breast-cancer, n0 = 400, 20k reps: rss {rss}, "
          f"{probes} simulate_risk probes, {seconds:.1f} s traced")


if __name__ == "__main__":
    main()
