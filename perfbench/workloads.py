"""The benchmark's workloads: fixed lists of public-API calls, and their checks.

A workload is built from a seed.  The seed is the only input the
benchmark varies; the program sees only the calls built from it.  Every
call returns a plain dict (its *output*), which is what the reference
files pin and what the checks compare.

Each call looks its function up on the package module at call time
(``montecarlo.simulate_risk``, ``cli.run``, ...), so the traced run's
wrappers on those module attributes see the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from surveyrisk import cli, divergence, estimators, model, montecarlo, planning
from surveyrisk.datasets import bundled_model
from surveyrisk.estimators import EstimatorKind
from surveyrisk.montecarlo import SimulationConfig

UNIFORM = "example1-uniform100x2"
CANCER = "example2-breast-cancer"
HOUSEHOLD = "example3-household"

#: replications per simulate_risk call, per workload: 2, 4 and 1 engine blocks
SIM_TABLE_REPS = 2 * montecarlo.BLOCK_SIZE
SIM_WIDE_REPS = 4 * montecarlo.BLOCK_SIZE
RSS_SIM_REPS = montecarlo.BLOCK_SIZE

#: relative tolerance per output field; fields not listed must match exactly
REL_TOL = {"mean_loss": 1e-9, "std_error": 1e-9, "value": 1e-12,
           "chain_rule_total": 1e-12}

#: README example counts on the breast-cancer layout
README_PRESENT = ((5, 12, 8), (13, 34, 17), (18, 27, 22), (12, 17, 11), (3, 1, 1))
README_PRIOR = (26, 63, 67, 40, 5)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Call:
    """One public-API call of a workload.

    ``key`` names the call in reference files.  ``run`` performs it and
    returns its output.  ``check`` returns a problem description or None;
    it needs no reference, so it holds for every seed.  ``seed_free``
    marks calls whose output does not depend on the workload seed, which
    are then compared with the default seed's reference on every seed.
    """

    key: str
    run: Callable[[], dict]
    check: Callable[[dict], str | None] | None = None
    seed_free: bool = False
    describe: str = ""


@dataclass
class Workload:
    name: str
    workers: int
    calls: list[Call]
    #: checks across calls: outputs by key -> {key: problem}
    cross_checks: list[Callable[[dict], dict]] = field(default_factory=list)
    #: files written for the calls; removed by close()
    scratch: Path | None = None

    def close(self) -> None:
        if self.scratch is not None and self.scratch.is_dir():
            for path in self.scratch.iterdir():
                path.unlink()
            self.scratch.rmdir()


# ---------------------------------------------------------------------------
# independent oracles for the checks
# ---------------------------------------------------------------------------

def _close(a: float, b: float, rel: float, scale: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), scale)


def _gap_present_pooled(sizes, marginals, n: int, n_star: int) -> tuple[float, float]:
    """risk(present) - risk(pooled) from the expansions, written out again
    here; returns (gap, sum of the magnitudes of its terms)."""
    I = len(marginals)
    pooled = n + n_star
    c = math.fsum((j - 1) * (1.0 / m - 1.0) for j, m in zip(sizes, marginals))
    M_f = math.fsum(1.0 / m for m in marginals)
    terms = [
        (I - 1) / 2.0 * (1.0 / n - 1.0 / pooled),
        (M_f - 1.0) / 12.0 * (1.0 / n**2 - 1.0 / pooled**2),
        -(n_star / pooled) * c / (2.0 * n * n),
    ]
    return math.fsum(terms), math.fsum(abs(t) for t in terms)


def _risk_app_oracle(m, kind: str, n: int, n_star: int) -> float:
    """The truncated expansions of the three risks, from the model's cells."""
    cells = [list(map(float, g)) for g in m.cells]
    marg = [math.fsum(g) for g in cells]
    I = len(cells)
    s = [len(g) - 1 for g in cells]
    A = [2.0 * math.fsum(mi / x for x in g) - 2.0 for g, mi in zip(cells, marg)]
    M_f = math.fsum(1.0 / x for x in marg)
    if kind == "present":
        size, weight = float(n), 0.0
        first = (I - 1 + sum(s)) / (2.0 * n)
    else:
        size = float(n_star if kind == "prior" else n + n_star)
        weight = 1.0 if kind == "prior" else n_star / (n + n_star)
        first = (I - 1) / (2.0 * size) + sum(s) / (2.0 * n)
    tail = math.fsum(
        (a + 12.0 * (1.0 - mi) * si * weight) / mi for a, mi, si in zip(A, marg, s)
    )
    return first + (M_f - 1.0) / (12.0 * size * size) + tail / (24.0 * n * n)


# ---------------------------------------------------------------------------
# simulation calls
# ---------------------------------------------------------------------------

def _sim_output(r) -> dict:
    return {"mean_loss": r.mean_loss, "std_error": r.std_error,
            "discard_rate": r.discard_rate, "replications": r.replications}


def _sim_call(models, name, kind, n, n_star, reps, seed, workers) -> Call:
    m = models[name]
    ns = None if kind == "present" else n_star

    def run() -> dict:
        config = SimulationConfig(replications=reps, seed=seed)
        return _sim_output(montecarlo.simulate_risk(
            EstimatorKind(kind), m, n, ns, config, workers))

    def check(out: dict) -> str | None:
        mean, se, rate = out["mean_loss"], out["std_error"], out["discard_rate"]
        if out["replications"] != reps:
            return f"replications {out['replications']} != {reps}"
        if not (math.isfinite(mean) and mean > 0.0 and math.isfinite(se) and se > 0.0):
            return f"mean {mean!r} / std error {se!r} not positive and finite"
        if not 0.0 <= rate < 1.0:
            return f"discard rate {rate!r} outside [0, 1)"
        # discards per accepted draw are geometric with mean p/(1-p)
        p = montecarlo.discard_probability(m, n)
        discarded = rate * reps / (1.0 - rate)
        expected = reps * p / (1.0 - p)
        if abs(discarded - expected) > 6.0 * math.sqrt(reps * p) / (1.0 - p) + 1.0:
            return f"{discarded:.0f} discards, expected {expected:.1f}"
        return None

    # a table row's n* names the call, also for the present estimator
    key = f"simulate_risk/{name}/{kind}/n={n}" + (
        "" if n_star is None else f"/nstar={n_star}")
    return Call(key, run, check,
                describe=f"simulate_risk({kind}, {name}, n={n}, n_star={ns}, "
                         f"reps={reps}, workers={workers})")


def _same_discards(outputs: dict) -> dict:
    """Common random numbers: every kind at one (model, n) sees the same
    present surveys, so the same discard rate."""
    seen: dict[str, tuple[str, float]] = {}
    problems = {}
    for key, out in outputs.items():
        if not key.startswith("simulate_risk/") or out is None:
            continue
        _, name, _, n = key.split("/")[:4]
        first = seen.setdefault(f"{name}/{n}", (key, out["discard_rate"]))
        if out["discard_rate"] != first[1]:
            problems[key] = f"discard rate differs from {first[0]}"
    return problems


def _rss_call(models, name, kind, n0, n0_star, reps, seed) -> Call:
    m = models[name]
    rss_kind = planning.RssKind(kind)

    def run() -> dict:
        query = planning.RssQuery(
            kind=rss_kind, n0=n0, n0_star=n0_star, method="sim",
            config=SimulationConfig(replications=reps, seed=seed))
        return {"rss": planning.required_sample_size(query, m, workers=1)}

    def check(out: dict) -> str | None:
        # the solver's contract: the least size whose simulated risk is at
        # or below the target, on the same seed
        config = SimulationConfig(replications=reps, seed=seed)
        sim = montecarlo.simulate_risk
        rss = out["rss"]
        if rss_kind is planning.RssKind.PRIOR_TO_PRESENT:
            target = sim(EstimatorKind.PRESENT, m, n0, None, config).mean_loss
            risk = lambda size: sim(EstimatorKind.PRIOR, m, n0, size, config).mean_loss
        else:
            target = sim(EstimatorKind.POOLED, m, n0, n0_star, config).mean_loss
            risk = lambda size: sim(EstimatorKind.PRESENT, m, size, None, config).mean_loss
        if not risk(rss) <= target:
            return f"risk at {rss} is above the target"
        if rss > 1 and not risk(rss - 1) > target:
            return f"risk at {rss - 1} already meets the target"
        return None

    key = f"required_sample_size/{name}/{kind}/n0={n0}" + (
        "" if n0_star is None else f"/n0star={n0_star}")
    return Call(key, run, check,
                describe=f"required_sample_size({kind}, {name}, n0={n0}, "
                         f"n0_star={n0_star}, method=sim, reps={reps}, workers=1)")


def sim_table(seed: int, models: dict) -> Workload:
    points = [(n, ns) for n in (200, 600, 1000) for ns in (200, 600, 1000)]
    points.append((60, 600))  # discard rate about 0.26
    calls = [
        _sim_call(models, CANCER, kind, n, ns, SIM_TABLE_REPS, seed, 1)
        for n, ns in points for kind in ("present", "prior", "pooled")
    ]
    return Workload("sim-table", 1, calls, [_same_discards])


def sim_wide(seed: int, models: dict) -> Workload:
    workers = nproc()
    calls = [
        _sim_call(models, UNIFORM, "pooled", 90, ns, SIM_WIDE_REPS, seed, workers)
        for ns in range(100, 1001, 100)
    ]
    calls += [
        _sim_call(models, UNIFORM, "present", n, None, SIM_WIDE_REPS, seed, workers)
        for n in (90, 200)
    ]
    return Workload("sim-wide", workers, calls, [_same_discards])


def rss_sim(seed: int, models: dict) -> Workload:
    calls = [
        _rss_call(models, CANCER, "prior-vs-present", 400, None, RSS_SIM_REPS, seed),
        _rss_call(models, CANCER, "present-vs-pooled", 400, 400, RSS_SIM_REPS, seed),
        _rss_call(models, UNIFORM, "present-vs-pooled", 400, 400, RSS_SIM_REPS, seed),
    ]
    return Workload("rss-sim", 1, calls)


# ---------------------------------------------------------------------------
# analytic calls
# ---------------------------------------------------------------------------

def _cli_call(key: str, argv: list[str], check=None, seed_free=False,
              path: Path | None = None) -> Call:
    """``path``, a file the call reads, is written as FILE in the output
    and the description, which then do not depend on where the checkout is."""
    def show(text: str) -> str:
        return text if path is None else text.replace(str(path), "FILE")

    def run() -> dict:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.run(argv)
        return {"status": status, "stdout": show(out.getvalue()),
                "stderr": err.getvalue()}

    def checked(result: dict) -> str | None:
        if result["status"] != 0:
            return f"exit status {result['status']}: {result['stderr'].strip()}"
        return check(result) if check is not None else None

    return Call(key, run, checked, seed_free, show("cli.run " + " ".join(argv)))


def _csv_row(stdout: str) -> dict:
    header, row = stdout.splitlines()
    return dict(zip(header.split(","), row.split(",")))


def _advise_check(sizes, marginals, n, n_star, stage):
    def check(result: dict) -> str | None:
        row = _csv_row(result["stdout"])
        stat = float(row["statistic"])
        gap, scale = _gap_present_pooled(sizes, marginals, n, n_star)
        if not _close(stat, gap, 1e-12, scale):
            return f"statistic {stat!r}, expected {gap!r}"
        if stage == "post":
            want = "UsePooled" if stat >= 0.0 else "UsePresentOnly"
        else:
            want = "IncreaseN" if stat < 0.0 else "UsePooled"
        if row["decision"] != want:
            return f"decision {row['decision']} for statistic {stat!r}"
        return None
    return check


def _random_model_text(rng: np.random.Generator) -> str:
    groups = int(rng.integers(2, 5))
    lines = ["model bench-random", "renormalize on"]
    for g in range(groups):
        cells = rng.integers(1, 1000, size=int(rng.integers(1, 5)))
        lines.append(f"group G{g} : " + " ".join(str(int(c)) for c in cells))
    return "\n".join(lines) + "\n"


def _perturbed_counts(rng: np.random.Generator):
    present = tuple(tuple(int(x + rng.integers(0, 4)) for x in row)
                    for row in README_PRESENT)
    prior = tuple(int(x + rng.integers(0, 4)) for x in README_PRIOR)
    return model.SurveyCounts(present=present, prior=prior)


def app_plan(seed: int, models: dict, scratch: Path) -> Workload:
    rng = np.random.default_rng(seed)
    calls: list[Call] = []
    for example in (1, 2, 3):
        for table in ("risk", "rss-prior", "rss-pooled"):
            calls.append(_cli_call(
                f"cli/reproduce/{example}/{table}",
                ["reproduce", "--example", str(example), "--table", table,
                 "--method", "app"],
                seed_free=True))

    for name in (UNIFORM, CANCER, HOUSEHOLD):
        m = models[name]
        marginals = [math.fsum(map(float, g)) for g in m.cells]
        for stage in ("post", "plan"):
            n = int(rng.integers(50, 3001))
            n_star = int(rng.integers(50, 5001))
            calls.append(_cli_call(
                f"cli/advise-truth/{name}/{stage}",
                ["advise", "--model", name, "--plug-in", "truth", "--n", str(n),
                 "--nstar", str(n_star), "--stage", stage, "--precision", "full"],
                _advise_check(m.group_sizes, marginals, n, n_star, stage)))

    counts = _perturbed_counts(rng)
    scratch.mkdir(parents=True, exist_ok=True)
    counts_path = scratch / "readme.counts"
    counts_path.write_text(
        "present\n" + "".join(" ".join(map(str, row)) + "\n" for row in counts.present)
        + "prior\n" + " ".join(map(str, counts.prior)) + "\n", encoding="utf-8")
    total = counts.n + counts.n_star
    pooled = [(t + xs) / total for t, xs in zip(counts.group_totals, counts.prior)]
    calls.append(_cli_call(
        "cli/advise-counts", ["advise", "--model", CANCER, "--counts",
                              str(counts_path), "--precision", "full"],
        _advise_check(counts.group_sizes, pooled, counts.n, counts.n_star, "post"),
        path=counts_path))

    model_text = _random_model_text(rng)
    model_path = scratch / "random.model"
    model_path.write_text(model_text, encoding="utf-8")
    parsed = cli.parse_model_text(model_text)
    n, n_star = int(rng.integers(50, 2001)), int(rng.integers(50, 4001))

    def risk_check(result: dict) -> str | None:
        row = _csv_row(result["stdout"])
        for kind in ("present", "prior", "pooled"):
            want = _risk_app_oracle(parsed, kind, n, n_star)
            if not _close(float(row[f"{kind}_app"]), want, 1e-12):
                return f"{kind} risk {row[f'{kind}_app']}, expected {want!r}"
        return None

    def dump_check(result: dict) -> str | None:
        again = cli.parse_model_text(result["stdout"])
        if again != parsed:
            return "dumped model does not parse back to the same model"
        if cli.dump_model_text(again, "bench-random") != result["stdout"]:
            return "dump is not a fixed point"
        return None

    calls.append(_cli_call(
        "cli/risk-model-file",
        ["risk", "--model", str(model_path), "--estimator", "all", "--method",
         "app", "--n", str(n), "--nstar", str(n_star), "--precision", "full"],
        risk_check, path=model_path))
    calls.append(_cli_call(
        "cli/dump-model", ["risk", "--model", str(model_path), "--estimator",
                           "all", "--method", "app", "--n", "1",
                           "--dump-model", "-"],
        dump_check, path=model_path))

    readme = model.SurveyCounts(present=README_PRESENT, prior=README_PRIOR)
    calls += _divergence_calls(models[CANCER], readme, "readme", seed_free=True)
    calls += _divergence_calls(models[CANCER], counts, "seeded")
    return Workload("app-plan", 1, calls, scratch=scratch)


def _divergence_calls(m, counts, label: str, seed_free=False) -> list[Call]:
    truth = m.flat()
    n, n_star, totals = counts.n, counts.n_star, counts.group_totals
    calls = []
    for kind in ("present", "prior", "pooled"):
        def run(kind=kind) -> dict:
            est = estimators.estimate(EstimatorKind(kind), counts)
            kl = divergence.kl_divergence(est.flat(), truth)
            staged = divergence.chain_rule(est, m)
            return {"estimate": est.flat().tolist(), "value": kl,
                    "chain_rule_total": staged.total}

        def check(out: dict, kind=kind) -> str | None:
            want = []
            for row, t, xs in zip(counts.present, totals, counts.prior):
                num, den = {"present": (1, n), "prior": (xs, n_star * t),
                            "pooled": (t + xs, (n + n_star) * t)}[kind]
                want += [(num * x) / den for x in row]
            if out["estimate"] != want:
                return "estimate differs from the closed-form counts ratio"
            kl = math.fsum(q * math.log(q / p) for q, p in zip(want, truth) if q > 0)
            if not _close(out["value"], kl, 1e-12):
                return f"KL {out['value']!r}, expected {kl!r}"
            if not _close(out["chain_rule_total"], kl, 1e-12):
                return f"chain rule total {out['chain_rule_total']!r} != KL {kl!r}"
            return None

        calls.append(Call(f"estimate+kl_divergence+chain_rule/{label}/{kind}", run,
                          check, seed_free,
                          f"estimate({kind}), kl_divergence, chain_rule on the "
                          f"{label} README counts"))
    return calls


WORKLOADS = ("sim-table", "sim-wide", "rss-sim", "app-plan")


def models_for(name: str) -> list[str]:
    return {"sim-table": [CANCER], "sim-wide": [UNIFORM],
            "rss-sim": [CANCER, UNIFORM],
            "app-plan": [UNIFORM, CANCER, HOUSEHOLD]}[name]


def load_models(name: str) -> dict:
    """Load and derive the workload's models (the in-process set-up)."""
    out = {}
    for model_name in models_for(name):
        m = bundled_model(model_name)
        model.derive(m)
        out[model_name] = m
    return out


def build(name: str, seed: int, models: dict, scratch: Path) -> Workload:
    if name == "sim-table":
        return sim_table(seed, models)
    if name == "sim-wide":
        return sim_wide(seed, models)
    if name == "rss-sim":
        return rss_sim(seed, models)
    if name == "app-plan":
        return app_plan(seed, models, scratch)
    raise ValueError(f"unknown workload {name!r}; choices: {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# comparing outputs
# ---------------------------------------------------------------------------

def compare(out: dict, ref: dict) -> str | None:
    """Compare an output with its pinned reference, field by field."""
    if set(out) != set(ref):
        return f"fields {sorted(out)} != reference fields {sorted(ref)}"
    for name, want in ref.items():
        got = out[name]
        rel = REL_TOL.get(name)
        if rel is not None and isinstance(want, float):
            if not _close(got, want, rel):
                return f"{name} {got!r} != reference {want!r}"
        elif got != want:
            return f"{name} differs from the reference"
    return None


def agree_statistically(out: dict, ref: dict) -> str | None:
    """A simulated mean on another seed estimates the same risk as the
    pinned one: they agree within six combined standard errors."""
    if "mean_loss" not in out:
        return None
    spread = 6.0 * math.hypot(out["std_error"], ref["std_error"])
    if abs(out["mean_loss"] - ref["mean_loss"]) > spread:
        return (f"mean {out['mean_loss']!r} is more than 6 standard errors "
                f"from the pinned seed's {ref['mean_loss']!r}")
    return None
