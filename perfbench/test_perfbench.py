"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_package()

import tracing  # noqa: E402
import workloads  # noqa: E402
from surveyrisk import montecarlo  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def app_plan(tmp_path):
    wl = workloads.build("app-plan", run.DEFAULT_SEED,
                         workloads.load_models("app-plan"), tmp_path / "scratch")
    yield wl
    wl.close()


def _small_sim(seed: int) -> workloads.Workload:
    """The first point of sim-table and one solve of rss-sim."""
    table = workloads.build("sim-table", seed, workloads.load_models("sim-table"), None)
    rss = workloads.build("rss-sim", seed, workloads.load_models("rss-sim"), None)
    table.calls = table.calls[:3] + rss.calls[1:2]
    return table


def _reference(wl_name: str) -> dict:
    return run.load_reference(wl_name)


def test_pinned_outputs_pass_and_perturbed_ones_fail(app_plan):
    _, outputs = run.run_pass(app_plan.calls)
    reference = _reference("app-plan")
    assert run.check_outputs(app_plan, run.DEFAULT_SEED, outputs, reference) == {}

    key = "cli/reproduce/2/risk"
    bad = copy.deepcopy(reference)
    entry = bad[str(run.DEFAULT_SEED)][key]
    entry["stdout"] = entry["stdout"].replace("0.0", "0.1", 1)
    problems = run.check_outputs(app_plan, run.DEFAULT_SEED, outputs, bad)
    assert list(problems) == [key]

    # the reproduce tables do not depend on the seed: any seed sees them
    problems = run.check_outputs(app_plan, 12345, outputs, bad)
    assert key in problems


def test_simulated_means_compare_within_1e9_relative():
    wl = _small_sim(run.DEFAULT_SEED)
    _, outputs = run.run_pass(wl.calls)
    merged = _reference("sim-table")
    merged[str(run.DEFAULT_SEED)].update(_reference("rss-sim")[str(run.DEFAULT_SEED)])
    assert run.check_outputs(wl, run.DEFAULT_SEED, outputs, merged) == {}

    key = wl.calls[1].key
    drift = copy.deepcopy(merged)
    drift[str(run.DEFAULT_SEED)][key]["mean_loss"] *= 1 + 1e-12
    assert run.check_outputs(wl, run.DEFAULT_SEED, outputs, drift) == {}
    wrong = copy.deepcopy(merged)
    wrong[str(run.DEFAULT_SEED)][key]["mean_loss"] *= 1 + 1e-8
    assert list(run.check_outputs(wl, run.DEFAULT_SEED, outputs, wrong)) == [key]

    rss_key = wl.calls[3].key
    wrong = copy.deepcopy(merged)
    wrong[str(run.DEFAULT_SEED)][rss_key]["rss"] += 1
    assert list(run.check_outputs(wl, run.DEFAULT_SEED, outputs, wrong)) == [rss_key]


def test_perturbed_reference_raises_error_rate(monkeypatch):
    bad = _reference("app-plan")
    bad[str(run.DEFAULT_SEED)]["cli/reproduce/1/rss-prior"]["stdout"] += "\n"
    monkeypatch.setattr(run, "load_reference", lambda name: bad)
    monkeypatch.setattr(run, "SETUP_CHILDREN", 1)
    result = run.run_workload("app-plan", run.DEFAULT_SEED, 0.1, trace=False)
    assert result["failed"] > 0
    assert not result["correct"]


def test_traced_and_untraced_outputs_are_identical(app_plan):
    for wl in (app_plan, _small_sim(7)):
        _, plain = run.run_pass(wl.calls)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            _, traced = run.run_pass(wl.calls)
        finally:
            tracer.restore()
        assert traced == plain
        assert tracer.spans and not tracer.missing
    assert montecarlo.simulate_risk.__module__ == "surveyrisk.montecarlo"


def test_missing_attribute_gives_absent_metric(app_plan, monkeypatch):
    monkeypatch.delattr(montecarlo, "rel_entr")
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        run.run_pass(app_plan.calls)
    finally:
        tracer.restore()
    assert tracer.missing == {"surveyrisk.montecarlo.rel_entr"}
    metrics = tracing.layer_metrics(tracer, 1, 1.0)
    assert "montecarlo.rel_entr.share" not in metrics
    assert "montecarlo.binom_ppf.share" in metrics


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_emitted_metric_names_match_benchmark_json(monkeypatch, trace, section):
    monkeypatch.setattr(run, "SETUP_CHILDREN", 1)
    monkeypatch.setattr(run, "IMPORTTIME_CHILDREN", 1)
    result = run.run_workload("app-plan", run.DEFAULT_SEED, 0.1, trace=trace)
    assert result["correct"]
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: unit for name, (_, unit) in result["metrics"].items()} == declared


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_both_seeds_are_pinned_for_every_call(name, tmp_path):
    reference = _reference(name)
    assert set(reference) == {str(run.DEFAULT_SEED), str(run.HELD_OUT_SEED)}
    for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
        wl = workloads.build(name, seed, workloads.load_models(name), tmp_path)
        wl.close()
        keys = [c.key for c in wl.calls]
        assert len(set(keys)) == len(keys)
        assert set(reference[str(seed)]) == set(keys)


def test_spec_covers_every_declared_metric_and_workload():
    spec = json.loads(run.SPEC.read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    assert {m["name"]: m["unit"] for m in spec["metrics"]} == declared
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "app-plan",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
