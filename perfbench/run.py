"""surveyrisk benchmark: fixed public-API call lists, timed, with every output checked.

    python3 perfbench/run.py --workload sim-table --seed 0 --seconds 10 --trace 0

runs one workload (``sim-table``, ``sim-wide``, ``rss-sim``, ``app-plan``,
or ``all`` for each in turn, each in its own process) from the root of a
checkout, against the package sources in ``src/``.  A run:

1. loads and derives the workload's models and builds its calls from the
   seed (the seed is the only varied input; it is also the simulation
   seed);
2. makes one warm-up pass over the calls and checks every output: against
   the pinned reference when the seed is pinned, else against invariants
   and, for simulated means, against the pinned default seed within six
   standard errors;
3. measures set-up in fresh child interpreters, one after another;
4. repeats the call list, closed loop, for ``--seconds`` seconds; every
   pass's outputs must equal the warm-up pass's exactly;
5. prints each metric by name and unit, then, as its last line, one JSON
   object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s`` (median
seconds per pass), ``setup_s`` (median seconds for a fresh interpreter to
import the package and load and derive the workload's models) and
``peak_rss_mb``.  With ``--trace 1`` untraced and traced passes alternate;
the metrics are the per-layer ones from the traced passes' spans (see
``tracing.py``), the ``-X importtime`` figures and the tracing overhead.
``failed / attempted`` is the error rate.

``--pin`` writes the warm-up outputs to ``reference/<workload>.json`` for
the seed instead of timing; ``--write-spec`` rewrites the generated parts
of ``spec.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference"
SPEC = HERE / "spec.json"

#: the workload seed used when --seed is not given, and a held-out one;
#: both have pinned reference outputs
DEFAULT_SEED = 0
HELD_OUT_SEED = 20190415

#: fresh interpreters per run for setup_s, and for the -X importtime figures
SETUP_CHILDREN = 5
IMPORTTIME_CHILDREN = 3
IMPORTTIME_MODULES = ("surveyrisk.montecarlo", "surveyrisk.asymptotics",
                      "scipy.stats", "surveyrisk")


def _import_package():
    if not (SRC / "surveyrisk" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources at {SRC}; run from a checkout "
                 f"of the repository")
    sys.path.insert(0, str(SRC))
    import surveyrisk
    if Path(surveyrisk.__file__).resolve().parent != SRC / "surveyrisk":
        sys.exit(f"perfbench: imported surveyrisk from {surveyrisk.__file__}, "
                 f"not from {SRC}")


class Failure:
    """A call that raised; stands in for its output."""

    def __init__(self, exc: BaseException) -> None:
        self.message = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other) -> bool:
        return isinstance(other, Failure) and other.message == self.message


def run_pass(calls) -> tuple[float, list]:
    outputs = []
    start = time.perf_counter()
    for call in calls:
        try:
            outputs.append(call.run())
        except Exception as exc:  # one failing call must not stop the run
            traceback.print_exc(file=sys.stderr)
            outputs.append(Failure(exc))
    return time.perf_counter() - start, outputs


def load_reference(workload: str) -> dict:
    path = REFERENCE / f"{workload}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def check_outputs(wl, seed: int, outputs: list, reference: dict) -> dict[str, str]:
    """Problems by call key; an empty dict means every output is correct."""
    from workloads import agree_statistically, compare

    pinned = reference.get(str(seed))
    default = reference.get(str(DEFAULT_SEED))
    problems: dict[str, str] = {}
    if default is None:
        problems["reference"] = f"no pinned outputs for seed {DEFAULT_SEED}"
    by_key = {}
    for call, out in zip(wl.calls, outputs):
        if isinstance(out, Failure):
            problems[call.key] = out.message
            continue
        by_key[call.key] = out
        problem = call.check(out) if call.check is not None else None
        if problem is None:
            if pinned is not None:
                ref = pinned.get(call.key)
                problem = "no pinned output" if ref is None else compare(out, ref)
            elif default is not None and call.key in default:
                ref = default[call.key]
                problem = (compare(out, ref) if call.seed_free
                           else agree_statistically(out, ref))
        if problem is not None:
            problems[call.key] = problem
    for cross in wl.cross_checks:
        for key, problem in cross(by_key).items():
            problems.setdefault(key, problem)
    return problems


# ---------------------------------------------------------------------------
# fresh-interpreter measurements
# ---------------------------------------------------------------------------

def _setup_code(model_names: list[str]) -> str:
    return (
        f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
        "import surveyrisk\n"
        f"for name in {model_names!r}:\n"
        "    surveyrisk.derive(surveyrisk.bundled_model(name))\n"
    )


def measure_setup(model_names: list[str]) -> float:
    """Median wall seconds of fresh interpreters that import the package
    and load and derive the models; the children run one at a time."""
    code = _setup_code(model_names)
    times = []
    for _ in range(SETUP_CHILDREN):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure_import_ms(model_names: list[str]) -> dict[str, float]:
    """Median cumulative ``-X importtime`` milliseconds per module."""
    code = _setup_code(model_names)
    samples: dict[str, list[float]] = {m: [] for m in IMPORTTIME_MODULES}
    for _ in range(IMPORTTIME_CHILDREN):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              cwd=ROOT, check=True, capture_output=True,
                              text=True, stdin=subprocess.DEVNULL)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, module = line.split("|")
            module = module.strip()
            if module in samples and cumulative.strip().isdigit():
                samples[module].append(int(cumulative) / 1e3)
    return {m: statistics.median(v) for m, v in samples.items() if v}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracing
    import workloads

    models = workloads.load_models(name)
    wl = workloads.build(name, seed, models, OUT / f"tmp-{os.getpid()}")
    try:
        reference = load_reference(name)
        _, first = run_pass(wl.calls)
        problems = check_outputs(wl, seed, first, reference)

        if trace:
            import_ms = measure_import_ms(workloads.models_for(name))
        else:
            setup_s = measure_setup(workloads.models_for(name))

        plain: list[float] = []
        traced: list[float] = []
        tracer = tracing.Tracer()
        failed_later = 0
        deadline = time.perf_counter() + seconds
        while True:
            use_tracer = trace and len(traced) < len(plain)
            if use_tracer:
                tracing.install(tracer)
            try:
                elapsed, outputs = run_pass(wl.calls)
            finally:
                tracer.restore()
            (traced if use_tracer else plain).append(elapsed)
            failed_later += sum(
                out != ref or call.key in problems
                for call, out, ref in zip(wl.calls, outputs, first))
            if time.perf_counter() >= deadline and len(traced) >= trace:
                break
    finally:
        wl.close()

    passes = len(plain) + len(traced)
    wall_s = statistics.median(plain)
    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        metrics.update(tracing.layer_metrics(tracer, len(traced), wall_s))
        metrics["trace.overhead_s"] = (statistics.median(traced) - wall_s, "s")
        for module, ms in import_ms.items():
            metrics[f"setup.import_ms.{module}"] = (ms, "ms")
        tracer.dump(OUT / f"spans-{name}-seed{seed}.jsonl")
    else:
        metrics["wall_s"] = (wall_s, "s")
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")

    attempted = (passes + 1) * len(wl.calls)
    failed = len(problems) + failed_later
    for key, problem in sorted(problems.items()):
        print(f"FAILED {key}: {problem}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "passes": passes, "metrics": metrics}


def report(name: str, result: dict) -> None:
    print(f"# workload {name}: {result['passes']} timed passes, "
          f"error_rate = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} calls)")
    for metric, (value, unit) in result["metrics"].items():
        print(f"{metric} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": v, "unit": u}
                    for m, (v, u) in result["metrics"].items()},
    }))


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process so that its peak
    memory is its own."""
    import workloads

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, stdin=subprocess.DEVNULL)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(total))
    return 0


def pin(name: str, seed: int) -> None:
    """Record the warm-up outputs of the workload at this seed."""
    import workloads

    models = workloads.load_models(name)
    wl = workloads.build(name, seed, models, OUT / f"tmp-{os.getpid()}")
    try:
        _, outputs = run_pass(wl.calls)
    finally:
        wl.close()
    failures = [c.key for c, o in zip(wl.calls, outputs) if isinstance(o, Failure)]
    if failures:
        sys.exit(f"perfbench: cannot pin, calls raised: {failures}")
    reference = load_reference(name)
    reference[str(seed)] = {c.key: o for c, o in zip(wl.calls, outputs)}
    REFERENCE.mkdir(exist_ok=True)
    (REFERENCE / f"{name}.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def write_spec() -> None:
    """Regenerate the workload call lists and the environment in spec.json;
    the metric catalogue there is kept as written."""
    import numpy
    import scipy
    import workloads

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in benchmark["workloads"]}
    spec["environment"] = {
        "nproc": workloads.nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    spec["workloads"] = []
    for name in workloads.WORKLOADS:
        models = workloads.load_models(name)
        wl = workloads.build(name, DEFAULT_SEED, models, OUT / f"tmp-{os.getpid()}")
        wl.close()
        spec["workloads"].append({
            "name": name, "why": why[name], "workers": wl.workers,
            "loop": "closed, one caller", "models": workloads.models_for(name),
            "calls": [c.describe for c in wl.calls],
        })
    SPEC.write_text(json.dumps(spec, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true")
    parser.add_argument("--write-spec", action="store_true")
    args = parser.parse_args(argv)
    _import_package()
    import workloads

    if args.write_spec:
        write_spec()
        return 0
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.pin:
        pin(args.workload, args.seed)
        return 0
    report(args.workload, run_workload(args.workload, args.seed, args.seconds,
                                       bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
