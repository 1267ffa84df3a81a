"""Spans around calls at the package's module boundaries, for the traced run.

The tracer replaces module attributes as their callers see them (for
example ``planning.simulate_risk``, the name the solver calls, and
``montecarlo.binom``, the distribution object the engine draws from) with
wrappers that record a span: name, start, end, parent and a few fields
read from the call.  Spans stay in memory until the run writes them out.
Nothing under ``src/`` changes; ``restore`` puts every original back.

An attribute that no longer exists is recorded in ``missing`` and its
metrics are left out, so a refactor that removes a name costs a metric,
not the run.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from surveyrisk import (
    asymptotics,
    cli,
    divergence,
    estimators,
    model,
    montecarlo,
    planning,
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    #: process CPU seconds while the span was open (simulate_risk only)
    cpu: float | None = None
    fields: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name: str, fn, args, kwargs, cpu=False, fields=None):
        """Run fn(*args, **kwargs) inside a span.  A worker thread's
        outermost span hangs under the main thread's innermost one."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        cpu0 = time.process_time() if cpu else None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        span = Span(span_id, name, start, end, parent,
                    None if cpu0 is None else time.process_time() - cpu0)
        if fields is not None:
            span.fields = fields(args, kwargs, result)
        self.spans.append(span)
        return result

    def wrap(self, name: str, fn, cpu=False, fields=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, cpu, fields)
        traced.__wrapped__ = fn
        return traced

    def patch(self, module, attr: str, make) -> None:
        """Replace ``module.attr`` with ``make(original)``."""
        label = f"{module.__name__}.{attr}"
        if not hasattr(module, attr):
            self.missing.add(label)
            return
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, make(original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "cpu": s.cpu, **s.fields}) + "\n")


class _TracedDistribution:
    """Stands in for ``scipy.stats.binom`` inside ``montecarlo``: ``ppf``
    is traced, everything else passes through."""

    def __init__(self, tracer: Tracer, inner) -> None:
        self._ppf = tracer.wrap("montecarlo.binom_ppf", inner.ppf)
        self._inner = inner

    def ppf(self, *args, **kwargs):
        return self._ppf(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _sim_fields(caller: str):
    def fields(args, kwargs, r) -> dict:
        return {"caller": caller, "kind": r.kind.value, "reps": r.replications,
                "discard_rate": r.discard_rate}
    return fields


def _rss_fields(args, kwargs, result) -> dict:
    query = args[0] if args else kwargs.get("query")
    return {"method": str(getattr(query, "method", ""))}


#: (span name, modules whose attribute of that name is wrapped, attribute)
_FUNCTIONS = (
    ("asymptotics.risk_app", (asymptotics, cli), "risk_app"),
    ("model.derive", (model, cli, planning), "derive"),
    ("planning.advise", (planning, cli), "advise"),
    ("planning.advise", (planning, cli), "advise_from_marginals"),
    ("cli.run", (cli,), "run"),
    ("estimators.estimate", (estimators,), "estimate"),
    ("divergence.kl_divergence", (divergence,), "kl_divergence"),
    ("divergence.chain_rule", (divergence,), "chain_rule"),
)


def install(tracer: Tracer) -> None:
    for caller in (montecarlo, planning, cli):
        tracer.patch(caller, "simulate_risk", lambda f, c=caller: tracer.wrap(
            "montecarlo.simulate_risk", f, cpu=True,
            fields=_sim_fields(c.__name__.rsplit(".", 1)[-1])))
    for caller in (planning, cli):
        tracer.patch(caller, "required_sample_size", lambda f: tracer.wrap(
            "planning.required_sample_size", f, fields=_rss_fields))
    tracer.patch(montecarlo, "binom", lambda d: _TracedDistribution(tracer, d))
    tracer.patch(montecarlo, "rel_entr",
                 lambda f: tracer.wrap("montecarlo.rel_entr", f))
    for name, modules, attr in _FUNCTIONS:
        for module in modules:
            tracer.patch(module, attr, lambda f, n=name: tracer.wrap(n, f))


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of the traced passes
# ---------------------------------------------------------------------------

def layer_metrics(tracer: Tracer, passes: int,
                  wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}; counts and busy times
    are per pass of the workload's call list, and ``wall_s`` is the
    untraced seconds per pass."""
    by_id = {s.id: s for s in tracer.spans}
    named: dict[str, list[Span]] = {}
    for s in tracer.spans:
        named.setdefault(s.name, []).append(s)

    def outermost(name: str) -> list[Span]:
        # a parent that raised left no span
        return [s for s in named.get(name, [])
                if getattr(by_id.get(s.parent), "name", None) != name]

    def wrapped(*labels: str) -> bool:
        return not any(label in tracer.missing for label in labels)

    out: dict[str, tuple[float, str]] = {}
    sims = named.get("montecarlo.simulate_risk", [])
    sim_wall = sum(s.seconds for s in sims)
    sim_cpu = sum(s.cpu for s in sims)
    block = montecarlo.BLOCK_SIZE
    if wrapped("surveyrisk.montecarlo.simulate_risk"):
        for kind in ("present", "prior", "pooled"):
            mine = [s for s in sims if s.fields["kind"] == kind]
            blocks = sum(-(-s.fields["reps"] // block) for s in mine)
            out[f"montecarlo.{kind}.ms_per_block"] = (
                1e3 * sum(s.seconds for s in mine) / blocks if blocks else 0.0, "ms")
        out["montecarlo.simulate_risk.calls"] = (len(sims) / passes, "count")
        out["montecarlo.simulate_risk.busy_s"] = (sim_wall / passes, "s")
        out["montecarlo.busy_over_wall"] = (
            sim_cpu / sim_wall if sim_wall else 0.0, "ratio")
        reps = sum(s.fields["reps"] for s in sims)
        discarded = sum(s.fields["reps"] * s.fields["discard_rate"]
                        / (1.0 - s.fields["discard_rate"]) for s in sims)
        out["montecarlo.discarded"] = (round(discarded) / passes, "count")
        out["montecarlo.accept_ratio"] = (
            reps / (reps + discarded) if reps else 1.0, "ratio")
        out["montecarlo.reps_per_s"] = (reps / passes / wall_s, "1/s")
    for short, label in (("binom_ppf", "binom"), ("rel_entr", "rel_entr")):
        if wrapped(f"surveyrisk.montecarlo.{label}"):
            busy = sum(s.seconds for s in named.get(f"montecarlo.{short}", []))
            out[f"montecarlo.{short}.busy_s"] = (busy / passes, "s")
            out[f"montecarlo.{short}.share"] = (
                busy / sim_cpu if sim_cpu else 0.0, "ratio")

    if wrapped("surveyrisk.planning.required_sample_size",
               "surveyrisk.planning.simulate_risk"):
        solves = outermost("planning.required_sample_size")
        probes = [s for s in sims if s.fields["caller"] == "planning"]
        out["planning.solves"] = (len(solves) / passes, "count")
        out["planning.probes_per_solve"] = (
            len(probes) / len(solves) if solves else 0.0, "count")
        out["planning.probe_ms_p50"] = (
            1e3 * statistics.median(s.seconds for s in probes) if probes else 0.0,
            "ms")
        out["planning.solve_s_p50"] = (
            statistics.median(s.seconds for s in solves) if solves else 0.0, "s")
        app = [s for s in solves if s.fields["method"] == "app"]
        out["planning.required_sample_size_app.us_per_call"] = (
            1e6 * sum(s.seconds for s in app) / len(app) if app else 0.0, "us")

    for name, unit, scale, labels in (
        ("asymptotics.risk_app", "us", 1e6, ("surveyrisk.asymptotics.risk_app",)),
        ("model.derive", "us", 1e6, ("surveyrisk.model.derive",)),
        ("planning.advise", "us", 1e6, ("surveyrisk.planning.advise",
                                        "surveyrisk.planning.advise_from_marginals")),
        ("cli.run", "ms", 1e3, ("surveyrisk.cli.run",)),
        ("estimators.estimate", "us", 1e6, ("surveyrisk.estimators.estimate",)),
        ("divergence.kl_divergence", "us", 1e6,
         ("surveyrisk.divergence.kl_divergence",)),
    ):
        if wrapped(*labels):
            spans = outermost(name)
            out[f"{name}.{unit}_per_call"] = (
                scale * sum(s.seconds for s in spans) / len(spans) if spans else 0.0,
                unit)
    return out
