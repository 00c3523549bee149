"""Outside-in layer tracing for the benchmark.

Every span is opened by a wrapper this module installs, from outside,
around a public function of one of the reproducer's layers; nothing
under ``src/`` changes.  Spans (name, start, end, parent) stay in memory
and are written once, as a Perfetto-loadable JSON file, when the run
ends.

Two wrapper kinds:

* **span** wrappers around calls that happen at most a few thousand
  times per run (an evaluation, a lowering, a DP search, a simulation,
  a cache read);
* **hot** wrappers around per-request or per-window calls (metric
  registry accessors, flight-recorder appends, plan construction).
  They never open a span — that would cost more than the work — but add
  their elapsed time to the enclosing span, so self times still
  partition the traced wall exactly.

A layer's self time is its spans' durations minus the time their child
spans and hot calls cover.  Summed over every span under the timed
root, self times add up to the root's duration by construction.

:func:`install_counters` counts DP searches (CROPHE and MAD) and replays
in every sample, traced or not, for the shape guards; the search and
replay spans of :func:`install_tracing` wrap its counting wrappers.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, Dict, List, Optional

_clock = time.perf_counter

#: Span name -> the per-layer self-time metric it feeds.
SELF_METRIC = {
    "bench.timed": "other.self_s",
    "experiments.eval": "experiments.self_s",
    "passes.lower": "passes.lower_s",
    "passes.pipeline": "passes.lower_s",
    "analysis.pass_invariants": "analysis.pass_invariants_s",
    "analysis.sched_gate": "analysis.sched_gate_s",
    "analysis.sim_precheck": "analysis.sim_precheck_s",
    "analysis.other": "other.self_s",
    "sched.search": "sched.search_s",
    "sched.replay": "sched.replay_s",
    "mad.search": "mad.search_s",
    "sim.run": "sim.run_s",
    "dse.get": "dse.get_s",
    "dse.put": "dse.put_s",
    "dse.fingerprint": "dse.fingerprint_s",
    "dse.serialize": "dse.serialize_s",
    "serve.run": "serve.run_s",
    "serve.summary": "serve.summary_s",
    "obs.metric": "obs.metric_s",
    "obs.recorder": "obs.recorder_s",
}

#: The metrics that partition the traced wall (each counted once).
PARTITION = tuple(dict.fromkeys(SELF_METRIC.values()))

#: Analysis verifiers are attributed to the layer that called them.
_ANALYSIS_BUCKET = {
    "passes.lower": "analysis.pass_invariants",
    "passes.pipeline": "analysis.pass_invariants",
    "sched.search": "analysis.sched_gate",
    "mad.search": "analysis.sched_gate",
    "sched.replay": "analysis.sched_gate",
    "sim.run": "analysis.sim_precheck",
}


class Span:
    """One traced call; ``child`` is the time children and hot calls took."""

    __slots__ = ("name", "start", "end", "parent", "child", "hot")

    def __init__(self, name: str, start: float, parent: Optional[int]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child = 0.0
        self.hot: Optional[Dict[str, float]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store with counters, filled by the wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.counts: Dict[str, float] = {}
        self.search_ms: List[float] = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, _clock(), parent))
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int) -> float:
        sp = self.spans[index]
        sp.end = _clock()
        popped = self.stack.pop()
        if popped != index:
            raise RuntimeError(f"span {sp.name} closed out of order")
        if sp.parent is not None:
            self.spans[sp.parent].child += sp.duration
        return sp.duration

    def add_hot(self, metric: str, elapsed: float) -> None:
        if not self.stack:
            return
        sp = self.spans[self.stack[-1]]
        sp.child += elapsed
        if sp.hot is None:
            sp.hot = {}
        sp.hot[metric] = sp.hot.get(metric, 0.0) + elapsed

    def top_name(self) -> Optional[str]:
        return self.spans[self.stack[-1]].name if self.stack else None

    def enclosing(self, names: Dict[str, str]) -> Optional[str]:
        """The value for the innermost open span whose name is in ``names``."""
        for index in reversed(self.stack):
            hit = names.get(self.spans[index].name)
            if hit is not None:
                return hit
        return None

    # -- results ---------------------------------------------------------

    def under(self, root: int) -> List[Span]:
        """Every span with ``root`` as itself or an ancestor."""
        inside = {root}
        out = []
        for index, sp in enumerate(self.spans):
            if index == root or sp.parent in inside:
                inside.add(index)
                out.append(sp)
        return out

    def self_times(self, root: int) -> Dict[str, float]:
        """Per-layer self time over the spans under ``root``."""
        totals = {metric: 0.0 for metric in PARTITION}
        for sp in self.under(root):
            metric = SELF_METRIC.get(sp.name, "other.self_s")
            totals[metric] += sp.duration - sp.child
            for hot_metric, elapsed in (sp.hot or {}).items():
                totals[hot_metric] += elapsed
        return totals

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(sp.duration for sp in self.spans if sp.name == name)

    def perfetto(self) -> Dict[str, Any]:
        """Chrome trace-event document (opens in ui.perfetto.dev)."""
        base = self.spans[0].start if self.spans else 0.0
        events = []
        for sp in self.spans:
            parent = self.spans[sp.parent].name if sp.parent is not None else None
            events.append({
                "name": sp.name,
                "cat": sp.name.split(".")[0],
                "ph": "X",
                "ts": (sp.start - base) * 1e6,
                "dur": sp.duration * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"parent": parent, "self_us": (sp.duration - sp.child) * 1e6},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


# ---------------------------------------------------------------------------
# Wrapper plumbing
# ---------------------------------------------------------------------------


def _patch(owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))


def _spanned(tracer: Tracer, name: Any, after: Optional[Callable] = None):
    """Wrap a callable in a span; ``name`` may be a function of the args.

    A name function returning ``None`` calls through without a span (a
    nested call into the same layer).  ``after(args, result, seconds)``
    records counters once the call returns.
    """

    def make(fn: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            label = name(args) if callable(name) else name
            if label is None:
                return fn(*args, **kwargs)
            index = tracer.open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = tracer.close(index)
            if after is not None:
                after(args, result, seconds)
            return result

        return wrapper

    return make


def _hot(tracer: Tracer, metric: str, counter: str):
    add_hot, counts, clock = tracer.add_hot, tracer.counts, _clock

    def make(fn: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                add_hot(metric, clock() - t0)
                counts[counter] = counts.get(counter, 0) + 1

        return wrapper

    return make


def _same_layer(tracer: Tracer, name: str, prefix: str):
    """Name function: skip the span when already inside ``prefix`` spans."""

    def label(args: Any) -> Optional[str]:
        top = tracer.top_name()
        return None if top is not None and top.startswith(prefix) else name

    return label


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------


def install_counters(counts: Dict[str, float]) -> None:
    """Count DP searches (CROPHE and MAD) and replays into ``counts``."""
    from repro.baselines.mad import MadScheduler
    from repro.sched.scheduler import Scheduler

    def counting(key_of: Callable[[Any], str]):
        def make(fn: Callable) -> Callable:
            def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
                key = key_of(self)
                counts[key] = counts.get(key, 0) + 1
                return fn(self, *args, **kwargs)

            return wrapper

        return make

    _patch(Scheduler, "schedule", counting(
        lambda s: "mad.searches" if isinstance(s, MadScheduler) else "sched.searches"
    ))
    _patch(Scheduler, "replay", counting(lambda s: "sched.replays"))


def install_tracing(tracer: Tracer) -> None:
    """Wrap each layer's public calls (see the module docstring).

    Call after ``install_counters(tracer.counts)``: the search and replay
    spans wrap its counting wrappers and read its counts.
    """
    import repro.analysis.flow as flow
    import repro.analysis.schedule_verify as schedule_verify
    import repro.dse.fingerprint as fingerprint
    import repro.experiments.common as common
    import repro.passes.lowering as lowering
    import repro.passes.pipeline as pipeline
    import repro.sched.plan_memo as plan_memo
    from repro.baselines.mad import MadScheduler
    from repro.dse.cache import ArtifactCache
    from repro.obs.fleet import FlightRecorder
    from repro.obs.metrics import MetricsRegistry
    from repro.sched.dataflow import SpatialGroupPlan
    from repro.sched.scheduler import Scheduler
    from repro.serve.loadgen import LoadGenerator
    from repro.serve.sim import ServeSimulator, ServeSummary
    from repro.sim.engine import SimulationEngine

    count = tracer.count

    # experiments
    _patch(common, "evaluate_workload", _spanned(
        tracer, "experiments.eval", lambda a, r, s: count("experiments.evals")
    ))

    # passes
    _patch(lowering, "lower_workload", _spanned(
        tracer, "passes.lower", lambda a, r, s: count("passes.lowerings")
    ))
    _patch(pipeline.PassPipeline, "run", _spanned(
        tracer, "passes.pipeline", lambda a, r, s: count("passes.pipeline_runs")
    ))

    # analysis, attributed by caller; nested verifier calls run span-free
    def analysis_label(args: Any) -> Optional[str]:
        top = tracer.top_name()
        if top is not None and top.startswith("analysis."):
            return None
        count("analysis.verify_calls")
        return tracer.enclosing(_ANALYSIS_BUCKET) or "analysis.other"

    for module, names in (
        (pipeline, ("verify_graph", "verify_semantics", "verify_flow_graph")),
        (flow, ("verify_levels", "verify_residency", "verify_key_reach",
                "verify_sharing", "verify_flow_graph")),
        (schedule_verify, ("verify_steps", "verify_schedule")),
    ):
        for attr in names:
            _patch(module, attr, _spanned(tracer, analysis_label))

    # sched search / MAD / replay (install_counters counts the calls)
    def searched(args: Any, schedule: Any, seconds: float) -> None:
        sched = args[0]
        if not isinstance(sched, MadScheduler):
            count("sched.windows", sched.stats.get("windows_explored", 0.0))
            tracer.search_ms.append(seconds * 1e3)
        if schedule.degraded:
            count("sched.degraded")

    _patch(Scheduler, "schedule", _spanned(
        tracer,
        lambda a: "mad.search" if isinstance(a[0], MadScheduler) else "sched.search",
        searched,
    ))
    _patch(Scheduler, "replay", _spanned(tracer, "sched.replay"))

    plan_owner = {"sched.search": "sched", "sched.replay": "sched", "mad.search": "mad"}

    def build_plan(fn: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                owner = tracer.enclosing(plan_owner) or "sched"
                count(f"{owner}.plans_built")
                if owner == "sched":
                    count("sched.plan.build_s", _clock() - t0)

        return wrapper

    _patch(SpatialGroupPlan, "__init__", build_plan)

    # sim, plus the priced-vs-simulated totals of the same run() call
    def simulated(args: Any, result: Any, seconds: float) -> None:
        schedule = args[1]
        count("sim.runs")
        count("sim.steps", len(schedule.steps))
        count("model.priced_s", schedule.total_seconds)
        count("model.simulated_s", result.total_seconds)

    _patch(SimulationEngine, "run", _spanned(tracer, "sim.run", simulated))

    # dse
    def got(args: Any, payload: Any, seconds: float) -> None:
        count("dse.gets")
        if payload is not None:
            count("dse.hits")

    _patch(ArtifactCache, "get", _spanned(tracer, "dse.get", got))
    _patch(ArtifactCache, "put", _spanned(
        tracer, "dse.put", lambda a, r, s: count("dse.puts")
    ))
    fp_label = _same_layer(tracer, "dse.fingerprint", "dse.")
    for module, attr in (
        (common, "schedule_fingerprint"),
        (common, "result_fingerprint"),
        (fingerprint, "digest"),
    ):
        _patch(module, attr, _spanned(tracer, fp_label))
    ser_label = _same_layer(tracer, "dse.serialize", "dse.serialize")
    for module, attr in (
        (common, "schedule_to_doc"),
        (common, "schedule_from_doc"),
        (common, "eval_result_to_doc"),
        (common, "eval_result_from_doc"),
        (plan_memo, "skeleton_to_doc"),
        (plan_memo, "skeleton_from_doc"),
    ):
        _patch(module, attr, _spanned(tracer, ser_label))

    # serve
    _patch(LoadGenerator, "generate", _spanned(tracer, "serve.loadgen"))
    _patch(ServeSimulator, "run", _spanned(tracer, "serve.run"))
    summary_label = _same_layer(tracer, "serve.summary", "serve.summary")
    for attr in ("to_json", "to_doc"):
        _patch(ServeSummary, attr, _spanned(tracer, summary_label))

    # obs: per-event calls, so hot wrappers only (the registry accessors
    # do the name formatting and locking; instrument updates stay serve's)
    for attr in ("counter", "gauge", "histogram"):
        _patch(MetricsRegistry, attr, _hot(tracer, "obs.metric_s", "obs.metric_calls"))
    _patch(FlightRecorder, "record", _hot(tracer, "obs.recorder_s", "obs.records"))


def percentile_ms(values: List[float], pct: int) -> float:
    """Exclusive-method percentile (0 when there are fewer than two)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[pct - 1]
