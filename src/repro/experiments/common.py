"""Shared evaluation pipeline: workload -> schedule -> simulate.

A :class:`DesignPoint` names (hardware, dataflow) — e.g. "ARK + MAD" or
"CROPHE-64 full" — and :func:`evaluate_workload` runs the pipeline:

1. build the workload's segment graphs with the design's dataflow
   options (NTT decomposition and hybrid rotation are CROPHE-only); the
   emitters' segments stand in for the paper's pre-partitioning;
2. schedule each distinct segment once (CROPHE scheduler or MAD):
   structural twins share one schedule through its fingerprint and
   identical windows share one plan through the plan memo, the paper's
   redundant-subgraph merging;
3. simulate each segment and sum time and traffic over repeats: a
   (schedule fingerprint, repeat) pair the process has simulated
   before reuses that run's result;
4. for data-parallel CROPHE-p, share the constant (evk) fetches across
   clusters.

Section V-D's enumeration runs here and nowhere else: each r_hyb in
:data:`R_HYB_CANDIDATES`, the four-step NTT split (at sqrt(N)) on and
off, and the cluster counts, keeping the fastest.

Results and schedules are cached through the content-addressed
:mod:`repro.dse` cache: fingerprints over (design, workload, params,
scheduler knobs) key evaluation results, and (graph structural hash,
hardware, dataflow, knobs) key segment schedules — the figure/table
modules revisit the same points within a run, and with a cache
directory configured (``REPRO_DSE_CACHE`` / the runner's
``--cache-dir``) across runs and processes too.  Live objects sit in
module-level front maps (documents cannot hold live plan objects);
the documents live on disk in :data:`repro.dse.cache.CACHE`.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

from repro.baselines.mad import MadScheduler
from repro.dse.cache import CACHE
from repro.dse.fingerprint import (
    hw_payload,
    result_fingerprint,
    schedule_fingerprint,
)
from repro.obs.events import SINK as _EVENT_SINK
from repro.obs.tracer import span as _span
from repro.resilience.errors import (
    CacheError,
    ConfigError,
    InfeasibleScheduleError,
    ReproError,
)
from repro.fhe.params import CKKSParams
from repro.hw.config import HardwareConfig
from repro.sched.dataflow import Schedule
from repro.sched.plan_memo import MEMO as PLAN_MEMO
from repro.sched.scheduler import Scheduler, SchedulerConfig
from repro.sched.serialize import (
    eval_result_from_doc,
    eval_result_to_doc,
    schedule_from_doc,
    schedule_to_doc,
)
from repro.sim.engine import SimResult, SimulationEngine
from repro.sim.stats import TrafficReport, UtilizationReport
from repro.workloads.base import WorkloadOptions

#: r_hyb values enumerated for hybrid rotation (Section V-D: one graph
#: per candidate, scheduled separately, fastest kept).
R_HYB_CANDIDATES = (1, 4, 8)

#: What rotation strategy "auto" enumerates (fastest kept).
AUTO_ROTATION_STRATEGIES = ("min-ks", "hoisting")


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated design: hardware plus dataflow discipline.

    Attributes:
        label: display name (e.g. "ARK+MAD", "CROPHE-64", "CROPHE-p-64").
        hw: hardware configuration.
        dataflow: "mad" or "crophe".
        use_ntt_decomposition: emit four-step NTTs (CROPHE only).
        use_hybrid_rotation: use hybrid baby-step rotations (CROPHE
            only; MAD and "Base" use hoisting, Min-KS is also available).
        rotation_strategy: strategy when hybrid is off — "min-ks",
            "hoisting", or "auto" (pick the faster of the two, the way
            the baselines' own tuned flows would).
        clusters: maximum data-parallel cluster count (CROPHE-p); the
            evaluation auto-selects the best count in {1, clusters}, the
            way the paper's scheduler chooses the partitioning.
    """

    label: str
    hw: HardwareConfig
    dataflow: str = "crophe"
    use_ntt_decomposition: bool = True
    use_hybrid_rotation: bool = True
    rotation_strategy: str = "auto"
    clusters: int = 1


@dataclass
class EvalResult:
    """Aggregated outcome for one (design, workload) pair."""

    label: str
    workload: str
    seconds: float
    utilization: UtilizationReport
    traffic: TrafficReport
    num_groups: int
    segment_seconds: Dict[str, float] = field(default_factory=dict)
    #: Whether any segment schedule came from the greedy budget fallback.
    degraded: bool = False

    @property
    def ms(self) -> float:
        return self.seconds * 1e3


#: Live results in front of the doc cache, keyed by result
#: fingerprint.  Repeated lookups within a process return the *same*
#: object (callers rely on identity); the doc tier serves other
#: processes and later runs.
_RESULT_LIVE: Dict[str, EvalResult] = {}

#: Live schedules in front of the doc cache, keyed by schedule
#: fingerprint; the graph object is retained so the plan objects' uids
#: stay valid.  Workload builds are memoized, so the same segment graph
#: recurs across workloads (bootstrap inside HELR/ResNet) and across
#: r_hyb/cluster variants; structural twins from *different* builds
#: share one entry too (the fingerprint is structural, not id-based).
_SCHED_LIVE: Dict[str, Tuple[Schedule, object]] = {}

#: Simulated results by (schedule fingerprint, repeat, events
#: collected).  The fingerprint fixes the live schedule (one object per
#: fingerprint above) and every engine setting: the hardware, the
#: ``constant_share`` and the residency fraction (``keep_fraction``) of
#: the scheduler config it hashes.  The repeat count is the engine's
#: only other input, and a run that collects events never reuses one
#: simulated without them.
_SIM_LIVE: Dict[Tuple[str, int, bool], SimResult] = {}


def default_scheduler_config() -> SchedulerConfig:
    """Scheduler knobs with search budgets taken from the environment.

    ``REPRO_MAX_SEARCH_SECONDS`` / ``REPRO_MAX_SEARCH_NODES`` bound each
    DP search; exhausted budgets degrade to the greedy fallback (the
    schedule is tagged, never missing). Unset variables mean unbounded —
    the historical behaviour.
    """
    def _parse(name: str, cast) -> Optional[float]:
        raw = os.environ.get(name, "").strip()
        if not raw:
            return None
        try:
            return cast(raw)
        except ValueError:
            raise ConfigError(name, raw, f"must parse as {cast.__name__}")

    return SchedulerConfig(
        max_search_seconds=_parse("REPRO_MAX_SEARCH_SECONDS", float),
        max_search_nodes=_parse("REPRO_MAX_SEARCH_NODES", int),
    )


def _schedule_segment(graph, hw, dataflow, config, n_split):
    """The segment's schedule fingerprint and its one live schedule."""
    fp = schedule_fingerprint(graph, hw, dataflow, config, n_split)
    live = _SCHED_LIVE.get(fp)
    if live is not None:
        CACHE.bump("hits")
        return fp, live[0]
    doc = CACHE.get("schedule", fp)
    if doc is not None:
        try:
            schedule = schedule_from_doc(
                doc, graph, hw, config=config,
                dataflow=dataflow, n_split=n_split,
            )
        except ReproError as exc:
            # A cover that no longer replays (foreign or stale despite a
            # matching envelope) degrades to a fresh search, never a
            # crash — the same contract as a corrupt file.
            warnings.warn(
                CacheError(
                    "cached schedule failed to replay; re-searching",
                    reason=f"replay-failed: {exc}",
                ),
                stacklevel=2,
            )
        else:
            _SCHED_LIVE[fp] = (schedule, graph)
            return fp, schedule
    if dataflow == "mad":
        schedule = MadScheduler(graph, hw, config).schedule()
    else:
        schedule = Scheduler(graph, hw, config, n_split=n_split).schedule()
    _SCHED_LIVE[fp] = (schedule, graph)
    CACHE.put(
        "schedule", fp,
        schedule_to_doc(schedule, dataflow=dataflow, n_split=n_split),
        meta={"graph": graph.name, "hw": hw.name, "dataflow": dataflow},
    )
    return fp, schedule


def _workload_options(
    point: DesignPoint,
    params: CKKSParams,
    r_hyb: int,
    decompose_ntt: bool,
) -> WorkloadOptions:
    split = None
    if decompose_ntt:
        root = 1 << (params.log_n // 2)
        split = (root, params.n // root)
    strategy = (
        "hybrid" if (point.dataflow == "crophe" and point.use_hybrid_rotation)
        else point.rotation_strategy
    )
    return WorkloadOptions(
        ntt_split=split, rotation_strategy=strategy, r_hyb=r_hyb
    )


def _evaluate_once(
    point: DesignPoint,
    workload_name: str,
    params: CKKSParams,
    r_hyb: int,
    decompose_ntt: bool,
    clusters: int,
    base_config: SchedulerConfig,
) -> EvalResult:
    options = _workload_options(point, params, r_hyb, decompose_ntt)
    # Emit, lower with the pipeline invariants enforced, memoized per
    # distinct structure; looked up on its module so wrappers see it.
    from repro.passes import lowering

    workload = lowering.lower_workload(workload_name, params, options)
    # Data-parallel CROPHE-p: the clusters process independent inputs
    # interleaved on the chip, fetching each constant (evk, BConv matrix,
    # plaintext) once and multicasting it.  That is modeled by the
    # constant_share divisor, not by slicing the chip, so the per-item
    # latency reflects exactly the sharing benefit of Section VII-A.
    config = replace(base_config, constant_share=clusters)
    residency = base_config.keep_fraction
    engine = SimulationEngine(
        point.hw,
        collect_trace=_EVENT_SINK.enabled,
        residency_fraction=residency,
        constant_share=clusters,
    )
    total_seconds = 0.0
    total_groups = 0
    traffic = TrafficReport()
    util_weighted = {"pe": 0.0, "noc": 0.0, "sram": 0.0, "dram": 0.0}
    segment_seconds: Dict[str, float] = {}

    degraded = False
    eval_span = _span(
        "eval.variant", design=point.label, workload=workload_name,
        r_hyb=r_hyb, clusters=clusters,
    )
    with eval_span:
        for segment in workload.segments:
            fp, cached = _schedule_segment(
                segment.graph, point.hw, point.dataflow, config,
                options.ntt_split,
            )
            degraded = degraded or cached.degraded
            run_key = (fp, segment.repeat, engine.collect_trace)
            result = _SIM_LIVE.get(run_key)
            if result is None:
                # Shallow copy: segment repeat counts differ across
                # workloads.
                schedule = Schedule(
                    steps=cached.steps, repeat=segment.repeat,
                    degraded=cached.degraded,
                    degraded_reason=cached.degraded_reason,
                )
                result = _SIM_LIVE[run_key] = engine.run(schedule)
            if _EVENT_SINK.enabled:
                _EVENT_SINK.add_run(
                    result.events,
                    label=f"{point.label}/{workload_name}/{segment.name}",
                )
            total_seconds += result.total_seconds
            total_groups += result.num_groups
            traffic.add(result.traffic)
            segment_seconds[segment.name] = (
                segment_seconds.get(segment.name, 0.0) + result.total_seconds
            )
            for key, value in (
                ("pe", result.utilization.pe),
                ("noc", result.utilization.noc),
                ("sram", result.utilization.sram_bw),
                ("dram", result.utilization.dram_bw),
            ):
                util_weighted[key] += value * result.total_seconds
        eval_span.set("seconds", total_seconds)

    if total_seconds > 0:
        util = UtilizationReport(
            pe=util_weighted["pe"] / total_seconds,
            noc=util_weighted["noc"] / total_seconds,
            sram_bw=util_weighted["sram"] / total_seconds,
            dram_bw=util_weighted["dram"] / total_seconds,
        )
    else:
        util = UtilizationReport()
    return EvalResult(
        label=point.label,
        workload=workload_name,
        seconds=total_seconds,
        utilization=util,
        traffic=traffic,
        num_groups=total_groups,
        segment_seconds=segment_seconds,
        degraded=degraded,
    )


def evaluate_workload(
    point: DesignPoint,
    workload_name: str,
    params: CKKSParams,
    scheduler_config: Optional[SchedulerConfig] = None,
) -> EvalResult:
    """Evaluate one design on one workload (best r_hyb kept for hybrid).

    Results flow through the content-addressed cache: a warm hit (live
    map or disk) returns without building graphs or running the
    scheduler/simulator at all — zero DP searches.
    """
    base_config = scheduler_config or default_scheduler_config()
    fp = result_fingerprint(
        _design_payload(point), workload_name, params, base_config
    )
    live = _RESULT_LIVE.get(fp)
    if live is not None:
        CACHE.bump("hits")
        CACHE.flush_stats()
        return live
    doc = CACHE.get("result", fp)
    if doc is not None:
        restored = _restore_result(doc)
        if restored is not None:
            _RESULT_LIVE[fp] = restored
            CACHE.flush_stats()
            return restored
    hybrid = point.dataflow == "crophe" and point.use_hybrid_rotation
    best: Optional[EvalResult] = None
    if hybrid:
        # Enumerate r_hyb per Section V-D (r_hyb=1 degenerates to pure
        # Min-KS, large r_hyb to pure Hoisting) and keep the fastest.
        variants = [(point, r) for r in R_HYB_CANDIDATES]
    elif point.rotation_strategy == "auto":
        # Baselines pick whichever of their published rotation flows wins
        # at this SRAM size: Min-KS (ARK) for large buffers, Hoisting
        # (MAD) for small ones (Section V-C).
        variants = [
            (replace(point, rotation_strategy=s), 1)
            for s in AUTO_ROTATION_STRATEGIES
        ]
    else:
        variants = [(point, 1)]
    # The scheduler decides per graph whether the four-step decomposition
    # pays off (Section V-D enumerates splits; we enumerate on/off).
    splits = (True, False) if (
        point.dataflow == "crophe" and point.use_ntt_decomposition
    ) else (False,)
    cluster_options = [c for c in (1, 2, 4) if c <= point.clusters]
    last_error: Optional[InfeasibleScheduleError] = None
    for variant_point, r_hyb in variants:
        for decompose in splits:
            for clusters in cluster_options:
                try:
                    result = _evaluate_once(
                        variant_point, workload_name, params, r_hyb,
                        decompose, clusters, base_config,
                    )
                except InfeasibleScheduleError as exc:
                    # One infeasible variant is survivable as long as
                    # some other (r_hyb, split, cluster) choice works.
                    last_error = exc
                    continue
                if best is None or result.seconds < best.seconds:
                    best = result
    if best is None:
        if last_error is not None:
            raise last_error
        raise InfeasibleScheduleError(
            f"no evaluated variant produced a schedule for "
            f"{point.label} on {workload_name}"
        )
    _RESULT_LIVE[fp] = best
    CACHE.put(
        "result", fp, eval_result_to_doc(best),
        meta={"label": point.label, "workload": workload_name,
              "params": params.name},
    )
    CACHE.flush_stats()
    return best


def _design_payload(point: DesignPoint) -> Dict[str, Any]:
    """The fingerprintable description of a design point."""
    return {
        "label": point.label,
        "dataflow": point.dataflow,
        "use_ntt_decomposition": point.use_ntt_decomposition,
        "use_hybrid_rotation": point.use_hybrid_rotation,
        "rotation_strategy": point.rotation_strategy,
        "clusters": point.clusters,
        "hw": hw_payload(point.hw),
    }


def _restore_result(doc: Any) -> Optional[EvalResult]:
    """Rebuild a cached result document, tolerating bad payloads."""
    try:
        return eval_result_from_doc(doc)
    except (ReproError, KeyError, TypeError, ValueError) as exc:
        warnings.warn(
            CacheError(
                "cached result failed to restore; re-evaluating",
                reason=f"restore-failed: {exc}",
            ),
            stacklevel=3,
        )
        return None


def clear_cache() -> None:
    """Drop all in-memory cached results, schedules, simulations and
    plans.

    Clears the live front maps (results, schedules, and the simulated
    result of each (schedule, repeat) pair), the lowering memo, and the
    structural plan memo with its window tables (tests and ``python -m
    repro.obs trace``, which must measure search and simulation work
    from cold).  On-disk entries survive — remove the cache directory
    to go fully cold.
    """
    from repro.passes.lowering import clear_lowering_memo

    _RESULT_LIVE.clear()
    _SCHED_LIVE.clear()
    _SIM_LIVE.clear()
    clear_lowering_memo()
    PLAN_MEMO.clear()


def speedup(baseline: EvalResult, contender: EvalResult) -> float:
    """How much faster the contender is (>1 means faster)."""
    return baseline.seconds / contender.seconds
