"""The group-level event simulator.

For each scheduled step the engine derives per-resource busy times:

* **PEs** — every operator occupies its allocated PEs for its pipelined
  cycle count; PE busy time integrates (pes x cycles) over operators.
* **NoC** — matched producer->consumer edges ship their tensor over the
  mesh; the busy time scales with bytes x hops over total link capacity
  (the mean hop count of the operator placement, :func:`~repro.sched.
  mapper.map_group`, kept on the step's window template).
* **SRAM / DRAM / transpose** — queue the step's effective byte counts
  on the respective bandwidths.

PE, DRAM, SRAM and transpose seconds come from the DP's cost model
(:meth:`repro.sched.dataflow.GroupPricing.terms`), so the engine and the
search price a step the same way except for the NoC term (mapped hops
here, a fixed serialization factor in the DP), the barrier, and the
warm-repeat constant residency.

The step's duration is the slowest resource (operators stream in a fine
-grained pipeline, so resources overlap within a step), plus a
synchronous group-switch barrier (Section IV-A).  Utilization =
integrated busy time / (duration x capacity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.resilience.errors import ConfigError, SimulationError

from repro.hw.config import HardwareConfig
from repro.hw.noc import MeshNoc
from repro.hw.pe import operator_cycles
from repro.ir.operators import OpKind
from repro.obs.metrics import REGISTRY as _METRICS
from repro.obs.tracer import span as _span
from repro.sched.dataflow import GroupPricing, Schedule, ScheduledStep
from repro.sched.mapper import map_group
from repro.sim.stats import (
    TrafficReport,
    UtilizationReport,
    bottleneck_order,
    dominant,
)
from repro.sim.trace import EventKind, TraceEvent

#: Attribution precedence for per-step bottleneck winners (ties go to
#: the earlier resource), derived from the canonical
#: :data:`~repro.sim.stats.BOTTLENECK_PRECEDENCE` (``tpu`` is the
#: engine's spelling of the transpose unit).
BOTTLENECK_ORDER = bottleneck_order(("pe", "noc", "dram", "sram", "tpu"))

#: Synchronous group-switch overhead (drain + reconfigure), in cycles.
BARRIER_CYCLES = 200


@dataclass
class SimResult:
    """Outcome of simulating one schedule."""

    total_seconds: float
    utilization: UtilizationReport
    traffic: TrafficReport
    num_groups: int
    events: List[TraceEvent] = field(default_factory=list)

    @property
    def total_ms(self) -> float:
        return self.total_seconds * 1e3


class SimulationEngine:
    """Simulates a schedule on a hardware configuration."""

    def __init__(
        self,
        config: HardwareConfig,
        collect_trace: bool = False,
        residency_fraction: float = 0.5,
        constant_share: int = 1,
    ):
        if not 0.0 <= residency_fraction <= 1.0:
            raise ConfigError(
                "residency_fraction", residency_fraction,
                "must lie in [0, 1] — a fraction of the SRAM capacity",
            )
        if not isinstance(constant_share, int) or constant_share < 1:
            raise ConfigError(
                "constant_share", constant_share,
                "at least one cluster must consume each constant fetch",
            )
        self.config = config
        self.collect_trace = collect_trace
        self.residency_fraction = residency_fraction
        self.constant_share = constant_share
        self._noc = MeshNoc.for_config(config)
        self._pricing = GroupPricing.for_config(config)

    def run(self, schedule: Schedule) -> SimResult:
        """Simulate a schedule and return time/utilization/traffic.

        The engine first runs the per-step legality rules
        (:func:`repro.analysis.schedule_verify.verify_steps`) plus the
        whole-graph level-budget propagation
        (:func:`repro.analysis.flow.verify_levels`, F001) over every
        distinct graph the steps reference, and refuses schedules whose
        steps are non-physical, so cost-model bugs surface as a typed
        :class:`SimulationError` instead of silently wrong numbers.
        F001 reads nothing but the graph, so a clean verdict is kept on
        the graph until its operator count changes (the staleness rule
        of its topological-order cache); a graph with findings is
        checked, and refused, on every run.

        Each step's mean mapped hops and useful lane work come from its
        window template, filled by the first step simulated from it, so
        the operator placement runs once per template; with
        ``collect_trace`` every step is also placed for its OP_EXECUTE
        events.  The result depends only on the steps, ``repeat`` and
        the engine's settings, which is what lets
        :mod:`repro.experiments.common` keep one result per (schedule
        fingerprint, repeat, trace flag).
        """
        from repro.analysis.flow import verify_levels
        from repro.analysis.schedule_verify import verify_steps

        report = verify_steps(schedule.steps, self.config)
        seen_graphs = set()
        for step in schedule.steps:
            graph = step.plan.graph
            if graph is None or id(graph) in seen_graphs:
                continue
            seen_graphs.add(id(graph))
            if graph.__dict__.get("_levels_clean") == graph.num_operators:
                continue
            found = len(report.diagnostics)
            verify_levels(graph, report)
            if len(report.diagnostics) == found:
                graph._levels_clean = graph.num_operators
        if not report.ok:
            raise SimulationError(
                "schedule failed pre-run verification",
                detail=report.render_text(),
            )
        cfg = self.config
        freq = cfg.frequency_ghz * 1e9
        total_seconds = 0.0
        busy = {
            "pe": 0.0, "noc": 0.0, "sram": 0.0, "dram": 0.0, "tpu": 0.0
        }
        traffic = TrafficReport()
        events: List[TraceEvent] = []
        #: Simulated-timeline cursor (cycles) stamping collected events.
        clock = 0.0

        # Steady-state constant residency across repeats: constants that
        # fit the residency pool stay on-chip after the first (cold)
        # iteration, so warm iterations skip those DRAM fetches.  This is
        # the same key-reuse window every evaluated design gets.
        warm_residents = self._steady_state_constants(schedule)

        sim_span = _span(
            "sim.run", steps=len(schedule.steps), repeat=schedule.repeat
        )
        with sim_span:
            for warm in (False, True) if schedule.repeat > 1 else (False,):
                pass_seconds = 0.0
                pass_busy = {k: 0.0 for k in busy}
                pass_traffic = TrafficReport()
                for gi, step in enumerate(schedule.steps):
                    try:
                        duration, step_busy, m = self._simulate_step(
                            gi, step, events,
                            extra_resident=(
                                warm_residents if warm else frozenset()
                            ),
                            start_cycle=int(clock),
                        )
                    except SimulationError:
                        raise
                    except Exception as exc:
                        raise SimulationError(
                            "step simulation failed", group_index=gi,
                            detail=f"{type(exc).__name__}: {exc}",
                        ) from exc
                    if not math.isfinite(duration) or duration < 0:
                        raise SimulationError(
                            "non-physical step duration", group_index=gi,
                            detail=f"duration={duration!r}s",
                        )
                    pass_seconds += duration + BARRIER_CYCLES / freq
                    for k in pass_busy:
                        pass_busy[k] += step_busy[k]
                    pass_traffic.dram_read_bytes += m.dram_read_bytes
                    pass_traffic.dram_write_bytes += m.dram_write_bytes
                    pass_traffic.sram_bytes += m.sram_bytes
                    pass_traffic.noc_bytes += m.noc_bytes
                    pass_traffic.transpose_bytes += m.transpose_bytes
                    clock += duration * freq
                    if self.collect_trace and not warm:
                        events.append(
                            TraceEvent(
                                EventKind.BARRIER, gi, "group-switch",
                                cycles=BARRIER_CYCLES,
                                start_cycle=int(clock),
                            )
                        )
                    clock += BARRIER_CYCLES
                weight = 1 if not warm else schedule.repeat - 1
                total_seconds += pass_seconds * weight
                for k in busy:
                    busy[k] += pass_busy[k] * weight
                for attr in ("dram_read_bytes", "dram_write_bytes",
                             "sram_bytes", "noc_bytes", "transpose_bytes"):
                    setattr(
                        traffic,
                        attr,
                        getattr(traffic, attr)
                        + getattr(pass_traffic, attr) * weight,
                    )

            if not math.isfinite(total_seconds) or total_seconds < 0:
                raise SimulationError(
                    "non-physical total latency",
                    detail=f"total_seconds={total_seconds!r}",
                )
            # Every busy figure is already in (resource-saturated)
            # seconds, so utilization is busy time over wall-clock time.
            util = UtilizationReport.from_busy(busy, total_seconds)
            sim_span.set("total_ms", total_seconds * 1e3)
        return SimResult(
            total_seconds=total_seconds,
            utilization=util,
            traffic=traffic,
            num_groups=schedule.num_groups,
            events=events,
        )

    # ------------------------------------------------------------------

    def _steady_state_constants(self, schedule: Schedule) -> frozenset:
        """Constants kept resident across repeat iterations.

        Greedy largest-first packing into the residency pool (half the
        SRAM): big evks save the most DRAM traffic per resident byte of
        identical reuse frequency.
        """
        budget = int(self.config.sram_capacity_bytes * self.residency_fraction)
        sizes: Dict[int, int] = {}
        for step in schedule.steps:
            for uid, nbytes in step.metrics.constant_bytes.items():
                sizes[uid] = nbytes
        kept = set()
        used = 0
        for uid, nbytes in sorted(sizes.items(), key=lambda kv: -kv[1]):
            if used + nbytes <= budget:
                kept.add(uid)
                used += nbytes
        return frozenset(kept)

    @staticmethod
    def _window_terms(step: ScheduledStep) -> Tuple[float, int]:
        """The step's mean mapped hops and useful lane work.

        Both are fixed by the step's window template (see
        :class:`~repro.sched.plan_memo.WindowTemplate`), so the first
        simulated step of a template fills them from its own plan and
        every later one reads them.
        """
        terms = step.template.sim_terms
        if terms is None:
            plan = step.plan
            terms = step.template.sim_terms = (
                max(map_group(plan).average_hops(), 1.0),
                sum(
                    op.total_work for op in plan.ops
                    if op.kind is not OpKind.TRANSPOSE
                ),
            )
        return terms

    def _simulate_step(
        self,
        group_index: int,
        step: ScheduledStep,
        events: List[TraceEvent],
        extra_resident: frozenset = frozenset(),
        start_cycle: int = 0,
    ) -> tuple:
        cfg = self.config
        freq = cfg.frequency_ghz * 1e9
        plan = step.plan
        if extra_resident:
            _, m = plan.execution_seconds(
                resident_inputs=step.resident_inputs,
                resident_constants=set(step.resident_constants)
                | set(extra_resident),
                kept_outputs=step.kept_outputs,
                constant_share=self.constant_share,
            )
        else:
            m = step.metrics

        # PE pipeline: the slowest stage sets the pace.  PE busy time is
        # work-based (useful lane-cycles / lane capacity) so the reported
        # utilization directly reflects idle logic — specialized units on
        # baselines and under-allocated PEs on CROPHE alike.
        avg_hops, useful_lane_cycles = self._window_terms(step)
        if self.collect_trace:
            # Only the trace places this plan's own uids on the mesh.
            mapping = map_group(plan)
            for op in plan.ops:
                if op.kind is OpKind.TRANSPOSE:
                    continue
                pes = plan.pe_allocation.get(op.uid, 1)
                cyc = operator_cycles(op, pes, cfg.lanes_per_pe)
                placement = mapping.placements.get(op.uid)
                events.append(
                    TraceEvent(
                        EventKind.OP_EXECUTE, group_index, op.name,
                        cycles=cyc,
                        pes=placement.pes if placement else (),
                        start_cycle=start_cycle,
                    )
                )
        # Compute, DRAM, SRAM and transpose seconds are the DP's own
        # prices (GroupPricing.terms); only the NoC term below differs.
        compute_seconds, dram_seconds, sram_seconds, _, tpu_seconds = (
            self._pricing.terms(
                step.metrics.compute_cycles, m.dram_bytes, m.sram_bytes, 0,
                m.transpose_bytes,
            )
        )

        # NoC: bytes x mapped hops over aggregate link capacity, where
        # the DP charges a fixed serialization factor.  Baselines get
        # an idealized NoC, exactly as the paper does when reproducing
        # them ("for simplicity we assume idealized NoC performance").
        if cfg.fu_mix is not None:
            noc_seconds = 0.0
        else:
            link_bytes_per_s = self._noc.aggregate_bytes_per_cycle() * freq
            noc_seconds = m.noc_bytes * avg_hops / link_bytes_per_s

        duration = max(
            compute_seconds, noc_seconds, dram_seconds, sram_seconds,
            tpu_seconds,
        )
        # DRAM busy time is at peak bandwidth (no latency, no derating).
        busy = {
            "pe": useful_lane_cycles / (cfg.total_lanes * freq),
            "noc": noc_seconds,
            "sram": sram_seconds,
            "dram": m.dram_bytes / cfg.dram_bytes_per_second,
            "tpu": tpu_seconds,
        }
        if self.collect_trace:
            self._emit_resource_events(
                group_index, events, m, start_cycle, freq,
                noc_seconds=noc_seconds, dram_seconds=dram_seconds,
                sram_seconds=sram_seconds, tpu_seconds=tpu_seconds,
            )
        if _METRICS.enabled:
            seconds_by_resource = {
                "pe": compute_seconds, "noc": noc_seconds,
                "dram": dram_seconds, "sram": sram_seconds,
                "tpu": tpu_seconds,
            }
            winner = dominant(seconds_by_resource, order=BOTTLENECK_ORDER)
            _METRICS.counter("sim.steps").inc()
            _METRICS.counter(f"sim.bottleneck.{winner}").inc()
            for res, sec in busy.items():
                _METRICS.counter(f"sim.busy_cycles.{res}").inc(
                    int(sec * freq)
                )
            if extra_resident:
                hits = len(
                    frozenset(step.metrics.constant_bytes) & extra_resident
                )
                if hits:
                    _METRICS.counter("sim.steady_constant_hits").inc(hits)
        return duration, busy, m

    def _emit_resource_events(
        self,
        group_index: int,
        events: List[TraceEvent],
        m,
        start_cycle: int,
        freq: float,
        noc_seconds: float,
        dram_seconds: float,
        sram_seconds: float,
        tpu_seconds: float,
    ) -> None:
        """Append per-resource occupancy events for one step.

        One event per busy resource, stamped at the step start: the
        Perfetto export renders them as slices alongside the step's OP
        events, so a trace shows *why* each group takes as long as it
        does (the slowest slice is the limiter).
        """
        dram_total = m.dram_bytes
        dram_cycles = dram_seconds * freq
        for kind, name, nbytes, cycles in (
            (EventKind.NOC_TRANSFER, "noc", m.noc_bytes,
             noc_seconds * freq),
            (EventKind.DRAM_READ, "dram-read", m.dram_read_bytes,
             dram_cycles * (m.dram_read_bytes / dram_total)
             if dram_total else 0.0),
            (EventKind.DRAM_WRITE, "dram-write", m.dram_write_bytes,
             dram_cycles * (m.dram_write_bytes / dram_total)
             if dram_total else 0.0),
            (EventKind.SRAM_ACCESS, "sram", m.sram_bytes,
             sram_seconds * freq),
            (EventKind.TRANSPOSE, "transpose", m.transpose_bytes,
             tpu_seconds * freq),
        ):
            if not nbytes:
                continue
            events.append(
                TraceEvent(
                    kind, group_index, name, bytes=int(nbytes),
                    cycles=int(cycles), start_cycle=start_cycle,
                )
            )
