"""JSON round-trip serialization for schedules and evaluation results.

The live objects do not serialize directly — a
:class:`~repro.sched.dataflow.ScheduledStep` holds a
:class:`~repro.sched.dataflow.SpatialGroupPlan` full of operator
references whose uids are process-dependent.  Instead, a schedule
serializes as its **window cover**: the sizes of its consecutive
windows over the graph's deterministic topological order.  The cover is
tiny, portable across processes, and — because the transition pricing
is deterministic — :func:`schedule_from_doc` rebuilds *exactly* the
same steps by replaying it through
:meth:`~repro.sched.scheduler.Scheduler.replay` (no DP search).

Per-step seconds/metrics are stored alongside the cover for inspection
and for the exact-equality round-trip check, but the replay recomputes
them; the stored copies are never trusted as pricing.

:class:`~repro.experiments.common.EvalResult` documents, by contrast,
are plain aggregates and round-trip field-for-field.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.hw.config import HardwareConfig
from repro.ir.graph import OperatorGraph
from repro.resilience.errors import InvariantViolation
from repro.sched.dataflow import Schedule
from repro.sched.scheduler import Scheduler, SchedulerConfig

__all__ = [
    "eval_result_from_doc",
    "eval_result_to_doc",
    "schedule_from_doc",
    "schedule_to_doc",
]

_SCHEDULE_KIND = "repro-schedule"
_RESULT_KIND = "repro-eval-result"


def schedule_to_doc(
    schedule: Schedule,
    dataflow: str = "crophe",
    n_split: Optional[Tuple[int, int]] = None,
) -> Dict[str, Any]:
    """Serialize a scheduler-produced schedule to a JSON document.

    Valid only for schedules whose steps tile one graph's topological
    order contiguously (everything :class:`~repro.sched.scheduler.
    Scheduler` and the MAD baseline produce).
    """
    steps = []
    for step in schedule.steps:
        metrics = step.metrics
        steps.append({
            "seconds": step.seconds,
            "ops": [op.name for op in step.plan.ops],
            "metrics": {
                "compute_cycles": metrics.compute_cycles,
                "buffer_bytes": metrics.buffer_bytes,
                "noc_bytes": metrics.noc_bytes,
                "transpose_bytes": metrics.transpose_bytes,
                "sram_bytes": metrics.sram_bytes,
                "dram_read_bytes": metrics.dram_read_bytes,
                "dram_write_bytes": metrics.dram_write_bytes,
            },
            "resident_input_count": len(step.resident_inputs),
            "resident_constant_count": len(step.resident_constants),
            "kept_output_count": len(step.kept_outputs),
        })
    return {
        "kind": _SCHEDULE_KIND,
        "dataflow": dataflow,
        "n_split": list(n_split) if n_split else None,
        "window_sizes": [len(step.plan.ops) for step in schedule.steps],
        "repeat": schedule.repeat,
        "degraded": schedule.degraded,
        "degraded_reason": schedule.degraded_reason,
        "steps": steps,
    }


def schedule_from_doc(
    doc: Dict[str, Any],
    graph: OperatorGraph,
    hw: HardwareConfig,
    config: Optional[SchedulerConfig] = None,
    dataflow: Optional[str] = None,
    n_split: Optional[Tuple[int, int]] = None,
) -> Schedule:
    """Rebuild a live, simulatable schedule from its document.

    ``dataflow``/``n_split`` default to the values recorded in the
    document.  The caller supplies the graph (workload builds are
    memoized and deterministic) and the hardware/knobs the schedule was
    produced under — a mismatch surfaces as an
    :class:`~repro.resilience.errors.InvariantViolation` from the
    replay, which cache readers treat as a miss.
    """
    if not isinstance(doc, dict) or doc.get("kind") != _SCHEDULE_KIND:
        raise InvariantViolation(
            "repro.sched.serialize.schedule_from_doc",
            f"not a schedule document: kind={doc.get('kind')!r}"
            if isinstance(doc, dict) else "document is not an object",
        )
    dataflow = dataflow if dataflow is not None else doc.get("dataflow", "crophe")
    if n_split is None and doc.get("n_split"):
        n_split = tuple(doc["n_split"])
    if dataflow == "mad":
        # Imported lazily: repro.baselines depends on this package.
        from repro.baselines.mad import MadScheduler

        scheduler = MadScheduler(graph, hw, config)
    else:
        scheduler = Scheduler(graph, hw, config, n_split=n_split)
    schedule = scheduler.replay(doc["window_sizes"])
    schedule.repeat = int(doc.get("repeat", 1))
    schedule.degraded = bool(doc.get("degraded", False))
    schedule.degraded_reason = str(doc.get("degraded_reason", ""))
    return schedule


def eval_result_to_doc(result: Any) -> Dict[str, Any]:
    """Serialize an :class:`~repro.experiments.common.EvalResult`."""
    util = result.utilization
    traffic = result.traffic
    return {
        "kind": _RESULT_KIND,
        "label": result.label,
        "workload": result.workload,
        "seconds": result.seconds,
        "num_groups": result.num_groups,
        "degraded": result.degraded,
        "segment_seconds": dict(result.segment_seconds),
        "utilization": {
            "pe": util.pe,
            "noc": util.noc,
            "sram_bw": util.sram_bw,
            "dram_bw": util.dram_bw,
            "transpose": util.transpose,
        },
        "traffic": {
            "dram_read_bytes": traffic.dram_read_bytes,
            "dram_write_bytes": traffic.dram_write_bytes,
            "sram_bytes": traffic.sram_bytes,
            "noc_bytes": traffic.noc_bytes,
            "transpose_bytes": traffic.transpose_bytes,
        },
    }


def eval_result_from_doc(doc: Dict[str, Any]) -> Any:
    """Rebuild an :class:`~repro.experiments.common.EvalResult`."""
    # Imported lazily: repro.experiments depends on this package.
    from repro.experiments.common import EvalResult
    from repro.sim.stats import TrafficReport, UtilizationReport

    if not isinstance(doc, dict) or doc.get("kind") != _RESULT_KIND:
        raise InvariantViolation(
            "repro.sched.serialize.eval_result_from_doc",
            f"not an eval-result document: kind={doc.get('kind')!r}"
            if isinstance(doc, dict) else "document is not an object",
        )
    util = doc["utilization"]
    traffic = doc["traffic"]
    return EvalResult(
        label=doc["label"],
        workload=doc["workload"],
        seconds=float(doc["seconds"]),
        utilization=UtilizationReport(
            pe=float(util["pe"]),
            noc=float(util["noc"]),
            sram_bw=float(util["sram_bw"]),
            dram_bw=float(util["dram_bw"]),
            transpose=float(util["transpose"]),
        ),
        traffic=TrafficReport(
            dram_read_bytes=int(traffic["dram_read_bytes"]),
            dram_write_bytes=int(traffic["dram_write_bytes"]),
            sram_bytes=int(traffic["sram_bytes"]),
            noc_bytes=int(traffic["noc_bytes"]),
            transpose_bytes=int(traffic["transpose_bytes"]),
        ),
        num_groups=int(doc["num_groups"]),
        segment_seconds={
            str(k): float(v) for k, v in doc["segment_seconds"].items()
        },
        degraded=bool(doc["degraded"]),
    )
