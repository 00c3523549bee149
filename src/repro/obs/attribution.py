"""Bottleneck-attribution tables over simulator event streams.

The paper's Table IV / Figure 11 story is *which resource limits each
group* — PEs, NoC, SRAM, DRAM, or the transpose unit — and how
pipelining/sharing shifts the limiter.  This module derives that
attribution from a :class:`~repro.sim.trace.TraceEvent` stream (live
from ``SimResult.events`` or re-loaded with
:func:`repro.sim.trace.iter_trace`):

* per group: busy cycles per resource and the dominant one;
* aggregate: how many groups (and how much simulated time) each
  resource limits.

The PE figure per group is the *pipeline pace* — the slowest operator
stage — matching how the engine prices a step, so the argmax here
reproduces the engine's own per-step bottleneck winner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from repro.sim.stats import bottleneck_order, dominant
from repro.sim.trace import EventKind, TraceEvent

__all__ = [
    "GroupAttribution",
    "attribute_events",
    "format_attribution",
    "attribution_summary",
]

#: Resource columns in display order (ties break leftward), derived
#: from the canonical :data:`~repro.sim.stats.BOTTLENECK_PRECEDENCE`
#: so this table can never disagree with the engine.
RESOURCES = bottleneck_order(("pe", "noc", "dram", "sram", "transpose"))

_KIND_TO_RESOURCE = {
    EventKind.NOC_TRANSFER: "noc",
    EventKind.DRAM_READ: "dram",
    EventKind.DRAM_WRITE: "dram",
    EventKind.SRAM_ACCESS: "sram",
    EventKind.TRANSPOSE: "transpose",
}


@dataclass
class GroupAttribution:
    """Per-resource busy cycles for one scheduled group."""

    group: int
    cycles: Dict[str, float] = field(
        default_factory=lambda: {r: 0.0 for r in RESOURCES}
    )
    ops: int = 0
    barrier_cycles: float = 0.0

    @property
    def bottleneck(self) -> str:
        """The limiting resource (stable tie-breaking)."""
        return dominant(self.cycles, order=RESOURCES)

    @property
    def span_cycles(self) -> float:
        """Cycles the group occupies (its slowest resource)."""
        return max(self.cycles.values(), default=0.0)


def attribute_events(
    events: Iterable[TraceEvent],
) -> List[GroupAttribution]:
    """Fold an event stream into per-group attributions.

    Works on streamed events (:func:`repro.sim.trace.iter_trace`), so
    arbitrarily large traces fold in constant memory per group.  A
    group seen in several passes (cold + warm repeats) accumulates.
    """
    groups: Dict[int, GroupAttribution] = {}
    for event in events:
        attr = groups.get(event.group)
        if attr is None:
            attr = GroupAttribution(group=event.group)
            groups[event.group] = attr
        if event.kind is EventKind.OP_EXECUTE:
            # The pipeline runs at the pace of its slowest stage.
            attr.cycles["pe"] = max(attr.cycles["pe"], float(event.cycles))
            attr.ops += 1
        elif event.kind is EventKind.BARRIER:
            attr.barrier_cycles += float(event.cycles)
        else:
            resource = _KIND_TO_RESOURCE.get(event.kind)
            if resource is not None:
                attr.cycles[resource] += float(event.cycles)
    return [groups[g] for g in sorted(groups)]


def format_attribution(rows: List[GroupAttribution]) -> str:
    """Render the per-group table plus the aggregate limiter summary."""
    if not rows:
        return "(no events)"
    header = f"{'group':>6s} {'ops':>4s}"
    for res in RESOURCES:
        header += f" {res + ' cyc':>12s}"
    header += f" {'bound':>10s}"
    lines = [header]
    for row in rows:
        line = f"{row.group:6d} {row.ops:4d}"
        for res in RESOURCES:
            line += f" {row.cycles[res]:12.0f}"
        line += f" {row.bottleneck:>10s}"
        lines.append(line)
    lines.append("")
    summary = attribution_summary(rows)
    total_groups = len(rows)
    total_cycles = sum(r.span_cycles for r in rows) or 1.0
    lines.append(
        f"{'limiter':>10s} {'groups':>8s} {'group %':>9s} {'cycle %':>9s}"
    )
    for res in RESOURCES:
        info = summary[res]
        lines.append(
            f"{res:>10s} {info['groups']:8.0f}"
            f" {info['groups'] / total_groups:9.1%}"
            f" {info['cycles'] / total_cycles:9.1%}"
        )
    return "\n".join(lines)


def attribution_summary(
    rows: List[GroupAttribution],
) -> Dict[str, Dict[str, float]]:
    """Aggregate limiter shares: groups and cycles claimed per resource."""
    summary: Dict[str, Dict[str, float]] = {
        res: {"groups": 0.0, "cycles": 0.0} for res in RESOURCES
    }
    for row in rows:
        winner = row.bottleneck
        summary[winner]["groups"] += 1
        summary[winner]["cycles"] += row.span_cycles
    return summary
