"""The analytical hardware cost model (paper Section V-D).

"For each spatial/temporal pipelining/sharing group, [the scheduler]
carefully calculates its execution time with full consideration of both
the computation and memory access latencies.  The final time of a group
is the maximum of the two."

The model itself lives beside the group plan
(:class:`repro.sched.dataflow.GroupPricing`, which the DP scheduler and
:meth:`~repro.sched.dataflow.SpatialGroupPlan.execution_seconds` both
price through); this module provides the standalone entry points used
for analysis and testing — per-resource time decomposition, bottleneck
attribution, and roofline-style summaries for whole schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.hw.config import HardwareConfig
from repro.hw.memory import HbmMemory
from repro.resilience.errors import ConfigError
from repro.sched.dataflow import GroupMetrics, GroupPricing, Schedule
from repro.sim.stats import dominant_bottleneck


@dataclass
class TimeBreakdown:
    """Per-resource seconds of one group (the max is the group time)."""

    compute: float
    dram: float
    sram: float
    noc: float
    transpose: float

    @property
    def total(self) -> float:
        return max(self.compute, self.dram, self.sram, self.noc,
                   self.transpose)

    @property
    def bottleneck(self) -> str:
        """The limiting resource, ties broken by the canonical
        :data:`~repro.sim.stats.BOTTLENECK_PRECEDENCE` (shared with the
        engine and the obs attribution tables)."""
        values = {
            "compute": self.compute,
            "dram": self.dram,
            "sram": self.sram,
            "noc": self.noc,
            "transpose": self.transpose,
        }
        return dominant_bottleneck(values)


def group_time_breakdown(
    metrics: GroupMetrics, hw: HardwareConfig
) -> TimeBreakdown:
    """Decompose a group's effective metrics into per-resource times."""
    return TimeBreakdown(*GroupPricing.for_config(hw).terms(
        metrics.compute_cycles, metrics.dram_bytes, metrics.sram_bytes,
        metrics.noc_bytes, metrics.transpose_bytes,
    ))


def schedule_bottleneck_profile(
    schedule: Schedule, hw: HardwareConfig
) -> Dict[str, float]:
    """Seconds attributed to each bottleneck class across a schedule."""
    profile: Dict[str, float] = {}
    for step in schedule.steps:
        breakdown = group_time_breakdown(step.metrics, hw)
        profile[breakdown.bottleneck] = (
            profile.get(breakdown.bottleneck, 0.0) + step.seconds
        )
    return profile


def arithmetic_intensity(metrics: GroupMetrics, word_bytes: int) -> float:
    """Mul-equivalent operations per DRAM byte (roofline x-axis).

    The paper's motivation: FHE operators are "highly memory-intensive,
    with low compute-to-data ratios" — cross-operator reuse is precisely
    what raises this number.

    A group with **zero DRAM traffic** (every operand resident on-chip)
    returns ``0.0`` by definition here: it sits off the roofline's
    memory-bound axis entirely, and a finite sentinel keeps the summary
    statistics below (means, sorts, medians) well-defined where the old
    ``inf`` poisoned them.
    """
    if metrics.dram_bytes == 0:
        return 0.0
    # compute_cycles already normalizes over lanes; recover op count via
    # the step's recorded work is not stored, so use cycles as a proxy
    # intensity in lane-op units.
    return metrics.compute_cycles / metrics.dram_bytes


def schedule_roofline(
    schedule: Schedule, hw: HardwareConfig
) -> List[Tuple[float, float]]:
    """Sorted roofline points ``(intensity, seconds)`` for a schedule.

    Zero-DRAM groups contribute intensity ``0.0`` (see
    :func:`arithmetic_intensity`), so the list sorts and aggregates
    without ``inf`` values.
    """
    points = [
        (arithmetic_intensity(step.metrics, hw.word_bytes), step.seconds)
        for step in schedule.steps
    ]
    points.sort()
    return points


def machine_balance(hw: HardwareConfig) -> float:
    """Lane-ops per DRAM byte at which compute and memory balance.

    Raises:
        ConfigError: for degenerate configurations (no lanes or no DRAM
            bandwidth) where the balance point is undefined.  Normally
            unreachable — :meth:`HardwareConfig.validate` rejects such
            configs at construction — but hand-assembled or mocked
            configs must fail typed, not with a bare ZeroDivisionError.
    """
    if hw.total_lanes <= 0:
        raise ConfigError(
            "total_lanes", hw.total_lanes,
            "machine balance is undefined without compute lanes",
        )
    dram_effective = (
        hw.dram_bytes_per_second * HbmMemory.for_config(hw).efficiency
    )
    if dram_effective <= 0:
        raise ConfigError(
            "dram_bandwidth_tbs", hw.dram_bandwidth_tbs,
            "machine balance is undefined without DRAM bandwidth",
        )
    return hw.muls_per_second / dram_effective / hw.total_lanes
