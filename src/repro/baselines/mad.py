"""MAD scheduling (Agrawal et al., MICRO 2023) as the baseline dataflow.

MAD proposes memory-aware operator fusion and caching for FHE: adjacent
operators fuse into small groups, intermediate limbs stream with O(1) /
O(beta) caching, and hoisting batches rotations.  Compared to CROPHE it

* fuses only small groups (a few manually designed patterns rather than
  a searched composition)  -> ``max_group_size`` 4;
* streams intermediates at limb granularity (its O(1)/O(beta) caching)
  but cannot match deeper loop structure across NTT boundaries
  -> matched prefixes clamped to one level;
* targets intermediate ciphertexts only; evk reuse across operators is
  whatever the baseline accelerator itself provides (the paper applies
  ARK's inter-operation key reuse and PRNG generation to all designs for
  fairness), modeled as the same SRAM constant-residency pool CROPHE
  gets — CROPHE's advantage over it comes from hybrid rotation shrinking
  the evk *working set* and fine-grained sharing shrinking the buffer
  each consumer needs, not from an unfairly crippled baseline.

``mad_schedule`` applies this discipline on any hardware config: on the
specialized baselines it reproduces "baseline + MAD" (the paper applies
MAD to all baselines for fairness); on CROPHE hardware it reproduces the
"CROPHE-hw + MAD" ablation point of Figure 11.
"""

from __future__ import annotations

from typing import Optional

from repro.hw.config import HardwareConfig
from repro.ir.graph import OperatorGraph
from repro.sched.dataflow import SpatialGroupPlan
from repro.sched.scheduler import Scheduler, SchedulerConfig

#: MAD fusion depth: a handful of adjacent operators per fused group.
MAD_MAX_GROUP = 4

#: MAD streams intermediates at limb granularity (O(1)/O(beta) caching):
#: one matched loop level, never the deeper N1/N2 matches CROPHE builds.
MAD_MAX_MATCH_DEPTH = 1

#: MAD (and the baselines it models) caches intermediates and reuses
#: keys within the same SRAM budgets CROPHE gets — the baselines' own
#: papers are aggressive about caching.  CROPHE's separation comes from
#: the mechanisms MAD lacks: temporal streaming between groups, larger
#: searched windows, deeper loop matching, and hybrid rotation.
MAD_KEEP_FRACTION = 0.5
MAD_CONSTANT_FRACTION = 0.4


class MadSpatialGroupPlan(SpatialGroupPlan):
    """A spatial group under MAD's limb-granular streaming: the same
    construction, with every edge's matched depth capped after the
    nest choice."""

    dataflow = "mad"
    max_match_depth = MAD_MAX_MATCH_DEPTH


class MadScheduler(Scheduler):
    """The Scheduler restricted to MAD's fusion/caching discipline."""

    plan_kind = MadSpatialGroupPlan

    def __init__(
        self,
        graph: OperatorGraph,
        hw: HardwareConfig,
        config: Optional[SchedulerConfig] = None,
    ):
        base = config or SchedulerConfig()
        mad_config = SchedulerConfig(
            max_group_size=min(base.max_group_size, MAD_MAX_GROUP),
            keep_fraction=min(base.keep_fraction, MAD_KEEP_FRACTION),
            constant_residency_fraction=min(
                base.constant_residency_fraction, MAD_CONSTANT_FRACTION
            ),
            min_ntt_tile=base.min_ntt_tile,
            constant_share=base.constant_share,
            temporal_streaming=False,  # MAD's fusion islands spill between groups
            max_search_seconds=base.max_search_seconds,
            max_search_nodes=base.max_search_nodes,
            fallback_on_budget=base.fallback_on_budget,
            verify=base.verify,
        )
        super().__init__(graph, hw, mad_config, n_split=None)


def mad_schedule(graph: OperatorGraph, hw: HardwareConfig):
    """Schedule a graph with MAD's dataflow on the given hardware."""
    return MadScheduler(graph, hw).schedule()
