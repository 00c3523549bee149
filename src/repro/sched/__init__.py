"""The CROPHE scheduling framework (paper Section V).

Builds cross-operator dataflow schedules for FHE operator graphs on the
homogeneous PE array: spatial pipelining/sharing groups at the bottom,
temporal pipelining/sharing in the middle, sequential execution at the
top, searched bottom-up with an analytical cost model and dynamic
programming (Section V-D).
"""

from repro.sched.dataflow import (
    GroupPricing,
    SpatialGroupPlan,
    Schedule,
    ScheduledStep,
)
from repro.sched.scheduler import (
    Scheduler,
    SchedulerConfig,
    schedule_graph,
    schedule_partitioned,
)
from repro.sched.cost_model import group_time_breakdown, schedule_roofline
from repro.sched.partition import partition_graph, merge_redundant
from repro.sched.hybrid_rotation import estimate_tradeoff, r_hyb_candidates
from repro.sched.ntt_decomp import candidate_splits, orientation_switch_report
from repro.sched.serialize import (
    eval_result_from_doc,
    eval_result_to_doc,
    schedule_from_doc,
    schedule_to_doc,
)

__all__ = [
    "SpatialGroupPlan",
    "Schedule",
    "ScheduledStep",
    "Scheduler",
    "SchedulerConfig",
    "schedule_graph",
    "schedule_partitioned",
    "GroupPricing",
    "group_time_breakdown",
    "schedule_roofline",
    "partition_graph",
    "merge_redundant",
    "estimate_tradeoff",
    "r_hyb_candidates",
    "candidate_splits",
    "orientation_switch_report",
    "schedule_to_doc",
    "schedule_from_doc",
    "eval_result_to_doc",
    "eval_result_from_doc",
]
