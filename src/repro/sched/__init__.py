"""The CROPHE scheduling framework (paper Section V).

Builds cross-operator dataflow schedules for FHE operator graphs on the
homogeneous PE array: spatial pipelining/sharing groups at the bottom,
temporal pipelining/sharing in the middle, sequential execution at the
top, searched bottom-up with an analytical cost model and dynamic
programming (Section V-D).  The section's r_hyb and NTT-split
enumeration over whole workloads lives in
:func:`repro.experiments.common.evaluate_workload`.
"""

from repro.sched.dataflow import (
    GroupPricing,
    SpatialGroupPlan,
    Schedule,
    ScheduledStep,
)
from repro.sched.scheduler import Scheduler, SchedulerConfig
from repro.sched.ntt_decomp import candidate_splits
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
    "GroupPricing",
    "candidate_splits",
    "schedule_to_doc",
    "schedule_from_doc",
    "eval_result_to_doc",
    "eval_result_from_doc",
]
