"""Workload operator-graph generators.

The four evaluation workloads of Section VI: CKKS bootstrapping,
HELR-1024 logistic-regression training, and ResNet-20/ResNet-110
encrypted inference.  A workload is a list of *segments* — operator
graphs scheduled once and repeated — which realizes the paper's
pre-partitioning with redundant-subgraph merging: the same KeySwitch /
BSGS / EvalMod structure appearing many times is searched only once.

Each workload is emitted at the primitive level (:data:`WORKLOAD_EMITTERS`)
and lowered through the verified :mod:`repro.passes` pipeline; the
builders in :data:`WORKLOAD_BUILDERS` return the lowered form, which is
what the schedulers consume.
"""

from repro.workloads.base import Workload, WorkloadSegment, WorkloadOptions
from repro.workloads.bootstrapping import build_bootstrapping, emit_bootstrapping
from repro.workloads.helr import build_helr, emit_helr
from repro.workloads.resnet import (
    build_resnet20,
    build_resnet110,
    emit_resnet20,
    emit_resnet110,
)

WORKLOAD_BUILDERS = {
    "bootstrapping": build_bootstrapping,
    "helr": build_helr,
    "resnet20": build_resnet20,
    "resnet110": build_resnet110,
}

#: Primitive-level emission per workload: the step the builders lower.
WORKLOAD_EMITTERS = {
    "bootstrapping": emit_bootstrapping,
    "helr": emit_helr,
    "resnet20": emit_resnet20,
    "resnet110": emit_resnet110,
}

__all__ = [
    "Workload",
    "WorkloadSegment",
    "WorkloadOptions",
    "build_bootstrapping",
    "build_helr",
    "build_resnet20",
    "build_resnet110",
    "WORKLOAD_BUILDERS",
    "WORKLOAD_EMITTERS",
]
