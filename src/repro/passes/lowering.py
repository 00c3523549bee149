"""Workload-level entry point: emit primitive, lower through the pipeline.

:func:`lower_workload` is how every workload graph gets built: it emits
the workload at the *primitive* level and lowers every distinct segment
graph through the :class:`~repro.passes.pipeline.PassPipeline`, which
always enforces its invariants.  :func:`lower_graph` memoizes each
lowering (the lowered graph and the pipeline's reports) on the
structural fingerprint of the primitive graph plus the
lowering-relevant parameters.  Structurally identical segments
therefore lower once per process *across workloads* (HELR and
ResNet-20 reuse bootstrapping's segment graphs), and because the memo
returns the same graph object, every downstream cache keyed on the
decomposed graph's fingerprint (schedule cache, plan memo) shares hits
the same way.  :func:`repro.analysis.verify_workloads` reports the
memoized reports instead of running the checks again.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.dse.fingerprint import (
    FORMAT_VERSION,
    digest,
    graph_fingerprint,
    params_payload,
)
from repro.fhe.params import CKKSParams
from repro.ir.graph import OperatorGraph
from repro.obs.metrics import REGISTRY as _METRICS
from repro.passes.pipeline import PassPipeline, PipelineResult
from repro.workloads import WORKLOAD_EMITTERS
from repro.workloads.base import Workload, WorkloadOptions, WorkloadSegment

__all__ = [
    "clear_lowering_memo",
    "lower_graph",
    "lower_workload",
    "lowering_key",
]

#: Process-wide memo: lowering key -> pipeline result (its graph and
#: its invariant reports).  Cleared by :func:`clear_lowering_memo`
#: (hooked into the experiment runner's ``clear_cache``).
_MEMO: Dict[str, PipelineResult] = {}


def clear_lowering_memo() -> None:
    """Drop all memoized lowerings (test isolation)."""
    _MEMO.clear()


def lowering_key(
    graph: OperatorGraph,
    params: CKKSParams,
    ntt_split: Optional[Tuple[int, int]],
) -> str:
    """The memo key of one lowering.

    Keyed on the *primitive*-level structural fingerprint plus the
    parameters and the split the lowering walk will apply (the split is
    not represented in the primitive graph, so it must be part of the
    key).  Rotation strategy and ``r_hyb`` need no slot of their
    own: they are structural attributes of the primitive graph's
    ``ROT_BATCH`` operators and already shape its fingerprint.

    The structural fingerprint is name/tag-free, but a lowered graph's
    names derive from the source graph's labels: carried operators keep
    their names, and each expansion is named after its operator's tag
    and numbered from its first output's index.  Names reach serialized
    schedules, so two structurally identical segments with different
    labels (CoeffToSlot vs SlotToCoeff) must lower to differently named
    graphs: the key also folds in the insertion-order (name, tag)
    labels.
    """
    return digest({
        "kind": "lowering",
        "version": FORMAT_VERSION,
        "level": "primitive",
        "graph": graph_fingerprint(graph),
        "labels": [(op.name, op.tag) for op in graph.operators],
        "params": params_payload(params),
        "ntt_split": list(ntt_split) if ntt_split else None,
    })


def lower_graph(
    graph: OperatorGraph,
    params: CKKSParams,
    options: WorkloadOptions,
) -> PipelineResult:
    """Lower one primitive-level graph, memoized per lowering key.

    Every lowering enforces the pipeline invariants, so a memoized
    result has passed them; a failing lowering raises
    :class:`~repro.resilience.errors.VerificationError` and is not
    memoized.
    """
    key = lowering_key(graph, params, options.ntt_split)
    hit = _MEMO.get(key)
    if hit is not None:
        if _METRICS.enabled:
            _METRICS.counter("passes.memo.hits").inc()
        return hit
    if _METRICS.enabled:
        _METRICS.counter("passes.memo.misses").inc()
    result = PassPipeline(params, options).run(graph)
    _MEMO[key] = result
    return result


def lower_workload(
    name: str,
    params: CKKSParams,
    options: WorkloadOptions,
) -> Workload:
    """Emit a workload at the primitive level and lower it.

    Segments that share one graph object at the primitive level share
    one lowered graph object too.  The pipeline invariants are
    enforced, so an illegal lowering fails loudly instead of producing a
    wrong schedule.

    Args:
        name: workload name (a :data:`~repro.workloads.WORKLOAD_EMITTERS`
            key).
        options: the build options; the primitive emission records
            ``ntt_split`` and the lowering walk applies it.
    """
    primitive = WORKLOAD_EMITTERS[name](params, options)
    lowered_by_id: Dict[int, OperatorGraph] = {}
    segments: List[WorkloadSegment] = []
    for segment in primitive.segments:
        graph = lowered_by_id.get(id(segment.graph))
        if graph is None:
            graph = lower_graph(segment.graph, params, options).graph
            lowered_by_id[id(segment.graph)] = graph
        segments.append(
            WorkloadSegment(segment.name, graph, segment.repeat)
        )
    return Workload(
        name=primitive.name,
        params=params,
        segments=segments,
        description=primitive.description,
    )
