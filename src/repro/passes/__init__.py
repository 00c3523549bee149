"""repro.passes — the verified lowering pipeline over the IR.

HEIR-style explicit lowering for the CROPHE reproduction: workloads are
emitted at the *FHE-primitive* level (coarse ``KEY_SWITCH`` /
``ROT_BATCH`` operators, monolithic NTTs) and a
:class:`~repro.passes.pipeline.PassPipeline` applies the fixed
:data:`~repro.passes.pipeline.PASSES` catalog of graph-to-graph
rewrites to reach the *decomposed* level the schedulers consume,
running the :mod:`repro.analysis` verifiers as invariants on the source
graph and after every pass that rewrites.

:func:`~repro.passes.lowering.lower_workload` is the only way a
workload graph gets built: the :data:`repro.workloads.WORKLOAD_BUILDERS`
return its output, and the experiment runner calls it directly.

Quickstart::

    python -m repro.passes ls                 # the pass catalog
    python -m repro.passes run bootstrapping  # lower + per-stage report
    python -m repro.passes dump bootstrapping --level primitive
"""

from repro.passes.levels import Level, graph_level
from repro.passes.lowering import (
    clear_lowering_memo,
    lower_graph,
    lower_workload,
    lowering_key,
)
from repro.passes.pipeline import PASSES, Pass, PassPipeline

__all__ = [
    "PASSES",
    "Level",
    "Pass",
    "PassPipeline",
    "clear_lowering_memo",
    "graph_level",
    "lower_graph",
    "lower_workload",
    "lowering_key",
]
