"""repro.passes — the verified lowering pipeline over the IR.

HEIR-style explicit lowering for the CROPHE reproduction: workloads are
emitted at the *FHE-primitive* level (coarse ``KEY_SWITCH`` /
``ROT_BATCH`` operators, monolithic NTTs) and a
:class:`~repro.passes.pipeline.PassPipeline` lowers each graph to the
*decomposed* level the schedulers consume with one expansion walk
(:func:`~repro.passes.rewrites.lower_primitives`), enforcing the
:mod:`repro.analysis` verifiers as invariants on the source graph and
on the lowered graph: every lowering passes them or raises.

:func:`~repro.passes.lowering.lower_workload` is the only way a
workload graph gets built: the :data:`repro.workloads.WORKLOAD_BUILDERS`
return its output, and the experiment runner calls it directly.
``python -m repro.analysis`` reports every lowering's findings.

Quickstart::

    python -m repro.passes dump bootstrapping --level primitive
    python -m repro.passes dump bootstrapping --level decomposed
"""

from repro.passes.lowering import (
    clear_lowering_memo,
    lower_graph,
    lower_workload,
    lowering_key,
)
from repro.passes.pipeline import PassPipeline

__all__ = [
    "PassPipeline",
    "clear_lowering_memo",
    "lower_graph",
    "lower_workload",
    "lowering_key",
]
