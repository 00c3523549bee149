"""The two graph levels of the lowering pipeline.

The HEIR lesson (SNIPPETS.md) applied to this IR: instead of one
monolithic builder that emits fully decomposed graphs, programs are
emitted at a coarse level and lowered by named, verified rewrites:

* **primitive** — FHE-primitive granularity: key switches are single
  coarse ``KEY_SWITCH`` operators, hoisting/hybrid baby-rotation
  batches are single ``ROT_BATCH`` operators, and every (i)NTT is
  monolithic.  This is what the workload builders emit before they
  lower.
* **decomposed** — coarse operators expanded into
  Decomp/ModUp/inner-product/ModDown chains and, when a four-step split
  is configured, monolithic NTTs replaced by their col/transpose/row
  phases.  This is the level the schedulers consume.
"""

from __future__ import annotations

import enum

from repro.ir.graph import OperatorGraph

__all__ = ["Level", "graph_level"]


class Level(enum.Enum):
    """One graph level (primitive before decomposed)."""

    PRIMITIVE = "primitive"
    DECOMPOSED = "decomposed"

    def __str__(self) -> str:
        return self.value


def graph_level(graph: OperatorGraph) -> Level:
    """Classify a graph: primitive while any coarse operator remains.

    A graph with no coarse (``KEY_SWITCH``/``ROT_BATCH``) operators is
    at the decomposed level — possibly with monolithic NTTs, which are
    legal there when no four-step split is configured.
    """
    for op in graph.operators:
        if op.kind.is_coarse:
            return Level.PRIMITIVE
    return Level.DECOMPOSED
