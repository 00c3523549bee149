"""Static graph verification (rules G001-G005).

Checks the structural invariants an :class:`~repro.ir.graph.OperatorGraph`
must satisfy before any scheduling or simulation makes sense: acyclicity,
single-producer (SSA) tensors, no dangling or orphaned tensors, and
edge/endpoint agreement.  The pass never executes the simulator and is
robust to corrupt graphs — it reports instead of raising.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.diagnostics import DiagnosticReport
from repro.ir.graph import OperatorGraph
from repro.ir.operators import Operator
from repro.ir.tensors import TensorKind


def _cycle_members(graph: OperatorGraph) -> List[str]:
    """Operator names along one cycle of the edge index, or empty.

    A Kahn pass over the successor index leaves exactly the operators on
    or behind a cycle stuck; the first one on a cycle names it.
    """
    succ = graph._succ
    indegree = dict.fromkeys(succ, 0)
    for targets in succ.values():
        for uid in targets:
            indegree[uid] = indegree.get(uid, 0) + 1
    ready = [uid for uid, n in indegree.items() if n == 0]
    while ready:
        for uid in succ.get(ready.pop(), ()):
            indegree[uid] -= 1
            if indegree[uid] == 0:
                ready.append(uid)
    for uid, n in indegree.items():
        if n > 0:
            cycle = graph._cycle_through(graph._ops[uid])
            if cycle:
                return [op.name for op in cycle]
    return []


def verify_graph(graph: OperatorGraph) -> DiagnosticReport:
    """Run the graph pass; returns a report (empty when clean)."""
    report = DiagnosticReport(pass_name=f"graph:{graph.name}")

    # G001: acyclicity.  Read the edge index directly so the pass works
    # on graphs too corrupt for operators_topological().
    members = _cycle_members(graph)
    if members:
        report.emit(
            "G001", f"graph {graph.name}",
            "dependency cycle: " + " -> ".join(members),
        )

    # G002: single producer per tensor (SSA), scanned from the operators
    # themselves so corruption of the producer index is also caught.
    producers: Dict[int, List[Operator]] = {}
    tensor_names: Dict[int, str] = {}
    for op in graph.operators:
        for t in op.outputs:
            producers.setdefault(t.uid, []).append(op)
            tensor_names[t.uid] = t.name
    for uid, ops in producers.items():
        if len(ops) > 1:
            report.emit(
                "G002", f"tensor {tensor_names[uid]}",
                f"{len(ops)} producers: "
                + ", ".join(op.name for op in ops),
            )

    # G003: dangling intermediates — a POLY tensor consumed by some
    # operator but produced by none.  EXTERNAL and constant tensors are
    # legitimate graph inputs; intermediates are not.
    for op in graph.operators:
        for t in op.inputs:
            if t.kind is TensorKind.POLY and t.uid not in producers:
                report.emit(
                    "G003", f"tensor {t.name}",
                    f"consumed by {op.name} but produced by no operator",
                )

    # G004: orphaned tensors — registered with the graph but neither
    # produced nor consumed by any operator.
    for t in graph.tensors:
        if graph.producer_of(t) is None and not graph.consumers_of(t):
            report.emit(
                "G004", f"tensor {t.name}",
                "registered with the graph but never used",
            )

    # G005: edge agreement — the tensor on each producer->consumer edge
    # must appear in both endpoints' tensor lists.
    for prod in graph.operators:
        for cons in graph.successors(prod):
            t = graph.edge_tensor(prod, cons)
            if t is None:
                report.emit(
                    "G005", f"edge {prod.name} -> {cons.name}",
                    "edge carries no tensor",
                )
                continue
            if all(o.uid != t.uid for o in prod.outputs):
                report.emit(
                    "G005", f"edge {prod.name} -> {cons.name}",
                    f"tensor {t.name} is not an output of {prod.name}",
                )
            if all(i.uid != t.uid for i in cons.inputs):
                report.emit(
                    "G005", f"edge {prod.name} -> {cons.name}",
                    f"tensor {t.name} is not an input of {cons.name}",
                )
    return report
