"""Loop-nest assignment for a candidate spatial group.

Given a window of operators, choose one loop nest per operator so that
as many producer->consumer edges as possible share top loops (enabling
fine-grained pipelining) and co-running same-type operators share their
constant-streaming order (enabling fine-grained sharing).

The plan-skeleton builder (:mod:`repro.sched.plan_memo`) walks a
window's operators in order; each operator tries all its candidate
nests and keeps the one with the deepest match against its in-window
producers placed so far (:func:`choose_nest`, a greedy restriction of
the paper's full enumeration that keeps the search fast; the nest
candidate lists are tiny, so greedy rarely loses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.ir.graph import OperatorGraph
from repro.ir.loops import LoopNest, matched_prefix
from repro.ir.operators import Operator, OpKind


@dataclass
class NestAssignment:
    """Chosen loop nests and the per-edge match depths of a live plan."""

    nests: Dict[int, LoopNest]                     # op uid -> nest
    edge_matches: Dict[Tuple[int, int], int]       # (prod, cons) -> depth

    def match_of(self, producer: Operator, consumer: Operator) -> int:
        """Matched top-loop depth of an edge (0 = orientation switch)."""
        return self.edge_matches.get((producer.uid, consumer.uid), 0)


def choose_nest(
    candidates: Sequence[LoopNest], producer_nests: Sequence[LoopNest]
) -> Tuple[LoopNest, List[int]]:
    """One operator's nest and its edge depths against its producers.

    ``candidates`` are the operator's candidate nests and
    ``producer_nests`` the nests already chosen for its in-window
    producers.  The first candidate with the strictly highest summed
    matched prefix wins; the depths are its matched prefix with each
    producer, in ``producer_nests`` order.
    """
    best = candidates[0]
    if producer_nests and len(candidates) > 1:
        best_score = -1
        for nest in candidates:
            score = sum(matched_prefix(p, nest) for p in producer_nests)
            if score > best_score:
                best_score = score
                best = nest
    return best, [matched_prefix(p, best) for p in producer_nests]


def count_orientation_switches(
    graph: OperatorGraph,
    ops: Sequence[Operator],
    assignment: NestAssignment,
) -> int:
    """Edges with *no* matched top loop (MAD's orientation switches).

    Each such edge forces the intermediate tensor to materialize in full
    (SRAM if it fits, else a DRAM spill).  Edges into/out of transpose
    operators are excluded: those orientation switches are absorbed by
    the dedicated transpose unit (Section IV-A), which is exactly how
    the four-step decomposition halves the number of *costly* switches
    (Figure 7).
    """
    uids = {op.uid for op in ops}
    switches = 0
    for op in ops:
        if op.kind is OpKind.TRANSPOSE:
            continue
        for succ in graph.successors(op):
            if succ.uid in uids and succ.kind is not OpKind.TRANSPOSE:
                if assignment.match_of(op, succ) == 0:
                    switches += 1
    return switches
