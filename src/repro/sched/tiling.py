"""Loop-nest assignment for a candidate spatial group.

Given a window of operators, choose one loop nest per operator so that
as many producer->consumer edges as possible share top loops (enabling
fine-grained pipelining) and co-running same-type operators share their
constant-streaming order (enabling fine-grained sharing).

The assignment walks the window in topological order; each operator
tries all its candidate nests and keeps the one with the deepest match
against its in-window producers (a greedy restriction of the paper's
full enumeration that keeps the search fast; the nest candidate lists
are tiny, so greedy rarely loses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.ir.graph import OperatorGraph
from repro.ir.loops import LoopNest, matched_prefix
from repro.ir.operators import Operator, OpKind


@dataclass
class NestAssignment:
    """Chosen loop nests and the per-edge match depths for a window."""

    nests: Dict[int, LoopNest]                     # op uid -> nest
    edge_matches: Dict[Tuple[int, int], int]       # (prod, cons) -> depth

    def nest_of(self, op: Operator) -> LoopNest:
        """The loop nest chosen for an operator."""
        return self.nests[op.uid]

    def match_of(self, producer: Operator, consumer: Operator) -> int:
        """Matched top-loop depth of an edge (0 = orientation switch)."""
        return self.edge_matches.get((producer.uid, consumer.uid), 0)


def assign_loop_nests(
    graph: OperatorGraph,
    ops: Sequence[Operator],
    n_split: Optional[Tuple[int, int]] = None,
) -> NestAssignment:
    """Greedy nest assignment maximizing matched prefixes along edges.

    ``n_split`` offers the streaming operators tiled-N nest variants so
    they can match decomposed NTT phases (Section V-B).
    """
    uids = {op.uid for op in ops}
    nests: Dict[int, LoopNest] = {}
    edge_matches: Dict[Tuple[int, int], int] = {}
    for op in ops:  # ops arrive in topological order
        candidates = op.candidate_loop_nests(n_split)
        producers = [
            p for p in graph.predecessors(op) if p.uid in uids and p.uid in nests
        ]
        best_nest = candidates[0]
        best_score = -1
        for nest in candidates:
            score = sum(
                matched_prefix(nests[p.uid], nest) for p in producers
            )
            if score > best_score:
                best_score = score
                best_nest = nest
        nests[op.uid] = best_nest
        for p in producers:
            edge_matches[(p.uid, op.uid)] = matched_prefix(
                nests[p.uid], best_nest
            )
    return NestAssignment(nests=nests, edge_matches=edge_matches)


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
