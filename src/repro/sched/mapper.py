"""Operator placement on the PE array (paper Section IV-B).

Maps each spatial group's operators onto PE rectangles: consecutive
operators occupy columns left to right (multiple small operators may
share a column), transposes run on the rightmost transpose unit, and
operators placed after a transpose fill columns right to left.  When a
group contains two transposes the array splits into horizontal bands
with rows proportional to each segment's compute demand.

The mapping yields per-operator PE index sets and per-edge hop
distances, which the simulator uses for NoC contention, plus the trace
of producer->consumer transfers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.hw.noc import MeshNoc
from repro.ir.operators import Operator, OpKind
from repro.sched.dataflow import SpatialGroupPlan


@dataclass
class Placement:
    """PE assignment for one operator: a set of mesh PE indices."""

    op: Operator
    pes: Tuple[int, ...]


@dataclass
class GroupMapping:
    """Placement of a whole spatial group plus transfer distances."""

    placements: Dict[int, Placement]            # op uid -> placement
    edge_hops: Dict[Tuple[int, int], int]       # (prod, cons) -> hops
    bands: int = 1

    def average_hops(self) -> float:
        """Mean hop distance over in-group producer->consumer edges."""
        if not self.edge_hops:
            return 0.0
        return sum(self.edge_hops.values()) / len(self.edge_hops)


def map_group(plan: SpatialGroupPlan) -> GroupMapping:
    """Place a spatial group's operators on the mesh.

    Splits the operator sequence at transpose operators into segments;
    each segment fills columns in alternating direction (left-to-right,
    then right-to-left after a transpose, per Figure 4).  With more than
    one transpose the array splits into horizontal bands.
    """
    config = plan.config
    noc = MeshNoc.for_config(config)
    rows, cols = noc.rows, noc.cols

    segments: List[List[Operator]] = [[]]
    for op in plan.ops:
        if op.kind is OpKind.TRANSPOSE:
            segments.append([])
        else:
            segments[-1].append(op)
    segments = [s for s in segments if s]
    num_bands = max(1, len(segments) if len(segments) > 1 else 1)
    # Rows per band proportional to segment compute demand.
    seg_loads = [max(sum(op.total_work for op in seg), 1) for seg in segments]
    total_load = sum(seg_loads)
    band_rows: List[int] = []
    assigned = 0
    for i, load in enumerate(seg_loads):
        if i == len(seg_loads) - 1:
            band_rows.append(rows - assigned)
        else:
            r = max(1, round(rows * load / total_load))
            r = min(r, rows - assigned - (len(seg_loads) - 1 - i))
            band_rows.append(r)
            assigned += r

    placements: Dict[int, Placement] = {}
    row_base = 0
    for seg_idx, seg in enumerate(segments):
        height = band_rows[seg_idx]
        right_to_left = seg_idx % 2 == 1
        # Flat PE slot list in column-major fill order for this band;
        # odd segments (after a transpose) fill right to left (Figure 4).
        col_order = range(cols - 1, -1, -1) if right_to_left else range(cols)
        slots = [
            (row_base + r) * cols + c for c in col_order for r in range(height)
        ]
        cursor = 0
        for op in seg:
            want = plan.pe_allocation.get(op.uid, 1)
            if cursor + want > len(slots):
                # Wrap around within the band (time-multiplexed reuse).
                cursor = 0
            assigned_pes = tuple(slots[cursor: cursor + want])
            cursor += want
            placements[op.uid] = Placement(op, assigned_pes)
        row_base += height

    # Transposes "live" at the rightmost edge.
    for op in plan.ops:
        if op.kind is OpKind.TRANSPOSE:
            edge = tuple(r * cols + (cols - 1) for r in range(rows))
            placements[op.uid] = Placement(op, edge)

    edge_hops: Dict[Tuple[int, int], int] = {}
    uids = {op.uid for op in plan.ops}
    for op in plan.ops:
        for succ in plan.graph.successors(op):
            if succ.uid not in uids:
                continue
            src = placements[op.uid]
            dst = placements[succ.uid]
            if not src.pes or not dst.pes:
                continue
            hops = noc.hops(src.pes[0], dst.pes[0])
            edge_hops[(op.uid, succ.uid)] = hops
    return GroupMapping(
        placements=placements, edge_hops=edge_hops, bands=num_bands
    )
