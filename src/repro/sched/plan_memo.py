"""Structural memoization of window plans, and per-graph window tables.

The DP search prices one candidate window per (start, size) of a
graph's topological order, and the same window *structure* — a
KeySwitch ladder, a BSGS rotation diamond, an NTT phase pair — recurs
dozens of times per graph and across every graph of a sweep.  Plan
construction (loop-nest assignment, PE allocation, traffic metrics)
reads nothing but the window's structure, the hardware configuration,
the NTT split, and the *plan kind* (the plan class: CROPHE's
:class:`~repro.sched.dataflow.SpatialGroupPlan` or the MAD baseline's
depth-1 variant), so one construction serves every structurally
identical window.

Behind :data:`MEMO` (process-wide, thread-safe):

* a **window table** per lowered graph (:class:`WindowTable`): the
  topological order indexed by position, plus the structure key of
  each (start, size) window, interned process-wide as a small integer
  id;
* **entries** keyed by ``(projected hw, n_split, plan kind, structure
  id)``: the :class:`PlanSkeleton` plus one :class:`WindowTemplate` per
  live hardware config, holding exactly what the DP transition reads;
* **rows** (:class:`WindowRow`), one per (graph, hw, split, plan
  kind): templates by (start, size), shared by every scheduler over
  that graph — the cluster and design variants of a sweep re-search
  the same lowered graph objects;
* an optional **on-disk tier** of skeletons under the existing
  content-addressed :class:`~repro.dse.cache.ArtifactCache` (kind
  ``"plan"``), active whenever the DSE cache root is configured, so
  sweeps share plan structures across processes and runs.

A :class:`PlanSkeleton` is a plan's chosen loop nests, edge match
depths, PE allocation, and metrics with every operator/tensor reference
keyed by window position.  :class:`SkeletonBuilder` is the one
implementation of plan construction: it builds a skeleton from the
window table's per-position rows, and a memo miss extends the
searching scheduler's previous miss at the same start instead of
starting over.  The :class:`~repro.sched.dataflow.SpatialGroupPlan`
constructor runs the same builder over the operators it is given, and
:func:`instantiate` (both through :func:`bind`) rebinds a skeleton to
any structurally identical window — pure dict re-keying, no search, no
float arithmetic — so a memoized plan is **identical** (not merely
equivalent) to the one direct construction would produce: same nests,
same integer metrics in the same dict order, and therefore
float-identical schedules downstream.  The determinism tests in
``tests/sched/test_plan_memo.py`` and the skeleton digests in
``tests/sched/test_skeleton_digests.py`` pin this.

:meth:`PlanMemo.clear` drops every entry, key id, table and row (a
generation counter retires the tables cached on graph objects), so a
search after it runs cold.  ``REPRO_PLAN_MEMO=0`` bypasses the memo:
the scheduler builds every window's plan fresh through the constructor
and shares nothing across windows or searches — the comparison
baseline for those tests and for benchmarking.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Type

from repro.hw.config import FunctionalUnitMix, HardwareConfig
from repro.hw.pe import operator_cycles
from repro.hw.transpose import TransposeUnit
from repro.ir.graph import OperatorGraph
from repro.ir.loops import Axis, Loop, LoopNest
from repro.ir.operators import Operator, OpKind
from repro.obs.tracer import span as _span
from repro.sched.dataflow import GroupMetrics, GroupPricing, SpatialGroupPlan
from repro.sched.tiling import NestAssignment, choose_nest

__all__ = [
    "MEMO",
    "PlanMemo",
    "PlanSkeleton",
    "SkeletonBuilder",
    "WindowRow",
    "WindowTable",
    "WindowTemplate",
    "bind",
    "instantiate",
    "memo_enabled",
    "skeleton_from_doc",
    "skeleton_of",
    "skeleton_to_doc",
    "window_key",
]

#: Set to ``0``/``false``/``off`` to disable structural memoization.
MEMO_ENV = "REPRO_PLAN_MEMO"


def memo_enabled() -> bool:
    """Whether structural plan memoization is on (the default)."""
    return os.environ.get(MEMO_ENV, "").strip().lower() not in (
        "0", "false", "off", "no",
    )


#: SRAM-capacity/label projection of each hardware config (see
#: :func:`_memo_hw`).
_HW_PROJECTION: Dict[HardwareConfig, HardwareConfig] = {}

#: Canonical-JSON payloads of projected configs (see ``_fingerprint``).
_HW_PAYLOAD: Dict[HardwareConfig, Any] = {}


def _memo_hw(hw: HardwareConfig) -> HardwareConfig:
    """The hardware identity plans actually depend on.

    Plan *construction* (loop-nest assignment, PE allocation, the
    metrics walk) reads exactly five config fields: ``word_bits``,
    ``lanes_per_pe``, ``num_pes``, ``fu_mix``, and ``transpose_unit_mb``
    (the transpose unit's capacity bounds a buffer term).  Everything
    else — the label, clock frequency, DRAM/SRAM/NoC bandwidths, SRAM
    capacity, mesh shape, register file, area/power — only enters at
    *timing and feasibility* evaluation, which always runs against the
    live config the instantiated plan carries.  Projecting all of it to
    canonical values lets structural twins share skeletons across
    Figure 10's SRAM sweep points, across Table I's bandwidth/frequency
    variants, and across the workloads of a whole sweep (the disk tier
    keys on this projection too).
    """
    proj = _HW_PROJECTION.get(hw)
    if proj is None:
        proj = replace(
            hw,
            name="",
            frequency_ghz=1.0,
            dram_bandwidth_tbs=1.0,
            sram_bandwidth_tbs=1.0,
            sram_capacity_mb=1.0,
            register_file_kb=0,
            noc_link_bytes_per_cycle=1,
            mesh_dims=None,
            area_mm2=0.0,
            power_w=0.0,
        )
        _HW_PROJECTION[hw] = proj
    return proj


# ---------------------------------------------------------------------
# Structural window keys, window tables, templates, rows
# ---------------------------------------------------------------------


def window_key(
    graph: OperatorGraph, ops: Sequence[Operator]
) -> Tuple[Any, ...]:
    """Uid-free structural identity of one candidate window.

    Covers everything plan construction reads: per-operator structure
    (:meth:`~repro.ir.operators.Operator.signature`), tensor *aliasing*
    within the window (two operators sharing one constant is cheaper
    than two distinct constants — signatures alone cannot see this), the
    producer position of each internal input, tensor kinds and byte
    sizes, and each output's escape fate (consumed outside the window
    or a graph result).  Two windows with equal keys — in the same
    graph or different ones — yield byte-identical plan skeletons.

    Window tables call this once per (start, size) entry.
    """
    rows = MEMO.table(graph).structure
    index = {op.uid: i for i, op in enumerate(ops)}
    local: Dict[int, int] = {}
    parts = []
    for op in ops:
        sig, row_ins, row_outs = rows[op.uid]
        ins = []
        for t_uid, prod_uid, kind, nbytes in row_ins:
            lid = local.setdefault(t_uid, len(local))
            prod_pos = (
                index.get(prod_uid, -1) if prod_uid is not None else -1
            )
            ins.append((lid, prod_pos, kind, nbytes))
        outs = []
        for t_uid, cons_uids, kind, nbytes in row_outs:
            lid = local.setdefault(t_uid, len(local))
            internal = tuple(sorted(
                index[c] for c in cons_uids if c in index
            ))
            escapes = not cons_uids or len(internal) != len(cons_uids)
            outs.append((lid, escapes, internal, kind, nbytes))
        parts.append((sig, tuple(ins), tuple(outs)))
    return tuple(parts)


class WindowTable:
    """One lowered graph's windows, indexed by topological position.

    Window (start, size) — operators ``order[start:start + size]`` — is
    addressed by the slot ``start * stride + size``.  ``in_uids`` and
    ``out_uids`` hold each position's tensor uids, which template
    references bind to; ``last_use`` and ``consumers`` give each
    tensor's last and every consuming position (liveness and
    streamability in the DP transition).  ``structure`` holds each
    operator's signature, producers, consumers and byte sizes (what
    :func:`window_key` reads), and ``key_ids`` the interned structure id
    of each slot filled so far; ``rows`` holds this graph's
    :class:`WindowRow` per (hw, split, plan kind).  The per-position
    rows the skeleton builder reads, and each operator uid's position,
    are built on the first build (:meth:`plan_rows`).  Cached on the
    graph by :meth:`PlanMemo.table` until its operator count or the
    memo's generation changes.
    """

    __slots__ = (
        "num_operators", "generation", "order", "stride", "in_uids",
        "out_uids", "last_use", "consumers", "structure", "key_ids",
        "rows", "position", "_plan_rows",
    )

    def __init__(self, graph: OperatorGraph, generation: int):
        order = tuple(graph.operators_topological())
        self.num_operators = graph.num_operators
        self.generation = generation
        self.order = order
        self.stride = len(order) + 1
        self.in_uids = tuple(tuple(t.uid for t in op.inputs) for op in order)
        self.out_uids = tuple(
            tuple(t.uid for t in op.outputs) for op in order
        )
        consumers: Dict[int, List[int]] = {}
        for pos, inputs in enumerate(self.in_uids):
            for uid in inputs:
                consumers.setdefault(uid, []).append(pos)
        self.consumers = {uid: tuple(p) for uid, p in consumers.items()}
        self.last_use = {uid: p[-1] for uid, p in consumers.items()}
        self.structure: Dict[int, Tuple] = {}
        for op in order:
            ins = []
            for t in op.inputs:
                producer = graph.producer_of(t)
                ins.append((
                    t.uid, producer.uid if producer is not None else None,
                    t.kind.value, t.bytes,
                ))
            outs = tuple(
                (t.uid, tuple(c.uid for c in graph.consumers_of(t)),
                 t.kind.value, t.bytes)
                for t in op.outputs
            )
            self.structure[op.uid] = (op.signature(), tuple(ins), outs)
        self.key_ids: Dict[int, int] = {}
        self.rows: Dict[Tuple, "WindowRow"] = {}
        self.position: Dict[int, int] = {}
        self._plan_rows: Optional[Tuple["_PositionRow", ...]] = None

    def plan_rows(self, graph: OperatorGraph) -> Tuple["_PositionRow", ...]:
        """One :class:`_PositionRow` per position (built once)."""
        rows = self._plan_rows
        if rows is None:
            position = {op.uid: pos for pos, op in enumerate(self.order)}
            consumers = self.consumers
            built = []
            for op in self.order:
                sig = self.structure[op.uid][0]
                costs = _OP_COSTS.get(sig)
                if costs is None:
                    costs = _OP_COSTS.setdefault(sig, _OpCosts())
                ins = []
                for t in op.inputs:
                    producer = graph.producer_of(t)
                    ins.append((
                        t.uid,
                        None if producer is None else position[producer.uid],
                        t.bytes, t.is_constant,
                    ))
                built.append(_PositionRow(
                    op, costs,
                    tuple(position[p.uid] for p in graph.predecessors(op)),
                    tuple(ins),
                    tuple(
                        (t.bytes, consumers.get(t.uid, ()))
                        for t in op.outputs
                    ),
                ))
            self.position = position
            rows = self._plan_rows = tuple(built)
        return rows


class WindowTemplate:
    """What the DP transition reads of one window structure on one
    live hardware config.

    The integer resource demands and verdicts come straight from the
    skeleton; ``floor`` is the price with zero DRAM bytes (no residency
    can make the step cheaper — the dominance prune's bound).  Tensor
    references are ``(position, input or output index, bytes)`` in the
    source plan's dict order (the constant-budget fill is
    order-sensitive), and ``tops`` holds each position's top loop as
    ``(axis, trip count)``, ``None`` when it cannot match (no loops, or
    NTT butterfly stages): a deferred tensor streams into a consumer
    exactly when its producer's top loop is among the consuming
    positions' (``matched_prefix > 0``, Section V-A).  Uid-free, so one
    template serves every structural twin; the transition binds uids
    through the :class:`WindowTable`.
    """

    __slots__ = (
        "skeleton", "compute_cycles", "sram_bytes", "noc_bytes",
        "transpose_bytes", "dram_read_bytes", "dram_write_bytes",
        "buffer_bytes", "floor", "feasible", "fits", "constants",
        "externals", "outs", "tops",
    )

    def __init__(
        self,
        skeleton: "PlanSkeleton",
        ops: Sequence[Operator],
        hw: HardwareConfig,
    ):
        self.skeleton = skeleton
        self.compute_cycles = skeleton.compute_cycles
        self.sram_bytes = skeleton.sram_bytes
        self.noc_bytes = skeleton.noc_bytes
        self.transpose_bytes = skeleton.transpose_bytes
        self.dram_read_bytes = skeleton.dram_read_bytes
        self.dram_write_bytes = skeleton.dram_write_bytes
        self.buffer_bytes = skeleton.buffer_bytes
        self.floor = GroupPricing.for_config(hw).seconds(
            skeleton.compute_cycles, 0, skeleton.sram_bytes,
            skeleton.noc_bytes, skeleton.transpose_bytes,
        )
        self.feasible = bool(skeleton.pe_allocation) or all(
            op.kind is OpKind.TRANSPOSE for op in ops
        )
        self.fits = skeleton.buffer_bytes <= hw.sram_capacity_bytes
        self.constants = skeleton.constant_bytes
        self.externals = skeleton.external_read_bytes
        self.outs = tuple(
            (p, idx, ops[p].outputs[idx].bytes)
            for p, idx in skeleton.boundary_outs
        )
        self.tops = tuple(
            (nest.loops[0].axis, nest.loops[0].size)
            if nest.loops and nest.loops[0].axis is not Axis.STAGE
            else None
            for nest in skeleton.nests
        )


class WindowRow:
    """Templates of one (graph, live hw, n_split, plan kind) by slot,
    shared by every scheduler over that graph and hardware."""

    __slots__ = ("hw", "memo_hw", "n_split", "plan_kind", "templates")

    def __init__(
        self,
        hw: HardwareConfig,
        n_split: Optional[Tuple[int, int]],
        plan_kind: Type[SpatialGroupPlan],
    ):
        self.hw = hw
        self.memo_hw = _memo_hw(hw)
        self.n_split = n_split
        self.plan_kind = plan_kind
        self.templates: Dict[int, WindowTemplate] = {}


# ---------------------------------------------------------------------
# Skeletons: position-keyed plan descriptions
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class PlanSkeleton:
    """A plan with every uid translated to a window position.

    Tensor references are ``(op position, input index)`` pairs naming
    one occurrence of the tensor among the window's operator inputs;
    reference *order* preserves the source dicts' insertion order, so
    an instantiated plan iterates its metrics dicts exactly as a
    freshly constructed one would (the constant-residency loop in the
    scheduler transition is order-sensitive under a tight budget).

    ``boundary_ins``/``boundary_outs`` carry the window's external
    (inputs, outputs) as positional references — inputs into the
    operator *input* lists, outputs into the operator *output* lists —
    so instantiation pre-seeds the plan's boundary cache and the DP
    transition never re-walks the graph for it.
    """

    nests: Tuple[LoopNest, ...]
    edge_matches: Tuple[Tuple[int, int, int], ...]
    pe_allocation: Tuple[Tuple[int, int], ...]
    compute_cycles: int
    buffer_bytes: int
    noc_bytes: int
    transpose_bytes: int
    sram_bytes: int
    dram_read_bytes: int
    dram_write_bytes: int
    constant_bytes: Tuple[Tuple[int, int, int], ...]
    external_read_bytes: Tuple[Tuple[int, int, int], ...]
    boundary_ins: Tuple[Tuple[int, int], ...]
    boundary_outs: Tuple[Tuple[int, int], ...]


def _tensor_refs(ops: Sequence[Operator]) -> Dict[int, Tuple[int, int]]:
    """First ``(op position, input index)`` occurrence of each input."""
    refs: Dict[int, Tuple[int, int]] = {}
    for pos, op in enumerate(ops):
        for idx, t in enumerate(op.inputs):
            refs.setdefault(t.uid, (pos, idx))
    return refs


def skeleton_of(plan: SpatialGroupPlan) -> PlanSkeleton:
    """Strip a live plan down to its position-keyed skeleton."""
    ops = plan.ops
    pos = {op.uid: i for i, op in enumerate(ops)}
    refs = _tensor_refs(ops)
    out_refs: Dict[int, Tuple[int, int]] = {}
    for p, op in enumerate(ops):
        for idx, t in enumerate(op.outputs):
            out_refs.setdefault(t.uid, (p, idx))
    b_ins, b_outs = plan.boundary()
    m = plan.metrics
    return PlanSkeleton(
        nests=tuple(plan.assignment.nests[op.uid] for op in ops),
        edge_matches=tuple(
            (pos[p], pos[c], depth)
            for (p, c), depth in plan.assignment.edge_matches.items()
        ),
        pe_allocation=tuple(
            (pos[uid], pes) for uid, pes in plan.pe_allocation.items()
        ),
        compute_cycles=m.compute_cycles,
        buffer_bytes=m.buffer_bytes,
        noc_bytes=m.noc_bytes,
        transpose_bytes=m.transpose_bytes,
        sram_bytes=m.sram_bytes,
        dram_read_bytes=m.dram_read_bytes,
        dram_write_bytes=m.dram_write_bytes,
        constant_bytes=tuple(
            (*refs[uid], nbytes) for uid, nbytes in m.constant_bytes.items()
        ),
        external_read_bytes=tuple(
            (*refs[uid], nbytes)
            for uid, nbytes in m.external_read_bytes.items()
        ),
        boundary_ins=tuple(refs[t.uid] for t in b_ins),
        boundary_outs=tuple(out_refs[t.uid] for t in b_outs),
    )


def bind(
    plan: SpatialGroupPlan,
    skeleton: PlanSkeleton,
    graph: OperatorGraph,
    ops: Tuple[Operator, ...],
    hw: HardwareConfig,
    n_split: Optional[Tuple[int, int]],
) -> SpatialGroupPlan:
    """Fill ``plan``'s live fields from ``skeleton`` over ``ops``.

    Pure re-keying from window positions to this window's uids, the
    boundary included, so no graph walk follows.
    """
    plan.graph = graph
    plan.ops = ops
    plan.config = hw
    plan.n_split = n_split
    plan.assignment = NestAssignment(
        nests={op.uid: nest for op, nest in zip(ops, skeleton.nests)},
        edge_matches={
            (ops[p].uid, ops[c].uid): depth
            for p, c, depth in skeleton.edge_matches
        },
    )
    plan.pe_allocation = {
        ops[p].uid: pes for p, pes in skeleton.pe_allocation
    }
    # Built via __new__: the dataclass __init__ is measurable at the
    # hundreds of thousands of instantiations a cold search performs.
    metrics = GroupMetrics.__new__(GroupMetrics)
    metrics.compute_cycles = skeleton.compute_cycles
    metrics.buffer_bytes = skeleton.buffer_bytes
    metrics.noc_bytes = skeleton.noc_bytes
    metrics.transpose_bytes = skeleton.transpose_bytes
    metrics.sram_bytes = skeleton.sram_bytes
    metrics.dram_read_bytes = skeleton.dram_read_bytes
    metrics.dram_write_bytes = skeleton.dram_write_bytes
    metrics.constant_bytes = {
        ops[p].inputs[idx].uid: nbytes
        for p, idx, nbytes in skeleton.constant_bytes
    }
    metrics.external_read_bytes = {
        ops[p].inputs[idx].uid: nbytes
        for p, idx, nbytes in skeleton.external_read_bytes
    }
    plan.metrics = metrics
    plan._boundary = (
        [ops[p].inputs[idx] for p, idx in skeleton.boundary_ins],
        [ops[p].outputs[idx] for p, idx in skeleton.boundary_outs],
    )
    return plan


def instantiate(
    skeleton: PlanSkeleton,
    graph: OperatorGraph,
    ops: Sequence[Operator],
    hw: HardwareConfig,
    n_split: Optional[Tuple[int, int]],
    plan_kind: Type[SpatialGroupPlan] = SpatialGroupPlan,
) -> SpatialGroupPlan:
    """Rebuild a live plan of ``plan_kind`` from a skeleton onto a
    structural twin."""
    return bind(
        plan_kind.__new__(plan_kind), skeleton, graph, tuple(ops), hw,
        n_split,
    )


# ---------------------------------------------------------------------
# The skeleton builder: plan construction over window-table rows
# ---------------------------------------------------------------------


class _OpCosts:
    """What plan construction reads of one operator signature.

    A signature fixes an operator's kind and every trip count, so its
    candidate nests (per NTT split), its load and its cycles are the
    same for every operator that carries it; each is computed from the
    first such operator that asks.
    """

    __slots__ = ("load", "nests", "cycles")

    def __init__(self) -> None:
        self.load: Optional[int] = None
        #: n_split -> candidate nests.
        self.nests: Dict[Optional[Tuple[int, int]], Tuple[LoopNest, ...]] = {}
        #: (PEs, lanes per PE) -> cycles on CROPHE hardware, or
        #: (functional-unit mix, total lanes) -> cycles on a
        #: specialized baseline.
        self.cycles: Dict[Tuple[Any, int], int] = {}


#: Operator signature -> its :class:`_OpCosts` (process-wide; pure
#: functions of the signature, so never cleared).
_OP_COSTS: Dict[Tuple, _OpCosts] = {}


class _PositionRow:
    """One topological position of a :class:`WindowTable`.

    ``preds`` are the predecessor positions in ``graph.predecessors``
    order; ``ins`` one ``(uid, producer position or None, bytes,
    is constant)`` per input; ``outs`` one ``(bytes, consumer
    positions)`` per output.
    """

    __slots__ = ("op", "costs", "preds", "ins", "outs", "transpose")

    def __init__(
        self,
        op: Operator,
        costs: _OpCosts,
        preds: Tuple[int, ...],
        ins: Tuple[Tuple[int, Optional[int], int, bool], ...],
        outs: Tuple[Tuple[int, Tuple[int, ...]], ...],
    ):
        self.op = op
        self.costs = costs
        self.preds = preds
        self.ins = ins
        self.outs = outs
        self.transpose = op.kind is OpKind.TRANSPOSE


def _specialized_cycles(
    op: Operator, mix: FunctionalUnitMix, total_lanes: int
) -> int:
    """Cycles on a specialized baseline: only the matching functional
    units' share of the total logic works on this operator class."""
    if op.kind.is_monolithic_ntt or op.kind.is_ntt_phase:
        fraction = mix.ntt
    elif op.kind is OpKind.AUTOMORPHISM:
        fraction = mix.automorphism
    elif op.kind is OpKind.BCONV:
        fraction = mix.bconv
    else:
        fraction = mix.elementwise
    lanes = max(1, int(total_lanes * fraction))
    if op.kind is OpKind.AUTOMORPHISM:
        moves = op.limbs * op.n
        return max(1, -(moves // -lanes))
    work = op.mul_work or op.add_work
    if work == 0:
        return 1
    return max(1, -(work // -lanes))


def _chunk_bytes(nest: LoopNest, nbytes: int, word: int) -> int:
    """Buffer slice of a tensor streamed between SRAM and an operator
    running ``nest``: one iteration of its top loop."""
    if not nest.loops:
        return nbytes
    outer = nest.loops[0].size
    return min(nbytes, max(nbytes // max(outer, 1), word))


class _Group:
    """A skeleton under construction: the operators placed so far.

    Everything an operator contributes on its input side — its nest,
    its edge depths, matched/orientation-switch/constant/external
    traffic and buffer, first-occurrence references — depends only on
    the operators placed before it and on which of its producers belong
    to the group, so it is accumulated once, when the operator is
    placed.
    The output side (what escapes), the PE split and the compute cycles
    depend on the whole group and are computed by :meth:`skeleton`.
    """

    __slots__ = (
        "builder", "members", "local", "nests", "edges", "compute",
        "loads", "outs", "refs", "constants", "externals", "buffer", "noc",
        "sram", "transpose", "dram_read", "specialized_worst",
    )

    def __init__(self, builder: "SkeletonBuilder", members: Set[int]):
        self.builder = builder
        #: Table positions in the group (a window grows it as it goes).
        self.members = members
        #: Placed position -> its index in the group.
        self.local: Dict[int, int] = {}
        self.nests: List[LoopNest] = []
        self.edges: List[Tuple[int, int, int]] = []
        #: (group index, row) and load per non-transpose operator.
        self.compute: List[Tuple[int, _PositionRow]] = []
        self.loads: List[int] = []
        #: (group index, output index, bytes, consumer positions,
        #: double-buffered chunk) per output.
        self.outs: List[Tuple[int, int, int, Tuple[int, ...], int]] = []
        #: First (group index, input index) of each boundary input.
        self.refs: Dict[int, Tuple[int, int]] = {}
        self.constants: Dict[int, int] = {}
        self.externals: Dict[int, int] = {}
        self.buffer = 0
        self.noc = 0
        self.sram = 0
        self.transpose = 0
        self.dram_read = 0
        self.specialized_worst = 0

    def add(self, pos: int) -> None:
        """Place the operator at table position ``pos`` next."""
        b = self.builder
        rows = b.rows
        row = rows[pos]
        members = self.members
        members.add(pos)
        local = self.local
        nests = self.nests
        k = len(nests)

        # Nest: the deepest summed match against the producers placed
        # so far (only those score, and only their edges exist).
        costs = row.costs
        candidates = costs.nests.get(b.n_split)
        if candidates is None:
            candidates = costs.nests.setdefault(
                b.n_split, tuple(row.op.candidate_loop_nests(b.n_split))
            )
        placed = [p for p in row.preds if p in local]
        nest, depths = choose_nest(
            candidates, [nests[local[p]] for p in placed]
        )
        depth_of: Dict[int, int] = {}
        cap = b.max_depth
        for p, depth in zip(placed, depths):
            if cap is not None and depth > cap:
                depth = cap
            self.edges.append((local[p], k, depth))
            depth_of[p] = depth
        nests.append(nest)
        local[pos] = k

        word = b.word
        refs = self.refs
        for idx, (uid, producer, nbytes, constant) in enumerate(row.ins):
            if producer is not None and producer in members:
                matched = depth_of.get(producer, 0)
                if matched > 0:
                    # Fine-grained pipeline: PE-to-PE over the NoC,
                    # double-buffered granule, no SRAM traffic.
                    self.buffer += 2 * nests[local[producer]].granule_elements(
                        matched
                    ) * word
                    self.noc += nbytes
                elif rows[producer].transpose or row.transpose:
                    # Orientation switch through the transpose unit.
                    self.transpose += nbytes
                    self.buffer += min(nbytes, b.transpose_capacity)
                else:
                    # Orientation switch: materialize via SRAM.
                    self.buffer += nbytes
                    self.sram += 2 * nbytes
                continue
            first = uid not in refs
            if first:
                refs[uid] = (k, idx)
            if constant:
                # Auxiliary constants: fetched once per group (spatial
                # sharing), streamed in chunks.
                if first:
                    self.buffer += 2 * _chunk_bytes(nest, nbytes, word)
                    self.constants[uid] = nbytes
                    self.sram += nbytes
                    self.noc += nbytes
                continue
            # External intermediate/input: streamed from memory, fetched
            # once per group even with several consumers, and charged
            # only for the slice the operator consumes (a digit
            # extraction reads alpha limbs of a full polynomial).
            self.buffer += 2 * _chunk_bytes(nest, nbytes, word)
            slice_bytes = min(nbytes, row.op.limbs * row.op.n * word)
            charged = self.externals.get(uid, 0)
            if slice_bytes > charged:
                extra = slice_bytes - charged
                self.externals[uid] = slice_bytes
                self.dram_read += extra
                self.sram += extra
                self.noc += extra
        for idx, (nbytes, consumers) in enumerate(row.outs):
            self.outs.append((
                k, idx, nbytes, consumers,
                2 * _chunk_bytes(nest, nbytes, word),
            ))

        if row.transpose:
            self.transpose += sum(t[2] for t in row.ins)
        else:
            self.compute.append((k, row))
            load = costs.load
            if load is None:
                load = costs.load = max(row.op.total_work, 1)
            self.loads.append(load)
            if b.fu_key is not None:
                cycles = costs.cycles.get(b.fu_key)
                if cycles is None:
                    cycles = costs.cycles.setdefault(
                        b.fu_key, _specialized_cycles(row.op, *b.fu_key)
                    )
                if cycles > self.specialized_worst:
                    self.specialized_worst = cycles

    def skeleton(self) -> PlanSkeleton:
        """The skeleton of the group as placed so far."""
        b = self.builder
        members = self.members

        # Outputs escape when unconsumed or consumed outside the group.
        buffer = self.buffer
        write = 0
        boundary_outs = []
        for k, idx, nbytes, consumers, chunk2 in self.outs:
            if not consumers or not members.issuperset(consumers):
                buffer += chunk2
                write += nbytes
                boundary_outs.append((k, idx))

        # PE split (Section IV-B, proportional to load): one PE each,
        # the rest by load, leftovers by largest fraction, ties to the
        # later compute operator.  More operators than PEs: infeasible
        # as one spatial group.
        compute = self.compute
        alloc: List[int] = []
        if len(compute) <= b.num_pes:
            loads = self.loads
            alloc = [1] * len(compute)
            remaining = b.num_pes - len(compute)
            total_load = sum(loads)
            if remaining > 0 and total_load > 0:
                fractional = []
                given = 0
                for i, load in enumerate(loads):
                    share = remaining * load / total_load
                    extra = int(share)
                    alloc[i] += extra
                    given += extra
                    fractional.append((share - extra, i))
                for _, i in sorted(fractional, reverse=True)[
                    :remaining - given
                ]:
                    alloc[i] += 1

        # Compute: pipelined operators run concurrently; the group's
        # makespan is the slowest stage.
        if b.fu_key is not None:
            worst = self.specialized_worst
        else:
            worst = 0
            lanes = b.lanes
            for i, (_, row) in enumerate(compute):
                key = (alloc[i] if alloc else 1, lanes)
                cycles = row.costs.cycles.get(key)
                if cycles is None:
                    cycles = row.costs.cycles.setdefault(
                        key, operator_cycles(row.op, key[0], lanes)
                    )
                if cycles > worst:
                    worst = cycles

        refs = self.refs
        return PlanSkeleton(
            nests=tuple(self.nests),
            edge_matches=tuple(self.edges),
            pe_allocation=tuple(
                (k, pes) for (k, _), pes in zip(compute, alloc)
            ),
            compute_cycles=worst,
            buffer_bytes=buffer,
            noc_bytes=self.noc + write,
            transpose_bytes=self.transpose,
            sram_bytes=self.sram + write,
            # Constants' DRAM cost is settled at schedule level (they
            # may be resident already); the default charges the read.
            dram_read_bytes=self.dram_read + sum(self.constants.values()),
            dram_write_bytes=write,
            constant_bytes=tuple(
                (*refs[uid], nbytes) for uid, nbytes in self.constants.items()
            ),
            external_read_bytes=tuple(
                (*refs[uid], nbytes) for uid, nbytes in self.externals.items()
            ),
            boundary_ins=tuple(refs.values()),
            boundary_outs=tuple(boundary_outs),
        )


class SkeletonBuilder:
    """Plan construction over one window table's per-position rows.

    Bound to one graph's table, live hardware config, NTT split and
    plan kind (whose ``max_match_depth`` caps edge depths after the
    nest choice).  :meth:`window` builds window (start, size) and keeps
    its state: producers precede consumers in the topological order, so
    a window's operators contribute the same input side in every larger
    window at the same start, and the next call at that start extends
    the state by the added operators instead of starting over (a new
    start starts over).  :meth:`group` builds any operator list, in the
    order given — the :class:`~repro.sched.dataflow.SpatialGroupPlan`
    constructor's path.  Both yield the very skeleton of the other for
    the same operators.  A builder is not thread-safe: each searching
    scheduler owns its own.
    """

    __slots__ = (
        "graph", "table", "rows", "n_split", "max_depth", "word",
        "num_pes", "lanes", "fu_key", "transpose_capacity", "_window",
    )

    def __init__(
        self,
        graph: OperatorGraph,
        table: WindowTable,
        hw: HardwareConfig,
        n_split: Optional[Tuple[int, int]],
        plan_kind: Type[SpatialGroupPlan],
    ):
        self.graph = graph
        self.table = table
        #: The table's rows, fetched by the first build: a scheduler
        #: whose windows are all memo or disk hits never needs them.
        self.rows: Optional[Tuple[_PositionRow, ...]] = None
        self.n_split = n_split
        self.max_depth = plan_kind.max_match_depth
        self.word = hw.word_bytes
        self.num_pes = hw.num_pes
        self.lanes = hw.lanes_per_pe
        self.fu_key = (
            None if hw.fu_mix is None else (hw.fu_mix, hw.total_lanes)
        )
        self.transpose_capacity = TransposeUnit.for_config(hw).capacity_bytes
        #: (start, group) of the last window built.
        self._window: Optional[Tuple[int, _Group]] = None

    def _new_group(self) -> _Group:
        """An empty group (the table's rows are fetched on first use)."""
        if self.rows is None:
            self.rows = self.table.plan_rows(self.graph)
        return _Group(self, set())

    def window(self, start: int, size: int) -> PlanSkeleton:
        """The skeleton of window (start, size) of the table."""
        last = self._window
        if (
            last is not None and last[0] == start
            and len(last[1].nests) <= size
        ):
            group = last[1]
        else:
            group = self._new_group()
            self._window = (start, group)
        for pos in range(start + len(group.nests), start + size):
            group.add(pos)
        return group.skeleton()

    def group(self, ops: Sequence[Operator]) -> PlanSkeleton:
        """The skeleton of ``ops`` (graph operators, in any order)."""
        group = self._new_group()
        position = self.table.position
        positions = [position[op.uid] for op in ops]
        # Every given operator is a member before the first is placed.
        group.members.update(positions)
        for pos in positions:
            group.add(pos)
        return group.skeleton()


# ---------------------------------------------------------------------
# Disk round trip (ArtifactCache kind "plan")
# ---------------------------------------------------------------------


def skeleton_to_doc(skeleton: PlanSkeleton) -> Dict[str, Any]:
    """JSON document form of a skeleton (for the disk tier)."""
    return {
        "nests": [
            [[loop.axis.value, loop.size] for loop in nest.loops]
            for nest in skeleton.nests
        ],
        "edge_matches": [list(e) for e in skeleton.edge_matches],
        "pe_allocation": [list(a) for a in skeleton.pe_allocation],
        "metrics": {
            "compute_cycles": skeleton.compute_cycles,
            "buffer_bytes": skeleton.buffer_bytes,
            "noc_bytes": skeleton.noc_bytes,
            "transpose_bytes": skeleton.transpose_bytes,
            "sram_bytes": skeleton.sram_bytes,
            "dram_read_bytes": skeleton.dram_read_bytes,
            "dram_write_bytes": skeleton.dram_write_bytes,
        },
        "constant_bytes": [list(c) for c in skeleton.constant_bytes],
        "external_read_bytes": [
            list(c) for c in skeleton.external_read_bytes
        ],
        "boundary_ins": [list(r) for r in skeleton.boundary_ins],
        "boundary_outs": [list(r) for r in skeleton.boundary_outs],
    }


def skeleton_from_doc(doc: Any) -> Optional[PlanSkeleton]:
    """Parse a disk document back into a skeleton.

    Returns ``None`` for anything malformed — a corrupt or foreign
    entry degrades to a cache miss (the shared :mod:`repro.dse.cache`
    contract), never an exception into the scheduler.
    """
    try:
        nests = tuple(
            LoopNest(Loop(Axis(axis), int(size)) for axis, size in nest)
            for nest in doc["nests"]
        )
        m = doc["metrics"]
        return PlanSkeleton(
            nests=nests,
            edge_matches=tuple(
                (int(p), int(c), int(d)) for p, c, d in doc["edge_matches"]
            ),
            pe_allocation=tuple(
                (int(p), int(n)) for p, n in doc["pe_allocation"]
            ),
            compute_cycles=int(m["compute_cycles"]),
            buffer_bytes=int(m["buffer_bytes"]),
            noc_bytes=int(m["noc_bytes"]),
            transpose_bytes=int(m["transpose_bytes"]),
            sram_bytes=int(m["sram_bytes"]),
            dram_read_bytes=int(m["dram_read_bytes"]),
            dram_write_bytes=int(m["dram_write_bytes"]),
            constant_bytes=tuple(
                (int(p), int(i), int(b)) for p, i, b in doc["constant_bytes"]
            ),
            external_read_bytes=tuple(
                (int(p), int(i), int(b))
                for p, i, b in doc["external_read_bytes"]
            ),
            boundary_ins=tuple(
                (int(p), int(i)) for p, i in doc["boundary_ins"]
            ),
            boundary_outs=tuple(
                (int(p), int(i)) for p, i in doc["boundary_outs"]
            ),
        )
    except (KeyError, TypeError, ValueError):
        return None


# ---------------------------------------------------------------------
# The process-wide memo
# ---------------------------------------------------------------------


class PlanMemo:
    """Process-wide structural plan store (thread-safe).

    The disk tier piggybacks on the shared DSE
    :data:`~repro.dse.cache.CACHE` (kind ``"plan"``), so it follows the
    same root resolution (``REPRO_DSE_CACHE`` / ``--cache-dir``),
    atomic-write discipline, and corrupt-degrades-to-miss contract.
    Counters are accumulated under the lock, so threads may share the
    memo; the scheduler stamps per-search deltas into the metric
    registry once per search.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: (skeleton, live hw -> template) per entry key.
        self._entries: Dict[Tuple[Any, ...], Tuple[PlanSkeleton, Dict]] = {}
        #: Interned structure keys: key -> id, and id -> key.
        self._key_ids: Dict[Tuple[Any, ...], int] = {}
        self._keys: List[Tuple[Any, ...]] = []
        #: Bumped by :meth:`clear`; tables of older generations rebuild.
        self.generation = 0
        self.stats: Dict[str, int] = {
            "memo_hit": 0, "memo_miss": 0, "disk_hit": 0,
        }

    def _count(self, stat: str) -> None:
        with self._lock:
            self.stats[stat] += 1

    def snapshot(self) -> Dict[str, int]:
        """Copy of the cumulative counters (for per-search deltas)."""
        with self._lock:
            return dict(self.stats)

    def clear(self) -> None:
        """Drop every entry, key id, table and row; zero the counters."""
        with self._lock:
            self._entries.clear()
            self._key_ids.clear()
            self._keys.clear()
            self.generation += 1
            for key in self.stats:
                self.stats[key] = 0

    def table(self, graph: OperatorGraph) -> WindowTable:
        """``graph``'s window table of the current generation."""
        table = graph.__dict__.get("_window_table")
        if (
            table is None
            or table.generation != self.generation
            or table.num_operators != graph.num_operators
        ):
            table = WindowTable(graph, self.generation)
            graph._window_table = table
        return table

    def structure_id(
        self, graph: OperatorGraph, table: WindowTable, start: int, size: int
    ) -> int:
        """The interned structure id of window (start, size)."""
        slot = start * table.stride + size
        sid = table.key_ids.get(slot)
        if sid is None:
            key = window_key(graph, table.order[start:start + size])
            with self._lock:
                sid = self._key_ids.setdefault(key, len(self._keys))
                if sid == len(self._keys):
                    self._keys.append(key)
            table.key_ids[slot] = sid
        return sid

    def _fingerprint(self, key: Tuple[Any, ...]) -> str:
        """The disk-tier digest of one entry key."""
        # Imported lazily: repro.dse.fingerprint imports the scheduler.
        from repro.dse.fingerprint import FORMAT_VERSION, digest, hw_payload

        hw, n_split, plan_kind, structure_id = key

        # ``hw`` here is the projected memo config — a handful of
        # distinct objects per process — so its asdict() payload is
        # cached (fingerprints run once per memory-tier miss).
        payload = _HW_PAYLOAD.get(hw)
        if payload is None:
            payload = hw_payload(hw)
            _HW_PAYLOAD[hw] = payload
        doc = {
            "kind": "plan",
            "version": FORMAT_VERSION,
            "hw": payload,
            "n_split": list(n_split) if n_split else None,
            "window": self._keys[structure_id],
        }
        if plan_kind.dataflow != SpatialGroupPlan.dataflow:
            # Baseline skeletons never serve CROPHE windows (nor the
            # reverse); CROPHE fingerprints predate the field.
            doc["dataflow"] = plan_kind.dataflow
        return digest(doc)

    def template(
        self,
        graph: OperatorGraph,
        table: WindowTable,
        row: WindowRow,
        start: int,
        size: int,
        builder: SkeletonBuilder,
    ) -> WindowTemplate:
        """The template of window (start, size) of ``table``'s graph.

        Counts one memo hit, disk hit, or miss.  Tier order: the shared
        row, the memory entry (built into a template for ``row.hw`` if
        the entry has none yet), the disk skeleton (only when the DSE
        cache has a root), then ``builder`` — the caller's
        :class:`SkeletonBuilder` for ``row`` — which back-fills every
        tier.  A build runs under a ``sched.plan`` span so cold traces
        show exactly where structural planning time goes; hits are
        span-free (they are dict lookups).
        """
        slot = start * table.stride + size
        template = row.templates.get(slot)
        if template is not None:
            self._count("memo_hit")
            return template
        key = (
            row.memo_hw, row.n_split, row.plan_kind,
            self.structure_id(graph, table, start, size),
        )
        # One lock round trip covers both the lookup and the counter.
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.stats["memo_hit"] += 1
        if entry is None:
            entry = self._build(row, key, start, size, builder)
        skeleton, templates = entry
        template = templates.get(row.hw)
        if template is None:
            template = templates.setdefault(
                row.hw, WindowTemplate(
                    skeleton, table.order[start:start + size], row.hw
                )
            )
        row.templates[slot] = template
        return template

    def _build(
        self,
        row: WindowRow,
        key: Tuple[Any, ...],
        start: int,
        size: int,
        builder: SkeletonBuilder,
    ) -> Tuple[PlanSkeleton, Dict[HardwareConfig, WindowTemplate]]:
        """A memory-tier miss: load the skeleton from disk or build it."""
        # Imported lazily: repro.dse depends on this package.
        from repro.dse.cache import CACHE

        fp = None
        skeleton = None
        stat = "memo_miss"
        if CACHE.root is not None:
            fp = self._fingerprint(key)
            doc = CACHE.get("plan", fp)
            if doc is not None:
                skeleton = skeleton_from_doc(doc)
            if skeleton is not None:
                stat = "disk_hit"
        if skeleton is None:
            with _span("sched.plan", ops=size):
                skeleton = builder.window(start, size)
            if fp is not None:
                CACHE.put(
                    "plan", fp, skeleton_to_doc(skeleton),
                    meta={"ops": size, "hw": row.hw.name},
                )
        with self._lock:
            entry = self._entries.setdefault(key, (skeleton, {}))
            self.stats[stat] += 1
        return entry


#: The process-wide memo every :class:`~repro.sched.scheduler.
#: Scheduler` shares; windows ≤ ``max_group_size`` operators keep
#: skeletons tiny, so unbounded growth is not a practical concern.
MEMO = PlanMemo()
