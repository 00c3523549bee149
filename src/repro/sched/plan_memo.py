"""Structural memoization of :class:`~repro.sched.dataflow.SpatialGroupPlan`.

The DP search constructs one plan per candidate window, and the same
window *structure* — a KeySwitch ladder, a BSGS rotation diamond, an
NTT phase pair — recurs dozens of times per graph and across every
graph of a sweep.  Plan construction (loop-nest assignment, PE
allocation, traffic metrics) reads nothing but the window's structure,
the hardware configuration, and the NTT split, so one construction can
serve every structurally identical window.

Two tiers behind :data:`MEMO` (process-wide, thread-safe):

* an **in-memory tier** keyed by ``(hw, n_split, window_key(...))`` —
  a plain tuple, uid-free, cheap to hash;
* an optional **on-disk tier** under the existing content-addressed
  :class:`~repro.dse.cache.ArtifactCache` (kind ``"plan"``), active
  whenever the DSE cache root is configured, so sweeps share plan
  structures across processes and runs.

What is stored is a :class:`PlanSkeleton`: the plan's chosen loop
nests, edge match depths, PE allocation, and metrics with every
operator/tensor reference translated from process-local uids to window
positions.  :func:`instantiate` rebuilds a live plan from a skeleton on
any structurally identical window via
:meth:`~repro.sched.dataflow.SpatialGroupPlan.from_parts` — pure dict
re-keying, no search, no float arithmetic — so a memoized plan is
**identical** (not merely equivalent) to the one direct construction
would produce: same nests, same integer metrics in the same dict
order, and therefore float-identical schedules downstream.  The
determinism tests in ``tests/sched/test_plan_memo.py`` pin this.

``REPRO_PLAN_MEMO=0`` disables both tiers (every window constructs
fresh) — the comparison baseline for those tests and for benchmarking.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.hw.config import HardwareConfig
from repro.ir.graph import OperatorGraph
from repro.ir.loops import Axis, Loop, LoopNest
from repro.ir.operators import Operator
from repro.obs.tracer import span as _span
from repro.sched.dataflow import GroupMetrics, SpatialGroupPlan
from repro.sched.tiling import NestAssignment

__all__ = [
    "MEMO",
    "PlanMemo",
    "PlanSkeleton",
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
# Structural window key
# ---------------------------------------------------------------------


def _graph_tables(
    graph: OperatorGraph,
) -> Tuple[Dict[int, Tuple], Dict[Tuple[int, ...], Tuple[Any, ...]]]:
    """Per-operator structural rows plus this graph's window-key cache.

    Both are cached on the graph object (invalidated when its operator
    count changes): every DP search over a graph — and every NTT-split
    candidate re-searching it — enumerates the same windows, so the
    producer/consumer/byte-size walk runs once per operator instead of
    once per window occurrence.
    """
    cached = graph.__dict__.get("_plan_memo_tables")
    if cached is not None and cached[0] == graph.num_operators:
        return cached[1], cached[2]
    rows: Dict[int, Tuple] = {}
    for op in graph.operators:
        ins = []
        for t in op.inputs:
            producer = graph.producer_of(t)
            ins.append((
                t.uid,
                producer.uid if producer is not None else None,
                t.kind.value,
                t.bytes,
            ))
        outs = []
        for t in op.outputs:
            outs.append((
                t.uid,
                tuple(c.uid for c in graph.consumers_of(t)),
                t.kind.value,
                t.bytes,
            ))
        rows[op.uid] = (op.signature(), tuple(ins), tuple(outs))
    window_cache: Dict[Tuple[int, ...], Tuple[Any, ...]] = {}
    graph._plan_memo_tables = (graph.num_operators, rows, window_cache)
    return rows, window_cache


def window_key(
    graph: OperatorGraph,
    ops: Sequence[Operator],
    uids: Optional[Tuple[int, ...]] = None,
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

    ``uids`` lets a caller that already holds ``tuple(op.uid for op in
    ops)`` (the scheduler's identity-cache key) skip rebuilding it.
    """
    rows, cache = _graph_tables(graph)
    if uids is None:
        uids = tuple(op.uid for op in ops)
    key = cache.get(uids)
    if key is not None:
        return key
    index = {uid: i for i, uid in enumerate(uids)}
    local: Dict[int, int] = {}
    parts = []
    for uid in uids:
        sig, row_ins, row_outs = rows[uid]
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
    key = tuple(parts)
    cache[uids] = key
    return key


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


def instantiate(
    skeleton: PlanSkeleton,
    graph: OperatorGraph,
    ops: Sequence[Operator],
    hw: HardwareConfig,
    n_split: Optional[Tuple[int, int]],
) -> SpatialGroupPlan:
    """Rebuild a live plan from a skeleton onto a structural twin."""
    ops = tuple(ops)
    assignment = NestAssignment(
        nests={op.uid: nest for op, nest in zip(ops, skeleton.nests)},
        edge_matches={
            (ops[p].uid, ops[c].uid): depth
            for p, c, depth in skeleton.edge_matches
        },
    )
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
    plan = SpatialGroupPlan.from_parts(
        graph, ops, hw, n_split,
        assignment=assignment,
        pe_allocation={
            ops[p].uid: pes for p, pes in skeleton.pe_allocation
        },
        metrics=metrics,
    )
    boundary_ins: List[Any] = [
        ops[p].inputs[idx] for p, idx in skeleton.boundary_ins
    ]
    boundary_outs: List[Any] = [
        ops[p].outputs[idx] for p, idx in skeleton.boundary_outs
    ]
    plan._boundary = (boundary_ins, boundary_outs)
    return plan


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
    """Two-tier structural plan store (thread-safe).

    The disk tier piggybacks on the shared DSE
    :data:`~repro.dse.cache.CACHE` (kind ``"plan"``), so it follows the
    same root resolution (``REPRO_DSE_CACHE`` / ``--cache-dir``),
    atomic-write discipline, and corrupt-degrades-to-miss contract.
    Counters are accumulated under the lock (in-process sweep workers
    share the memo across threads); the scheduler stamps per-search
    deltas into the metric registry once per search.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._skeletons: Dict[Tuple[Any, ...], PlanSkeleton] = {}
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
        """Drop the in-memory tier and zero the counters (tests)."""
        with self._lock:
            self._skeletons.clear()
            for key in self.stats:
                self.stats[key] = 0

    def _fingerprint(
        self,
        hw: HardwareConfig,
        n_split: Optional[Tuple[int, int]],
        key: Tuple[Any, ...],
    ) -> str:
        # Imported lazily: repro.dse.fingerprint imports the scheduler.
        from repro.dse.fingerprint import FORMAT_VERSION, digest, hw_payload

        # ``hw`` here is the projected memo config — a handful of
        # distinct objects per process — so its asdict() payload is
        # cached (fingerprints run once per memory-tier miss).
        payload = _HW_PAYLOAD.get(hw)
        if payload is None:
            payload = hw_payload(hw)
            _HW_PAYLOAD[hw] = payload
        return digest({
            "kind": "plan",
            "version": FORMAT_VERSION,
            "hw": payload,
            "n_split": list(n_split) if n_split else None,
            "window": key,
        })

    def lookup(
        self,
        graph: OperatorGraph,
        ops: Sequence[Operator],
        hw: HardwareConfig,
        n_split: Optional[Tuple[int, int]] = None,
        uids: Optional[Tuple[int, ...]] = None,
    ) -> Tuple[PlanSkeleton, Optional[SpatialGroupPlan]]:
        """The skeleton for ``ops`` plus the live plan a miss built.

        Tier order: memory skeleton, then disk (only when the DSE cache
        has a root), then fresh construction — which back-fills both
        tiers.  Hits return ``(skeleton, None)`` without instantiating
        a live plan, which is what lets the scheduler's search price
        windows straight off skeleton integers; a miss
        returns the freshly constructed plan alongside its skeleton so
        the caller never pays construction twice.  A fresh construction
        runs under a ``sched.plan`` span so cold traces show exactly
        where structural planning time goes; hits are span-free (they
        are dict lookups).
        """
        key = (_memo_hw(hw), n_split, window_key(graph, ops, uids))
        # One lock round trip covers both the lookup and the counter —
        # this is the hot path of every priced window.
        with self._lock:
            skeleton = self._skeletons.get(key)
            if skeleton is not None:
                self.stats["memo_hit"] += 1
        if skeleton is not None:
            return skeleton, None
        # Imported lazily: repro.dse depends on this package.
        from repro.dse.cache import CACHE

        fp = None
        if CACHE.root is not None:
            fp = self._fingerprint(key[0], n_split, key[2])
            doc = CACHE.get("plan", fp)
            if doc is not None:
                skeleton = skeleton_from_doc(doc)
            if skeleton is not None:
                with self._lock:
                    self._skeletons[key] = skeleton
                self._count("disk_hit")
                return skeleton, None
        with _span("sched.plan", ops=len(ops)):
            plan = SpatialGroupPlan(graph, ops, hw, n_split)
        skeleton = skeleton_of(plan)
        with self._lock:
            self._skeletons[key] = skeleton
        self._count("memo_miss")
        if fp is not None:
            CACHE.put(
                "plan", fp, skeleton_to_doc(skeleton),
                meta={"ops": len(ops), "hw": hw.name},
            )
        return skeleton, plan

    def plan_for(
        self,
        graph: OperatorGraph,
        ops: Sequence[Operator],
        hw: HardwareConfig,
        n_split: Optional[Tuple[int, int]] = None,
        enabled: Optional[bool] = None,
    ) -> SpatialGroupPlan:
        """A live plan for ``ops``, served structurally when possible.

        ``enabled`` short-circuits the per-call environment read; the
        scheduler samples :func:`memo_enabled` once at construction and
        passes it through.
        """
        if enabled is None:
            enabled = memo_enabled()
        if not enabled:
            return SpatialGroupPlan(graph, ops, hw, n_split)
        skeleton, plan = self.lookup(graph, ops, hw, n_split)
        if plan is not None:
            return plan
        return instantiate(skeleton, graph, ops, hw, n_split)


#: The process-wide memo every :class:`~repro.sched.scheduler.
#: Scheduler` shares; windows ≤ ``max_group_size`` operators keep
#: skeletons tiny, so unbounded growth is not a practical concern.
MEMO = PlanMemo()
