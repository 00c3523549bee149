"""Dataflow group plans and schedules.

A :class:`SpatialGroupPlan` is one bottom-level group of co-running
operators (Section V-A): operators are allocated PEs proportional to
their compute load and stream data to each other at the granularity
their matched top loops allow.  Planning a group (the skeleton builder
of :mod:`repro.sched.plan_memo`) computes

* the on-chip buffer footprint (fine-grained pipelining/sharing shrinks
  it from full tensors to per-chunk granules);
* the traffic each memory level sees (matched edges forward PE-to-PE
  over the NoC and bypass the global SRAM entirely — the paper's main
  source of speedup);
* compute/NoC/transpose occupancy.

A :class:`Schedule` is the three-level hierarchy flattened into ordered
:class:`ScheduledStep`s; consecutive steps may keep tensors SRAM-resident
(temporal pipelining) and reuse constants already on-chip (temporal
sharing), which the scheduler decides and records per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Collection,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.hw.config import HardwareConfig
from repro.hw.memory import HbmMemory, SramBuffer
from repro.hw.noc import NOC_SERIALIZATION_FACTOR, MeshNoc
from repro.hw.transpose import TransposeUnit
from repro.ir.graph import OperatorGraph
from repro.ir.operators import Operator, OpKind
from repro.ir.tensors import DataTensor
from repro.sched.tiling import NestAssignment

if TYPE_CHECKING:
    from repro.sched.plan_memo import WindowTemplate


#: Per-config pricing scalars (see :class:`GroupPricing`).  A DP search
#: prices hundreds of thousands of windows against the *same* config
#: object, and hashing the 15-field frozen dataclass per lookup is
#: measurable, so the last config served is checked by identity first.
_PRICING_CACHE: Dict[HardwareConfig, "GroupPricing"] = {}
_PRICING_LAST: Optional[Tuple[HardwareConfig, "GroupPricing"]] = None


@dataclass(frozen=True)
class GroupPricing:
    """The group cost model on one hardware configuration (Section V-D).

    "The final time of a group is the maximum of" its compute and memory
    times: compute, DRAM, SRAM, NoC, and transpose seconds, each an
    integer resource demand over a per-config rate.  The rates are
    computed once here with the same float expressions as the
    ``for_config`` hardware models; every price in the repo (the DP's
    objective and scheduled steps) comes from :meth:`terms`.
    """

    freq_hz: float
    hbm_base_s: float
    hbm_bytes_per_s: float
    sram_bytes_per_s: float
    #: ``None`` for specialized baselines (idealized NoC, Section VII-B).
    noc_denom: Optional[float]
    transpose_bytes_per_s: float

    @classmethod
    def for_config(cls, hw: HardwareConfig) -> "GroupPricing":
        global _PRICING_LAST
        last = _PRICING_LAST
        if last is not None and last[0] is hw:
            return last[1]
        pricing = _PRICING_CACHE.get(hw)
        if pricing is None:
            hbm = HbmMemory.for_config(hw)
            pricing = cls(
                freq_hz=hw.frequency_ghz * 1e9,
                hbm_base_s=hbm.base_latency_s,
                hbm_bytes_per_s=hbm.bytes_per_second,
                sram_bytes_per_s=SramBuffer.for_config(hw).bytes_per_second,
                noc_denom=(
                    None if hw.fu_mix is not None
                    else MeshNoc.for_config(hw).aggregate_bytes_per_cycle()
                    * hw.frequency_ghz * 1e9
                ),
                transpose_bytes_per_s=(
                    TransposeUnit.for_config(hw).bytes_per_second
                ),
            )
            _PRICING_CACHE[hw] = pricing
        _PRICING_LAST = (hw, pricing)
        return pricing

    def terms(
        self,
        compute_cycles: int,
        dram_bytes: int,
        sram_bytes: int,
        noc_bytes: int,
        transpose_bytes: int,
    ) -> Tuple[float, float, float, float, float]:
        """Per-resource seconds: compute, DRAM, SRAM, NoC, transpose."""
        dram_s = (
            self.hbm_base_s + dram_bytes / self.hbm_bytes_per_s
            if dram_bytes > 0 else 0.0
        )
        noc_s = (
            0.0 if self.noc_denom is None
            else noc_bytes / self.noc_denom * NOC_SERIALIZATION_FACTOR
        )
        return (
            compute_cycles / self.freq_hz,
            dram_s,
            sram_bytes / self.sram_bytes_per_s,
            noc_s,
            transpose_bytes / self.transpose_bytes_per_s,
        )

    def seconds(
        self,
        compute_cycles: int,
        dram_bytes: int,
        sram_bytes: int,
        noc_bytes: int,
        transpose_bytes: int,
    ) -> float:
        """Bottleneck seconds of a group.  With ``dram_bytes=0`` this is
        a lower bound on the group under any residency: residency
        discounts and deferred spills only move the DRAM term."""
        return max(self.terms(
            compute_cycles, dram_bytes, sram_bytes, noc_bytes,
            transpose_bytes,
        ))


def effective_dram_bytes(
    dram_read_bytes: int,
    dram_write_bytes: int,
    external_items: Iterable[Tuple[int, int]],
    constant_items: Iterable[Tuple[int, int]],
    out_items: Iterable[Tuple[int, int]],
    resident_inputs: Collection[int],
    resident_constants: Collection[int],
    kept_outputs: Collection[int],
    constant_share: int,
    extra_write_bytes: int,
) -> Tuple[int, int]:
    """A group's DRAM (read, write) bytes given what is SRAM-resident.

    The ``*_items`` are ``(uid, bytes)`` pairs: per external input the
    slice the group charged, per constant its size, per escaping output
    its size.  ``resident_inputs`` skip their read (pooled in SRAM or
    streamed from the previous step via temporal pipelining);
    ``resident_constants`` skip their fetch (temporal sharing), and with
    data-parallel clusters (CROPHE-p) one fetch feeds all
    ``constant_share`` clusters via multicast, so each cluster pays a
    1/share slice of the remaining cold constant reads.
    ``kept_outputs`` skip their write (pooled, or deferred until a later
    step decides their fate), and ``extra_write_bytes`` charges spills
    deferred from earlier steps.
    """
    dram_read = dram_read_bytes
    for uid, nbytes in external_items:
        if uid in resident_inputs:
            dram_read -= nbytes
    for uid, nbytes in constant_items:
        if uid in resident_constants:
            dram_read -= nbytes
        elif constant_share > 1:
            dram_read -= nbytes * (constant_share - 1) // constant_share
    dram_write = dram_write_bytes
    if kept_outputs:
        for uid, nbytes in out_items:
            if uid in kept_outputs:
                dram_write -= nbytes
        dram_write = max(dram_write, 0)
    return max(dram_read, 0), dram_write + max(extra_write_bytes, 0)


@dataclass
class GroupMetrics:
    """Raw resource demands of one spatial group."""

    compute_cycles: int = 0
    buffer_bytes: int = 0
    noc_bytes: int = 0
    transpose_bytes: int = 0
    sram_bytes: int = 0
    dram_read_bytes: int = 0
    dram_write_bytes: int = 0
    constant_bytes: Dict[int, int] = field(default_factory=dict)
    #: Per-tensor external read charges (slice-aware): what this group
    #: actually pulled from memory for each external input.
    external_read_bytes: Dict[int, int] = field(default_factory=dict)

    @property
    def dram_bytes(self) -> int:
        return self.dram_read_bytes + self.dram_write_bytes


class SpatialGroupPlan:
    """One spatial pipelining/sharing group on the PE array.

    The constructor plans ``ops`` (operators of ``graph``, in any order)
    with the plan memo's skeleton builder
    (:class:`repro.sched.plan_memo.SkeletonBuilder`), the one
    implementation of nest assignment, PE allocation and traffic
    metrics, then binds the position-keyed skeleton to the operators'
    uids exactly as :func:`repro.sched.plan_memo.instantiate` does for
    a memoized one.
    """

    #: The dataflow this plan kind models (a plan-memo disk field).
    dataflow = "crophe"
    #: Deepest matched prefix an edge streams at, applied after the nest
    #: choice (``None``: as deep as the nests match).
    max_match_depth: Optional[int] = None

    graph: OperatorGraph
    ops: Tuple[Operator, ...]
    config: HardwareConfig
    n_split: Optional[Tuple[int, int]]
    assignment: NestAssignment
    pe_allocation: Dict[int, int]
    metrics: "GroupMetrics"
    _boundary: Tuple[List[DataTensor], List[DataTensor]]

    def __init__(
        self,
        graph: OperatorGraph,
        ops: Sequence[Operator],
        config: HardwareConfig,
        n_split: Optional[Tuple[int, int]] = None,
    ):
        # Imported lazily: the plan memo builds on this module.
        from repro.sched.plan_memo import MEMO, SkeletonBuilder, bind

        ops = tuple(ops)
        builder = SkeletonBuilder(
            graph, MEMO.table(graph), config, n_split, type(self)
        )
        bind(self, builder.group(ops), graph, ops, config, n_split)

    @property
    def feasible_allocation(self) -> bool:
        return bool(self.pe_allocation) or all(
            op.kind is OpKind.TRANSPOSE for op in self.ops
        )

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------

    def execution_seconds(
        self,
        resident_inputs: Optional[Set[int]] = None,
        resident_constants: Optional[Set[int]] = None,
        kept_outputs: Optional[Set[int]] = None,
        constant_share: int = 1,
        extra_write_bytes: int = 0,
    ) -> Tuple[float, GroupMetrics]:
        """Group execution time given what is already SRAM-resident.

        The residency arguments discount DRAM traffic as
        :func:`effective_dram_bytes` describes.  Returns the bottleneck
        time (:meth:`GroupPricing.seconds`) and the effective metrics
        after discounts.
        """
        m = self.metrics
        kept = kept_outputs or ()
        dram_read, dram_write = effective_dram_bytes(
            m.dram_read_bytes, m.dram_write_bytes,
            m.external_read_bytes.items(), m.constant_bytes.items(),
            [(t.uid, t.bytes) for t in self.boundary()[1]] if kept else (),
            resident_inputs or (), resident_constants or (), kept,
            constant_share, extra_write_bytes,
        )
        eff = self.effective_metrics(dram_read, dram_write)
        seconds = GroupPricing.for_config(self.config).seconds(
            eff.compute_cycles, eff.dram_bytes, eff.sram_bytes,
            eff.noc_bytes, eff.transpose_bytes,
        )
        return seconds, eff

    def effective_metrics(
        self, dram_read_bytes: int, dram_write_bytes: int
    ) -> GroupMetrics:
        """A copy of :attr:`metrics` with residency-adjusted DRAM bytes."""
        m = self.metrics
        # Shallow clone (dataclass __init__ is slow for a per-step call);
        # the two dicts get fresh copies.
        eff = GroupMetrics.__new__(GroupMetrics)
        eff.__dict__.update(m.__dict__)
        eff.constant_bytes = dict(m.constant_bytes)
        eff.external_read_bytes = dict(m.external_read_bytes)
        eff.dram_read_bytes = dram_read_bytes
        eff.dram_write_bytes = dram_write_bytes
        return eff

    def boundary(self) -> Tuple[List[DataTensor], List[DataTensor]]:
        """External (inputs, outputs) of this group."""
        return self._boundary

    def __repr__(self) -> str:
        return (
            f"<SpatialGroup {len(self.ops)} ops, "
            f"buf={self.metrics.buffer_bytes >> 10} kB, "
            f"cyc={self.metrics.compute_cycles}>"
        )


@dataclass
class ScheduledStep:
    """One executed group with its residency-adjusted cost.

    ``template`` is the window template the step was priced from, and
    ``plan`` is its skeleton bound to the window's operators; the
    simulator reads the per-window quantities the template carries.
    """

    plan: SpatialGroupPlan
    template: WindowTemplate
    seconds: float
    metrics: GroupMetrics
    resident_inputs: Set[int] = field(default_factory=set)
    resident_constants: Set[int] = field(default_factory=set)
    kept_outputs: Set[int] = field(default_factory=set)


@dataclass
class Schedule:
    """A complete schedule: ordered steps plus aggregate accounting.

    ``degraded`` marks schedules produced by the greedy fallback (search
    budget exhausted or DP infeasible); ``degraded_reason`` records why.
    A degraded schedule is still valid — every step priced by the same
    transition machinery — just not search-optimal.
    """

    steps: List[ScheduledStep] = field(default_factory=list)
    repeat: int = 1
    degraded: bool = False
    degraded_reason: str = ""

    @property
    def total_seconds(self) -> float:
        return self.repeat * sum(s.seconds for s in self.steps)

    @property
    def dram_bytes(self) -> int:
        return self.repeat * sum(s.metrics.dram_bytes for s in self.steps)

    @property
    def sram_bytes(self) -> int:
        return self.repeat * sum(s.metrics.sram_bytes for s in self.steps)

    @property
    def noc_bytes(self) -> int:
        return self.repeat * sum(s.metrics.noc_bytes for s in self.steps)

    @property
    def num_groups(self) -> int:
        return self.repeat * len(self.steps)
