"""The CROPHE scheduling algorithm (paper Section V-D).

Bottom-up composition with dynamic programming:

1. enumerate candidate spatial groups as contiguous windows (size up to
   ``max_group_size``) of the topological order, with one
   :class:`~repro.sched.dataflow.SpatialGroupPlan` per (window structure,
   NTT split) pair — plans for structurally identical windows are
   memoized by signature (the paper's redundant-subgraph merging);
2. dynamic programming over the topological order picks the window
   sequence minimizing end-to-end time under the analytical cost model;
3. consecutive steps keep boundary tensors SRAM-resident when they fit
   (temporal pipelining) and keep constants on-chip across steps
   (temporal sharing), which the DP transition prices in.

The transition exists once (:meth:`Scheduler._resolve`): it resolves
residency against a window view and prices the result with
:class:`~repro.sched.dataflow.GroupPricing`.  The search, ``replay``,
and the greedy fallback all extend DP states through it, and the
winning chain's steps carry the very seconds and DRAM bytes it priced.

The paper searches all subgraphs of a pre-partitioned graph exhaustively
(100 CPU-hours for ResNet-20); contiguous-window DP with memoization is
the tractable restriction we ship, with the window size and split
candidates exposed as knobs.

Resilience (see :mod:`repro.resilience`): knobs are validated at
construction time, the DP runs under optional wall-clock/node budgets,
and on budget exhaustion or an infeasible cover the scheduler degrades
to a deterministic greedy fallback (MAD-style fusion windows) instead of
hanging or dying — the result is tagged ``degraded=True`` with the
reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:  # CKKSParams is annotation-only here (no import cycle).
    from repro.fhe.params import CKKSParams

from repro.hw.config import HardwareConfig
from repro.ir.graph import OperatorGraph
from repro.ir.loops import LoopNest, matched_prefix, power_of_two_splits
from repro.ir.operators import Operator, OpKind
from repro.ir.tensors import TensorKind
from repro.obs.metrics import REGISTRY as _METRICS
from repro.obs.tracer import span as _span
from repro.resilience.budget import BudgetMeter, SearchBudget
from repro.resilience.errors import (
    ConfigError,
    InfeasibleScheduleError,
    InvariantViolation,
    SearchBudgetExceeded,
)
from repro.sched.dataflow import (
    GroupPricing,
    Schedule,
    ScheduledStep,
    SpatialGroupPlan,
    effective_dram_bytes,
)
from repro.sched.plan_memo import (
    MEMO as _PLAN_MEMO,
    PlanSkeleton,
    instantiate as _instantiate,
    memo_enabled,
)

#: Fusion depth of the greedy fallback scheduler (MAD-style windows).
GREEDY_FALLBACK_WINDOW = 4


@dataclass(frozen=True)
class SchedulerConfig:
    """Search knobs.

    Attributes:
        max_group_size: largest spatial group considered (paper: 7-10).
        keep_fraction: fraction of SRAM a step may use to keep outputs
            resident for the next step.
        constant_residency_fraction: SRAM fraction reserved for constants
            held across steps (temporal sharing).
        min_ntt_tile: smallest N1/N2 tile for decomposed NTTs (tiles must
            still fill the PE lanes, Section V-D).
        constant_share: number of data-parallel clusters sharing each
            constant fetch (CROPHE-p); 1 for a whole-chip schedule.
    """

    max_group_size: int = 7
    keep_fraction: float = 0.5
    constant_residency_fraction: float = 0.4
    min_ntt_tile: int = 64
    constant_share: int = 1
    #: Fine-grained temporal pipelining between consecutive groups: a
    #: boundary tensor whose producer/consumer loop nests share top loops
    #: streams through a granule-sized SRAM FIFO instead of spilling.
    #: CROPHE's middle hierarchy level; off for MAD (its fusion islands
    #: spill between groups).
    temporal_streaming: bool = True
    #: How many groups a deferred tensor may wait, holding only its
    #: granule, before a streamable consumer must arrive (the depth of a
    #: temporal pipelining group).  1 = adjacent groups only.
    stream_window: int = 6
    #: Wall-clock budget for one DP search (None = unbounded).
    max_search_seconds: Optional[float] = None
    #: DP-transition budget for one search (None = unbounded).
    max_search_nodes: Optional[int] = None
    #: On budget exhaustion, degrade to the greedy fallback (True) or
    #: raise :class:`SearchBudgetExceeded` (False).
    fallback_on_budget: bool = True
    #: Post-``schedule()`` static verification gate
    #: (:mod:`repro.analysis`): ``"error"`` raises
    #: :class:`~repro.resilience.errors.VerificationError` on an illegal
    #: schedule, ``"warn"`` downgrades the findings to a warning,
    #: ``"off"`` skips the gate.
    verify: str = "error"

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Reject nonsensical knob values with the field named.

        Raises:
            ConfigError: naming the offending field.
        """
        if not isinstance(self.max_group_size, int) or self.max_group_size < 1:
            raise ConfigError(
                "max_group_size", self.max_group_size,
                "spatial groups need at least one operator",
            )
        if not 0.0 < self.keep_fraction <= 1.0:
            raise ConfigError(
                "keep_fraction", self.keep_fraction,
                "must lie in (0, 1] — a fraction of the SRAM capacity",
            )
        if not 0.0 <= self.constant_residency_fraction <= 1.0:
            raise ConfigError(
                "constant_residency_fraction",
                self.constant_residency_fraction,
                "must lie in [0, 1] — a fraction of the SRAM capacity",
            )
        if (
            not isinstance(self.min_ntt_tile, int)
            or self.min_ntt_tile < 2
            or self.min_ntt_tile & (self.min_ntt_tile - 1)
        ):
            raise ConfigError(
                "min_ntt_tile", self.min_ntt_tile,
                "four-step NTT tiles must be a power of two >= 2",
            )
        if not isinstance(self.constant_share, int) or self.constant_share < 1:
            raise ConfigError(
                "constant_share", self.constant_share,
                "at least one cluster must consume each constant fetch",
            )
        if not isinstance(self.stream_window, int) or self.stream_window < 1:
            raise ConfigError(
                "stream_window", self.stream_window,
                "a deferred tensor must be allowed to wait >= 1 group",
            )
        if self.max_search_seconds is not None and self.max_search_seconds <= 0:
            raise ConfigError(
                "max_search_seconds", self.max_search_seconds,
                "the wall-clock budget must be positive (or None)",
            )
        if self.max_search_nodes is not None and self.max_search_nodes < 1:
            raise ConfigError(
                "max_search_nodes", self.max_search_nodes,
                "the node budget must be >= 1 (or None)",
            )
        if self.verify not in ("error", "warn", "off"):
            raise ConfigError(
                "verify", self.verify,
                'the verification gate is "error", "warn", or "off"',
            )

    def validate_for_hardware(self, hw: HardwareConfig) -> None:
        """Cross-check knobs against one hardware configuration.

        Only meaningful for searches that decompose NTTs (the scheduler
        applies it when an ``n_split`` is in play); baseline models with
        monolithic NTTs never tile and are exempt.

        Raises:
            ConfigError: when the smallest decomposed-NTT tile cannot
                fill the PE vector lanes (Section V-D's constraint).
        """
        if self.min_ntt_tile * self.min_ntt_tile < hw.lanes_per_pe:
            raise ConfigError(
                "min_ntt_tile", self.min_ntt_tile,
                f"{self.min_ntt_tile}x{self.min_ntt_tile} tiles cannot "
                f"fill the {hw.lanes_per_pe} vector lanes of one "
                f"{hw.name} PE",
            )

    def budget(self) -> SearchBudget:
        """The search budget these knobs describe."""
        return SearchBudget(
            max_seconds=self.max_search_seconds,
            max_nodes=self.max_search_nodes,
        )


class _WindowView:
    """Pricing-time view of one candidate window.

    Carries exactly what the DP transition reads: the integer resource
    demands, the per-position loop nests (streamability checks),
    boundary outputs and per-tensor constant/external byte items rebound
    to this window's uids, and the feasibility verdicts.  With the
    structural memo on, the view is built straight from the stored
    :class:`PlanSkeleton` — **no live plan is instantiated** for windows
    that only get priced; a plan materializes lazily
    (:meth:`live_plan`) only for the windows on the winning cover.  A
    view can also wrap a live plan (memo-off runs and subclasses with
    their own plan construction), so both sources price through one
    transition.
    """

    __slots__ = (
        "ops", "skeleton", "plan", "nests", "feasible", "fits",
        "compute_cycles", "sram_bytes", "noc_bytes", "transpose_bytes",
        "dram_read_bytes", "dram_write_bytes", "buffer_bytes",
        "constant_items", "external_items", "out_items", "consumed",
        "floor",
    )

    ops: Tuple[Operator, ...]
    skeleton: Optional[PlanSkeleton]
    plan: Optional[SpatialGroupPlan]
    nests: Tuple[LoopNest, ...]
    feasible: bool
    fits: bool
    compute_cycles: int
    sram_bytes: int
    noc_bytes: int
    transpose_bytes: int
    dram_read_bytes: int
    dram_write_bytes: int
    buffer_bytes: int
    #: ``(uid, bytes)`` in the metrics dicts' insertion order — the
    #: transition is order-sensitive only through the constant-budget
    #: fill, which must match the plan's dict order.
    constant_items: Tuple[Tuple[int, int], ...]
    external_items: Tuple[Tuple[int, int], ...]
    #: ``(uid, bytes)`` of the window's escaping outputs, in
    #: ``plan.boundary()`` order.
    out_items: Tuple[Tuple[int, int], ...]
    consumed: Set[int]
    #: The window's price with zero DRAM bytes: no residency can make
    #: the step cheaper (the dominance prune's bound).
    floor: float

    @classmethod
    def from_skeleton(
        cls,
        skeleton: PlanSkeleton,
        ops: Tuple[Operator, ...],
        hw: HardwareConfig,
        pricing: GroupPricing,
        plan: Optional[SpatialGroupPlan] = None,
    ) -> "_WindowView":
        view = cls()
        view.ops = ops
        view.skeleton = skeleton
        view.plan = plan
        view.nests = skeleton.nests
        view.feasible = bool(skeleton.pe_allocation) or all(
            op.kind is OpKind.TRANSPOSE for op in ops
        )
        view.fits = skeleton.buffer_bytes <= hw.sram_capacity_bytes
        view.compute_cycles = skeleton.compute_cycles
        view.sram_bytes = skeleton.sram_bytes
        view.noc_bytes = skeleton.noc_bytes
        view.transpose_bytes = skeleton.transpose_bytes
        view.dram_read_bytes = skeleton.dram_read_bytes
        view.dram_write_bytes = skeleton.dram_write_bytes
        view.buffer_bytes = skeleton.buffer_bytes
        view.constant_items = tuple(
            (ops[p].inputs[idx].uid, nbytes)
            for p, idx, nbytes in skeleton.constant_bytes
        )
        view.external_items = tuple(
            (ops[p].inputs[idx].uid, nbytes)
            for p, idx, nbytes in skeleton.external_read_bytes
        )
        view.out_items = tuple(
            (ops[p].outputs[idx].uid, ops[p].outputs[idx].bytes)
            for p, idx in skeleton.boundary_outs
        )
        view.consumed = {t.uid for op in ops for t in op.inputs}
        view.floor = pricing.seconds(
            skeleton.compute_cycles, 0, skeleton.sram_bytes,
            skeleton.noc_bytes, skeleton.transpose_bytes,
        )
        return view

    @classmethod
    def from_plan(
        cls, plan: SpatialGroupPlan, pricing: GroupPricing
    ) -> "_WindowView":
        view = cls()
        view.ops = plan.ops
        view.skeleton = None
        view.plan = plan
        view.nests = tuple(
            plan.assignment.nest_of(op) for op in plan.ops
        )
        view.feasible = plan.feasible_allocation
        view.fits = plan.fits_buffer
        m = plan.metrics
        view.compute_cycles = m.compute_cycles
        view.sram_bytes = m.sram_bytes
        view.noc_bytes = m.noc_bytes
        view.transpose_bytes = m.transpose_bytes
        view.dram_read_bytes = m.dram_read_bytes
        view.dram_write_bytes = m.dram_write_bytes
        view.buffer_bytes = m.buffer_bytes
        view.constant_items = tuple(m.constant_bytes.items())
        view.external_items = tuple(m.external_read_bytes.items())
        view.out_items = tuple(
            (t.uid, t.bytes) for t in plan.boundary()[1]
        )
        view.consumed = {t.uid for op in plan.ops for t in op.inputs}
        view.floor = pricing.seconds(
            m.compute_cycles, 0, m.sram_bytes, m.noc_bytes,
            m.transpose_bytes,
        )
        return view

    def live_plan(self, scheduler: "Scheduler") -> SpatialGroupPlan:
        """The live plan for this window, instantiated on first use."""
        plan = self.plan
        if plan is None:
            plan = _instantiate(
                self.skeleton, scheduler.graph, self.ops,
                scheduler.hw, scheduler.n_split,
            )
            self.plan = plan
        return plan


class _DpState:
    """Forward DP state: cumulative time plus what lives in SRAM.

    States form a linked chain through ``parent``: instead of copying a
    growing step list on every transition, each state records only the
    step that reached it — its window ``view``, priced ``step_seconds``,
    effective DRAM bytes, and residency sets.  The winning chain is
    materialized into real steps once, at the end
    (:meth:`Scheduler._materialize`).

    ``pool`` holds intermediate tensors kept on-chip (uid -> bytes); a
    tensor leaves the pool when its last consumer has executed.  This is
    the top "sequential execution with fully materialized intermediates"
    level of the hierarchy: with enough SRAM, producer/consumer pairs far
    apart in the order still avoid the DRAM round trip.  ``pending``
    holds boundary outputs whose write decision is deferred: a later
    step within the stream window may stream them (temporal pipelining),
    pool them, or finally spill them — uid -> (bytes, age, producer
    view).
    """

    __slots__ = (
        "seconds", "parent", "view", "step_seconds", "dram_read",
        "dram_write", "resident_inputs", "kept", "pool", "pending",
        "resident_constants", "resident_constant_bytes",
    )

    def __init__(
        self,
        seconds: float,
        pool: Dict[int, int],
        pending: Dict[int, Tuple[int, int, "_WindowView"]],
        resident_constants: Set[int],
        resident_constant_bytes: int,
        parent: Optional["_DpState"] = None,
        view: Optional[_WindowView] = None,
        step_seconds: float = 0.0,
        dram_read: int = 0,
        dram_write: int = 0,
        resident_inputs: Optional[Set[int]] = None,
        kept: Optional[Set[int]] = None,
    ):
        self.seconds = seconds
        self.pool = pool
        self.pending = pending
        self.resident_constants = resident_constants
        self.resident_constant_bytes = resident_constant_bytes
        self.parent = parent
        self.view = view
        self.step_seconds = step_seconds
        self.dram_read = dram_read
        self.dram_write = dram_write
        self.resident_inputs = resident_inputs
        self.kept = kept


class Scheduler:
    """Searches cross-operator dataflow schedules for one graph.

    Accepts graphs at either lowering level: a *decomposed*-level graph
    is scheduled directly, while a *primitive*-level graph (coarse
    ``KEY_SWITCH``/``ROT_BATCH`` operators, see :mod:`repro.passes`) is
    first lowered through the standard pass pipeline — which needs the
    CKKS ``params`` the graph was built with; passing a coarse graph
    without them is a typed error, since coarse operators answer no
    cost queries.
    """

    @staticmethod
    def _lowered(
        graph: OperatorGraph,
        n_split: Optional[Tuple[int, int]],
        params: Optional["CKKSParams"],
    ) -> OperatorGraph:
        """Lower a primitive-level graph before scheduling it."""
        if not any(op.kind.is_coarse for op in graph.operators):
            return graph
        if params is None:
            raise InvariantViolation(
                "repro.sched.scheduler.Scheduler",
                f"graph {graph.name} contains coarse primitive-level "
                "operators; pass params= so the scheduler can run the "
                "repro.passes lowering pipeline (or lower it yourself)",
            )
        # Imported lazily: repro.passes reaches this module through
        # repro.dse.fingerprint, so a top-level import would cycle.
        from repro.passes.lowering import lower_graph
        from repro.workloads.base import WorkloadOptions

        options = WorkloadOptions(ntt_split=n_split)
        return lower_graph(graph, params, options).result.graph

    def __init__(
        self,
        graph: OperatorGraph,
        hw: HardwareConfig,
        config: Optional[SchedulerConfig] = None,
        n_split: Optional[Tuple[int, int]] = None,
        params: Optional["CKKSParams"] = None,
    ):
        graph = self._lowered(graph, n_split, params)
        self.graph = graph
        self.hw = hw
        self.config = config or SchedulerConfig()
        if n_split is not None:
            self.config.validate_for_hardware(hw)
        self.n_split = n_split
        sram = hw.sram_capacity_bytes
        self._keep_budget = int(sram * self.config.keep_fraction)
        self._const_budget = int(
            sram * self.config.constant_residency_fraction
        )
        #: Last topological position consuming each tensor (set per
        #: search or replay by :meth:`_order`).
        self._last_use: Dict[int, int] = {}
        self._view_cache: Dict[Tuple[int, ...], _WindowView] = {}
        #: Sampled once — the memo gate sits on the hottest path.
        self._memo_enabled = memo_enabled()
        self._pricing = GroupPricing.for_config(hw)
        #: Per-(producer view, consumer view, tensor) streamability
        #: verdicts: pure in objects this scheduler holds alive, and
        #: re-queried from many DP states.
        self._stream_cache: Dict[Tuple[object, object, int], bool] = {}
        self.stats: Dict[str, float] = {}

    # ------------------------------------------------------------------

    def _plan_for(self, window: Tuple[Operator, ...]) -> SpatialGroupPlan:
        """A live plan for one window, served by the structural memo.

        Subclasses override this to build their own plans (the MAD
        baseline's depth-1 plans, test doubles); :meth:`_view_for` routes
        every window of an overriding class through it.
        """
        return _PLAN_MEMO.plan_for(
            self.graph, window, self.hw, self.n_split,
            enabled=self._memo_enabled,
        )

    def _view_for(self, window: Tuple[Operator, ...]) -> _WindowView:
        """Pricing view of a window, cached per window identity.

        With the structural memo on, a view comes straight from the
        stored skeleton (the process-wide
        :data:`repro.sched.plan_memo.MEMO`, which serves every window
        whose shape it has seen before — the same KeySwitch ladder or
        BSGS diamond recurring within a graph, across NTT-split
        candidates, and across the graphs of a sweep); no live plan
        exists until the window lands on the winning cover.  Subclasses
        that override ``_plan_for`` are routed through their override,
        wrapped in a view, so the search never bypasses custom plan
        construction — and their plans never poison the shared memo.
        """
        key = tuple(op.uid for op in window)
        view = self._view_cache.get(key)
        if view is not None:
            return view
        if (
            self._memo_enabled
            and type(self)._plan_for is Scheduler._plan_for
        ):
            # A memo miss also returns the freshly constructed plan;
            # the view keeps it instead of re-instantiating later.
            skeleton, plan = _PLAN_MEMO.lookup(
                self.graph, window, self.hw, self.n_split, uids=key,
            )
            view = _WindowView.from_skeleton(
                skeleton, window, self.hw, self._pricing, plan
            )
        else:
            view = _WindowView.from_plan(
                self._plan_for(window), self._pricing
            )
        self._view_cache[key] = view
        return view

    # ------------------------------------------------------------------

    def _order(self) -> List[Operator]:
        """The topological order, recording each tensor's last use.

        Liveness evicts dead intermediates from the resident pool.
        """
        order = self.graph.operators_topological()
        last_use: Dict[int, int] = {}
        for pos, op in enumerate(order):
            for t in op.inputs:
                last_use[t.uid] = pos
        self._last_use = last_use
        return order

    def _initial_state(self) -> _DpState:
        """The DP origin.

        Workload segments are windows of one continuous program: their
        ciphertext inputs arrive SRAM-resident from the previous segment
        (budget allowing) and their outputs stay on-chip for the next.
        """
        pool: Dict[int, int] = {}
        used = 0
        for t in self.graph.graph_inputs():
            if (
                t.kind is TensorKind.EXTERNAL
                and used + t.bytes <= self._keep_budget
            ):
                pool[t.uid] = t.bytes
                used += t.bytes
        return _DpState(0.0, pool, {}, set(), 0)

    def _materialize(self, state: _DpState) -> List[ScheduledStep]:
        """Realize a DP chain as scheduled steps.

        Each link's plan instantiates now (for memo-served windows the
        only instantiation that ever happens), and its step carries the
        link's priced seconds and effective DRAM bytes — the step costs
        exactly what the DP compared.
        """
        chain: List[_DpState] = []
        node = state
        while node.parent is not None:
            chain.append(node)
            node = node.parent
        chain.reverse()
        steps: List[ScheduledStep] = []
        for link in chain:
            plan = link.view.live_plan(self)
            steps.append(ScheduledStep(
                plan=plan,
                seconds=link.step_seconds,
                metrics=plan.effective_metrics(
                    link.dram_read, link.dram_write
                ),
                resident_inputs=link.resident_inputs,
                # Resident-constant sets are never mutated in place
                # after a transition, so steps and states share them.
                resident_constants=link.parent.resident_constants,
                kept_outputs=link.kept,
            ))
        return steps

    # ------------------------------------------------------------------

    def schedule(self) -> Schedule:
        """Run the DP and return the best schedule found.

        Under an exhausted search budget (wall-clock or node count) the
        DP is abandoned and the deterministic greedy fallback produces a
        valid schedule tagged ``degraded=True`` (unless
        ``fallback_on_budget=False``, which raises
        :class:`SearchBudgetExceeded` instead). An infeasible DP cover
        likewise falls back to greedy before giving up with a typed
        :class:`InfeasibleScheduleError`.

        When telemetry is on (:mod:`repro.obs`) the search runs inside a
        ``sched.schedule`` span and stamps the search counters of the
        metric catalog (windows explored, plan-memo activity, degraded
        fallbacks); when it is off the only overhead is one flag check.
        """
        with _span(
            "sched.schedule", graph=self.graph.name,
            ops=self.graph.num_operators,
        ) as sp:
            schedule = self._schedule_impl()
            sp.set("windows_explored", self.stats.get("windows_explored", 0))
            sp.set("degraded", schedule.degraded)
            return schedule

    def _schedule_impl(self) -> Schedule:
        meter = BudgetMeter(self.config.budget())
        memo_base = _PLAN_MEMO.snapshot()
        order = self._order()
        n = len(order)
        max_size = self.config.max_group_size
        dp: List[Optional[_DpState]] = [None] * (n + 1)
        dp[0] = self._initial_state()
        tripped = False
        for i in range(n):
            if meter.exceeded:
                tripped = True
                break
            state = dp[i]
            if state is None:
                continue
            for size in range(1, min(max_size, n - i) + 1):
                meter.charge()
                if meter.exceeded:
                    tripped = True
                    break
                j = i + size
                view = self._view_for(tuple(order[i:j]))
                if not view.feasible or not view.fits:
                    # Infeasible at this size does not rule out larger
                    # windows — feasibility is a property of the whole
                    # window, not a prefix of it — so *skip* this size
                    # rather than abandoning the frontier.
                    continue
                # Dominance prune: no residency beats ``view.floor``, so
                # a candidate whose floor cannot beat the state already
                # at dp[j] would lose the strict `<` below anyway.
                existing = dp[j]
                if (
                    existing is not None
                    and state.seconds + view.floor >= existing.seconds
                ):
                    continue
                reached = self._resolve(state, view, j)
                if existing is None or reached.seconds < existing.seconds:
                    dp[j] = reached
            if tripped:
                break

        if tripped:
            if not self.config.fallback_on_budget:
                raise SearchBudgetExceeded(
                    elapsed_seconds=meter.elapsed,
                    nodes_explored=meter.nodes,
                    budget_seconds=self.config.max_search_seconds,
                    budget_nodes=self.config.max_search_nodes,
                    frontier=max(
                        j for j, s in enumerate(dp) if s is not None
                    ),
                )
            schedule = self._greedy_schedule(
                order, f"search budget exceeded ({meter.describe()})"
            )
        elif dp[n] is None:
            # No feasible DP cover (e.g. a single window exceeding the
            # stream budget interacting badly with the keep pool): the
            # greedy fallback tries smaller windows before giving up.
            schedule = self._greedy_schedule(order, "no feasible DP cover")
        else:
            schedule = Schedule(steps=self._materialize(dp[n]))
        return self._finish(schedule, meter, memo_base)

    def replay(self, window_sizes: Sequence[int]) -> Schedule:
        """Rebuild a schedule from its window cover, without searching.

        A schedule this class produces is fully determined by the sizes
        of its consecutive windows over the deterministic topological
        order: replaying the cover through the same transition
        (:meth:`_resolve`) reproduces every step (seconds, metrics,
        residency sets) exactly.  This is how the DSE cache rehydrates
        schedules across processes — the cover is tiny and portable
        where live :class:`~repro.sched.dataflow.SpatialGroupPlan`
        objects are not.

        The DP search counters (``sched.searches`` etc.) are *not*
        touched — a replay is a cache hit, not a search — and the static
        verification gate is skipped (the simulator re-verifies steps
        before running them).

        Raises:
            InvariantViolation: when the cover does not tile the
                topological order or replays an infeasible window (a
                stale or foreign cover — callers treat this as a cache
                miss and fall back to a fresh search).
        """
        order = self._order()
        n = len(order)
        sizes = [int(s) for s in window_sizes]
        if any(s < 1 for s in sizes) or sum(sizes) != n:
            raise InvariantViolation(
                "repro.sched.scheduler.Scheduler.replay",
                f"cover {sizes!r} does not tile the {n}-operator order",
            )
        state = self._initial_state()
        start = 0
        for size in sizes:
            view = self._view_for(tuple(order[start:start + size]))
            if not view.feasible or not view.fits:
                raise InvariantViolation(
                    "repro.sched.scheduler.Scheduler.replay",
                    f"cover replays an infeasible window at {start}",
                )
            start += size
            state = self._resolve(state, view, start)
        self.stats["replayed"] = 1.0
        if _METRICS.enabled:
            _METRICS.counter("sched.replays").inc()
        return Schedule(steps=self._materialize(state))

    def _finish(
        self,
        schedule: Schedule,
        meter: BudgetMeter,
        memo_base: Dict[str, int],
    ) -> Schedule:
        """Stamp search stats, run the verification gate, and return."""
        self.stats["search_seconds"] = meter.elapsed
        # Most windows never instantiate a live plan; the view cache is
        # the per-window working set.
        self.stats["plans_cached"] = float(len(self._view_cache))
        self.stats["degraded"] = 1.0 if schedule.degraded else 0.0
        self.stats["windows_explored"] = float(meter.nodes)
        # Structural plan-memo activity during this search (the memo is
        # process-wide; the deltas are stamped once per search).
        snap = _PLAN_MEMO.snapshot()
        memo_hits = (
            snap["memo_hit"] - memo_base["memo_hit"]
            + snap["disk_hit"] - memo_base["disk_hit"]
        )
        memo_misses = snap["memo_miss"] - memo_base["memo_miss"]
        self.stats["plan_memo_hits"] = float(memo_hits)
        self.stats["plan_memo_misses"] = float(memo_misses)
        if _METRICS.enabled:
            _METRICS.counter("sched.searches").inc()
            _METRICS.counter("sched.plans_cached").inc(
                int(self.stats["plans_cached"])
            )
            _METRICS.histogram("sched.search_seconds").observe(
                self.stats["search_seconds"]
            )
            _METRICS.counter("sched.windows_explored").inc(meter.nodes)
            if memo_hits:
                _METRICS.counter("sched.plan.memo_hit").inc(memo_hits)
            if memo_misses:
                _METRICS.counter("sched.plan.memo_miss").inc(memo_misses)
            if schedule.degraded:
                _METRICS.counter("sched.degraded_fallbacks").inc()
        self._verify_gate(schedule)
        return schedule

    def _verify_gate(self, schedule: Schedule) -> None:
        """Statically verify the produced schedule (``config.verify``).

        Every operator of ``self.graph`` appears in exactly one step of a
        schedule this class produces, so the full rule set — order,
        coverage, residency provenance, plus the cross-window dataflow
        rules (F002 peak residency, F003 key-switch reachability, F004
        sharing) — applies.  ``verify="warn"`` reports without failing;
        ``verify="off"`` skips the gate (the evaluation pipeline
        re-verifies via the simulator's pre-run check anyway).
        """
        if self.config.verify == "off":
            return
        # Imported lazily: repro.analysis depends on this module.
        from repro.analysis.flow import (
            verify_key_reach,
            verify_residency,
            verify_sharing,
        )
        from repro.analysis.schedule_verify import verify_schedule
        from repro.resilience.errors import VerificationError

        with _span("sched.verify", graph=self.graph.name):
            report = verify_schedule(
                schedule, self.hw, graph=self.graph, config=self.config
            )
            steps = list(schedule.steps)
            if steps:
                # The gate may be handed a partition segment rather than
                # a complete program graph (schedule_partitioned runs one
                # Scheduler per segment), so the graph-level F003/F004
                # halves run in their boundary-tolerant modes: ModUp may
                # live in an upstream segment and siblings may be
                # consumed by a downstream one.  The full-strength graph
                # checks run on complete graphs via verify_flow_graph
                # (engine pre-run, runner --verify, analysis CLI).
                verify_residency(steps, self.hw, report,
                                 config=self.config)
                verify_key_reach(self.graph, steps, report,
                                 assume_boundary_materialized=True)
                verify_sharing(self.graph, steps, report,
                               graph_level=False)
        self.stats["verify_errors"] = float(len(report.errors))
        if report.ok:
            return
        if self.config.verify == "error":
            raise VerificationError(
                f"schedule for graph {self.graph.name!r} failed static "
                "verification",
                report=report,
            )
        import warnings

        warnings.warn(
            f"schedule for graph {self.graph.name!r} failed static "
            f"verification:\n{report.render_text()}",
            stacklevel=3,
        )

    # ------------------------------------------------------------------

    def _greedy_schedule(
        self, order: Sequence[Operator], reason: str
    ) -> Schedule:
        """Deterministic fallback: fixed MAD-style fusion windows.

        Walks the topological order taking the largest feasible window
        up to :data:`GREEDY_FALLBACK_WINDOW` operators — linear in the
        graph, no search — and prices each step with the DP's own
        transition (:meth:`_resolve`), so the result is a *valid* (if
        suboptimal) schedule.  Raises :class:`InfeasibleScheduleError`
        only when a single operator cannot be placed at all.
        """
        n = len(order)
        state = self._initial_state()
        cap = min(self.config.max_group_size, GREEDY_FALLBACK_WINDOW)
        placed = 0
        i = 0
        while i < n:
            for size in range(min(cap, n - i), 0, -1):
                view = self._view_for(tuple(order[i:i + size]))
                if view.feasible and view.fits:
                    i += size
                    state = self._resolve(state, view, i)
                    placed += 1
                    break
            else:
                raise InfeasibleScheduleError(
                    "no feasible cover: operator cannot be placed even "
                    "as a singleton group",
                    operator=order[i].name,
                    position=i,
                    partial_steps=placed,
                    detail=(
                        f"group buffer needs {view.buffer_bytes} B but "
                        f"SRAM holds {self.hw.sram_capacity_bytes} B"
                    ),
                )
        return Schedule(
            steps=self._materialize(state), degraded=True,
            degraded_reason=reason,
        )

    # ------------------------------------------------------------------

    def _resolve(
        self, state: _DpState, view: _WindowView, end_pos: int
    ) -> _DpState:
        """The DP transition: run ``view``'s window (ending before
        topological position ``end_pos``) after ``state``.

        Resolves what the step finds and leaves in SRAM — pool eviction,
        pending settlement, residency capture, the constant-pool fill —
        then the effective DRAM bytes
        (:func:`~repro.sched.dataflow.effective_dram_bytes`), and prices
        the step with :meth:`GroupPricing.seconds`.  Search, ``replay``,
        and the greedy fallback all extend states through here.
        """
        last_use = self._last_use
        keep_budget = self._keep_budget
        window = self.config.stream_window
        consumed = view.consumed
        # Evolve the resident pool: evict tensors dead after this window.
        new_pool = {
            uid: nbytes
            for uid, nbytes in state.pool.items()
            if last_use.get(uid, -1) >= end_pos
        }
        pool_bytes = sum(new_pool.values())

        # Settle deferred outputs: a tensor may wait up to the stream
        # window (holding only its granule) for a consumer whose loops
        # match, streaming through SRAM with no DRAM round trip — the
        # depth of a temporal pipelining group.  Consumers that arrive
        # with mismatched loops force the spill (their read was charged),
        # and tensors that outlive the window are spilled too.
        streamed: Set[int] = set()
        spill_bytes = 0
        new_pending: Dict[int, Tuple[int, int, _WindowView]] = {}
        for uid, (nbytes, age, producer) in state.pending.items():
            live_later = last_use.get(uid, -1) >= end_pos
            consumed_now = uid in consumed
            if consumed_now and self._streamable(uid, producer, view):
                streamed.add(uid)
                if live_later:
                    if pool_bytes + nbytes <= keep_budget:
                        new_pool[uid] = nbytes
                        pool_bytes += nbytes
                    elif age + 1 < window:
                        new_pending[uid] = (nbytes, age + 1, producer)
                    else:
                        spill_bytes += nbytes
                continue
            if consumed_now:
                # Unmatched consumer already charged its read: settle with
                # the spill write unless the pool can absorb the tensor.
                if pool_bytes + nbytes <= keep_budget:
                    new_pool[uid] = nbytes
                    pool_bytes += nbytes
                else:
                    spill_bytes += nbytes
                continue
            if pool_bytes + nbytes <= keep_budget and live_later:
                new_pool[uid] = nbytes
                pool_bytes += nbytes
            elif age + 1 < window and live_later:
                new_pending[uid] = (nbytes, age + 1, producer)
            else:
                spill_bytes += nbytes

        # Captured before this window's outputs enter the pool.
        resident_inputs = new_pool.keys() | streamed | state.pool.keys()
        # Outputs of this window: pool what fits, defer the rest (graph
        # outputs stay on-chip for the next segment).  Either way their
        # write is deferred; a later transition settles it.
        kept: Set[int] = set()
        for uid, nbytes in view.out_items:
            kept.add(uid)
            if (
                last_use.get(uid, -1) >= end_pos
                and pool_bytes + nbytes <= keep_budget
            ):
                new_pool[uid] = nbytes
                pool_bytes += nbytes
            else:
                new_pending[uid] = (nbytes, 0, view)

        dram_read, dram_write = effective_dram_bytes(
            view.dram_read_bytes, view.dram_write_bytes,
            view.external_items, view.constant_items, view.out_items,
            resident_inputs, state.resident_constants, kept,
            self.config.constant_share, spill_bytes,
        )
        step_seconds = self._pricing.seconds(
            view.compute_cycles, dram_read + dram_write, view.sram_bytes,
            view.noc_bytes, view.transpose_bytes,
        )

        # Update the resident-constant pool (kept while the budget holds).
        new_consts = state.resident_constants
        new_const_bytes = state.resident_constant_bytes
        added: Optional[Set[int]] = None
        for uid, nbytes in view.constant_items:
            if (
                uid not in new_consts
                and new_const_bytes + nbytes <= self._const_budget
            ):
                if added is None:
                    added = set()
                added.add(uid)
                new_const_bytes += nbytes
        if added:
            new_consts = state.resident_constants | added
        return _DpState(
            state.seconds + step_seconds, new_pool, new_pending,
            new_consts, new_const_bytes,
            parent=state, view=view, step_seconds=step_seconds,
            dram_read=dram_read, dram_write=dram_write,
            resident_inputs=resident_inputs, kept=kept,
        )

    def _streamable(
        self, uid: int, producer: _WindowView, consumer: _WindowView
    ) -> bool:
        """Can a deferred tensor stream from the previous group into this
        one (matched top loops across the boundary, Section V-A)?

        Pure in its arguments, so verdicts are cached per (producer,
        consumer, tensor) — the same pair is re-queried from many DP
        states.
        """
        if not self.config.temporal_streaming:
            return False
        key = (producer, consumer, uid)
        hit = self._stream_cache.get(key)
        if hit is not None:
            return hit
        verdict = self._streamable_uncached(uid, producer, consumer)
        self._stream_cache[key] = verdict
        return verdict

    @staticmethod
    def _streamable_uncached(
        uid: int, producer: _WindowView, consumer: _WindowView
    ) -> bool:
        prod_nest = None
        for pos, op in enumerate(producer.ops):
            if any(t.uid == uid for t in op.outputs):
                prod_nest = producer.nests[pos]
                break
        if prod_nest is None:
            return False
        for pos, op in enumerate(consumer.ops):
            if any(t.uid == uid for t in op.inputs):
                if matched_prefix(prod_nest, consumer.nests[pos]) > 0:
                    return True
        return False


def schedule_graph(
    graph: OperatorGraph,
    hw: HardwareConfig,
    config: Optional[SchedulerConfig] = None,
    candidate_splits: Optional[Sequence[Optional[Tuple[int, int]]]] = None,
) -> Schedule:
    """Schedule a graph, trying each candidate NTT split and keeping the
    fastest result (the scheduler-level half of Section V-B).

    A split whose search proves infeasible is skipped as long as some
    other candidate succeeds; only when every candidate fails does the
    last :class:`InfeasibleScheduleError` propagate.
    """
    if candidate_splits is None:
        candidate_splits = [None]
    best: Optional[Schedule] = None
    last_error: Optional[InfeasibleScheduleError] = None
    for split in candidate_splits:
        try:
            sched = Scheduler(graph, hw, config, n_split=split).schedule()
        except InfeasibleScheduleError as exc:
            last_error = exc
            continue
        if best is None or sched.total_seconds < best.total_seconds:
            best = sched
    if best is None:
        if last_error is not None:
            raise last_error
        raise InfeasibleScheduleError(
            "no candidate NTT split produced a schedule",
            detail=f"candidates tried: {list(candidate_splits)!r}",
        )
    return best


def schedule_partitioned(
    graph: OperatorGraph,
    hw: HardwareConfig,
    config: Optional[SchedulerConfig] = None,
    n_split: Optional[Tuple[int, int]] = None,
    segment_limit: int = 25,
) -> Schedule:
    """Schedule a large graph via pre-partitioning with merging.

    The paper's path for ResNet-scale graphs (Section V-D): partition
    into acyclic segments of at most ``segment_limit`` operators, search
    each *distinct* segment structure once, and reuse the result for its
    structural twins — the twins share the representative's scheduled
    steps, whose costs are identical by construction of the signature.
    A degraded segment schedule (budget fallback) marks the combined
    schedule degraded.
    """
    from repro.sched.partition import partition_graph

    partitions = partition_graph(graph, limit=segment_limit)
    searched: Dict[Tuple, Schedule] = {}
    combined = Schedule(steps=[])
    for part in partitions:
        cached = searched.get(part.signature)
        if cached is None:
            sub = OperatorGraph(f"{graph.name}.part{part.index}")
            for op in part.ops:
                sub.add_operator(op)
            cached = Scheduler(sub, hw, config, n_split=n_split).schedule()
            searched[part.signature] = cached
        combined.steps.extend(cached.steps)
        if cached.degraded and not combined.degraded:
            combined.degraded = True
            combined.degraded_reason = (
                f"segment {part.index}: {cached.degraded_reason}"
            )
    return combined


def default_ntt_splits(
    n: int, min_tile: int = 64
) -> List[Tuple[int, int]]:
    """Candidate four-step splits near sqrt(N) (tiles must fill lanes)."""
    out = []
    for n1, n2 in power_of_two_splits(n, min_tile=min_tile):
        if n2 < min_tile:
            continue
        # Stay within 4x of square to bound the candidate count.
        if max(n1, n2) // min(n1, n2) <= 4:
            out.append((n1, n2))
    return out
