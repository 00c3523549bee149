"""The CROPHE scheduling algorithm (paper Section V-D).

Bottom-up composition with dynamic programming:

1. enumerate candidate spatial groups as contiguous windows (size up to
   ``max_group_size``) of the topological order, with one plan skeleton
   per (window structure, NTT split) pair — skeletons for structurally
   identical windows are memoized by signature (the paper's
   redundant-subgraph merging);
2. dynamic programming over the topological order picks the window
   sequence minimizing end-to-end time under the analytical cost model;
3. consecutive steps keep boundary tensors SRAM-resident when they fit
   (temporal pipelining) and keep constants on-chip across steps
   (temporal sharing), which the DP transition prices in.

The transition exists once (:meth:`Scheduler._resolve`): it resolves
residency against a window's pricing template and prices the result
with :class:`~repro.sched.dataflow.GroupPricing`.  The search,
``replay``, and the greedy fallback all extend DP states through it,
and the winning chain's steps carry the very seconds and DRAM bytes it
priced.  Templates come from the graph's window table
(:mod:`repro.sched.plan_memo`), shared by every scheduler over the same
graph, hardware, split and plan kind; a window no scheduler has seen is
planned by this scheduler's skeleton builder, which extends its
previous miss at the same start.  Live plans exist only for the
winning cover.

The paper searches all subgraphs of a pre-partitioned graph exhaustively
(100 CPU-hours for ResNet-20); contiguous-window DP with memoization is
the tractable restriction we ship, with the window size and NTT split
exposed as knobs.  The DP is linear in graph size, so the workload
emitters' segments need no further pre-partitioning, and the r_hyb and
split enumeration lives in
:func:`repro.experiments.common.evaluate_workload`.

Resilience (see :mod:`repro.resilience`): knobs are validated at
construction time, the DP runs under optional wall-clock/node budgets,
and on budget exhaustion or an infeasible cover the scheduler degrades
to a deterministic greedy fallback (MAD-style fusion windows) instead of
hanging or dying — the result is tagged ``degraded=True`` with the
reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.hw.config import HardwareConfig
from repro.ir.graph import OperatorGraph
from repro.ir.operators import Operator
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
    SkeletonBuilder,
    WindowRow,
    WindowTable,
    WindowTemplate,
    instantiate as _instantiate,
    memo_enabled,
    skeleton_of,
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
    #: schedule, ``"off"`` skips the gate.
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
        if self.verify not in ("error", "off"):
            raise ConfigError(
                "verify", self.verify,
                'the verification gate is "error" or "off"',
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


class _DpState:
    """Forward DP state: cumulative time plus what lives in SRAM.

    States form a linked chain through ``parent``: instead of copying a
    growing step list on every transition, each state records only the
    step that reached it — its ``window`` template and ``start``
    position, priced ``step_seconds``, effective DRAM bytes, and
    residency sets.  The winning chain is materialized into real steps
    once, at the end (:meth:`Scheduler._materialize`).

    ``pool`` holds intermediate tensors kept on-chip (uid -> bytes); a
    tensor leaves the pool when its last consumer has executed.  This is
    the top "sequential execution with fully materialized intermediates"
    level of the hierarchy: with enough SRAM, producer/consumer pairs far
    apart in the order still avoid the DRAM round trip.  ``pending``
    holds boundary outputs whose write decision is deferred: a later
    step within the stream window may stream them (temporal pipelining),
    pool them, or finally spill them — uid -> (bytes, age, producer's
    top loop, or ``None`` when it cannot stream).
    """

    __slots__ = (
        "seconds", "parent", "window", "start", "step_seconds",
        "dram_read", "dram_write", "resident_inputs", "kept", "pool",
        "pending", "resident_constants", "resident_constant_bytes",
    )

    def __init__(
        self,
        seconds: float,
        pool: Dict[int, int],
        pending: Dict[int, Tuple[int, int, Optional[Tuple]]],
        resident_constants: Set[int],
        resident_constant_bytes: int,
        parent: Optional["_DpState"] = None,
        window: Optional[WindowTemplate] = None,
        start: int = 0,
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
        self.window = window
        self.start = start
        self.step_seconds = step_seconds
        self.dram_read = dram_read
        self.dram_write = dram_write
        self.resident_inputs = resident_inputs
        self.kept = kept


class Scheduler:
    """Searches cross-operator dataflow schedules for one graph.

    Takes a *decomposed*-level graph (see :mod:`repro.passes`): coarse
    primitive-level operators answer no cost queries, so a graph that
    still holds one fails with a typed
    :class:`~repro.resilience.errors.InvariantViolation`.
    """

    #: The plan class windows are built with (part of plan-memo keys).
    plan_kind = SpatialGroupPlan

    def __init__(
        self,
        graph: OperatorGraph,
        hw: HardwareConfig,
        config: Optional[SchedulerConfig] = None,
        n_split: Optional[Tuple[int, int]] = None,
    ):
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
        #: Whether the memo serves windows (it is on, and no test double
        #: overrides :meth:`_plan_for`); sampled once.
        self._shared = (
            memo_enabled() and type(self)._plan_for is Scheduler._plan_for
        )
        self._pricing = GroupPricing.for_config(hw)
        #: Set by :meth:`_begin`: the graph's window table, this
        #: scheduler's row of it and its skeleton builder for memo
        #: misses (both ``None`` when not shared), and the windows
        #: requested so far by slot — each counts once.
        self._table: Optional[WindowTable] = None
        self._row: Optional[WindowRow] = None
        self._builder: Optional[SkeletonBuilder] = None
        self._windows: Dict[int, WindowTemplate] = {}
        self.stats: Dict[str, float] = {}

    # ------------------------------------------------------------------

    def _plan_for(self, window: Tuple[Operator, ...]) -> SpatialGroupPlan:
        """A fresh plan of this scheduler's kind for one window.

        Builds every window when the plan memo is off (the constructor
        runs the same skeleton builder as a memo miss, over this window
        alone); a test double that overrides it gets every window
        routed through the override, unshared.
        """
        return self.plan_kind(self.graph, window, self.hw, self.n_split)

    def _begin(self) -> Tuple[Operator, ...]:
        """The topological order, with the window table of the memo's
        current generation (a scheduler reused across ``MEMO.clear()``
        starts cold again, with a fresh skeleton builder)."""
        table = _PLAN_MEMO.table(self.graph)
        if table is not self._table:
            self._table = table
            self._windows = {}
            if self._shared:
                key = (self.hw, self.n_split, self.plan_kind)
                self._row = table.rows.setdefault(key, WindowRow(*key))
                self._builder = SkeletonBuilder(
                    self.graph, table, self.hw, self.n_split, self.plan_kind
                )
        return table.order

    def _window(self, start: int, size: int) -> WindowTemplate:
        """The template of window (start, size): from the shared row
        (the process-wide :data:`repro.sched.plan_memo.MEMO` serves
        every structure it has seen, and this scheduler's builder
        plans the rest), or built by :meth:`_plan_for`."""
        slot = start * self._table.stride + size
        window = self._windows.get(slot)
        if window is None:
            if self._row is None:
                ops = self._table.order[start:start + size]
                window = WindowTemplate(
                    skeleton_of(self._plan_for(ops)), ops, self.hw
                )
            else:
                window = _PLAN_MEMO.template(
                    self.graph, self._table, self._row, start, size,
                    self._builder,
                )
            self._windows[slot] = window
        return window

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

        Each link's plan instantiates now from its template's skeleton
        (for memo-served windows the only live plan that ever exists),
        and its step carries the link's priced seconds and effective
        DRAM bytes — the step costs exactly what the DP compared.
        """
        chain: List[_DpState] = []
        node = state
        while node.parent is not None:
            chain.append(node)
            node = node.parent
        chain.reverse()
        table = self._table
        steps: List[ScheduledStep] = []
        for link in chain:
            plan = _instantiate(
                link.window.skeleton, self.graph,
                table.order[link.start:link.start + len(link.window.tops)],
                self.hw, self.n_split, self.plan_kind,
            )
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
        order = self._begin()
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
                window = self._window(i, size)
                if not window.feasible or not window.fits:
                    # Infeasible at this size does not rule out larger
                    # windows — feasibility is a property of the whole
                    # window, not a prefix of it — so *skip* this size
                    # rather than abandoning the frontier.
                    continue
                # Dominance prune: no residency beats ``window.floor``,
                # so a candidate whose floor cannot beat the state
                # already at dp[j] would lose the strict `<` below.
                existing = dp[j]
                if (
                    existing is not None
                    and state.seconds + window.floor >= existing.seconds
                ):
                    continue
                reached = self._resolve(state, window, i, j)
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
        n = len(self._begin())
        sizes = [int(s) for s in window_sizes]
        if any(s < 1 for s in sizes) or sum(sizes) != n:
            raise InvariantViolation(
                "repro.sched.scheduler.Scheduler.replay",
                f"cover {sizes!r} does not tile the {n}-operator order",
            )
        state = self._initial_state()
        start = 0
        for size in sizes:
            window = self._window(start, size)
            if not window.feasible or not window.fits:
                raise InvariantViolation(
                    "repro.sched.scheduler.Scheduler.replay",
                    f"cover replays an infeasible window at {start}",
                )
            state = self._resolve(state, window, start, start + size)
            start += size
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
        # Most windows never instantiate a live plan; the requested
        # templates are the per-window working set.
        self.stats["plans_cached"] = float(len(self._windows))
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
        sharing) — applies.  ``verify="off"`` skips the gate (the
        evaluation pipeline re-verifies via the simulator's pre-run
        check anyway).
        """
        if self.config.verify == "off":
            return
        # Imported lazily: repro.analysis depends on this module.
        from repro.analysis.flow import verify_flow_schedule
        from repro.analysis.schedule_verify import verify_schedule
        from repro.resilience.errors import VerificationError

        with _span("sched.verify", graph=self.graph.name):
            report = verify_schedule(
                schedule, self.hw, graph=self.graph, config=self.config
            )
            # The F* schedule checks run in their workload-segment
            # modes; the strict graph halves run on complete graphs via
            # verify_flow_graph (the lowering pipeline's invariants).
            report.extend(verify_flow_schedule(
                schedule, self.hw, graph=self.graph, config=self.config
            ))
        self.stats["verify_errors"] = float(len(report.errors))
        if not report.ok:
            raise VerificationError(
                f"schedule for graph {self.graph.name!r} failed static "
                "verification",
                report=report,
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
                window = self._window(i, size)
                if window.feasible and window.fits:
                    state = self._resolve(state, window, i, i + size)
                    i += size
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
                        f"group buffer needs {window.buffer_bytes} B but "
                        f"SRAM holds {self.hw.sram_capacity_bytes} B"
                    ),
                )
        return Schedule(
            steps=self._materialize(state), degraded=True,
            degraded_reason=reason,
        )

    # ------------------------------------------------------------------

    def _resolve(
        self,
        state: _DpState,
        window: WindowTemplate,
        start: int,
        end_pos: int,
    ) -> _DpState:
        """The DP transition: run ``window`` over topological positions
        ``[start, end_pos)`` after ``state``.

        Binds the template's position references to this graph's uids,
        resolves what the step finds and leaves in SRAM — pool eviction,
        pending settlement, residency capture, the constant-pool fill —
        then the effective DRAM bytes
        (:func:`~repro.sched.dataflow.effective_dram_bytes`), and prices
        the step with :meth:`GroupPricing.seconds`.  Search, ``replay``,
        and the greedy fallback all extend states through here.
        """
        table = self._table
        last_use = table.last_use
        consumers = table.consumers
        keep_budget = self._keep_budget
        depth = self.config.stream_window
        tops = window.tops
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
        new_pending: Dict[int, Tuple[int, int, Optional[Tuple]]] = {}
        for uid, (nbytes, age, top) in state.pending.items():
            live_later = last_use.get(uid, -1) >= end_pos
            # It streams when its producer's top loop is among those of
            # the positions consuming it here (matched top loops across
            # the boundary, Section V-A).
            consumed_now = [
                tops[pos - start] for pos in consumers.get(uid, ())
                if start <= pos < end_pos
            ]
            if top is not None and top in consumed_now:
                streamed.add(uid)
                if live_later:
                    if pool_bytes + nbytes <= keep_budget:
                        new_pool[uid] = nbytes
                        pool_bytes += nbytes
                    elif age + 1 < depth:
                        new_pending[uid] = (nbytes, age + 1, top)
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
            elif age + 1 < depth and live_later:
                new_pending[uid] = (nbytes, age + 1, top)
            else:
                spill_bytes += nbytes

        # Captured before this window's outputs enter the pool.
        resident_inputs = new_pool.keys() | streamed | state.pool.keys()
        # Outputs of this window: pool what fits, defer the rest (graph
        # outputs stay on-chip for the next segment).  Either way their
        # write is deferred; a later transition settles it.
        streaming = self.config.temporal_streaming
        out_uids = table.out_uids
        out_items = []
        kept: Set[int] = set()
        for p, idx, nbytes in window.outs:
            uid = out_uids[start + p][idx]
            out_items.append((uid, nbytes))
            kept.add(uid)
            if (
                last_use.get(uid, -1) >= end_pos
                and pool_bytes + nbytes <= keep_budget
            ):
                new_pool[uid] = nbytes
                pool_bytes += nbytes
            else:
                new_pending[uid] = (nbytes, 0, tops[p] if streaming else None)

        in_uids = table.in_uids
        constant_items = [
            (in_uids[start + p][idx], nbytes)
            for p, idx, nbytes in window.constants
        ]
        dram_read, dram_write = effective_dram_bytes(
            window.dram_read_bytes, window.dram_write_bytes,
            [
                (in_uids[start + p][idx], nbytes)
                for p, idx, nbytes in window.externals
            ],
            constant_items, out_items,
            resident_inputs, state.resident_constants, kept,
            self.config.constant_share, spill_bytes,
        )
        step_seconds = self._pricing.seconds(
            window.compute_cycles, dram_read + dram_write,
            window.sram_bytes, window.noc_bytes, window.transpose_bytes,
        )

        # Update the resident-constant pool (kept while the budget holds).
        new_consts = state.resident_constants
        new_const_bytes = state.resident_constant_bytes
        added: Optional[Set[int]] = None
        for uid, nbytes in constant_items:
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
            parent=state, window=window, start=start,
            step_seconds=step_seconds,
            dram_read=dram_read, dram_write=dram_write,
            resident_inputs=resident_inputs, kept=kept,
        )

