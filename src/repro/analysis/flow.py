"""Whole-program dataflow verification (``repro.analysis.flow``).

The local verifiers (G*/C*/S*) check one operator or one scheduled step
at a time; the properties CROPHE's cross-operator optimizations rely on
are *inter*-operator: a level budget must survive whole
bootstrap/rescale chains, SRAM residency accumulates across window
boundaries, and a key-switch inner product is only legal if some
predecessor chain actually materialized its extended digit basis.  This
module adds the F* rule family for exactly those properties, built on a
small abstract-interpretation framework:

* :class:`Lattice` implementations (interval, boolean-or) with
  ``join``/``widen``/``leq``;
* :class:`DataflowAnalysis`, a forward/backward worklist fixpoint
  engine over :class:`~repro.ir.graph.OperatorGraph` whose worklist is
  a heap of topological indices — the visit order (and therefore every
  report) is deterministic regardless of hash seeds;
* four concrete verifiers: :func:`verify_levels` (F001, the
  whole-graph generalization of C002/C003), :func:`verify_residency`
  (F002, ciphertext liveness + peak SRAM claims per scheduled window),
  :func:`verify_key_reach` (F003, evk fetch + ModUp-materialized
  digits for every key-switch window), and :func:`verify_sharing`
  (F004, cross-window recompute / dead sibling outputs).

The lowering pipeline (:mod:`repro.passes.pipeline`) checks its
inter-pass invariants with :func:`verify_flow_graph`, the same
graph-level F* checks the analysis CLI runs.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Generic,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from repro.analysis.diagnostics import DiagnosticReport
from repro.ir.graph import OperatorGraph
from repro.ir.operators import Operator, OpKind
from repro.ir.tensors import DataTensor, TensorKind
from repro.resilience.errors import InvariantViolation

V = TypeVar("V")

# ---------------------------------------------------------------------------
# Lattices
# ---------------------------------------------------------------------------


class Lattice(Generic[V]):
    """A join-semilattice over abstract values of type ``V``.

    ``bottom`` is the least element, ``join`` the least upper bound,
    ``leq`` the induced partial order, and ``widen`` an (optional)
    widening operator — it defaults to ``join``, which is enough for
    finite-height lattices; infinite-height lattices (intervals)
    override it to force convergence.
    """

    def bottom(self) -> V:
        """The least element of the lattice."""
        raise NotImplementedError

    def join(self, a: V, b: V) -> V:
        """Least upper bound of two abstract values."""
        raise NotImplementedError

    def leq(self, a: V, b: V) -> bool:
        """Partial order: is ``a`` below (or equal to) ``b``?"""
        raise NotImplementedError

    def widen(self, old: V, new: V) -> V:
        """Widening operator; defaults to :meth:`join`."""
        return self.join(old, new)


#: Interval values: ``None`` is bottom, otherwise ``(lo, hi)``.
Interval = Optional[Tuple[int, int]]


class IntervalLattice(Lattice[Interval]):
    """Integer intervals with widening to configurable bounds.

    Used by F001 to track how many limb rows a tensor can carry.  The
    lattice has infinite ascending chains, so :meth:`widen` jumps any
    still-moving bound straight to ``floor``/``ceiling``.
    """

    def __init__(self, floor: int = 0, ceiling: int = 1 << 30):
        self.floor = floor
        self.ceiling = ceiling

    def bottom(self) -> Interval:
        """``None``: no value observed yet."""
        return None

    def singleton(self, value: int) -> Interval:
        """The one-point interval ``[value, value]``."""
        return (value, value)

    def join(self, a: Interval, b: Interval) -> Interval:
        """Interval hull of ``a`` and ``b``."""
        if a is None:
            return b
        if b is None:
            return a
        return (min(a[0], b[0]), max(a[1], b[1]))

    def leq(self, a: Interval, b: Interval) -> bool:
        """Interval containment: ``a`` within ``b``."""
        if a is None:
            return True
        if b is None:
            return False
        return b[0] <= a[0] and a[1] <= b[1]

    def widen(self, old: Interval, new: Interval) -> Interval:
        """Jump any still-moving bound to ``floor``/``ceiling``."""
        if old is None:
            return new
        if new is None:
            return old
        lo = old[0] if old[0] <= new[0] else self.floor
        hi = old[1] if new[1] <= old[1] else self.ceiling
        return (lo, hi)


class BoolOrLattice(Lattice[bool]):
    """Two-point lattice ``False <= True`` with or-join."""

    def bottom(self) -> bool:
        """``False``: the property has not been established."""
        return False

    def join(self, a: bool, b: bool) -> bool:
        """Logical or."""
        return a or b

    def leq(self, a: bool, b: bool) -> bool:
        """Implication order: ``False <= True``."""
        return (not a) or b


# ---------------------------------------------------------------------------
# Worklist fixpoint engine
# ---------------------------------------------------------------------------


class Direction(enum.Enum):
    """Which way a :class:`DataflowAnalysis` walks the graph."""

    FORWARD = "forward"
    BACKWARD = "backward"


@dataclass
class FixpointResult:
    """Outcome of one :meth:`DataflowAnalysis.run`.

    ``values`` maps tensor uid to its abstract value, ``visits`` counts
    transfer applications per operator uid, and ``converged`` is False
    only when some operator hit the ``max_visits`` backstop (possible
    only for non-monotone transfer functions — the backstop guarantees
    termination regardless).
    """

    values: Dict[int, Any]
    visits: Dict[int, int]
    iterations: int = 0
    converged: bool = True


class DataflowAnalysis(Generic[V]):
    """Worklist fixpoint over an operator graph's tensor environment.

    Subclasses set :attr:`direction` and :attr:`lattice`, seed the
    environment via :meth:`boundary`, and implement :meth:`transfer`,
    which returns new abstract values for the operator's *outgoing*
    tensors (outputs when forward, inputs when backward).  Values are
    accumulated with ``join``; after :attr:`widen_after` visits of the
    same operator ``widen`` replaces ``join``, and :attr:`max_visits`
    is a hard termination backstop.

    Determinism: the worklist is a heap of topological indices, so
    operators are always processed in ascending topological order
    (descending for backward analyses) no matter in which order value
    changes enqueued them.
    """

    direction: Direction = Direction.FORWARD
    widen_after: int = 4
    max_visits: int = 64

    def __init__(self, lattice: Lattice[V]):
        self.lattice = lattice

    # -- subclass hooks -------------------------------------------------

    def boundary(self, graph: OperatorGraph) -> Dict[int, V]:
        """Initial tensor environment (e.g. values for graph inputs)."""
        return {}

    def transfer(self, op: Operator, env: Mapping[int, V]) -> Dict[int, V]:
        """Abstract effect of one operator on its outgoing tensors."""
        raise NotImplementedError

    # -- engine ---------------------------------------------------------

    def run(self, graph: OperatorGraph) -> FixpointResult:
        """Iterate transfers to a fixpoint and return the environment."""
        order = graph.operators_topological()
        forward = self.direction is Direction.FORWARD
        # Heap keys ascend in processing order for both directions.
        key_of = {
            op.uid: (idx if forward else len(order) - 1 - idx)
            for idx, op in enumerate(order)
        }
        op_of = {key_of[op.uid]: op for op in order}

        # Tensor -> operators whose transfer must re-run when the
        # tensor's value changes (consumers forward, producer backward).
        dependents: Dict[int, List[int]] = {}
        for op in order:
            outgoing = op.outputs if forward else op.inputs
            incoming = op.inputs if forward else op.outputs
            for t in incoming:
                dependents.setdefault(t.uid, []).append(key_of[op.uid])
            # Touch outgoing tensors so the dict covers every edge.
            for t in outgoing:
                dependents.setdefault(t.uid, [])

        env: Dict[int, V] = dict(self.boundary(graph))
        visits: Dict[int, int] = {}
        heap = sorted(key_of.values())
        queued: Set[int] = set(heap)
        iterations = 0
        converged = True

        while heap:
            key = heapq.heappop(heap)
            queued.discard(key)
            op = op_of[key]
            count = visits.get(op.uid, 0) + 1
            visits[op.uid] = count
            if count > self.max_visits:
                converged = False
                continue
            iterations += 1
            for uid, value in self.transfer(op, env).items():
                old = env.get(uid)
                if old is None and uid not in env:
                    new = value
                else:
                    new = self.lattice.join(old, value)  # type: ignore[arg-type]
                    if count > self.widen_after:
                        new = self.lattice.widen(old, new)  # type: ignore[arg-type]
                if uid in env and self.lattice.leq(new, env[uid]):
                    continue
                env[uid] = new
                for dep_key in dependents.get(uid, ()):
                    if dep_key not in queued:
                        queued.add(dep_key)
                        heapq.heappush(heap, dep_key)
        return FixpointResult(
            values=env, visits=visits, iterations=iterations,
            converged=converged,
        )


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

_POLY_LIKE = (TensorKind.POLY, TensorKind.EXTERNAL, TensorKind.PLAINTEXT)


def _is_poly_like(t: DataTensor) -> bool:
    return t.kind in _POLY_LIKE


def _rows(t: DataTensor) -> int:
    return t.shape[0] if len(t.shape) == 2 else 0


def _loc(op: Operator) -> str:
    return f"op {op.name} ({op.kind.value})"


def _out_rows(op: Operator) -> int:
    return op.out_limbs if op.out_limbs is not None else op.limbs


# ---------------------------------------------------------------------------
# F001 — whole-graph level/scale interval propagation
# ---------------------------------------------------------------------------


class LevelIntervalAnalysis(DataflowAnalysis[Interval]):
    """Forward interval analysis of the limb rows each tensor carries.

    Graph inputs and constants seed their declared row counts; each
    operator's transfer emits its declared output rows (clamped so one
    violation does not cascade down the chain — the post-pass in
    :func:`verify_levels` re-derives the *achievable* rows per operator
    and compares against the declaration).
    """

    direction = Direction.FORWARD

    def __init__(self) -> None:
        super().__init__(IntervalLattice(floor=0))

    def boundary(self, graph: OperatorGraph) -> Dict[int, Interval]:
        """Seed producerless polynomial tensors with declared rows."""
        env: Dict[int, Interval] = {}
        for t in graph.tensors:
            if graph.producer_of(t) is None and _is_poly_like(t):
                env[t.uid] = (_rows(t), _rows(t))
        return env

    def transfer(
        self, op: Operator, env: Mapping[int, Interval]
    ) -> Dict[int, Interval]:
        """Emit each output's declared row count as a point interval."""
        rows = _out_rows(op)
        return {
            t.uid: (rows, rows) for t in op.outputs if _is_poly_like(t)
        }


def _achievable_rows(
    op: Operator, env: Mapping[int, Interval]
) -> Optional[int]:
    """Upper bound on output limb rows reachable from ``op``'s inputs.

    ``None`` means unconstrained (no tracked polynomial inputs).  The
    element-wise bound is the *max* of the inputs — strictly stronger
    than C002's local sum rule — except for the ModUp ``.extend``
    concatenation, the one place the basis legally widens by routing.
    """
    his = []
    for t in op.inputs:
        if not _is_poly_like(t):
            continue
        value = env.get(t.uid)
        his.append(value[1] if value is not None else _rows(t))
    if not his:
        return None
    if op.kind is OpKind.KSK_INP:
        # Every digit must carry the full extended basis; the weakest
        # digit bounds the inner product.
        return min(his)
    if op.kind in (
        OpKind.EW_ADD, OpKind.EW_MUL, OpKind.EW_MULADD
    ) and op.tag.endswith(".extend"):
        return sum(his)
    # NTT/automorphism/transpose/BConv read rows from their single data
    # input; element-wise ops combine rows positionally.
    return max(his)


def verify_levels(
    graph: OperatorGraph, report: Optional[DiagnosticReport] = None
) -> DiagnosticReport:
    """F001: inter-operator level-budget propagation (generalizes C003).

    Runs :class:`LevelIntervalAnalysis` to a fixpoint, then checks every
    operator's declared source/output rows against the rows achievable
    through its whole predecessor chain.
    """
    if report is None:
        report = DiagnosticReport(pass_name="flow.levels")
    result = LevelIntervalAnalysis().run(graph)
    env = result.values
    for op in graph.operators_topological():
        achievable = _achievable_rows(op, env)
        out_rows = _out_rows(op)
        if out_rows < 1 or op.limbs < 1:
            report.emit(
                "F001", _loc(op),
                f"level budget underflow: the chain leaves "
                f"{min(out_rows, op.limbs)} limb rows (need at least 1)",
            )
            continue
        if achievable is None:
            continue
        # Source-side demand: how many rows the operator reads.
        if op.kind is OpKind.KSK_INP:
            if op.limbs > achievable:
                report.emit(
                    "F001", _loc(op),
                    f"inner product over {op.limbs} extended limbs but a "
                    f"digit chain supplies at most {achievable}",
                )
            continue
        demanded = op.limbs if op.kind is OpKind.BCONV else None
        emitted = _out_rows(op) if op.kind is not OpKind.BCONV else None
        if demanded is not None and demanded > achievable:
            report.emit(
                "F001", _loc(op),
                f"converts {demanded} source limbs but the chain supplies "
                f"at most {achievable}",
            )
        if emitted is not None and emitted > achievable:
            report.emit(
                "F001", _loc(op),
                f"declares {emitted} limb rows but at most {achievable} "
                f"are achievable through its input chains",
            )
    return report


# ---------------------------------------------------------------------------
# F002 — ciphertext liveness + peak SRAM residency per window
# ---------------------------------------------------------------------------


def _live_ranges(steps: Sequence[Any]) -> Dict[int, Tuple[int, int]]:
    """Liveness of every kept ciphertext across the step sequence.

    Returns ``uid -> (kept_at, last_claim)``: the step that kept the
    tensor on-chip and the last later step that claims it resident —
    the window across which the schedule asserts SRAM holds it.
    """
    kept_at: Dict[int, int] = {}
    for i, step in enumerate(steps):
        for uid in step.kept_outputs:
            kept_at.setdefault(uid, i)
    last_claim: Dict[int, int] = {}
    for i in range(len(steps) - 1, -1, -1):
        for uid in steps[i].resident_inputs:
            if uid in last_claim or uid not in kept_at:
                continue
            if i > kept_at[uid]:
                last_claim[uid] = i
    return {
        uid: (kept_at[uid], last_claim[uid])
        for uid in kept_at if uid in last_claim
    }


def verify_residency(
    steps: Sequence[Any],
    hw: Any,
    report: Optional[DiagnosticReport] = None,
    config: Optional[Any] = None,
) -> DiagnosticReport:
    """F002: cross-window residency claims must fit the keep budget.

    A kept output may ride the pending stream — holding only a granule
    — for up to ``stream_window`` steps before the scheduler either
    pools it in full or spills it; a spilled tensor can never reappear
    in a later ``resident_inputs``.  So any tensor still claimed
    resident ``stream_window`` or more steps after it was kept is
    *provably* held at full size in the keep pool over that span, and
    the pool is bounded by ``keep_fraction * sram_capacity_bytes``.
    S005 only checks each claim's provenance per window; this is the
    cross-window sum — a schedule whose claims cannot all fit is one
    the simulator would happily price while skipping DRAM reads that
    must physically happen.
    """
    if report is None:
        report = DiagnosticReport(pass_name="flow.residency")
    if config is None:
        from repro.sched.scheduler import SchedulerConfig

        config = SchedulerConfig(verify="off")
    window = max(config.stream_window, 1)
    budget = int(hw.sram_capacity_bytes * config.keep_fraction)
    ranges = _live_ranges(steps)
    sizes: Dict[int, int] = {}
    for step in steps:
        _, outs = step.plan.boundary()
        for t in outs:
            sizes.setdefault(t.uid, t.bytes)
    for i, step in enumerate(steps):
        held = sum(
            sizes.get(uid, 0)
            for uid, (kept, claim) in sorted(ranges.items())
            if kept + window <= i < claim
        )
        if held > budget:
            report.emit(
                "F002",
                f"step {i} ({len(step.plan.ops)} ops)",
                f"kept ciphertexts provably pooled across this step "
                f"total {held} bytes but the keep budget is {budget} "
                f"({config.keep_fraction} of {hw.sram_capacity_bytes})",
            )
    return report


# ---------------------------------------------------------------------------
# F003 — rotation-key / evk reachability
# ---------------------------------------------------------------------------


class BasisMaterializationAnalysis(DataflowAnalysis[bool]):
    """Forward reachability: has a ModUp BConv touched this tensor?

    A key-switch inner product is only meaningful over the *extended*
    digit basis, which only a BConv materializes (Figure 1's ModUp).
    ``True`` means some predecessor chain contains a BConv.  With
    ``assume_boundary`` the producerless tensors seed ``True`` — the
    right reading for a partition segment whose ModUp ran in an
    upstream segment (and a vacuous one for a complete graph, where
    the strict ``False`` seed is what catches a skipped ModUp).
    """

    direction = Direction.FORWARD

    def __init__(self, assume_boundary: bool = False) -> None:
        super().__init__(BoolOrLattice())
        self.assume_boundary = assume_boundary

    def boundary(self, graph: OperatorGraph) -> Dict[int, bool]:
        """Producerless polynomials seed ``True`` in boundary mode."""
        if not self.assume_boundary:
            return {}
        return {
            t.uid: True
            for t in graph.tensors
            if graph.producer_of(t) is None and _is_poly_like(t)
        }

    def transfer(
        self, op: Operator, env: Mapping[int, bool]
    ) -> Dict[int, bool]:
        """Outputs are materialized iff the op is a BConv or an input is."""
        value = op.kind is OpKind.BCONV or any(
            env.get(t.uid, False) for t in op.inputs if _is_poly_like(t)
        )
        return {t.uid: value for t in op.outputs if _is_poly_like(t)}


def verify_key_reach(
    graph: OperatorGraph,
    steps: Optional[Sequence[Any]] = None,
    report: Optional[DiagnosticReport] = None,
    assume_boundary_materialized: bool = False,
) -> DiagnosticReport:
    """F003: every key-switch window has materialized operands.

    Graph half: each KSKInP digit produced *inside* the graph must have
    a ModUp BConv somewhere in its predecessor chain (EXTERNAL digits
    were materialized by an upstream partition segment and are exempt;
    ``assume_boundary_materialized`` extends the same reading to every
    producerless tensor — the scheduler gate sets it because it may be
    handed a partition segment rather than a complete graph).
    Schedule half: each step running a KSKInP must fetch the evk in
    that window or hold it from an earlier fetch (temporal sharing).
    """
    if report is None:
        report = DiagnosticReport(pass_name="flow.keyreach")
    result = BasisMaterializationAnalysis(
        assume_boundary=assume_boundary_materialized
    ).run(graph)
    env = result.values
    for op in graph.operators_topological():
        if op.kind is not OpKind.KSK_INP:
            continue
        for t in op.inputs:
            if t.kind is TensorKind.EVK:
                continue
            if not _is_poly_like(t) or t.kind is TensorKind.EXTERNAL:
                continue
            if not env.get(t.uid, False):
                report.emit(
                    "F003", _loc(op),
                    f"digit {t.name} reaches the inner product without a "
                    f"ModUp base conversion on any predecessor chain",
                )
    if steps is None:
        return report
    for i, step in enumerate(steps):
        for op in step.plan.ops:
            if op.kind is not OpKind.KSK_INP:
                continue
            for t in op.inputs:
                if t.kind is not TensorKind.EVK:
                    continue
                fetched = t.uid in step.plan.metrics.constant_bytes
                resident = t.uid in step.resident_constants
                if not fetched and not resident:
                    report.emit(
                        "F003",
                        f"step {i}: {_loc(op)}",
                        f"evk {t.name} is neither fetched by this window "
                        f"nor resident from an earlier fetch",
                    )
    return report


# ---------------------------------------------------------------------------
# F004 — dead / recomputed tensors across window boundaries
# ---------------------------------------------------------------------------


def verify_sharing(
    graph: OperatorGraph,
    steps: Optional[Sequence[Any]] = None,
    report: Optional[DiagnosticReport] = None,
    graph_level: bool = True,
) -> DiagnosticReport:
    """F004 (warnings): missed cross-operator sharing.

    Graph half (``graph_level``; skip it for partition segments, where
    a sibling may be consumed by a *later* segment): a multi-output
    operator with a strict subset of its outputs consumed computes (and
    a schedule writes back) dead sibling outputs.  Schedule half: two
    different windows computing an identical operator (same
    kind/signature/tag on the same input tensors) recompute what
    temporal sharing should have kept — ``.decomp`` digit extractions
    are exempt, since the positional slices of one source are
    structurally identical by design.
    """
    if report is None:
        report = DiagnosticReport(pass_name="flow.sharing")
    for op in graph.operators_topological() if graph_level else ():
        if len(op.outputs) < 2:
            continue
        consumed = [bool(graph.consumers_of(t)) for t in op.outputs]
        if any(consumed) and not all(consumed):
            dead = [
                t.name for t, used in zip(op.outputs, consumed) if not used
            ]
            report.emit(
                "F004", _loc(op),
                f"output(s) {', '.join(dead)} are computed but never "
                f"consumed while sibling outputs are",
            )
    if steps is None:
        return report
    seen: Dict[Tuple, Tuple[int, str]] = {}
    for i, step in enumerate(steps):
        for op in step.plan.ops:
            if ".decomp" in op.tag:
                continue
            key = (
                op.signature(), op.tag,
                tuple(t.uid for t in op.inputs),
            )
            prior = seen.get(key)
            if prior is None:
                seen[key] = (i, op.name)
            elif prior[0] != i:
                report.emit(
                    "F004",
                    f"step {i}: {_loc(op)}",
                    f"recomputes {prior[1]} from step {prior[0]} on the "
                    f"same inputs; temporal sharing should reuse it",
                )
    return report


# ---------------------------------------------------------------------------
# Front ends
# ---------------------------------------------------------------------------


def verify_flow_graph(graph: OperatorGraph) -> DiagnosticReport:
    """All graph-level F* analyses (F001, F003 graph half, F004 graph
    half) merged into one report."""
    report = DiagnosticReport(pass_name="flow")
    verify_levels(graph, report)
    verify_key_reach(graph, steps=None, report=report)
    verify_sharing(graph, steps=None, report=report)
    return report


def verify_flow_schedule(
    schedule: Any,
    hw: Any,
    graph: Optional[OperatorGraph] = None,
    config: Optional[Any] = None,
) -> DiagnosticReport:
    """All schedule-level F* analyses (F002, F003/F004 schedule halves).

    ``graph`` defaults to the graph of the first step's plan; passing
    it explicitly is only needed for empty schedules.  ``config`` is
    the scheduler configuration the schedule was built under (keep
    fraction and stream window feed the F002 charge model); it
    defaults to the stock ``SchedulerConfig``.
    """
    report = DiagnosticReport(pass_name="flow.schedule")
    steps = list(schedule.steps)
    if not steps:
        return report
    if graph is None:
        graph = steps[0].plan.graph
    if graph is None:
        raise InvariantViolation(
            "repro.analysis.flow.verify_flow_schedule",
            "schedule steps carry no graph reference",
        )
    hw_cfg = getattr(hw, "sram_capacity_bytes", None)
    if hw_cfg is None:
        raise InvariantViolation(
            "repro.analysis.flow.verify_flow_schedule",
            f"{hw!r} has no sram_capacity_bytes",
        )
    verify_residency(steps, hw, report, config=config)
    verify_key_reach(graph, steps, report)
    verify_sharing(graph, steps, report)
    return report
