"""Whole-program dataflow verification (``repro.analysis.flow``).

The local verifiers (G*/C*/S*) check one operator or one scheduled step
at a time; the properties CROPHE's cross-operator optimizations rely on
are *inter*-operator: a level budget must survive whole
bootstrap/rescale chains, SRAM residency accumulates across window
boundaries, and a key-switch inner product is only legal if some
predecessor chain actually materialized its extended digit basis.  This
module adds the F* rule family for exactly those properties:
:func:`verify_levels` (F001, the whole-graph generalization of
C002/C003), :func:`verify_residency` (F002, ciphertext liveness + peak
SRAM claims per scheduled window), :func:`verify_key_reach` (F003, evk
fetch + ModUp-materialized digits for every key-switch window), and
:func:`verify_sharing` (F004, cross-window recompute / dead sibling
outputs).

Every graph these passes see is an SSA DAG — ``OperatorGraph.add_operator``
rejects a second producer and any cycle-closing insertion — so each
inter-operator property is one dict or one walk in topological order.

Two compositions share the work: :func:`verify_flow_graph` runs the
strict graph-level checks (the lowering pipeline's invariants on the
source and lowered graphs, whose reports ``python -m repro.analysis``
shows), and :func:`verify_flow_schedule` runs the schedule-level checks exactly as
the scheduler's post-``schedule()`` gate does.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import DiagnosticReport
from repro.ir.graph import OperatorGraph
from repro.ir.operators import Operator, OpKind
from repro.ir.tensors import DataTensor, TensorKind
from repro.resilience.errors import InvariantViolation

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
# F001 — whole-graph level-budget propagation
# ---------------------------------------------------------------------------


def _carried_rows(graph: OperatorGraph) -> Dict[int, int]:
    """Declared limb rows of every polynomial operator output.

    Each output has exactly one producer (``add_operator`` enforces
    SSA); a producerless polynomial carries the rows of its own shape,
    which readers take from the tensor when it is absent here.
    """
    return {
        t.uid: _out_rows(op)
        for op in graph.operators
        for t in op.outputs
        if _is_poly_like(t)
    }


def _achievable_rows(
    op: Operator, carried: Mapping[int, int]
) -> Optional[int]:
    """Upper bound on output limb rows reachable from ``op``'s inputs.

    ``None`` means unconstrained (no tracked polynomial inputs).  The
    element-wise bound is the *max* of the inputs — strictly stronger
    than C002's local sum rule — except for the ModUp ``.extend``
    concatenation, the one place the basis legally widens by routing.
    """
    supplied = [
        carried.get(t.uid, _rows(t)) for t in op.inputs if _is_poly_like(t)
    ]
    if not supplied:
        return None
    if op.kind is OpKind.KSK_INP:
        # Every digit must carry the full extended basis; the weakest
        # digit bounds the inner product.
        return min(supplied)
    if op.kind in (
        OpKind.EW_ADD, OpKind.EW_MUL, OpKind.EW_MULADD
    ) and op.tag.endswith(".extend"):
        return sum(supplied)
    # NTT/automorphism/transpose/BConv read rows from their single data
    # input; element-wise ops combine rows positionally.
    return max(supplied)


def verify_levels(
    graph: OperatorGraph, report: Optional[DiagnosticReport] = None
) -> DiagnosticReport:
    """F001: inter-operator level-budget propagation (generalizes C003).

    Checks every operator's declared source/output rows against the
    rows achievable from the rows its inputs carry.
    """
    if report is None:
        report = DiagnosticReport(pass_name="flow.levels")
    carried = _carried_rows(graph)
    for op in graph.operators_topological():
        achievable = _achievable_rows(op, carried)
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


def _materialized(
    graph: OperatorGraph, assume_boundary: bool = False
) -> Set[int]:
    """Uids of the polynomials some ModUp BConv has touched.

    A key-switch inner product is only meaningful over the *extended*
    digit basis, which only a BConv materializes (Figure 1's ModUp).  An
    operator's polynomial outputs are materialized when it is a BConv or
    any of its polynomial inputs is.  With ``assume_boundary`` the
    producerless polynomials count as materialized — the right reading
    for a workload segment whose ModUp ran in an upstream segment (and a
    vacuous one for a complete graph, where the strict reading is what
    catches a skipped ModUp).
    """
    done: Set[int] = set()
    if assume_boundary:
        done.update(
            t.uid for t in graph.tensors
            if graph.producer_of(t) is None and _is_poly_like(t)
        )
    for op in graph.operators_topological():
        if op.kind is OpKind.BCONV or any(
            t.uid in done for t in op.inputs if _is_poly_like(t)
        ):
            done.update(t.uid for t in op.outputs if _is_poly_like(t))
    return done


def verify_key_reach(
    graph: OperatorGraph,
    steps: Optional[Sequence[Any]] = None,
    report: Optional[DiagnosticReport] = None,
    assume_boundary_materialized: bool = False,
) -> DiagnosticReport:
    """F003: every key-switch window has materialized operands.

    Graph half: each KSKInP digit produced *inside* the graph must have
    a ModUp BConv somewhere in its predecessor chain (EXTERNAL digits
    were materialized by an upstream workload segment and are exempt;
    ``assume_boundary_materialized`` extends the same reading to every
    producerless tensor — :func:`verify_flow_schedule` sets it because
    the scheduler gate may be handed a workload segment rather than a
    complete graph).
    Schedule half: each step running a KSKInP must fetch the evk in
    that window or hold it from an earlier fetch (temporal sharing).
    """
    if report is None:
        report = DiagnosticReport(pass_name="flow.keyreach")
    materialized = _materialized(graph, assume_boundary_materialized)
    for op in graph.operators_topological():
        if op.kind is not OpKind.KSK_INP:
            continue
        for t in op.inputs:
            if t.kind is TensorKind.EVK:
                continue
            if not _is_poly_like(t) or t.kind is TensorKind.EXTERNAL:
                continue
            if t.uid not in materialized:
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
    half) merged into one report, in their strict whole-graph modes."""
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
    """The schedule-level F* checks: exactly what the scheduler gate runs.

    F002; F003 with ``assume_boundary_materialized`` (the gate may be
    handed a workload segment whose ModUp ran upstream); F004 without
    its dead-sibling graph half (a sibling may be consumed by a
    downstream segment).  The strict graph halves belong to
    :func:`verify_flow_graph` — callers running both see each
    graph-level finding once.

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
    verify_key_reach(graph, steps, report, assume_boundary_materialized=True)
    verify_sharing(graph, steps, report, graph_level=False)
    return report
