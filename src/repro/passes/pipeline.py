"""The verified pass-pipeline runner.

A :class:`PassPipeline` applies the fixed, ordered :data:`PASSES`
catalog of rewrites and runs the :mod:`repro.analysis` verifiers as
*pass-pipeline invariants*: G* structural + C* semantic + F* whole-graph
dataflow on the source graph and after every pass that rewrote
anything, plus each pass's P001 postcondition.

Telemetry (:mod:`repro.obs`, enabled via ``REPRO_OBS``): a
``passes.pipeline`` span wrapping per-pass ``passes.pass`` spans, the
``passes.rewrites`` / ``passes.invariants`` counters, and the
``passes.pass_seconds`` histogram.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Sequence

from repro.analysis.diagnostics import DiagnosticReport
from repro.analysis.flow import verify_flow_graph
from repro.analysis.graph_verify import verify_graph
from repro.analysis.semantics import verify_semantics
from repro.fhe.params import CKKSParams
from repro.ir.graph import OperatorGraph
from repro.ir.operators import OpKind
from repro.obs.metrics import REGISTRY as _METRICS
from repro.obs.tracer import span as _span
from repro.passes.context import LoweringContext
from repro.passes.levels import Level, graph_level
from repro.passes.rewrites import decompose_ntt, lower_keyswitch, lower_rotations
from repro.resilience.errors import ConfigError, VerificationError
from repro.workloads.base import WorkloadOptions

__all__ = [
    "INVARIANT_MODES",
    "PASSES",
    "Pass",
    "PassPipeline",
    "PipelineResult",
    "StageResult",
]

#: What to do with inter-pass invariant findings: ``"error"`` raises
#: :class:`~repro.resilience.errors.VerificationError` on any ERROR
#: finding, ``"warn"`` records findings but continues, ``"off"`` skips
#: the G*/C*/F* battery entirely (P001/P002 findings are still recorded).
INVARIANT_MODES = ("error", "warn", "off")

#: A postcondition inspects a rewrite's output and returns a violation
#: message (reported as a P001 diagnostic by the pipeline) or ``None``.
Postcondition = Callable[[OperatorGraph, LoweringContext], Optional[str]]


class Pass(NamedTuple):
    """One lowering rewrite of the catalog.

    ``rewrite`` returns its input graph object unchanged when it has
    nothing to rewrite; a ``postcondition`` violation surfaces as a P001
    diagnostic; ``python -m repro.passes ls`` prints the descriptions.
    """

    name: str
    rewrite: Callable[[OperatorGraph, LoweringContext], OperatorGraph]
    description: str
    postcondition: Optional[Postcondition] = None


def _no_kinds_survive(*kinds: OpKind) -> Postcondition:
    """Postcondition factory: the named kinds must be fully expanded."""

    def _check(
        graph: OperatorGraph, ctx: LoweringContext
    ) -> Optional[str]:
        for op in graph.operators:
            if op.kind in kinds:
                return (
                    f"operator {op.name} ({op.kind.value}) survived the "
                    "rewrite"
                )
        return None

    return _check


#: The primitive -> decomposed lowering, in application order.
PASSES = (
    Pass(
        "lower-rotations",
        lower_rotations,
        "expand coarse ROT_BATCH operators into their hoisting/hybrid "
        "baby-step expansions (key switches stay coarse)",
        _no_kinds_survive(OpKind.ROT_BATCH),
    ),
    Pass(
        "lower-keyswitch",
        lower_keyswitch,
        "expand coarse KEY_SWITCH operators into Decomp/ModUp/"
        "inner-product/ModDown chains (NTTs stay monolithic)",
        _no_kinds_survive(OpKind.KEY_SWITCH, OpKind.ROT_BATCH),
    ),
    Pass(
        "decompose-ntt",
        decompose_ntt,
        "apply the configured four-step split to every monolithic "
        "(i)NTT (identity when no split is configured)",
    ),
)


@dataclass
class StageResult:
    """One pass application: output graph, level, verdict."""

    pass_name: str
    graph: OperatorGraph = field(repr=False)
    level: Level
    rewrote: bool
    seconds: float
    reports: List[DiagnosticReport] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when the stage's invariant reports carry no errors."""
        return all(r.ok for r in self.reports)


@dataclass
class PipelineResult:
    """Everything one pipeline run produced."""

    source: StageResult
    stages: List[StageResult] = field(default_factory=list)

    @property
    def graph(self) -> OperatorGraph:
        """The final (most lowered) graph."""
        return self.stages[-1].graph if self.stages else self.source.graph

    @property
    def level(self) -> Level:
        """The final graph's level."""
        return self.stages[-1].level if self.stages else self.source.level

    @property
    def reports(self) -> List[DiagnosticReport]:
        """Every invariant report, in stage order."""
        out = list(self.source.reports)
        for stage in self.stages:
            out.extend(stage.reports)
        return out

    @property
    def ok(self) -> bool:
        """True when no stage produced an ERROR finding."""
        return self.source.clean and all(s.clean for s in self.stages)


class PassPipeline:
    """Runs the :data:`PASSES` catalog with inter-pass invariants.

    Args:
        params: CKKS parameter set of the graphs to lower.
        options: workload build options (the decompose-ntt pass reads
            ``options.ntt_split``).
        invariants: one of :data:`INVARIANT_MODES`.
    """

    def __init__(
        self,
        params: CKKSParams,
        options: Optional[WorkloadOptions] = None,
        invariants: str = "error",
    ):
        if invariants not in INVARIANT_MODES:
            raise ConfigError(
                "invariants", invariants,
                f"choose from {INVARIANT_MODES}",
            )
        self.params = params
        self.options = options or WorkloadOptions()
        self.invariants = invariants

    # ------------------------------------------------------------------

    def _verify(
        self, graph: OperatorGraph, where: str
    ) -> List[DiagnosticReport]:
        """The inter-pass invariant battery (G* + C* + F*)."""
        reports = [
            verify_graph(graph),
            verify_semantics(graph, self.params),
            verify_flow_graph(graph),
        ]
        for report in reports:
            report.pass_name = f"{where} {report.pass_name}"
        return reports

    def _gate(self, reports: Sequence[DiagnosticReport], where: str) -> None:
        """Apply the invariant mode to one stage's reports."""
        errors = [d for r in reports for d in r.errors]
        if _METRICS.enabled:
            _METRICS.counter(
                "passes.invariants",
                labels=(("status", "dirty" if errors else "clean"),),
            ).inc()
        if errors and self.invariants == "error":
            first = errors[0]
            raise VerificationError(
                f"pipeline invariant violated after {where}: "
                f"{len(errors)} error finding(s), first "
                f"[{first.rule}] {first.location}: {first.message}"
            )

    def run(self, graph: OperatorGraph) -> PipelineResult:
        """Lower one graph through every pass of :data:`PASSES`.

        Returns the full :class:`PipelineResult`; ``result.graph`` is
        the lowered graph.

        Raises:
            VerificationError: in ``"error"`` mode, when any inter-pass
                invariant (including a P001 postcondition) fails.
        """
        ctx = LoweringContext(self.params, self.options)
        ctx.seed_constants(graph)
        with _span(
            "passes.pipeline", graph=graph.name,
            ops=graph.num_operators,
        ) as sp:
            if _METRICS.enabled:
                _METRICS.counter("passes.pipeline.runs").inc()
            source_reports: List[DiagnosticReport] = []
            if self.invariants != "off":
                source_reports = self._verify(graph, "source")
                self._gate(source_reports, "source graph")
            source = StageResult(
                pass_name="source",
                graph=graph,
                level=graph_level(graph),
                rewrote=False,
                seconds=0.0,
                reports=source_reports,
            )
            result = PipelineResult(source=source)
            current = graph
            for p in PASSES:
                current = self._run_pass(p, current, ctx, result)
            sp.set("stages", len(result.stages))
            sp.set(
                "rewrites",
                sum(1 for s in result.stages if s.rewrote),
            )
        return result

    def _run_pass(
        self,
        p: Pass,
        graph: OperatorGraph,
        ctx: LoweringContext,
        result: PipelineResult,
    ) -> OperatorGraph:
        """Apply one pass, verify, and record the stage."""
        with _span("passes.pass", kind=p.name, graph=graph.name) as sp:
            t0 = time.perf_counter()
            out = p.rewrite(graph, ctx)
            seconds = time.perf_counter() - t0
            rewrote = out is not graph
            sp.set("rewrote", rewrote)
            if _METRICS.enabled:
                _METRICS.counter(
                    "passes.rewrites", labels=(("kind", p.name),)
                ).inc(1 if rewrote else 0)
                _METRICS.histogram(
                    "passes.pass_seconds", labels=(("kind", p.name),)
                ).observe(seconds)
        reports: List[DiagnosticReport] = []
        post = DiagnosticReport(pass_name=f"{p.name} postcondition")
        if p.postcondition is not None:
            violation = p.postcondition(out, ctx)
            if violation is not None:
                post.emit("P001", p.name, violation)
        if ctx.diagnostics.diagnostics:
            # Fold rewrite-emitted findings (e.g. P002) into this stage
            # and reset the channel for the next pass.
            post.extend(ctx.diagnostics)
            ctx.diagnostics = DiagnosticReport(pass_name="passes.rewrites")
        if not post.clean:
            reports.append(post)
        if self.invariants != "off" and rewrote:
            reports.extend(self._verify(out, f"after {p.name}"))
        self._gate(reports, f"pass {p.name}")
        result.stages.append(
            StageResult(
                pass_name=p.name,
                graph=out,
                level=graph_level(out),
                rewrote=rewrote,
                seconds=seconds,
                reports=reports,
            )
        )
        return out
