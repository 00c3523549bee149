"""The verified lowering-pipeline runner.

A :class:`PassPipeline` lowers one primitive-level graph with the
:func:`~repro.passes.rewrites.lower_primitives` walk and runs the
:mod:`repro.analysis` verifiers as *pipeline invariants*: G* structural
+ C* semantic + F* whole-graph dataflow on the source graph and on the
lowered graph, plus the walk's P001/P002 postcondition.

Telemetry (:mod:`repro.obs`, enabled via ``REPRO_OBS``): a
``passes.pipeline`` span, the ``passes.pipeline.runs`` /
``passes.rewrites`` / ``passes.invariants`` counters, and the
``passes.pass_seconds`` histogram (wall time of the walk).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.analysis.diagnostics import DiagnosticReport
from repro.analysis.flow import verify_flow_graph
from repro.analysis.graph_verify import verify_graph
from repro.analysis.semantics import verify_semantics
from repro.fhe.params import CKKSParams
from repro.ir.graph import OperatorGraph
from repro.obs.metrics import REGISTRY as _METRICS
from repro.obs.tracer import span as _span
from repro.passes.rewrites import lower_primitives
from repro.resilience.errors import ConfigError, VerificationError
from repro.sched.ntt_decomp import candidate_splits
from repro.workloads.base import WorkloadOptions

__all__ = ["INVARIANT_MODES", "PassPipeline", "PipelineResult"]

#: What to do with invariant findings: ``"error"`` raises
#: :class:`~repro.resilience.errors.VerificationError` on any ERROR
#: finding, ``"warn"`` records findings but continues, ``"off"`` skips
#: the G*/C*/F* battery entirely (P001/P002 findings are still recorded).
INVARIANT_MODES = ("error", "warn", "off")


@dataclass
class PipelineResult:
    """Everything one pipeline run produced.

    ``graph`` is the lowered graph (the source graph object itself when
    the walk had nothing to expand, i.e. ``rewrote`` is false).
    """

    graph: OperatorGraph = field(repr=False)
    source_ops: int
    rewrote: bool
    seconds: float
    reports: List[DiagnosticReport]

    @property
    def ok(self) -> bool:
        """True when no invariant report carries an ERROR finding."""
        return all(r.ok for r in self.reports)


class PassPipeline:
    """Lowers one graph with the walk, verified before and after.

    Args:
        params: CKKS parameter set of the graphs to lower.
        options: workload build options (the walk applies
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
        """The invariant battery (G* + C* + F*)."""
        if self.invariants == "off":
            return []
        reports = [
            verify_graph(graph),
            verify_semantics(graph, self.params),
            verify_flow_graph(graph),
        ]
        for report in reports:
            report.pass_name = f"{where} {report.pass_name}"
        return reports

    def _gate(self, reports: Sequence[DiagnosticReport], where: str) -> None:
        """Apply the invariant mode to one graph's reports."""
        errors = [d for r in reports for d in r.errors]
        if _METRICS.enabled:
            _METRICS.counter(
                "passes.invariants",
                labels=(("status", "dirty" if errors else "clean"),),
            ).inc()
        if errors and self.invariants == "error":
            first = errors[0]
            raise VerificationError(
                f"pipeline invariant violated on the {where}: "
                f"{len(errors)} error finding(s), first "
                f"[{first.rule}] {first.location}: {first.message}"
            )

    def _postcondition(self, graph: OperatorGraph) -> DiagnosticReport:
        """P001 (an operator the walk owns survived) and P002 (the
        four-step split is off the Section V-D candidate set)."""
        split = self.options.ntt_split
        post = DiagnosticReport(pass_name="lowering postcondition")
        for op in graph.operators:
            if op.kind.is_coarse or (
                split is not None and op.kind.is_monolithic_ntt
            ):
                post.emit(
                    "P001", graph.name,
                    f"operator {op.name} ({op.kind.value}) survived the "
                    "lowering walk",
                )
                break
        if (
            split is not None
            and split not in candidate_splits(self.params.n)
            and any(op.kind.is_ntt_phase for op in graph.operators)
        ):
            post.emit(
                "P002", graph.name,
                f"split {split} is not in candidate_splits(N={self.params.n}) "
                "for the default lane width",
            )
        return post

    def run(self, graph: OperatorGraph) -> PipelineResult:
        """Lower one graph with the walk.

        Returns the :class:`PipelineResult`; ``result.graph`` is the
        lowered graph.

        Raises:
            VerificationError: in ``"error"`` mode, when any invariant
                (including a P001 postcondition) fails.
        """
        with _span(
            "passes.pipeline", graph=graph.name,
            ops=graph.num_operators,
        ) as sp:
            if _METRICS.enabled:
                _METRICS.counter("passes.pipeline.runs").inc()
            source_reports = self._verify(graph, "source")
            self._gate(source_reports, "source graph")
            t0 = time.perf_counter()
            lowered = lower_primitives(
                graph, self.params, self.options.ntt_split
            )
            seconds = time.perf_counter() - t0
            rewrote = lowered is not graph
            sp.set("rewrote", rewrote)
            if _METRICS.enabled:
                _METRICS.counter("passes.rewrites").inc(1 if rewrote else 0)
                _METRICS.histogram("passes.pass_seconds").observe(seconds)
            post = self._postcondition(lowered)
            reports = [] if post.clean else [post]
            if rewrote:
                reports += self._verify(lowered, "lowered")
            self._gate(reports, "lowered graph")
        return PipelineResult(
            graph=lowered,
            source_ops=graph.num_operators,
            rewrote=rewrote,
            seconds=seconds,
            reports=source_reports + reports,
        )
