"""The verified lowering-pipeline runner.

A :class:`PassPipeline` lowers one primitive-level graph with the
:func:`~repro.passes.rewrites.lower_primitives` walk and enforces the
:mod:`repro.analysis` verifiers as *pipeline invariants*: G* structural
+ C* semantic + F* whole-graph dataflow on the source graph and on the
lowered graph, plus the walk's P001/P002 postcondition.  Any ERROR
finding raises :class:`~repro.resilience.errors.VerificationError`
carrying every report of that lowering so far.

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
from repro.resilience.errors import VerificationError
from repro.sched.ntt_decomp import candidate_splits
from repro.workloads.base import WorkloadOptions

__all__ = ["PassPipeline", "PipelineResult"]


@dataclass
class PipelineResult:
    """Everything one pipeline run produced.

    ``graph`` is the lowered graph (the source graph object itself when
    the walk had nothing to expand, i.e. ``rewrote`` is false).
    ``reports`` are the source graph's G*/C*/F* reports, the
    postcondition report when it has findings, and the lowered graph's
    G*/C*/F* reports when the walk rewrote; none carries an ERROR
    finding, because the run raises on those.
    """

    graph: OperatorGraph = field(repr=False)
    rewrote: bool
    reports: List[DiagnosticReport]


class PassPipeline:
    """Lowers one graph with the walk, verified before and after.

    Args:
        params: CKKS parameter set of the graphs to lower.
        options: workload build options (the walk applies
            ``options.ntt_split``).
    """

    def __init__(
        self,
        params: CKKSParams,
        options: Optional[WorkloadOptions] = None,
    ):
        self.params = params
        self.options = options or WorkloadOptions()

    # ------------------------------------------------------------------

    def _verify(
        self, graph: OperatorGraph, where: str
    ) -> List[DiagnosticReport]:
        """The invariant battery (G* + C* + F*)."""
        reports = [
            verify_graph(graph),
            verify_semantics(graph, self.params),
            verify_flow_graph(graph),
        ]
        for report in reports:
            report.pass_name = f"{where} {report.pass_name}"
        return reports

    def _gate(self, reports: Sequence[DiagnosticReport], where: str) -> None:
        """Raise on any ERROR finding among this lowering's reports so far.

        The :class:`VerificationError` carries every finding of
        ``reports`` merged into one report, each under its own rule id.
        """
        errors = [d for r in reports for d in r.errors]
        if _METRICS.enabled:
            _METRICS.counter(
                "passes.invariants",
                labels=(("status", "dirty" if errors else "clean"),),
            ).inc()
        if errors:
            first = errors[0]
            raise VerificationError(
                f"pipeline invariant violated on the {where}: "
                f"{len(errors)} error finding(s), first "
                f"[{first.rule}] {first.location}: {first.message}",
                report=DiagnosticReport(
                    pass_name=f"{where} invariants",
                    diagnostics=[d for r in reports for d in r.diagnostics],
                ),
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
            VerificationError: when any invariant (including a P001
                postcondition) fails; ``exc.report`` holds every finding
                of this lowering so far.
        """
        with _span(
            "passes.pipeline", graph=graph.name,
            ops=graph.num_operators,
        ) as sp:
            if _METRICS.enabled:
                _METRICS.counter("passes.pipeline.runs").inc()
            reports = self._verify(graph, "source")
            self._gate(reports, "source graph")
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
            if not post.clean:
                reports.append(post)
            if rewrote:
                reports += self._verify(lowered, "lowered")
            self._gate(reports, "lowered graph")
        return PipelineResult(graph=lowered, rewrote=rewrote, reports=reports)
