"""Static verification of graphs, CKKS semantics, and schedules.

Everything in this package runs *before* (and without) the simulator:

* :mod:`repro.analysis.diagnostics` — the shared vocabulary: the rule
  catalog (:data:`~repro.analysis.diagnostics.RULES`), ``Diagnostic``,
  ``DiagnosticReport`` with text/JSON renderers.
* :mod:`repro.analysis.graph_verify` — structural graph invariants
  (G001-G005).
* :mod:`repro.analysis.semantics` — CKKS limb/level/shape consistency
  (C001-C006).
* :mod:`repro.analysis.schedule_verify` — schedule legality against a
  hardware configuration (S001-S009).
* :mod:`repro.analysis.flow` — whole-program dataflow verification
  (F001-F004) by direct passes over the SSA operator graph.
* :mod:`repro.analysis.lint` — the repo lint pass (L001-L002) and the
  determinism lint (D001-D005).

Entry points: the lowering pipeline's invariants
(:mod:`repro.passes.pipeline`), the scheduler's post-``schedule()`` gate
(``SchedulerConfig.verify``), the simulator's pre-run check, and
:func:`verify_workloads` — the one workload verifier, behind
``python -m repro.analysis``, which reports the pipeline's findings and
checks every schedule.
"""

from repro.analysis.diagnostics import (
    EXIT_VERIFY,
    RULES,
    Diagnostic,
    DiagnosticReport,
    Rule,
    Severity,
    reports_document,
)
from repro.analysis.flow import (
    verify_flow_graph,
    verify_flow_schedule,
    verify_key_reach,
    verify_levels,
    verify_residency,
    verify_sharing,
)
from repro.analysis.graph_verify import verify_graph
from repro.analysis.schedule_verify import verify_schedule, verify_steps
from repro.analysis.semantics import verify_semantics

__all__ = [
    "EXIT_VERIFY",
    "RULES",
    "Rule",
    "Severity",
    "Diagnostic",
    "DiagnosticReport",
    "reports_document",
    "verify_graph",
    "verify_semantics",
    "verify_schedule",
    "verify_steps",
    "verify_flow_graph",
    "verify_flow_schedule",
    "verify_levels",
    "verify_residency",
    "verify_key_reach",
    "verify_sharing",
    "verify_workloads",
]


def verify_workloads(
    workload_names=("bootstrapping", "helr", "resnet20"),
    params_name: str = "ARK",
    hw=None,
):
    """Statically verify the shipped workloads end to end.

    Emits each workload at the primitive level and lowers every distinct
    segment the way the evaluation does (:func:`repro.passes.lower_graph`,
    four-step NTTs, hybrid rotation), keeping the pipeline's own reports:
    graph + semantics + whole-graph dataflow (F*) on the source and the
    lowered graph, and the lowering postcondition (P*) when it has
    findings.  A lowering that fails its invariants contributes its
    :class:`~repro.resilience.errors.VerificationError` report and is
    not scheduled.  Every distinct lowered graph is then scheduled once
    by the CROPHE scheduler and checked for full schedule legality (S*)
    plus the scheduler gate's F* checks (:func:`verify_flow_schedule`).
    Returns one list of :class:`DiagnosticReport`, each named after its
    ``workload/segment``.  The backend of ``python -m repro.analysis``.
    """
    from repro.fhe.params import parameter_set
    from repro.hw.config import CROPHE_64
    from repro.passes.lowering import lower_graph
    from repro.resilience.errors import VerificationError
    from repro.sched.scheduler import Scheduler, SchedulerConfig
    from repro.workloads import WORKLOAD_EMITTERS
    from repro.workloads.base import WorkloadOptions

    params = parameter_set(params_name)
    hw = hw or CROPHE_64
    root = 1 << (params.log_n // 2)
    options = WorkloadOptions(
        ntt_split=(root, params.n // root),
        rotation_strategy="hybrid",
        r_hyb=4,
    )
    # The gate itself is what we are exercising externally: run the
    # scheduler bare and apply the passes explicitly.
    config = SchedulerConfig(verify="off")

    reports = []
    scheduled = set()
    for name in workload_names:
        workload = WORKLOAD_EMITTERS[name](params, options)
        primitives = set()
        for segment in workload.segments:
            if id(segment.graph) in primitives:
                continue
            primitives.add(id(segment.graph))
            label = f"{name}/{segment.name}"
            try:
                result = lower_graph(segment.graph, params, options)
            except VerificationError as exc:
                reports.append(_labeled(label, exc.report))
                continue
            graph = result.graph
            # Structurally identical segments (HELR's bootstrap) hit the
            # lowering memo and share one lowered graph: report it once.
            if id(graph) in scheduled:
                continue
            scheduled.add(id(graph))
            reports.extend(_labeled(label, r) for r in result.reports)
            schedule = Scheduler(
                graph, hw, config, n_split=options.ntt_split
            ).schedule()
            for report in (
                verify_schedule(schedule, hw, graph=graph, config=config),
                verify_flow_schedule(schedule, hw, graph=graph),
            ):
                reports.append(_labeled(label, report))
    return reports


def _labeled(label: str, report: DiagnosticReport) -> DiagnosticReport:
    """A copy of ``report`` named ``"<label> <pass>"``.

    A copy, because the pipeline's reports live on in the lowering memo.
    """
    return DiagnosticReport(
        pass_name=f"{label} {report.pass_name}",
        diagnostics=list(report.diagnostics),
    )
