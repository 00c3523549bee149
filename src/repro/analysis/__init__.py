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

Entry points: the scheduler's post-``schedule()`` gate
(``SchedulerConfig.verify``), the simulator's pre-run check, and
:func:`verify_workloads` — the one workload verifier, behind both the
experiment runner's ``--verify`` flag and ``python -m repro.analysis``.
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

    Builds each workload the way the evaluation does (lowered through
    :mod:`repro.passes`, four-step NTTs, hybrid rotation), then runs
    every pass on every distinct segment:
    graph + semantics + whole-graph dataflow (F*) on the operator
    graph, and full schedule legality plus the scheduler gate's F*
    checks (:func:`verify_flow_schedule`) on the schedule the CROPHE
    scheduler produces for it.  Returns one list of
    :class:`DiagnosticReport` (one per pass per segment).  The backend
    of ``python -m repro.analysis`` and ``runner --verify``.
    """
    from repro.fhe.params import parameter_set
    from repro.hw.config import CROPHE_64
    from repro.sched.scheduler import Scheduler, SchedulerConfig
    from repro.workloads import WORKLOAD_BUILDERS
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
    seen = set()
    for name in workload_names:
        workload = WORKLOAD_BUILDERS[name](params, options)
        for segment in workload.segments:
            graph = segment.graph
            if id(graph) in seen:
                continue
            seen.add(id(graph))
            for report in (
                verify_graph(graph),
                verify_semantics(graph, params),
                verify_flow_graph(graph),
            ):
                report.pass_name = f"{name}/{segment.name} {report.pass_name}"
                reports.append(report)
            scheduler = Scheduler(
                graph, hw, config, n_split=options.ntt_split
            )
            schedule = scheduler.schedule()
            for report in (
                verify_schedule(schedule, hw, graph=graph, config=config),
                verify_flow_schedule(schedule, hw, graph=graph),
            ):
                report.pass_name = f"{name}/{segment.name} {report.pass_name}"
                reports.append(report)
    return reports
