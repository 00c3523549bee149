"""``python -m repro.passes``: run and inspect the lowering pipeline.

Subcommands:

* ``run [workload ...]`` — emit each workload at the primitive level,
  lower every distinct segment through the pipeline, and print a
  per-segment report (operator-count diff, whether the walk rewrote,
  wall time, diagnostics).
* ``dump <workload> --level primitive|decomposed`` — print the
  operator listing of each distinct segment graph at a level.
* ``diff-artifacts <baseline> <candidate>`` — compare two experiment
  runner artifacts cell by cell (e.g. a parent commit's against a
  change's).

Exit code 0 on success,
:data:`~repro.analysis.diagnostics.EXIT_VERIFY` (5) when any ERROR
diagnostic or invariant failure is found, or when the artifacts differ;
an unknown workload, parameter set or rotation strategy, or an
``--r-hyb`` below 1, is a usage error (exit 2).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import EXIT_VERIFY, reports_document
from repro.fhe.params import PARAMETER_SETS, CKKSParams, parameter_set
from repro.ir.graph import OperatorGraph
from repro.passes.lowering import lower_graph
from repro.passes.pipeline import PipelineResult
from repro.resilience.errors import VerificationError
from repro.workloads import WORKLOAD_EMITTERS
from repro.workloads.base import ROTATION_STRATEGIES, WorkloadOptions

_DEFAULT_WORKLOADS = ["bootstrapping", "helr", "resnet20"]


def _options(args: argparse.Namespace, params: CKKSParams) -> WorkloadOptions:
    """The build options a CLI invocation describes."""
    split: Optional[Tuple[int, int]] = None
    if not args.no_ntt_split:
        root = 1 << (params.log_n // 2)
        split = (root, params.n // root)
    return WorkloadOptions(
        ntt_split=split,
        rotation_strategy=args.strategy,
        r_hyb=args.r_hyb,
    )


def _distinct_segments(
    workload_names: Sequence[str],
    params: CKKSParams,
    options: WorkloadOptions,
) -> List[Tuple[str, OperatorGraph]]:
    """(label, primitive graph) per distinct segment across workloads."""
    out: List[Tuple[str, OperatorGraph]] = []
    seen: Dict[int, bool] = {}
    for name in workload_names:
        workload = WORKLOAD_EMITTERS[name](params, options)
        for segment in workload.segments:
            if id(segment.graph) in seen:
                continue
            seen[id(segment.graph)] = True
            out.append((f"{name}/{segment.name}", segment.graph))
    return out


def _print_lowering(label: str, result: PipelineResult) -> None:
    """One line per pipeline run: op-count diff, verdict, timing."""
    ops = result.graph.num_operators
    marker = "rewrote" if result.rewrote else "identity"
    findings = sum(len(r.diagnostics) for r in result.reports)
    print(
        f"{label}: ops={result.source_ops} -> {ops} "
        f"({ops - result.source_ops:+d}) {marker} "
        f"{result.seconds * 1e3:.1f}ms findings={findings}"
    )


def _cmd_run(args: argparse.Namespace) -> int:
    """The ``run`` subcommand."""
    params = parameter_set(args.params)
    options = _options(args, params)
    reports = []
    failed = False
    for label, graph in _distinct_segments(args.workloads, params, options):
        try:
            result = lower_graph(
                graph, params, options, invariants=args.invariants
            )
        except VerificationError as exc:
            print(f"{label}: INVARIANT FAILURE: {exc}")
            failed = True
            continue
        reports.extend(result.reports)
        if args.json:
            continue
        _print_lowering(label, result)
    if args.json:
        print(json.dumps(reports_document(reports), indent=2))
    document = reports_document(reports)
    if not args.json:
        print(
            f"lowered with {document['errors']} error(s), "
            f"{document['warnings']} warning(s)"
        )
    if failed or document["errors"]:
        return EXIT_VERIFY
    return 0


def _cmd_dump(args: argparse.Namespace) -> int:
    """The ``dump`` subcommand."""
    params = parameter_set(args.params)
    options = _options(args, params)
    for label, graph in _distinct_segments(args.workloads, params, options):
        shown = graph
        if args.level == "decomposed":
            shown = lower_graph(
                graph, params, options, invariants="off"
            ).graph
        print(f"== {label} @ {args.level} ({shown.num_operators} ops) ==")
        for op in shown.operators_topological():
            ins = ", ".join(t.name for t in op.inputs)
            outs = ", ".join(t.name for t in op.outputs)
            print(f"  {op.name:<40} {op.kind.value:<12} [{ins}] -> [{outs}]")
    return 0


def _cmd_diff_artifacts(args: argparse.Namespace) -> int:
    """The ``diff-artifacts`` subcommand (byte-identity across commits).

    Compares two experiment-runner artifact files cell by cell on the
    deterministic ``(status, output)`` payload — how a change shows its
    quick-suite artifact equals its parent commit's.
    """
    with open(args.baseline, encoding="utf-8") as fh:
        baseline = json.load(fh)["cells"]
    with open(args.candidate, encoding="utf-8") as fh:
        candidate = json.load(fh)["cells"]
    if set(baseline) != set(candidate):
        only_a = sorted(set(baseline) - set(candidate))
        only_b = sorted(set(candidate) - set(baseline))
        print(f"cell sets diverge: only-baseline={only_a} "
              f"only-candidate={only_b}")
        return EXIT_VERIFY
    diverged = 0
    for name in sorted(baseline):
        a, b = baseline[name], candidate[name]
        if (a["status"], a["output"]) != (b["status"], b["output"]):
            print(f"{name}: DIVERGED")
            diverged += 1
    print(
        f"diff-artifacts: {len(baseline)} cell(s), {diverged} divergence(s)"
    )
    return EXIT_VERIFY if diverged else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.passes",
        description="Run and inspect the verified lowering pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "workloads", nargs="*", default=_DEFAULT_WORKLOADS,
            help="workloads to lower (default: the shipped three)",
        )
        p.add_argument(
            "--params", default="ARK", choices=sorted(PARAMETER_SETS),
            help="CKKS parameter set name",
        )
        p.add_argument(
            "--strategy", default="hybrid", choices=ROTATION_STRATEGIES,
            help="rotation strategy of the build",
        )
        p.add_argument(
            "--r-hyb", type=int, default=4,
            help="hybrid coarse-step distance",
        )
        p.add_argument(
            "--no-ntt-split", action="store_true",
            help="keep NTTs monolithic (no four-step split)",
        )

    run_p = sub.add_parser(
        "run", help="lower workloads and print per-segment diagnostics"
    )
    _common(run_p)
    run_p.add_argument(
        "--invariants", default="error",
        choices=("error", "warn", "off"),
        help="pipeline invariant mode",
    )
    run_p.add_argument(
        "--json", action="store_true",
        help="emit the shared verification JSON document",
    )

    dump_p = sub.add_parser(
        "dump", help="print segment graphs at a lowering level"
    )
    _common(dump_p)
    dump_p.add_argument(
        "--level", default="decomposed",
        choices=("primitive", "decomposed"),
        help="which level to print",
    )

    diff_p = sub.add_parser(
        "diff-artifacts",
        help="require two runner artifact files (e.g. a parent commit's "
        "and a change's) byte-identical per cell",
    )
    diff_p.add_argument("baseline", help="baseline (parent) artifact JSON")
    diff_p.add_argument("candidate", help="candidate (change) artifact JSON")

    args = parser.parse_args(list(argv) if argv is not None else None)
    if args.command in ("run", "dump"):
        cmd_p = run_p if args.command == "run" else dump_p
        # Checked after parsing: before Python 3.13 argparse also checks
        # the positional's list default against ``choices``.
        unknown = [w for w in args.workloads if w not in WORKLOAD_EMITTERS]
        if unknown:
            cmd_p.error(
                f"unknown workload(s) {', '.join(unknown)} "
                f"(choose from {', '.join(sorted(WORKLOAD_EMITTERS))})"
            )
        if args.r_hyb < 1:
            cmd_p.error(f"--r-hyb must be >= 1 (got {args.r_hyb})")
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "dump":
        return _cmd_dump(args)
    return _cmd_diff_artifacts(args)


if __name__ == "__main__":
    sys.exit(main())
