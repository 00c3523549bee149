"""``python -m repro.passes``: inspect the lowering pipeline.

Subcommands:

* ``dump <workload> --level primitive|decomposed`` — print the
  operator listing of each distinct segment graph at a level; the
  decomposed level lowers through the pipeline with its invariants
  enforced.
* ``diff-artifacts <baseline> <candidate>`` — compare two experiment
  runner artifacts cell by cell (e.g. a parent commit's against a
  change's).

The lowering findings themselves are reported by
``python -m repro.analysis``.  Exit code 0 on success,
:data:`~repro.analysis.diagnostics.EXIT_VERIFY` (5) when a lowering
fails its invariants (one ``error:`` line on stderr) or the artifacts
differ; an unknown workload, parameter set or rotation strategy, or an
``--r-hyb`` below 1, is a usage error (exit 2).  A reader that closes
the pipe early (``dump ... | head``) ends the command with exit 1 and
no traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import EXIT_VERIFY
from repro.fhe.params import PARAMETER_SETS, CKKSParams, parameter_set
from repro.ir.graph import OperatorGraph
from repro.passes.lowering import lower_graph
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


def _cmd_dump(args: argparse.Namespace) -> int:
    """The ``dump`` subcommand."""
    params = parameter_set(args.params)
    options = _options(args, params)
    for label, graph in _distinct_segments(args.workloads, params, options):
        shown = graph
        if args.level == "decomposed":
            try:
                shown = lower_graph(graph, params, options).graph
            except VerificationError as exc:
                print(
                    f"error: {label}: {str(exc).splitlines()[0]}",
                    file=sys.stderr,
                )
                return EXIT_VERIFY
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
        description="Inspect the verified lowering pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dump_p = sub.add_parser(
        "dump", help="print segment graphs at a lowering level"
    )
    dump_p.add_argument(
        "workloads", nargs="*", default=_DEFAULT_WORKLOADS,
        help="workloads to lower (default: the shipped three)",
    )
    dump_p.add_argument(
        "--params", default="ARK", choices=sorted(PARAMETER_SETS),
        help="CKKS parameter set name",
    )
    dump_p.add_argument(
        "--strategy", default="hybrid", choices=ROTATION_STRATEGIES,
        help="rotation strategy of the build",
    )
    dump_p.add_argument(
        "--r-hyb", type=int, default=4,
        help="hybrid coarse-step distance",
    )
    dump_p.add_argument(
        "--no-ntt-split", action="store_true",
        help="keep NTTs monolithic (no four-step split)",
    )
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
    if args.command == "dump":
        # Checked after parsing: before Python 3.13 argparse also checks
        # the positional's list default against ``choices``.
        unknown = [w for w in args.workloads if w not in WORKLOAD_EMITTERS]
        if unknown:
            dump_p.error(
                f"unknown workload(s) {', '.join(unknown)} "
                f"(choose from {', '.join(sorted(WORKLOAD_EMITTERS))})"
            )
        if args.r_hyb < 1:
            dump_p.error(f"--r-hyb must be >= 1 (got {args.r_hyb})")
    try:
        if args.command == "dump":
            code = _cmd_dump(args)
        else:
            code = _cmd_diff_artifacts(args)
        # Flushed here so that a closed pipe surfaces inside the try.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``dump ... | head``): point stdout
        # at devnull so the flush at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
