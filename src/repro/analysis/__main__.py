"""``python -m repro.analysis``: verify the shipped workloads.

Lowers the evaluation workloads through the verified pipeline and
schedules every distinct segment (:func:`repro.analysis.verify_workloads`),
then prints the combined report: the pipeline's graph, CKKS semantics,
whole-program dataflow and lowering-postcondition findings, plus
schedule legality.

Exit code 0 when no ERROR diagnostics were found,
:data:`~repro.analysis.diagnostics.EXIT_VERIFY` (5) otherwise; a
lowering that fails its invariants is reported, not raised.  ``--json``
emits the shared :func:`~repro.analysis.diagnostics.reports_document`
shape.  An unknown workload or parameter set is a usage error (exit 2).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.analysis import EXIT_VERIFY, reports_document, verify_workloads
from repro.fhe.params import PARAMETER_SETS
from repro.workloads import WORKLOAD_EMITTERS

_DEFAULT_WORKLOADS = ["bootstrapping", "helr", "resnet20"]


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Statically verify the shipped workload graphs and "
        "schedules (no simulation).",
    )
    parser.add_argument(
        "--workloads", nargs="+", default=_DEFAULT_WORKLOADS,
        choices=sorted(WORKLOAD_EMITTERS), help="workloads to verify",
    )
    parser.add_argument(
        "--params", default="ARK", choices=sorted(PARAMETER_SETS),
        help="CKKS parameter set name",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the verification JSON document",
    )
    args = parser.parse_args(argv)

    reports = verify_workloads(
        workload_names=tuple(args.workloads), params_name=args.params
    )
    document = reports_document(reports)
    if args.json:
        print(json.dumps(document, indent=2))
    else:
        for report in reports:
            if not report.clean:
                print(report.render_text())
        print(
            f"verified {len(reports)} pass run(s): "
            f"{document['errors']} error(s), "
            f"{document['warnings']} warning(s)"
        )
    return 0 if document["errors"] == 0 else EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
