"""Host-time benchmark of the CROPHE reproducer, by workload and layer.

Run from the repository root::

    python3 perfbench/run.py --workload boot-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py suite --runs 3 --out results.json
    python3 perfbench/run.py compare before.json after.json
    python3 perfbench/run.py pin            # rewrite perfbench/reference.json
    python3 -m pytest perfbench -q          # the benchmark's self-tests

A run measures one workload for ``--seconds`` (at least one sample),
checks every sample's outputs against ``reference.json`` and prints, as
its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0`` (times scaled to a nominal host speed, except
boot-cold's ``wall_s``; see ``bench.py``), its per-layer metrics from one extra traced sample with
``--trace 1`` (raw host seconds).  Exit code
2, with no result line, means the benchmark could not run or a workload
no longer does what its name says (see ``bench.shape_violations``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import bench


def cmd_run(argv: List[str]) -> int:
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", default=None,
                   help="also append the full run document to this file")
    args = p.parse_args(argv)
    bench.check_layout()
    spec = bench.declared()
    print(f"machine: {json.dumps(bench.machine(), sort_keys=True)}", flush=True)
    run = bench.finish_run(bench.measure(
        args.workload, args.seed, args.seconds, bool(args.trace)))
    for problem in run["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    if run["shape"]:
        for violation in run["shape"]:
            print(f"shape guard: {violation}", file=sys.stderr)
        raise bench.BenchError(f"{args.workload} no longer does what its name says")
    if args.out:
        bench.save_runs(args.out, [run])
    raw = run["raw"]
    print(f"samples: {len(run['samples'])}  elapsed: {run['elapsed_s']:.1f} s  "
          f"raw wall: {raw['wall_s']:.3f} s  speed probe: {raw['probe_s']:.3f} s "
          f"(nominal {bench.PROBE_NOMINAL_S} s)"
          + (f"  trace: {run['trace_file']}" if args.trace else ""))
    print(json.dumps(bench.result_line(run, spec), sort_keys=True))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] in ("suite", "compare", "pin"):
            import report

            return getattr(report, f"cmd_{argv[0]}")(argv[1:])
        return cmd_run(argv)
    except bench.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
