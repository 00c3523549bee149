"""Command-line interface for the serving simulator.

::

    python -m repro.serve run  --quick --faults quick --seed 7
    python -m repro.serve run  --requests 500 --nodes 8 \\
        --faults aggressive --summary-json out/summary.json
    python -m repro.serve run  --quick --faults aggressive \\
        --trace-out trace.json        # open at https://ui.perfetto.dev
    python -m repro.serve run  --faults aggressive --seed 3 \\
        --postmortem-out postmortem.json
    python -m repro.serve plan --faults aggressive --seed 7 --nodes 4

``run`` exits 0 iff every request reached a terminal outcome
(``lost == 0``); ``plan`` prints the fault schedule a seed would
produce without running anything — chaos you can read before you
unleash it.  ``--postmortem-out`` writes the flight recorder's
postmortem document (eviction and lost-request snapshots, or a final
``"end-of-run"`` snapshot when the run took none).  With
``--summary-json`` / ``--trace-out`` / ``--postmortem-out``, two runs
with the same arguments write byte-identical files; CI diffs them.

A ``SIGTERM`` anywhere in ``run`` after its ``serve: running`` stderr
line still produces a parseable postmortem: the handler aborts the
event loop (or the summary, report or output writes that follow it),
snapshots the flight-recorder rings at the last simulated instant,
force-closes any open trace spans, writes the requested trace and
postmortem, and exits ``EXIT_INTERRUPTED``.
"""

from __future__ import annotations

import argparse
import signal
import sys
from dataclasses import replace
from types import FrameType
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.obs.export import (
    fleet_to_perfetto,
    render_json_stable,
    write_json_stable,
)
from repro.obs.fleet import FleetObserver, postmortem_document
from repro.obs.metrics import REGISTRY
from repro.resilience.errors import ReproError
from repro.serve.faults import FAULT_PRESETS, FaultPlan
from repro.serve.fleet import FleetSpec, TableOracle
from repro.serve.loadgen import LoadSpec
from repro.serve.policies import ServePolicies
from repro.serve.sim import ServeSimulator

EXIT_OK = 0
EXIT_LOST = 1
EXIT_CONFIG = 2
EXIT_INTERRUPTED = 3


class _Interrupted(Exception):
    """Raised by the SIGTERM handler to abort the run."""


def _install_sigterm() -> None:
    def handler(signum: int, frame: Optional[FrameType]) -> None:
        # One shot: a second SIGTERM must not abort the postmortem.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        raise _Interrupted()

    signal.signal(signal.SIGTERM, handler)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="fault-tolerant fleet serving simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0,
                       help="master seed (load + faults)")
        p.add_argument("--requests", type=int, default=200,
                       help="total requests to submit")
        p.add_argument("--horizon", type=float, default=2.0,
                       help="arrival window in simulated seconds")
        p.add_argument("--nodes", type=int, default=4,
                       help="accelerators in the fleet")
        p.add_argument("--faults", default="none",
                       choices=sorted(FAULT_PRESETS),
                       help="fault-plan preset intensity")

    run = sub.add_parser("run", help="run one serving scenario")
    common(run)
    run.add_argument("--quick", action="store_true",
                     help="the CI quick scenario (200 requests, "
                          "4 nodes, 2s horizon)")
    run.add_argument("--summary-json", default=None,
                     help="write the byte-stable run summary here")
    run.add_argument("--metrics-json", default=None,
                     help="write the repro.obs metrics snapshot here")
    run.add_argument("--trace-out", default=None,
                     help="write a Perfetto trace of the run here "
                          "(open at https://ui.perfetto.dev)")
    run.add_argument("--postmortem-out", default=None,
                     help="write the flight-recorder postmortem "
                          "document here (an end-of-run snapshot "
                          "when the run took none)")
    run.add_argument("--rollup-bucket", type=float, default=None,
                     help="time-series window width in virtual "
                          "seconds (default 0.25)")
    run.add_argument("--no-hedge", action="store_true",
                     help="disable speculative duplicates")

    plan = sub.add_parser("plan", help="print a seed's fault schedule")
    common(plan)
    return parser


def _scenario(
    args: argparse.Namespace,
) -> Tuple[LoadSpec, FleetSpec, FaultPlan]:
    if getattr(args, "quick", False):
        args.requests, args.nodes, args.horizon = 200, 4, 2.0
    load = LoadSpec(requests=args.requests, horizon=args.horizon)
    fleet = FleetSpec(nodes=args.nodes)
    node_names = [n.name for n in fleet.build()]
    plan = FaultPlan.preset(
        args.faults, seed=args.seed, horizon=args.horizon,
        nodes=node_names, workloads=tuple(load.workloads()),
    )
    return load, fleet, plan


def _policies(args: argparse.Namespace) -> ServePolicies:
    policies = ServePolicies()
    if getattr(args, "no_hedge", False):
        policies = replace(
            policies, hedge=replace(policies.hedge, enabled=False)
        )
    bucket = getattr(args, "rollup_bucket", None)
    if bucket is not None:
        policies = replace(
            policies, obs=replace(policies.obs, rollup_bucket=bucket)
        )
    return policies


def _context(
    args: argparse.Namespace, interrupted: bool
) -> Dict[str, object]:
    return {
        "seed": args.seed,
        "requests": args.requests,
        "nodes": args.nodes,
        "faults": args.faults,
        "interrupted": interrupted,
    }


def _cmd_run(args: argparse.Namespace) -> int:
    load, fleet, plan = _scenario(args)
    policies = _policies(args)
    REGISTRY.enable()
    obs.enable()
    observer = FleetObserver(
        trace=args.trace_out is not None,
        record=True,
        ring=policies.obs.ring,
    )
    sim = ServeSimulator(
        load=load, fleet_spec=fleet, policies=policies,
        plan=plan, oracle=TableOracle(), seed=args.seed,
        observer=observer,
    )
    previous = signal.getsignal(signal.SIGTERM)
    try:
        _install_sigterm()
        print(
            f"serve: running {sim.total} requests (SIGTERM writes a "
            "postmortem)", file=sys.stderr, flush=True,
        )
        return _finish_run(args, sim, observer)
    except _Interrupted:
        return _on_interrupt(args, sim, observer)
    finally:
        signal.signal(
            signal.SIGTERM, signal.SIG_DFL if previous is None else previous
        )


def _finish_run(
    args: argparse.Namespace,
    sim: ServeSimulator,
    observer: FleetObserver,
) -> int:
    """Run the scenario, report it and write the requested outputs."""
    summary = sim.run()
    doc = summary.to_doc()
    _report(doc)
    if args.summary_json:
        write_json_stable(doc, args.summary_json)
        print(f"summary: {args.summary_json}")
    if args.metrics_json:
        write_json_stable(REGISTRY.snapshot(), args.metrics_json)
        print(f"metrics: {args.metrics_json}")
    if args.trace_out and observer.tracer is not None:
        observer.tracer.finish(summary.makespan)
        write_json_stable(
            fleet_to_perfetto(observer.tracer), args.trace_out
        )
        print(f"trace: {args.trace_out}")
    if args.postmortem_out:
        postmortems = list(summary.postmortems)
        if not postmortems and observer.recorder is not None:
            # A clean run still yields a document: the final ring state.
            postmortems.append(observer.recorder.postmortem(
                "end-of-run", summary.makespan,
            ))
        write_json_stable(postmortem_document(
            postmortems, context=_context(args, False),
        ), args.postmortem_out)
        print(f"postmortem: {args.postmortem_out}")
    return EXIT_OK if summary.lost == 0 else EXIT_LOST


def _on_interrupt(
    args: argparse.Namespace,
    sim: ServeSimulator,
    observer: FleetObserver,
) -> int:
    """SIGTERM landed: dump what the recorder saw and exit."""
    at = sim.now
    postmortems = list(sim.postmortems)
    if observer.recorder is not None:
        postmortems.append(
            observer.recorder.postmortem("sigterm", at)
        )
    doc = postmortem_document(
        postmortems, context=_context(args, True)
    )
    if args.postmortem_out:
        write_json_stable(doc, args.postmortem_out)
        print(f"postmortem: {args.postmortem_out}", file=sys.stderr)
    else:
        sys.stdout.write(render_json_stable(doc) + "\n")
    if args.trace_out and observer.tracer is not None:
        observer.tracer.finish(at)
        write_json_stable(
            fleet_to_perfetto(observer.tracer), args.trace_out
        )
    print(
        f"interrupted at t={at:.6f}s with "
        f"{len(sim.outcomes)}/{sim.total} outcomes",
        file=sys.stderr,
    )
    return EXIT_INTERRUPTED


def _report(doc: Dict[str, Any]) -> None:
    """Print the headline of a summary document (``ServeSummary.to_doc``)."""
    totals, lat, rec = (
        doc["totals"], doc["latency_ms"], doc["recovery"]
    )
    print(
        f"serve: {totals['requests']} requests -> "
        f"{totals['ok']} ok, {totals['shed']} shed, "
        f"{totals['failed']} failed, {totals['lost']} lost"
    )
    print(
        f"latency_ms: p50={lat['p50']:.3f} p95={lat['p95']:.3f} "
        f"p99={lat['p99']:.3f} p999={lat['p999']:.3f} "
        f"max={lat['max']:.3f}"
    )
    print(
        f"recovery: retries={rec['retries']} hedges={rec['hedges']} "
        f"(won {rec['hedge_wins']}) evictions={rec['evictions']} "
        f"rejoins={rec['rejoins']} shed_peak_depth="
        f"{rec['queue_depth_peak']}"
    )
    if rec["faults_fired"]:
        fired = ", ".join(
            f"{k}={v}" for k, v in rec["faults_fired"].items()
        )
        print(f"faults fired: {fired}")
    for tenant, report in doc["slo"]["tenants"].items():
        tot = report["totals"]
        worst = max(
            (w["burn_rate"] for w in report["windows"]), default=0.0
        )
        print(
            f"slo[{tenant}]: burn={tot['burn_rate']:.3f} "
            f"(worst window {worst:.3f}) bad={tot['bad']}/"
            f"{tot['completed']} budget={tot['budget']:.4f}"
        )


def _cmd_plan(args: argparse.Namespace) -> int:
    _, _, plan = _scenario(args)
    if not plan.events:
        print("(empty plan)")
        return EXIT_OK
    for event in plan.events:
        line = f"t={event.at:8.4f}s  {event.kind:<13}"
        if event.node:
            line += f" node={event.node}"
        if event.duration:
            line += f" duration={event.duration:.4f}s"
        if event.kind == "straggler":
            line += f" factor={event.factor:.2f}x"
        if event.workload:
            line += f" workload={event.workload}"
        print(line)
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_plan(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
