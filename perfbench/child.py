"""One benchmark sample, run in a fresh interpreter by ``run.py``.

Phases:

* ``probe``    -- the workload's set-up only (imports, load generation),
                  then exit: an extra ``setup_s`` sample;
* ``populate`` -- boot-replay's set-up: the cold Figure 9 cell writing
                  the disk cache given by ``--cache-dir``;
* ``timed``    -- set-up, then the timed phase.

The result document (times, outputs, counters, and with ``--trace`` the
per-layer metrics) is written as JSON to ``--out``.  Set-up time counts
from ``--spawned-at``, the parent's ``time.monotonic()`` just before it
started this process, so it includes interpreter start.  The timed phase
is split into ``segments`` (one per design point for the boot workloads);
with ``--pause`` the child waits before each one while the parent times
its host-speed probe.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time
import traceback
from typing import Any, Dict

import layers

#: Figure 9 quick cell: SHARP parameters, bootstrapping, four designs.
BOOT_PAIRING = "SHARP"
BOOT_WORKLOAD = "bootstrapping"

#: serve-chaos scenario, as ``python -m repro.serve run`` would drive it.
SERVE_SEED = 3
SERVE_NODES = 8
SERVE_FAULTS = "aggressive"
SERVE_REQUESTS = 50_000
SERVE_HORIZON = 375.0  # 133.3 requests per simulated second


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("boot-cold", "boot-replay", "serve-chaos"))
    p.add_argument("--phase", default="timed",
                   choices=("probe", "populate", "timed"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--trace", default=None,
                   help="write a Perfetto trace here and add per-layer metrics")
    p.add_argument("--pause", action="store_true",
                   help="before each timed segment, print 'pause' and wait "
                        "for a line on stdin (the parent probes host speed)")
    return p.parse_args(argv)


def _pause(args) -> None:
    if args.pause:
        print("pause", flush=True)
        sys.stdin.readline()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _disk_mb(root) -> float:
    total = 0
    if root:
        for dirpath, _, files in os.walk(root):
            for name in files:
                total += os.path.getsize(os.path.join(dirpath, name))
    return total / 1e6


def _eval_doc(result) -> Dict[str, Any]:
    traffic = result.traffic
    return {
        "seconds": result.seconds,
        "dram_read_bytes": traffic.dram_read_bytes,
        "dram_write_bytes": traffic.dram_write_bytes,
        "sram_bytes": traffic.sram_bytes,
        "noc_bytes": traffic.noc_bytes,
        "groups": result.num_groups,
        "degraded": result.degraded,
    }


def _boot(args, tracer, doc) -> None:
    from repro.dse.cache import CACHE, CACHE_ENV
    from repro.experiments import common
    from repro.experiments.fig9 import design_points
    from repro.fhe.params import parameter_set
    from repro.sched.plan_memo import MEMO

    if args.cache_dir:
        # What the runner's --cache-dir does for its cells.
        os.environ[CACHE_ENV] = args.cache_dir
    points = design_points(BOOT_PAIRING)
    random.Random(args.seed).shuffle(points)
    params = parameter_set(BOOT_PAIRING)
    doc["order"] = [p.label for p in points]
    doc["disk_cache"] = CACHE.root is not None
    if args.phase == "probe":
        doc["setup_s"] = time.monotonic() - args.spawned_at
        return
    memo0 = MEMO.snapshot()
    if args.phase == "timed":
        doc["setup_s"] = time.monotonic() - args.spawned_at
    results, errors = {}, {}

    def evaluate(point) -> None:
        try:
            result = common.evaluate_workload(point, BOOT_WORKLOAD, params)
        except Exception:  # a failed evaluation is counted, not fatal
            errors[point.label] = traceback.format_exc(limit=3)
        else:
            results[point.label] = _eval_doc(result)

    # One timed segment per design point, each after a pause for the
    # parent's speed probes; a traced sample runs them as one segment so
    # that nothing but the program runs inside its root span.
    timed = args.phase == "timed"
    groups = [[p] for p in points] if timed and not tracer else [points]
    segments = []
    for group in groups:
        if timed:
            _pause(args)
        root = tracer.open("bench.timed") if tracer else None
        t0 = time.perf_counter()
        for point in group:
            evaluate(point)
        segments.append(time.perf_counter() - t0)
        if tracer:
            tracer.close(root)
    doc["wall_s"] = sum(segments)
    doc["segments"] = segments if timed else []
    if args.phase == "populate":
        doc["setup_s"] = time.monotonic() - args.spawned_at
    memo1 = MEMO.snapshot()
    doc["results"] = results
    doc["errors"] = errors
    doc["memo"] = {k: memo1[k] - memo0[k] for k in memo1}
    if tracer:
        doc["root"] = root
        doc["disk_mb"] = _disk_mb(CACHE.root)


def _serve(args, tracer, doc) -> None:
    from repro import obs
    from repro.obs.fleet import FleetObserver
    from repro.obs.metrics import REGISTRY
    from repro.serve.faults import FAULT_KINDS, FAULT_PRESETS, FaultPlan
    from repro.serve.fleet import FleetSpec, TableOracle
    from repro.serve.loadgen import LoadSpec
    from repro.serve.policies import ServePolicies
    from repro.serve.sim import ServeSimulator

    load = LoadSpec(requests=SERVE_REQUESTS, horizon=SERVE_HORIZON)
    fleet = FleetSpec(nodes=SERVE_NODES)
    plan = FaultPlan.preset(
        SERVE_FAULTS, seed=SERVE_SEED, horizon=SERVE_HORIZON,
        nodes=[n.name for n in fleet.build()],
        workloads=tuple(load.workloads()),
    )
    policies = ServePolicies()
    REGISTRY.enable()
    obs.enable()
    observer = FleetObserver(trace=False, record=True, ring=policies.obs.ring)
    setup_root = tracer.open("bench.setup") if tracer else None
    sim = ServeSimulator(
        load=load, fleet_spec=fleet, policies=policies, plan=plan,
        oracle=TableOracle(), seed=SERVE_SEED, observer=observer,
    )
    if tracer:
        tracer.close(setup_root)
    doc["setup_s"] = time.monotonic() - args.spawned_at
    if args.phase == "probe":
        return
    _pause(args)
    root = tracer.open("bench.timed") if tracer else None
    t0 = time.perf_counter()
    text = sim.run().to_json()
    doc["wall_s"] = time.perf_counter() - t0
    doc["segments"] = [doc["wall_s"]]
    if tracer:
        tracer.close(root)
        doc["root"] = root
    summary_doc = json.loads(text)
    doc["serve"] = {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "totals": summary_doc["totals"],
        "p50_ms": summary_doc["latency_ms"]["p50"],
        "p999_ms": summary_doc["latency_ms"]["p999"],
        "recovery": {
            k: summary_doc["recovery"][k]
            for k in ("batches", "retries", "hedges", "hedge_wins")
        },
        "faults_fired": summary_doc["recovery"]["faults_fired"],
        "faults_planned": dict(zip(FAULT_KINDS, FAULT_PRESETS[SERVE_FAULTS])),
    }


def _layer_metrics(tracer: layers.Tracer, doc: Dict[str, Any]) -> Dict[str, float]:
    c = tracer.counts.get
    metrics: Dict[str, float] = dict(tracer.self_times(doc["root"]))
    memo = doc.get("memo", {"memo_hit": 0, "memo_miss": 0, "disk_hit": 0})
    lookups = sum(memo.values())
    gets = c("dse.gets", 0)
    priced = c("model.priced_s", 0.0)
    serve = doc.get("serve", {})
    recovery = serve.get("recovery", {})
    hedges = recovery.get("hedges", 0)
    metrics.update({
        "experiments.evals": c("experiments.evals", 0),
        "passes.lowerings": c("passes.lowerings", 0),
        "passes.pipeline_runs": c("passes.pipeline_runs", 0),
        "analysis.verify_calls": c("analysis.verify_calls", 0),
        "sched.searches": c("sched.searches", 0),
        "sched.search_p50_ms": layers.percentile_ms(tracer.search_ms, 50),
        "sched.search_p90_ms": layers.percentile_ms(tracer.search_ms, 90),
        "sched.windows": c("sched.windows", 0),
        "sched.plan.memo_hit": memo["memo_hit"],
        "sched.plan.memo_miss": memo["memo_miss"],
        "sched.plan.disk_hit": memo["disk_hit"],
        "sched.plan.hit_ratio": (
            (memo["memo_hit"] + memo["disk_hit"]) / lookups if lookups else 0.0
        ),
        "sched.plan.build_s": c("sched.plan.build_s", 0.0),
        "sched.plans_built": c("sched.plans_built", 0),
        "sched.degraded": c("sched.degraded", 0),
        "sched.replays": c("sched.replays", 0),
        "sched.model_sim_gap": (
            abs(c("model.simulated_s", 0.0) - priced) / priced if priced else 0.0
        ),
        "mad.searches": c("mad.searches", 0),
        "mad.plans_built": c("mad.plans_built", 0),
        "sim.runs": c("sim.runs", 0),
        "sim.steps": c("sim.steps", 0),
        "dse.gets": gets,
        "dse.puts": c("dse.puts", 0),
        "dse.hit_ratio": c("dse.hits", 0) / gets if gets else 0.0,
        "dse.disk_mb": doc.get("disk_mb", 0.0),
        "serve.loadgen_s": tracer.total("serve.loadgen"),
        "serve.batches": recovery.get("batches", 0),
        "serve.retries": recovery.get("retries", 0),
        "serve.hedges": hedges,
        "serve.hedge_win_ratio": (
            recovery.get("hedge_wins", 0) / hedges if hedges else 0.0
        ),
        "obs.metric_calls": c("obs.metric_calls", 0),
        "obs.records": c("obs.records", 0),
    })
    doc["trace_wall_s"] = tracer.spans[doc["root"]].duration
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    doc: Dict[str, Any] = {"workload": args.workload, "phase": args.phase}
    tracer = layers.Tracer() if args.trace else None
    counts: Dict[str, float] = tracer.counts if tracer else {}
    layers.install_counters(counts)
    if tracer:
        layers.install_tracing(tracer)
    if args.workload == "serve-chaos":
        _serve(args, tracer, doc)
    else:
        _boot(args, tracer, doc)
    doc["peak_rss_mb"] = _peak_rss_mb()
    if tracer:
        if "root" in doc:
            doc["layers"] = _layer_metrics(tracer, doc)
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(tracer.perfetto(), fh)
    doc["counts"] = counts
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
