"""``suite``, ``compare`` and ``pin`` commands of ``perfbench/run.py``.

``suite`` runs every workload several times untraced plus once traced,
prints the end-to-end metrics (host and model) and the per-layer table,
and writes a result file.  ``compare`` reads two result files and prints,
per workload and metric, both sides' medians and quartiles, the delta
and the verdict against the bound ``BENCHMARK.json`` declares, then the
per-layer self-time deltas of the traced runs.  ``pin`` rewrites
``reference.json`` from one cold boot sample and one serving sample.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import layers
import bench

#: The end-to-end table: host metrics, then the deterministic model
#: outputs (simulated milliseconds on the modeled hardware or the
#: serving simulator's virtual clock -- not host time).
SUITE_METRICS = (
    ("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("error_rate", "fraction"), ("model_ms", "sim-ms"),
    ("model_speedup", "x"), ("model_p50_ms", "sim-ms"),
    ("model_p999_ms", "sim-ms"),
)

#: Per-layer rows: self-time metric and the counts that explain it.
LAYER_ROWS = (
    ("experiments", "experiments.self_s", ("experiments.evals",)),
    ("passes", "passes.lower_s", ("passes.lowerings", "passes.pipeline_runs")),
    ("analysis: pass invariants", "analysis.pass_invariants_s",
     ("analysis.verify_calls",)),
    ("analysis: sched gate", "analysis.sched_gate_s", ()),
    ("analysis: sim precheck", "analysis.sim_precheck_s", ()),
    ("sched: search", "sched.search_s",
     ("sched.searches", "sched.windows", "sched.plans_built",
      "sched.plan.hit_ratio")),
    ("sched: replay", "sched.replay_s", ("sched.replays",)),
    ("baselines: MAD", "mad.search_s", ("mad.searches", "mad.plans_built")),
    ("sim", "sim.run_s", ("sim.runs", "sim.steps")),
    ("dse: get", "dse.get_s", ("dse.gets", "dse.hit_ratio")),
    ("dse: put", "dse.put_s", ("dse.puts", "dse.disk_mb")),
    ("dse: fingerprint", "dse.fingerprint_s", ()),
    ("dse: serialize", "dse.serialize_s", ()),
    ("serve: run", "serve.run_s", ("serve.batches", "serve.hedges")),
    ("serve: summary", "serve.summary_s", ()),
    ("obs: metrics", "obs.metric_s", ("obs.metric_calls",)),
    ("obs: recorder", "obs.recorder_s", ("obs.records",)),
    ("other", "other.self_s", ()),
)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _e2e_value(run: Dict[str, Any], name: str) -> Optional[float]:
    if name in run["metrics"]:
        return run["metrics"][name]
    if name == "error_rate":
        return run["error_rate"]
    return run.get("model", {}).get(name)


def _fmt(v: Optional[float]) -> str:
    if v is None:
        return "n/a"
    if isinstance(v, float) and not v.is_integer():
        return f"{v:.4g}" if abs(v) < 1000 else f"{v:.0f}"
    return str(int(v))


def print_layers(run: Dict[str, Any]) -> None:
    layer = run["per_layer"]
    wall = run["traced"]["trace_wall_s"]
    print(f"  traced wall {wall:.3f} s, overhead {layer['trace.overhead']:+.1%}")
    print(f"  {'layer':28} {'self s':>9} {'share':>7}  counts")
    for title, metric, counts in LAYER_ROWS:
        share = layer[metric] / wall if wall else 0.0
        extra = "  ".join(f"{c.split('.', 1)[1]}={_fmt(layer[c])}" for c in counts)
        print(f"  {title:28} {layer[metric]:9.3f} {share:7.1%}  {extra}")


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def cmd_suite(argv: List[str]) -> int:
    spec = bench.declared()
    p = argparse.ArgumentParser(prog="perfbench/run.py suite")
    p.add_argument("--runs", type=int, default=3,
                   help="untraced runs per workload (seeds 1..runs)")
    p.add_argument("--out", default=os.path.join(bench.STATE_DIR, "suite.json"))
    args = p.parse_args(argv)
    bench.check_layout()
    print(f"machine: {json.dumps(bench.machine(), sort_keys=True)}")
    runs: List[Dict[str, Any]] = []
    bad = 0
    for workload in bench.WORKLOADS:
        for seed in range(1, args.runs + 2):
            traced = seed == args.runs + 1
            t0 = time.monotonic()
            run = bench.finish_run(
                bench.measure(workload, seed, spec["run_seconds"], traced))
            runs.append(run)
            bad += len(run["problems"]) + len(run["shape"])
            for line in run["problems"] + run["shape"]:
                print(f"  FAILED: {line}")
            print(f"{workload} seed {seed}{' (traced)' if traced else ''}: "
                  f"{time.monotonic() - t0:.1f} s")
    print()
    print(f"{'workload':12} {'metric':14} {'unit':8} {'median':>10} "
          f"{'q1':>10} {'q3':>10}  n")
    for workload in bench.WORKLOADS:
        mine =[r for r in runs if r["workload"] == workload and not r["trace"]]
        for name, unit in SUITE_METRICS:
            values = [v for v in (_e2e_value(r, name) for r in mine)
                      if v is not None]
            if not values:
                print(f"{workload:12} {name:14} {unit:8} {'n/a':>10}")
                continue
            q1, med, q3 = quartiles(values)
            print(f"{workload:12} {name:14} {unit:8} {_fmt(med):>10} "
                  f"{_fmt(q1):>10} {_fmt(q3):>10}  {len(values)}")
    for run in runs:
        if run["trace"]:
            print(f"\n{run['workload']} per layer ({run['trace_file']}):")
            print_layers(run)
    bench.save_runs(args.out, runs)
    print(f"\nresults: {args.out}")
    return 1 if bad else 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def verdict(a: Sequence[float], b: Sequence[float], bound: float,
            better: str) -> str:
    """Judge side B against side A, per the choosing-metrics rules."""
    sign = 1.0 if better == "lower" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    worse = sign * (b_med - a_med) / a_med
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if worse > bound:
        return "REGRESSED"
    if spread > bound and not all_better:
        return "unresolved"
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if -worse > (a_q3 - a_q1) / a_med and wins >= 0.9 * len(pairs):
        return "improved"
    return "within bound"


def _load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _traced_layers(doc: Dict[str, Any], workload: str) -> Dict[str, float]:
    traced = [r["per_layer"] for r in doc["runs"]
              if r["workload"] == workload and r["trace"]]
    if not traced:
        return {}
    return {k: statistics.median(t[k] for t in traced) for k in traced[0]}


def cmd_compare(argv: List[str]) -> int:
    p = argparse.ArgumentParser(prog="perfbench/run.py compare")
    p.add_argument("before")
    p.add_argument("after")
    args = p.parse_args(argv)
    a_doc, b_doc = _load(args.before), _load(args.after)
    spec = b_doc.get("benchmark") or bench.declared()
    if a_doc["machine"] != b_doc["machine"]:
        print(f"note: machines differ:\n  A {a_doc['machine']}\n  B {b_doc['machine']}")
    workloads = sorted({r["workload"] for r in a_doc["runs"] + b_doc["runs"]})
    regressed = 0
    for workload in workloads:
        print(f"\n== {workload}")
        print(f"{'metric':14} {'unit':5} {'A median [q1, q3]':>28} "
              f"{'B median [q1, q3]':>28} {'delta':>8}  verdict (bound)")
        a_runs = [r for r in a_doc["runs"] if r["workload"] == workload and not r["trace"]]
        b_runs = [r for r in b_doc["runs"] if r["workload"] == workload and not r["trace"]]
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]] for r in a_runs]
            b = [r["metrics"][m["name"]] for r in b_runs]
            if not a or not b:
                continue
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            v = verdict(a, b, m["bound"], m["better"])
            regressed += v == "REGRESSED"
            print(f"{m['name']:14} {m['unit']:5} "
                  f"{f'{am:.4g} [{a1:.4g}, {a3:.4g}]':>28} "
                  f"{f'{bm:.4g} [{b1:.4g}, {b3:.4g}]':>28} "
                  f"{(bm - am) / am:+8.1%}  {v} ({m['bound']:.0%})")
        a_model = a_runs[0].get("model") if a_runs else None
        b_model = b_runs[0].get("model") if b_runs else None
        if a_model != b_model:
            print(f"model outputs changed: A {a_model}  B {b_model}")
        a_layer, b_layer = _traced_layers(a_doc, workload), _traced_layers(b_doc, workload)
        if a_layer and b_layer:
            print(f"{'layer self time':28} {'A s':>9} {'B s':>9} {'delta s':>9}")
            for metric in layers.PARTITION + ("sched.plan.build_s", "serve.loadgen_s"):
                da, db = a_layer[metric], b_layer[metric]
                if da or db:
                    print(f"{metric:28} {da:9.3f} {db:9.3f} {db - da:+9.3f}")
            # Counts repeat exactly run to run, so any change is the code's.
            for m in spec["per_layer"]:
                k = m["name"]
                if m["unit"] == "count" and a_layer.get(k) != b_layer.get(k):
                    print(f"{k:28} {_fmt(a_layer.get(k)):>9} {_fmt(b_layer.get(k)):>9}")
    return 1 if regressed else 0


# ---------------------------------------------------------------------------
# pin
# ---------------------------------------------------------------------------


def cmd_pin(argv: List[str]) -> int:
    argparse.ArgumentParser(prog="perfbench/run.py pin",
                            description="rewrite reference.json").parse_args(argv)
    if not os.path.isfile(os.path.join(bench.ROOT, "src", "repro", "__init__.py")):
        raise bench.BenchError(f"no reproducer sources under {bench.ROOT}/src")
    runner = bench.Runner(seed=0, deadline=time.monotonic() + 600)
    try:
        boot = runner.spawn("boot-cold")
        serve = runner.spawn("serve-chaos")
    finally:
        runner.close()
    if boot["errors"] or any(r["degraded"] for r in boot["results"].values()):
        raise bench.BenchError(f"refusing to pin a failed cold run: {boot['errors']}")
    reference = {
        "boot": boot["results"],
        "serve": {"sha256": serve["serve"]["sha256"]},
    }
    with open(bench.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {bench.REFERENCE}")
    return 0
