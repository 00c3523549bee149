"""``python -m repro.obs``: the observability command line.

Three subcommands::

    python -m repro.obs diff BENCH_quick/fig9.metrics.json trace_cold/fig9.metrics.json
    python -m repro.obs summarize BENCH_quick/fig9.metrics.json
    python -m repro.obs trace --workload resnet20 --out-dir obs_trace

* ``diff`` compares two metrics documents; exits 1 when any gated
  metric regressed beyond ``--threshold`` (default 10%).  Wall-clock
  metrics are reported but not gated unless ``--include-time``.  CI
  gates the quick suite's per-cell counters this way against the
  committed ``BENCH_quick/`` baseline (``make bench-quick`` re-records
  it) and the serving counters against ``BENCH_serve.json``.
* ``summarize`` pretty-prints a metrics document, or — given a
  ``.jsonl`` simulator trace — the per-group bottleneck-attribution
  table.
* ``trace`` runs one design/workload evaluation with event capture and
  exports the simulated timeline as Chrome/Perfetto ``trace_json``
  (open the ``*.sim.perfetto.json`` file at https://ui.perfetto.dev).

Bad input (an unreadable or malformed document, ``--r-hyb`` below 1)
exits 2 with one ``error: ...`` line, as ``repro.dse``/``repro.serve`` do.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro import obs
from repro.obs.diffing import DEFAULT_THRESHOLD, diff_documents
from repro.resilience.errors import ReproError, TraceError


def _load_document(path: str) -> dict:
    """Load a JSON observability document, with a typed read failure."""
    try:
        with open(path) as handle:
            document = json.load(handle)
    except OSError as exc:
        raise TraceError(f"cannot read: {exc.strerror}", path=path) from exc
    except ValueError as exc:
        raise TraceError(f"malformed JSON document: {exc}", path=path) from exc
    if not isinstance(document, dict):
        raise TraceError(
            f"expected a JSON object, got {type(document).__name__}",
            path=path,
        )
    return document


def _cmd_diff(args: argparse.Namespace) -> int:
    old = _load_document(args.old)
    new = _load_document(args.new)
    report = diff_documents(
        old, new, threshold=args.threshold, include_time=args.include_time
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render_text())
    if not report.ok:
        print(
            f"FAIL: {len(report.regressions)} gated metric(s) regressed "
            f"beyond {report.threshold:.0%}",
            file=sys.stderr,
        )
        return 1
    if not args.json:
        print("OK: no gated regressions")
    return 0


def _summarize_metrics(metrics: dict) -> None:
    from repro.obs.diffing import _comparable_value

    for name in sorted(metrics):
        value = _comparable_value(name, metrics[name])
        shown = "-" if value is None else f"{value:g}"
        print(f"  {name:<44s} {shown:>14s}")


def _summarize_serve(document: dict) -> None:
    """Burn-rate and time-series tables for a serve run summary."""
    totals = document.get("totals", {})
    print(
        f"serve summary: {totals.get('requests', '?')} requests, "
        f"{totals.get('ok', '?')} ok / {totals.get('shed', '?')} shed / "
        f"{totals.get('failed', '?')} failed / "
        f"{totals.get('lost', '?')} lost"
    )
    slo = document.get("slo", {})
    tenants = slo.get("tenants", {})
    if tenants:
        print(f"-- slo burn rates (bucket {slo.get('bucket')}s) --")
        print(f"  {'tenant':<14s}{'burn':>10s}{'worst':>10s}"
              f"{'bad':>8s}{'total':>8s}{'budget':>10s}")
        for name in sorted(tenants):
            report = tenants[name]
            tot = report.get("totals", {})
            worst = max(
                (w.get("burn_rate", 0.0)
                 for w in report.get("windows", [])),
                default=0.0,
            )
            print(
                f"  {name:<14s}{tot.get('burn_rate', 0.0):>10.3f}"
                f"{worst:>10.3f}{tot.get('bad', 0):>8d}"
                f"{tot.get('completed', 0):>8d}"
                f"{tot.get('budget', 0.0):>10.4f}"
            )
    series = document.get("timeseries", {})
    windows = series.get("windows", [])
    if windows:
        print(f"-- time series (bucket {series.get('bucket')}s) --")
        print(f"  {'t0':>8s}{'arrive':>8s}{'ok':>6s}{'shed':>6s}"
              f"{'fail':>6s}{'depth':>7s}{'p95_ms':>10s}{'p999_ms':>10s}")
        for w in windows:
            print(
                f"  {w['t0']:>8.2f}{w['arrivals']:>8d}{w['ok']:>6d}"
                f"{w['shed']:>6d}{w['failed']:>6d}"
                f"{w['queue_depth_max']:>7d}{w['p95_ms']:>10.3f}"
                f"{w['p999_ms']:>10.3f}"
            )


def _summarize_postmortem(document: dict) -> None:
    context = document.get("context", {})
    rendered = " ".join(
        f"{k}={context[k]}" for k in sorted(context)
    )
    print(f"postmortem document ({rendered})")
    for pm in document.get("postmortems", []):
        rings = pm.get("rings", {})
        events = sum(len(v) for v in rings.values())
        print(
            f"-- {pm.get('reason')} at t={pm.get('at')}s: "
            f"{events} event(s) across {len(rings)} ring(s) --"
        )
        for name in sorted(rings):
            for entry in rings[name]:
                print(
                    f"  [{name}] #{entry['seq']:<6d} "
                    f"t={entry['at']:<12.6f} {entry['kind']:<14s} "
                    f"{entry['detail']}"
                )


def _cmd_summarize(args: argparse.Namespace) -> int:
    if args.document.endswith(".jsonl"):
        from repro.obs.attribution import attribute_events, format_attribution
        from repro.sim.trace import load_trace

        rows = attribute_events(load_trace(args.document))
        print(format_attribution(rows))
        return 0
    document = _load_document(args.document)
    if document.get("kind") == "repro-postmortem":
        _summarize_postmortem(document)
        return 0
    if "slo" in document and "timeseries" in document:
        _summarize_serve(document)
        return 0
    metrics = document.get("metrics", document)
    _summarize_metrics(metrics if isinstance(metrics, dict) else {})
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.baselines.accelerators import baseline_config, paired_crophe
    from repro.experiments.common import (
        AUTO_ROTATION_STRATEGIES,
        DesignPoint,
        _evaluate_once,
        clear_cache,
        default_scheduler_config,
    )
    from repro.fhe.params import parameter_set
    from repro.obs.attribution import attribute_events, format_attribution

    params = parameter_set(args.baseline)
    if args.design == "crophe":
        hw = paired_crophe(args.baseline)
        point = DesignPoint(f"CROPHE-{hw.word_bits}", hw)
    elif args.design == "mad":
        hw = baseline_config(args.baseline)
        point = DesignPoint(f"{args.baseline}+MAD", hw, dataflow="mad")
    else:
        hw = baseline_config(args.baseline)
        point = DesignPoint(args.baseline, hw)
    config = default_scheduler_config()

    def evaluate(design: DesignPoint):
        return _evaluate_once(
            design, args.workload, params,
            r_hyb=args.r_hyb, decompose_ntt=False, clusters=1,
            base_config=config,
        )

    clear_cache()
    hybrid = point.dataflow == "crophe" and point.use_hybrid_rotation
    if point.rotation_strategy == "auto" and not hybrid:
        # Trace the strategy evaluate_workload keeps: the first fastest.
        point = min(
            (replace(point, rotation_strategy=s)
             for s in AUTO_ROTATION_STRATEGIES),
            key=lambda design: evaluate(design).seconds,
        )
        clear_cache()  # the traced run searches cold
    obs.reset()
    obs.enable(events=True)
    try:
        result = evaluate(point)
        name = f"{args.workload}_{point.label}".replace("/", "_")
        paths = obs.dump_cell_artifacts(name, args.out_dir)
        print(format_attribution(attribute_events(obs.SINK.flattened())))
        print(
            f"\n{point.label} on {args.workload}: "
            f"{result.ms:.3f} ms simulated, {result.num_groups} group(s)"
        )
        for suffix in sorted(paths):
            print(f"  wrote {paths[suffix]}")
        print(
            "open the *.sim.perfetto.json file at https://ui.perfetto.dev"
        )
    finally:
        obs.disable()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Summarize, diff, and trace telemetry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_diff = sub.add_parser(
        "diff", help="compare two metrics documents"
    )
    p_diff.add_argument(
        "old", help="baseline document (e.g. BENCH_quick/fig9.metrics.json)"
    )
    p_diff.add_argument("new", help="candidate document")
    p_diff.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="relative-change band for a verdict (default 0.10)",
    )
    p_diff.add_argument(
        "--include-time", action="store_true",
        help="also gate wall-clock (*_seconds) metrics — noisy across "
             "machines, off by default",
    )
    p_diff.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    p_diff.set_defaults(fn=_cmd_diff)

    p_sum = sub.add_parser(
        "summarize",
        help="pretty-print a metrics document or a .jsonl trace",
    )
    p_sum.add_argument(
        "document",
        help="a metrics JSON document, or a simulator trace "
             "(.jsonl) for a bottleneck-attribution table",
    )
    p_sum.set_defaults(fn=_cmd_summarize)

    p_trace = sub.add_parser(
        "trace",
        help="run one evaluation with event capture and export a "
             "Perfetto trace",
    )
    p_trace.add_argument(
        "--workload", default="resnet20",
        choices=("bootstrapping", "helr", "resnet20"),
        help="workload to trace (default resnet20)",
    )
    p_trace.add_argument(
        "--baseline", default="SHARP", choices=("ARK", "SHARP"),
        help="baseline pairing for hardware/parameters (default SHARP)",
    )
    p_trace.add_argument(
        "--design", default="crophe",
        choices=("crophe", "baseline", "mad"),
        help="which design point to trace (default crophe)",
    )
    p_trace.add_argument(
        "--r-hyb", type=int, default=1, metavar="R",
        help="hybrid-rotation radix for the crophe design (default 1)",
    )
    p_trace.add_argument(
        "--out-dir", default="obs_trace", metavar="DIR",
        help="artifact directory (default obs_trace/)",
    )
    p_trace.set_defaults(fn=_cmd_trace)

    args = parser.parse_args(argv)
    if args.command == "trace" and args.r_hyb < 1:
        parser.error("--r-hyb must be >= 1")
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Reader closed early (e.g. `summarize ... | head`); not an error.
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    sys.exit(main())
