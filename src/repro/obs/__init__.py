"""``repro.obs`` — zero-dependency telemetry for the repro stack.

The observability layer (DESIGN.md "Observability"):

* :mod:`repro.obs.tracer` — process-wide nested spans (context manager
  + decorator, thread-safe, ~zero cost disabled);
* :mod:`repro.obs.metrics` — named counters/gauges/histograms with
  diffable snapshots;
* :mod:`repro.obs.events` — sink collecting simulator event streams
  across an evaluation pipeline run;
* :mod:`repro.obs.export` — span trees and event streams as text,
  JSON, and Chrome/Perfetto ``trace_json``;
* :mod:`repro.obs.attribution` — per-group bottleneck-attribution
  tables from event streams;
* :mod:`repro.obs.fleet` — the virtual-clock observability plane for
  :mod:`repro.serve`: per-request causal span trees, windowed
  time-series rollups, SLO burn rates, and the flight recorder behind
  ``python -m repro.serve run --postmortem-out``;
* :mod:`repro.obs.diffing` — snapshot diffs with threshold-based
  regression verdicts (CI's counter gates against the committed
  ``BENCH_quick/`` and ``BENCH_serve.json`` baselines);
* ``python -m repro.obs`` — summarize/diff/trace CLI.

Everything is **off by default**: ``enable()`` (or ``REPRO_OBS=1``)
turns the tracer and registry on; the event sink is enabled separately
because collecting simulator events costs memory proportional to the
schedule size.
"""

from __future__ import annotations

from typing import Dict

from repro.obs.events import SINK
from repro.obs.fleet import (
    FleetObserver,
    FleetTracer,
    FlightRecorder,
)
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.tracer import TRACER, Span, Tracer, span, traced

__all__ = [
    "TRACER",
    "REGISTRY",
    "SINK",
    "Span",
    "Tracer",
    "MetricsRegistry",
    "FleetObserver",
    "FleetTracer",
    "FlightRecorder",
    "span",
    "traced",
    "enable",
    "disable",
    "reset",
    "enabled",
    "dump_cell_artifacts",
]


def enable(events: bool = False) -> None:
    """Turn on span and metric recording (and optionally event capture)."""
    TRACER.enable()
    REGISTRY.enable()
    if events:
        SINK.enable()


def disable() -> None:
    """Turn every collector off (recorded data is kept until reset)."""
    TRACER.disable()
    REGISTRY.disable()
    SINK.disable()


def reset() -> None:
    """Drop all recorded spans, metrics, and event runs."""
    TRACER.clear()
    REGISTRY.reset()
    SINK.clear()


def enabled() -> bool:
    """Whether any collector is currently recording."""
    return TRACER.enabled or REGISTRY.enabled or SINK.enabled


def metrics_document(snapshot: Dict[str, object]) -> Dict[str, object]:
    """Wrap a registry snapshot in the on-disk document envelope."""
    return {"version": 1, "kind": "repro-metrics", "metrics": snapshot}


def dump_cell_artifacts(name: str, directory: str) -> Dict[str, str]:
    """Persist the current telemetry state for one named cell.

    Writes ``<name>.metrics.json``, ``<name>.spans.json``,
    ``<name>.spans.txt``, ``<name>.spans.perfetto.json``, and — when
    the event sink holds runs — ``<name>.trace.jsonl`` plus
    ``<name>.sim.perfetto.json``.  Returns ``{artifact: path}``.

    Open spans are force-closed first (tagged ``interrupted=True``),
    so artifacts dumped from a timed-out or dying cell are still
    well-formed Perfetto/JSON documents.
    """
    import os

    from repro.obs.export import (
        events_to_perfetto,
        render_span_tree,
        spans_to_json,
        spans_to_perfetto,
        write_json,
    )
    from repro.sim.trace import dump_trace

    os.makedirs(directory, exist_ok=True)
    out: Dict[str, str] = {}

    def path_of(suffix: str) -> str:
        p = os.path.join(directory, f"{name}.{suffix}")
        out[suffix] = p
        return p

    TRACER.flush_open()
    roots = TRACER.snapshot_roots()
    write_json(metrics_document(REGISTRY.snapshot()), path_of("metrics.json"))
    write_json(spans_to_json(roots), path_of("spans.json"))
    with open(path_of("spans.txt"), "w") as handle:
        handle.write(render_span_tree(roots) + "\n")
    write_json(
        spans_to_perfetto(roots, process_name=name),
        path_of("spans.perfetto.json"),
    )
    if SINK.runs:
        events = SINK.flattened()
        dump_trace(events, path_of("trace.jsonl"))
        write_json(
            events_to_perfetto(events, process_name=name),
            path_of("sim.perfetto.json"),
        )
    return out
