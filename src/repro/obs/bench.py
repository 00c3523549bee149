"""The bench harness behind ``make bench`` and ``BENCH_seed.json``.

Runs the experiment suite (quick mode by default) **in-process** with
telemetry on, and writes one JSON document per run::

    {
      "version": 1,
      "kind": "repro-bench",
      "quick": true,
      "experiments": {
        "fig9": {"wall_seconds": 12.3, "metrics": {<registry snapshot>}},
        ...
      },
      "totals": {"sched.windows_explored": ..., ...}
    }

Per experiment the snapshot carries the scheduler search counters
(``sched.windows_explored``, degraded fallbacks, plan-memo activity)
and the simulator's per-resource busy-cycle totals and bottleneck
winners — the deterministic half of the baseline.  ``wall_seconds``
and every ``*_seconds`` metric are wall-clock and therefore noisy; the
differ (:mod:`repro.obs.diffing`) reports them but does not gate on
them, so a committed baseline survives CI runners of different speed.

Running in-process (unlike the isolated experiment runner) deliberately
shares the evaluation pipeline's schedule/eval caches across cells, the
way one long-lived serving process would; cells execute in sorted name
order so cache hits — and with them every counter — are reproducible
run to run.  Evaluation caches are cleared at harness start so a bench
always measures from cold.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from repro import obs

__all__ = ["BENCH_KIND", "run_bench", "load_bench", "write_bench"]

BENCH_KIND = "repro-bench"


def _aggregate_totals(
    experiments: Dict[str, Dict[str, object]],
) -> Dict[str, float]:
    """Sum counter metrics across experiments (the headline numbers)."""
    totals: Dict[str, float] = {}
    for payload in experiments.values():
        metrics = payload.get("metrics", {})
        if not isinstance(metrics, dict):
            continue
        for name, rendered in metrics.items():
            if (
                isinstance(rendered, dict)
                and rendered.get("type") == "counter"
                and isinstance(rendered.get("value"), (int, float))
            ):
                totals[name] = totals.get(name, 0) + rendered["value"]
    return {name: totals[name] for name in sorted(totals)}


def run_bench(
    quick: bool = True,
    names: Optional[Sequence[str]] = None,
    collect_events: bool = False,
) -> Dict[str, object]:
    """Run the experiment suite with telemetry on; return the document.

    ``names`` restricts the cells (default: every experiment, sorted).
    ``collect_events`` additionally captures simulator event streams —
    off by default because traces for the full suite are large.
    """
    # Imported here so `python -m repro.obs diff` stays instant.
    from repro.experiments import common as exp_common
    from repro.experiments.runner import EXPERIMENTS

    cells: List[str] = sorted(names if names is not None else EXPERIMENTS)
    unknown = [c for c in cells if c not in EXPERIMENTS]
    if unknown:
        from repro.resilience.errors import ConfigError

        raise ConfigError(
            "names", unknown,
            f"unknown experiment cell(s); known: {sorted(EXPERIMENTS)}",
        )
    exp_common.clear_cache()
    experiments: Dict[str, Dict[str, object]] = {}
    was_enabled = obs.enabled()
    try:
        for name in cells:
            obs.reset()
            obs.enable(events=collect_events)
            start = time.perf_counter()
            with obs.span(f"bench.{name}", quick=quick):
                output = EXPERIMENTS[name](quick=quick)
            wall = time.perf_counter() - start
            experiments[name] = {
                "wall_seconds": round(wall, 3),
                "output_chars": len(output),
                "metrics": obs.REGISTRY.snapshot(),
            }
    finally:
        if not was_enabled:
            obs.disable()
    return {
        "version": 1,
        "kind": BENCH_KIND,
        "quick": quick,
        "experiments": experiments,
        "totals": _aggregate_totals(experiments),
    }


def write_bench(document: Dict[str, object], path: str) -> None:
    """Write a bench document (stable key order for clean diffs)."""
    import json

    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_bench(path: str) -> Dict[str, object]:
    """Load a bench or metrics document, with a typed parse failure."""
    import json

    from repro.resilience.errors import TraceError

    try:
        with open(path) as handle:
            document = json.load(handle)
    except ValueError as exc:
        raise TraceError(f"malformed JSON document: {exc}", path=path) from exc
    if not isinstance(document, dict):
        raise TraceError(
            f"expected a JSON object, got {type(document).__name__}",
            path=path,
        )
    return document
