"""Named counters, gauges, and histograms with diffable snapshots.

The :class:`MetricsRegistry` is the numeric half of ``repro.obs``:
instrumented layers record *what happened how often / how much* here
(the tracer records *when*).  Like the tracer it is disabled by
default — hot paths guard their recording on :attr:`MetricsRegistry.
enabled` so telemetry-off runs pay one attribute read.

Metric names form a **closed catalog** (DESIGN.md "Observability"):
dotted, lowercase, ``<layer>.<what>`` with an optional trailing
``.<dimension>`` (e.g. ``sim.busy_cycles.dram``).  Names with a dotted
segment ending in ``_seconds`` are wall-clock measurements and are
treated as *noisy* by the regression differ (reported, never gated,
unless asked).

A metric may additionally carry a small frozen **label tuple**
(``labels=(("tenant", "batch"),)``); label keys come from the closed
:data:`LABEL_CATALOG` and render sorted by key into the snapshot name
(``serve.outcomes{status=ok,tenant=batch}``), so labeled exports are
deterministic by construction.  This module is also home to the shared
linearly-interpolated :func:`quantile` / :func:`percentile` helpers the
serving summary and time-series rollups report latency through.

Snapshots are plain ``{name: {"type": ..., ...}}`` dicts, stable under
JSON round-trips, and are what ``python -m repro.obs diff`` compares.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LABEL_CATALOG",
    "Labels",
    "MetricsRegistry",
    "REGISTRY",
    "is_time_metric",
    "labeled_name",
    "percentile",
    "percentile_summary",
    "quantile",
]

Number = Union[int, float]

#: A canonical (sorted) tuple of ``(key, value)`` label pairs.
Labels = Tuple[Tuple[str, str], ...]

#: The closed catalog of metric label keys (DESIGN.md "Metric
#: catalog").  Labeled metrics keep cardinality bounded and exports
#: deterministic by construction: an unknown key is a ``KeyError`` at
#: the recording site, the same contract as a metric-type mismatch.
LABEL_CATALOG = frozenset(
    {"kind", "node", "status", "tenant", "workload"}
)


def is_time_metric(name: str) -> bool:
    """Whether a metric carries wall-clock time (noisy across runs).

    True when any dotted segment of the base name ends in ``_seconds``:
    ``sched.search_seconds`` as well as ``runner.cell_seconds.fig9``,
    whose trailing ``.<dimension>`` follows the ``_seconds`` part.
    """
    base = name.split("{", 1)[0]
    return any(part.endswith("_seconds") for part in base.split("."))


# ---------------------------------------------------------------------------
# Quantiles
# ---------------------------------------------------------------------------

def quantile(sorted_vals: Sequence[float], q: float) -> float:
    """Linearly-interpolated quantile over an **ascending** sequence.

    ``q`` is a fraction in ``[0, 1]``.  Matches the "inclusive" method
    of :func:`statistics.quantiles` (and numpy's default ``linear``
    interpolation): the sample minimum and maximum are the 0th and
    100th percentiles, and interior quantiles interpolate between the
    two nearest order statistics.  Empty input yields ``0.0``.
    """
    n = len(sorted_vals)
    if n == 0:
        return 0.0
    if q <= 0.0:
        return float(sorted_vals[0])
    if q >= 1.0:
        return float(sorted_vals[-1])
    pos = q * (n - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return float(sorted_vals[lo])
    frac = pos - lo
    return float(sorted_vals[lo]) * (1.0 - frac) + float(sorted_vals[hi]) * frac


def percentile(sorted_vals: Sequence[float], pct: float) -> float:
    """Linearly-interpolated percentile (``pct`` in ``[0, 100]``)."""
    return quantile(sorted_vals, pct / 100.0)


#: The percentile set every latency rollup reports.
_SUMMARY_PERCENTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 50.0), ("p95", 95.0), ("p99", 99.0), ("p999", 99.9),
)


def percentile_summary(
    sorted_vals: Sequence[float], digits: int = 6
) -> Dict[str, float]:
    """The standard p50/p95/p99/p999 summary of an ascending sequence."""
    return {
        name: round(percentile(sorted_vals, pct), digits)
        for name, pct in _SUMMARY_PERCENTILES
    }


# ---------------------------------------------------------------------------
# Labels
# ---------------------------------------------------------------------------

def _canonical_labels(
    labels: Sequence[Tuple[str, object]],
) -> Labels:
    """Validate against the closed catalog and sort by key."""
    out: List[Tuple[str, str]] = []
    for key, value in labels:
        if key not in LABEL_CATALOG:
            raise KeyError(
                f"metric label key {key!r} is not in the closed "
                f"catalog {sorted(LABEL_CATALOG)}"
            )
        out.append((key, str(value)))
    return tuple(sorted(out))


def labeled_name(
    name: str, labels: Optional[Sequence[Tuple[str, object]]]
) -> str:
    """The snapshot key for a (metric, labels) pair.

    Labels render sorted by key — ``serve.outcomes{status=ok,tenant=b}``
    — so every export of the same label set is byte-identical.
    """
    if not labels:
        return name
    pairs = _canonical_labels(labels)
    rendered = ",".join(f"{k}={v}" for k, v in pairs)
    return f"{name}{{{rendered}}}"


class Counter:
    """Monotonically increasing count (events, cycles, bytes)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        """Add ``amount`` (default 1) to the count."""
        self.value += amount

    def snapshot(self) -> Dict[str, object]:
        """Rendered form for snapshots and diffs."""
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-write-wins measurement (a size, a fraction, a wall time)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Number = 0

    def set(self, value: Number) -> None:
        """Overwrite the gauge with the latest measurement."""
        self.value = value

    def snapshot(self) -> Dict[str, object]:
        """Rendered form for snapshots and diffs."""
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Streaming summary of an observed distribution.

    Keeps count/total/min/max — enough for mean and extremes without
    bucket configuration; the differ compares ``count`` (deterministic)
    and reports ``total`` informationally.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: Number) -> None:
        """Fold one sample into the summary."""
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def snapshot(self) -> Dict[str, object]:
        """Rendered form for snapshots and diffs."""
        out: Dict[str, object] = {
            "type": "histogram",
            "count": self.count,
            "total": self.total,
        }
        if self.count:
            out["min"] = self.min
            out["max"] = self.max
            out["mean"] = self.total / self.count
        return out


class MetricsRegistry:
    """Create-or-get registry of named metrics.

    ``counter()``/``gauge()``/``histogram()`` return live instrument
    objects; asking for an existing name with a different type raises
    ``KeyError`` (names are a closed catalog — a type change is a bug).
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._metrics: Dict[str, Union[Counter, Gauge, Histogram]] = {}
        #: Snapshot name by the caller's ``(name, labels)``: a labeled
        #: call validates and renders its label set once.
        self._names: Dict[Tuple[str, object], str] = {}

    # -- lifecycle -----------------------------------------------------

    def enable(self) -> None:
        """Start recording metric updates."""
        self.enabled = True

    def disable(self) -> None:
        """Stop recording (already-registered metrics are kept)."""
        self.enabled = False

    def reset(self) -> None:
        """Drop every metric (a fresh snapshot scope)."""
        with self._lock:
            self._metrics = {}

    # -- instruments ---------------------------------------------------

    def _get(self, name: str, cls, labels=None):
        if labels:
            name = self._labeled(name, labels)
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls()
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise KeyError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {cls.__name__}"
                )
            return metric

    def _labeled(
        self, name: str, labels: Sequence[Tuple[str, object]]
    ) -> str:
        key = (name, labels)
        try:
            rendered = self._names.get(key)
        except TypeError:  # an unhashable label sequence
            return labeled_name(name, labels)
        if rendered is None:
            # An off-catalog key raises here, so it is never memoized.
            rendered = labeled_name(name, labels)
            # Label values 1, 1.0 and True are one dict key but render
            # differently: memoize str values only.
            if all(type(value) is str for _, value in labels):
                self._names[key] = rendered
        return rendered

    def counter(
        self,
        name: str,
        labels: Optional[Sequence[Tuple[str, object]]] = None,
    ) -> Counter:
        """Create-or-get the named (optionally labeled) counter."""
        return self._get(name, Counter, labels)

    def gauge(
        self,
        name: str,
        labels: Optional[Sequence[Tuple[str, object]]] = None,
    ) -> Gauge:
        """Create-or-get the named (optionally labeled) gauge."""
        return self._get(name, Gauge, labels)

    def histogram(
        self,
        name: str,
        labels: Optional[Sequence[Tuple[str, object]]] = None,
    ) -> Histogram:
        """Create-or-get the named (optionally labeled) histogram."""
        return self._get(name, Histogram, labels)

    # -- snapshots -----------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Point-in-time ``{name: rendered metric}`` map, name-sorted."""
        with self._lock:
            return {
                name: self._metrics[name].snapshot()
                for name in sorted(self._metrics)
            }


#: The process-wide registry instrumented code talks to.
REGISTRY = MetricsRegistry(enabled=bool(os.environ.get("REPRO_OBS")))
