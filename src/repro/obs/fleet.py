"""Fleet observability: virtual-clock spans, rollups, SLOs, postmortems.

The serving simulator (:mod:`repro.serve.sim`) runs on a **virtual
clock**, so its telemetry cannot reuse the wall-clock tracer — a span
here is a region of *simulated* time, and two same-seed runs must
produce byte-identical telemetry, not merely similar shapes.  This
module is the virtual-clock observability plane:

* :class:`FleetTracer` — per-request causal span trees (arrival →
  admission lane → service, with retries / hedges / backoff windows as
  child spans carrying fault-generation tags) plus per-node batch
  slices, exported to Perfetto by
  :func:`repro.obs.export.fleet_to_perfetto`;
* :func:`rollup_timeseries` — windowed counter/histogram rollups
  (configurable bucket width in virtual seconds): throughput, outcome
  mix, latency percentiles, and queue depth per window instead of one
  whole-run scalar;
* :func:`slo_report` — per-tenant error-budget burn rates per rollup
  window against the objectives declared in the tenant spec
  (:class:`repro.serve.loadgen.TenantSpec`);
* :class:`FlightRecorder` — a bounded ring of recent structured events
  per node, snapshotted into a postmortem whenever a request is lost
  or a health eviction fires (``python -m repro.serve run
  --postmortem-out``, which adds an ``"end-of-run"`` snapshot when the
  run took none).

Everything is deterministic on the virtual clock: no wall-clock reads,
no unordered iteration, floats rounded at the serialization boundary —
the same contract the D* determinism lint enforces repo-wide.  The
disabled path is ``None`` at the instrumentation site (the simulator
holds no tracer/recorder object at all), so telemetry-off serving pays
one ``is None`` test per hook.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any, Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.obs.metrics import percentile_summary

__all__ = [
    "FleetObserver",
    "FleetTracer",
    "FlightRecorder",
    "RequestRecord",
    "VSpan",
    "postmortem_document",
    "rollup_timeseries",
    "slo_report",
]

#: Digits kept when a virtual timestamp is serialized.
_TIME_DIGITS = 9
#: Digits kept when a derived millisecond / rate figure is serialized.
_VALUE_DIGITS = 6


# ---------------------------------------------------------------------------
# Virtual-clock spans
# ---------------------------------------------------------------------------

@dataclass
class VSpan:
    """One region of *simulated* time with attributes and children.

    ``track`` names the lane the span renders on (a node name for
    batch slices, empty for request-tree spans).  ``end`` is ``None``
    while the span is open; :meth:`FleetTracer.finish` force-closes
    leftovers with an ``interrupted`` tag so exports are well-formed
    even for a run killed mid-chaos.
    """

    name: str
    kind: str
    start: float
    end: Optional[float] = None
    track: str = ""
    attrs: Dict[str, Any] = field(default_factory=dict)
    children: List["VSpan"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Virtual seconds from start to end (0.0 while open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def to_doc(self) -> Dict[str, Any]:
        """JSON-serializable recursive rendering (rounded, key-sorted)."""
        doc: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "start": round(self.start, _TIME_DIGITS),
            "duration": round(self.duration, _TIME_DIGITS),
            "attrs": {k: self.attrs[k] for k in sorted(self.attrs)},
            "children": [c.to_doc() for c in self.children],
        }
        if self.track:
            doc["track"] = self.track
        return doc


class _RequestTree:
    """One request's root span plus its currently-open child phases."""

    __slots__ = ("root", "open")

    def __init__(self, root: VSpan):
        self.root = root
        self.open: Dict[str, VSpan] = {}


class FleetTracer:
    """Collects per-request span trees and per-node batch slices.

    The simulator drives this explicitly (it is event-driven, not
    lexically nested): ``begin_request`` at arrival, ``begin_phase`` /
    ``end_phase`` around queue / service / hedge windows,
    ``closed_phase`` for windows whose extent is known up front
    (retry backoff), ``end_request`` at the terminal outcome, and
    ``batch`` for every dispatched batch.  All methods assume the
    tracer is wanted — the simulator holds ``None`` when tracing is
    off, so the disabled path never reaches here.
    """

    def __init__(self) -> None:
        self.requests: Dict[str, _RequestTree] = {}
        self.batches: List[VSpan] = []
        self._batch_spans: Dict[int, VSpan] = {}

    # -- request trees -------------------------------------------------

    def begin_request(
        self, rid: str, tenant: str, workload: str, at: float
    ) -> None:
        """Open the root span for one request at its arrival."""
        root = VSpan(
            name=f"request {rid}", kind="request", start=at,
            attrs={"tenant": tenant, "workload": workload},
        )
        self.requests[rid] = _RequestTree(root)

    def begin_phase(
        self, rid: str, kind: str, at: float, **attrs: Any
    ) -> None:
        """Open one child phase (queue / service / hedge) of a request."""
        tree = self.requests.get(rid)
        if tree is None:
            return
        span = VSpan(name=kind, kind=kind, start=at, attrs=dict(attrs))
        tree.open[kind] = span
        tree.root.children.append(span)

    def end_phase(
        self, rid: str, kind: str, at: float, **attrs: Any
    ) -> None:
        """Close the open phase of ``kind`` (no-op when none is open)."""
        tree = self.requests.get(rid)
        if tree is None:
            return
        span = tree.open.pop(kind, None)
        if span is not None:
            span.end = at
            span.attrs.update(attrs)

    def closed_phase(
        self, rid: str, kind: str, start: float, end: float, **attrs: Any
    ) -> None:
        """Attach a child phase whose extent is already known."""
        tree = self.requests.get(rid)
        if tree is None:
            return
        tree.root.children.append(VSpan(
            name=kind, kind=kind, start=start, end=end, attrs=dict(attrs),
        ))

    def end_request(self, rid: str, at: float, status: str) -> None:
        """Close the root span with the terminal status."""
        tree = self.requests.get(rid)
        if tree is None:
            return
        for kind in sorted(tree.open):
            span = tree.open.pop(kind)
            span.end = at
        tree.root.end = at
        tree.root.attrs["status"] = status

    # -- node batch slices ---------------------------------------------

    def batch(
        self,
        batch_id: int,
        node: str,
        name: str,
        start: float,
        duration: float,
        **attrs: Any,
    ) -> None:
        """Record one batch occupying a node for ``duration`` seconds."""
        span = VSpan(
            name=name, kind="batch", start=start, end=start + duration,
            track=node, attrs=dict(attrs, batch=batch_id),
        )
        self.batches.append(span)
        self._batch_spans[batch_id] = span

    def mark_batch(
        self,
        batch_id: int,
        truncate_at: Optional[float] = None,
        **attrs: Any,
    ) -> None:
        """Tag a batch slice after the fact (cancellation, crash loss).

        ``truncate_at`` clips the slice — a crashed node stops doing
        work at the crash instant, even though its completion event
        would have fired later.
        """
        span = self._batch_spans.get(batch_id)
        if span is None:
            return
        span.attrs.update(attrs)
        if truncate_at is not None and span.end is not None:
            span.end = min(span.end, max(truncate_at, span.start))

    # -- export --------------------------------------------------------

    def finish(self, at: float) -> int:
        """Force-close every open span at ``at`` (run killed mid-chaos).

        Returns the number of spans closed; 0 on a clean run.
        """
        closed = 0
        for rid in sorted(self.requests):
            tree = self.requests[rid]
            for kind in sorted(tree.open):
                span = tree.open.pop(kind)
                span.end = at
                span.attrs["interrupted"] = True
                closed += 1
            if tree.root.end is None:
                tree.root.end = at
                tree.root.attrs["interrupted"] = True
                closed += 1
        for span in self.batches:
            if span.end is None:  # pragma: no cover - batches close at birth
                span.end = at
                span.attrs["interrupted"] = True
                closed += 1
        return closed

    def to_doc(self) -> Dict[str, Any]:
        """JSON form: request trees (rid-sorted) + batch slices."""
        return {
            "version": 1,
            "kind": "repro-fleet-trace",
            "requests": {
                rid: self.requests[rid].root.to_doc()
                for rid in sorted(self.requests)
            },
            "batches": [b.to_doc() for b in self.batches],
        }


# ---------------------------------------------------------------------------
# Time-series rollups
# ---------------------------------------------------------------------------

class RequestRecord(NamedTuple):
    """The rollup-relevant facts of one finished request."""

    tenant: str
    arrival: float
    completion: float
    status: str
    latency_ms: float


def _window_count(end: float, bucket: float) -> int:
    """Windows needed to cover ``[0, end]`` (at least one)."""
    if end <= 0.0:
        return 1
    count = int(end / bucket)
    if count * bucket < end:
        count += 1
    return max(count, 1)


def rollup_timeseries(
    records: Sequence[RequestRecord],
    depth_samples: Sequence[Tuple[float, int]],
    bucket: float,
    end: float,
) -> Dict[str, Any]:
    """Windowed rollups over one run's request records.

    Each window of ``bucket`` virtual seconds reports arrivals,
    completions by outcome, latency percentiles of the window's
    successful completions, and the peak admission-queue depth sampled
    inside the window — the plottable shape of a chaos run (throughput
    dip, tail blow-up, queue growth) that a whole-run scalar hides.
    """
    windows = _window_count(end, bucket)
    arrivals = [0] * windows
    by_status: Dict[str, List[int]] = {
        "ok": [0] * windows, "shed": [0] * windows, "failed": [0] * windows,
    }
    latencies: List[List[float]] = [[] for _ in range(windows)]
    depth_max = [0] * windows

    def index(t: float) -> int:
        return min(max(int(t / bucket), 0), windows - 1)

    for rec in records:
        arrivals[index(rec.arrival)] += 1
        w = index(rec.completion)
        counts = by_status.get(rec.status)
        if counts is not None:
            counts[w] += 1
        if rec.status == "ok":
            latencies[w].append(rec.latency_ms)
    for at, depth in depth_samples:
        w = index(at)
        if depth > depth_max[w]:
            depth_max[w] = depth

    window_docs: List[Dict[str, Any]] = []
    for w in range(windows):
        lat = sorted(latencies[w])
        doc: Dict[str, Any] = {
            "t0": round(w * bucket, _TIME_DIGITS),
            "arrivals": arrivals[w],
            "ok": by_status["ok"][w],
            "shed": by_status["shed"][w],
            "failed": by_status["failed"][w],
            "queue_depth_max": depth_max[w],
        }
        doc.update(
            (f"{name}_ms", value)
            for name, value in percentile_summary(lat).items()
        )
        window_docs.append(doc)
    return {
        "bucket": round(bucket, _TIME_DIGITS),
        "windows": window_docs,
    }


# ---------------------------------------------------------------------------
# SLO burn rates
# ---------------------------------------------------------------------------

def slo_report(
    records: Sequence[RequestRecord],
    objectives: Dict[str, Tuple[float, float]],
    bucket: float,
    end: float,
) -> Dict[str, Any]:
    """Per-tenant error-budget burn rates per rollup window.

    ``objectives`` maps tenant name to ``(p95_ms, availability)`` from
    the tenant spec: a request is *bad* when it did not complete ``ok``
    or (with a latency objective set, ``p95_ms > 0``) finished slower
    than the objective.  The burn rate of a window is its bad fraction
    divided by the error budget ``1 - availability`` — burn 1.0 means
    the tenant spends budget exactly at the sustainable rate, 10 means
    the budget dies in a tenth of the period.  This PR only *observes*;
    admission policies can read the section later.
    """
    windows = _window_count(end, bucket)
    per_tenant: Dict[str, Tuple[List[int], List[int]]] = {
        tenant: ([0] * windows, [0] * windows) for tenant in objectives
    }

    def index(t: float) -> int:
        return min(max(int(t / bucket), 0), windows - 1)

    for rec in records:
        counts = per_tenant.get(rec.tenant)
        if counts is None:
            continue
        total, bad = counts
        w = index(rec.completion)
        total[w] += 1
        p95_ms, _availability = objectives[rec.tenant]
        is_bad = rec.status != "ok" or (
            p95_ms > 0.0 and rec.latency_ms > p95_ms
        )
        if is_bad:
            bad[w] += 1

    tenants: Dict[str, Any] = {}
    for tenant in sorted(objectives):
        p95_ms, availability = objectives[tenant]
        budget = max(1.0 - availability, 1e-9)
        total, bad = per_tenant[tenant]
        window_docs = []
        for w in range(windows):
            rate = (bad[w] / total[w]) if total[w] else 0.0
            window_docs.append({
                "t0": round(w * bucket, _TIME_DIGITS),
                "total": total[w],
                "bad": bad[w],
                "burn_rate": round(rate / budget, _VALUE_DIGITS),
            })
        grand_total = sum(total)
        grand_bad = sum(bad)
        error_rate = (grand_bad / grand_total) if grand_total else 0.0
        tenants[tenant] = {
            "objectives": {
                "availability": availability,
                "p95_ms": p95_ms,
            },
            "windows": window_docs,
            "totals": {
                "completed": grand_total,
                "bad": grand_bad,
                "error_rate": round(error_rate, _VALUE_DIGITS),
                "budget": round(1.0 - availability, _VALUE_DIGITS),
                "burn_rate": round(error_rate / budget, _VALUE_DIGITS),
            },
        }
    return {"bucket": round(bucket, _TIME_DIGITS), "tenants": tenants}


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------

#: Ring key for events not attributable to one node (shed, retry, ...).
FLEET_RING = "fleet"


class FlightRecorder:
    """A bounded ring of recent structured events per node.

    Recording is one tuple append into a ``deque(maxlen=capacity)`` —
    cheap enough to leave on for every CLI run.  A *postmortem*
    snapshots every ring (node-name-sorted, events in sequence order)
    with a reason; the simulator takes one whenever a request is lost
    or a health eviction fires, the CLI takes an ``"end-of-run"`` one
    when a run took none, and its SIGTERM handler takes a final one so
    a killed run still yields a parseable document.
    """

    def __init__(self, capacity: int = 64):
        self.capacity = capacity
        self._rings: Dict[str, Deque[Tuple[int, float, str, str]]] = {}
        self._seq = 0

    def record(
        self, node: str, at: float, kind: str, detail: str = ""
    ) -> None:
        """Append one event to a node's ring (``node=""`` → fleet ring)."""
        ring = self._rings.get(node or FLEET_RING)
        if ring is None:
            ring = deque(maxlen=self.capacity)
            self._rings[node or FLEET_RING] = ring
        self._seq += 1
        ring.append((self._seq, at, kind, detail))

    def rings_doc(self) -> Dict[str, List[Dict[str, Any]]]:
        """Every ring's current contents, node-sorted, events in order."""
        return {
            name: [
                {
                    "seq": seq,
                    "at": round(at, _TIME_DIGITS),
                    "kind": kind,
                    "detail": detail,
                }
                for seq, at, kind, detail in self._rings[name]
            ]
            for name in sorted(self._rings)
        }

    def postmortem(
        self, reason: str, at: float, node: str = ""
    ) -> Dict[str, Any]:
        """Snapshot every ring into one postmortem record."""
        return {
            "reason": reason,
            "at": round(at, _TIME_DIGITS),
            "node": node,
            "rings": self.rings_doc(),
        }


def postmortem_document(
    postmortems: Sequence[Dict[str, Any]],
    context: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The on-disk postmortem document envelope."""
    return {
        "version": 1,
        "kind": "repro-postmortem",
        "context": dict(context or {}),
        "postmortems": list(postmortems),
    }


# ---------------------------------------------------------------------------
# The observer bundle
# ---------------------------------------------------------------------------

class FleetObserver:
    """The virtual-clock telemetry bundle one simulation records into.

    ``trace`` turns on the (allocating) span tracer; ``record`` the
    (cheap) flight recorder.  The simulator stores the components
    directly and guards every hook on ``is None``, so a default
    ``ServeSimulator`` — no observer — pays one attribute read per
    hook and allocates nothing.
    """

    def __init__(
        self,
        trace: bool = False,
        record: bool = True,
        ring: int = 64,
    ):
        self.tracer: Optional[FleetTracer] = FleetTracer() if trace else None
        self.recorder: Optional[FlightRecorder] = (
            FlightRecorder(capacity=ring) if record else None
        )
