"""The virtual-clock serving simulator.

One :class:`ServeSimulator` run plays a pre-generated arrival list
against a simulated accelerator fleet under a pre-generated
:class:`~repro.serve.faults.FaultPlan`, on a **virtual clock**: time
is a float advanced by popping a ``(time, seq, kind, payload)`` heap,
never read from the wall.  Every tie is broken by an insertion
sequence number and every random draw happened before the loop
started, so the same inputs replay the identical run — end state,
metrics, and summary bytes included.

Event kinds::

    arrival   a request reaches admission
    flush     a batching window closes for one workload lane
    complete  a dispatched batch finishes (or fails fast) on a node
    hedge     a straggling batch's speculative-duplicate timer fires
    retry     a backed-off request re-enters admission
    fault     a FaultPlan event fires
    revive    a crashed node comes back / a straggler window ends
    health    the periodic health checker runs

The loop ends when every request has a terminal
:class:`~repro.serve.requests.RequestOutcome` — the zero-lost-requests
invariant is ``lost == 0`` in the summary, and the CLI's exit code.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.obs.export import render_json_stable
from repro.obs.fleet import (
    FleetObserver,
    FleetTracer,
    FlightRecorder,
    RequestRecord,
    rollup_timeseries,
    slo_report,
)
from repro.obs.metrics import REGISTRY as _METRICS
from repro.obs.metrics import percentile, percentile_summary
from repro.serve.faults import FaultEvent, FaultPlan
from repro.serve.fleet import (
    AcceleratorNode,
    DOWN,
    Fleet,
    FleetSpec,
    TableOracle,
    UP,
)
from repro.serve.loadgen import LoadGenerator, LoadSpec
from repro.serve.policies import ServePolicies
from repro.serve.requests import (
    AdmissionQueue,
    Batch,
    RequestOutcome,
    ServeRequest,
)

__all__ = ["ServeSimulator", "ServeSummary"]

#: Fraction of the would-be service time a transient failure burns
#: before the node notices and errors out (fast failure, not a hang).
_TRANSIENT_FAIL_FRACTION = 0.1


@dataclass
class ServeSummary:
    """Everything one run produced, in byte-stable JSON form."""

    seed: int
    load_doc: Dict[str, Any]
    fleet_doc: Dict[str, Any]
    policies_doc: Dict[str, Any]
    faults_doc: List[Dict[str, Any]]
    oracle_name: str
    outcomes: Dict[str, RequestOutcome]
    retries: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    evictions: int = 0
    rejoins: int = 0
    oracle_fallbacks: int = 0
    batches: int = 0
    queue_depth_peak: int = 0
    faults_fired: Dict[str, int] = field(default_factory=dict)
    makespan: float = 0.0
    depth_samples: List[Tuple[float, int]] = field(default_factory=list)
    rollup_bucket: float = 0.25
    #: Times a postmortem condition fired (deterministic, counted even
    #: with the flight recorder off — telemetry never changes bytes).
    postmortem_triggers: int = 0
    postmortems: List[Dict[str, Any]] = field(default_factory=list)

    # -- derived -------------------------------------------------------

    def count(self, status: str) -> int:
        """Requests that ended with ``status``."""
        return sum(
            1 for o in self.outcomes.values() if o.status == status
        )

    @property
    def lost(self) -> int:
        """Requests without a terminal outcome (must be zero)."""
        total = int(self.load_doc.get("requests", len(self.outcomes)))
        return total - len(self.outcomes)

    def objectives(self) -> Dict[str, Tuple[float, float]]:
        """Tenant → ``(p95_ms, availability)`` SLOs from the load doc."""
        out: Dict[str, Tuple[float, float]] = {}
        for tenant in self.load_doc.get("tenants", []):
            slo = tenant.get("slo")
            if isinstance(slo, dict):
                out[str(tenant.get("name", ""))] = (
                    float(slo.get("p95_ms", 0.0)),
                    float(slo.get("availability", 0.99)),
                )
        return out

    def to_doc(self) -> Dict[str, Any]:
        """The canonical summary document (stable key order via JSON).

        One rid-ordered pass over the outcomes collects every section's
        inputs: status totals, ok latencies overall and per tenant, the
        rollup records and the per-request docs.
        """
        totals = {"ok": 0, "shed": 0, "failed": 0}
        ok_latencies: List[float] = []
        tenants: Dict[str, Dict[str, Any]] = {}
        records: List[RequestRecord] = []
        outcome_docs: Dict[str, Dict[str, Any]] = {}
        for rid in sorted(self.outcomes):
            out = self.outcomes[rid]
            status, latency = out.status, out.latency
            totals[status] += 1
            roll = tenants.get(out.tenant)
            if roll is None:
                roll = tenants[out.tenant] = {
                    "ok": 0, "shed": 0, "failed": 0, "lat": [],
                }
            roll[status] += 1
            if status == "ok":
                ok_latencies.append(latency)
                roll["lat"].append(latency)
            records.append(RequestRecord(
                out.tenant, out.arrival, out.arrival + latency,
                status, latency * 1e3,
            ))
            outcome_docs[rid] = out.as_doc()
        ok_latencies.sort()
        ms = [round(v * 1e3, 6) for v in ok_latencies]
        tenant_doc = {
            name: {
                "ok": roll["ok"],
                "shed": roll["shed"],
                "failed": roll["failed"],
                "p95_ms": round(
                    percentile(sorted(roll["lat"]), 95.0) * 1e3, 6
                ),
            }
            for name, roll in sorted(tenants.items())
        }
        latency_doc: Dict[str, Any] = dict(percentile_summary(ms))
        latency_doc["mean"] = round(sum(ms) / len(ms), 6) if ms else 0.0
        latency_doc["max"] = ms[-1] if ms else 0.0
        return {
            "seed": self.seed,
            "load": self.load_doc,
            "fleet": self.fleet_doc,
            "policies": self.policies_doc,
            "faults": self.faults_doc,
            "oracle": self.oracle_name,
            "totals": {
                "requests": int(self.load_doc.get("requests", 0)),
                **totals,
                "lost": self.lost,
            },
            "latency_ms": latency_doc,
            "recovery": {
                "retries": self.retries,
                "hedges": self.hedges,
                "hedge_wins": self.hedge_wins,
                "evictions": self.evictions,
                "rejoins": self.rejoins,
                "oracle_fallbacks": self.oracle_fallbacks,
                "batches": self.batches,
                "queue_depth_peak": self.queue_depth_peak,
                "faults_fired": dict(sorted(self.faults_fired.items())),
                "postmortems": self.postmortem_triggers,
            },
            "tenants": tenant_doc,
            "timeseries": rollup_timeseries(
                records, self.depth_samples,
                self.rollup_bucket, self.makespan,
            ),
            "slo": slo_report(
                records, self.objectives(),
                self.rollup_bucket, self.makespan,
            ),
            "outcomes": outcome_docs,
            "makespan": round(self.makespan, 9),
        }

    def to_json(self) -> str:
        """Byte-stable rendering — CI diffs this across same-seed runs."""
        return render_json_stable(self.to_doc()) + "\n"


class ServeSimulator:
    """Runs one serving scenario to completion on the virtual clock."""

    def __init__(
        self,
        load: LoadSpec,
        fleet_spec: FleetSpec,
        policies: Optional[ServePolicies] = None,
        plan: Optional[FaultPlan] = None,
        oracle: Optional[TableOracle] = None,
        seed: int = 0,
        observer: Optional[FleetObserver] = None,
    ):
        self.load = load
        self.fleet_spec = fleet_spec
        self.policies = policies or ServePolicies()
        self.plan = plan or FaultPlan()
        self.oracle = oracle or TableOracle()
        self.seed = seed

        self.fleet = Fleet(fleet_spec.build())
        self.queue = AdmissionQueue(
            self.policies.admission.max_queue_depth
        )
        self.requests = LoadGenerator(load, seed).generate()
        self.total = len(self.requests)

        self.outcomes: Dict[str, RequestOutcome] = {}
        self.attempts: Dict[str, int] = {r.request_id: 0 for r in self.requests}
        self.hedged: Dict[str, bool] = {}
        self.retries = 0
        self.hedges = 0
        self.hedge_wins = 0
        self.batches_dispatched = 0
        self.faults_fired: Dict[str, int] = {}
        self.makespan = 0.0
        #: Last simulated instant the event loop reached — the anchor
        #: for a SIGTERM postmortem taken mid-run.
        self.now = 0.0
        self.postmortem_triggers = 0
        self.postmortems: List[Dict[str, Any]] = []

        # The observer's components are held directly so every hook is
        # one ``is None`` test when telemetry is off (near-zero cost).
        self._ftr: Optional[FleetTracer] = (
            observer.tracer if observer is not None else None
        )
        self._frec: Optional[FlightRecorder] = (
            observer.recorder if observer is not None else None
        )
        # Queue-depth samples feed the summary's time-series rollups;
        # always on (two tuple appends per request, worst case).
        self._depth_samples: List[Tuple[float, int]] = []

        self._heap: List[Tuple[float, int, str, Any]] = []
        self._seq = 0
        self._flush_pending: Dict[str, bool] = {}
        self._batch_seq = 0
        self._batches: Dict[int, Batch] = {}
        self._rivals: Dict[int, int] = {}      # batch_id -> rival batch_id
        self._done_batches: set = set()
        self._crash_gen: Dict[str, int] = {}
        self._straggle_gen: Dict[str, int] = {}

    # -- event plumbing ------------------------------------------------

    def _push(self, at: float, kind: str, payload: Any = None) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (at, self._seq, kind, payload))

    def _done(self) -> bool:
        return len(self.outcomes) >= self.total

    def _count_fault(self, kind: str) -> None:
        self.faults_fired[kind] = self.faults_fired.get(kind, 0) + 1
        if _METRICS.enabled:
            _METRICS.counter(f"serve.faults.{kind}").inc()

    # -- terminal outcomes ---------------------------------------------

    def _record(self, outcome: RequestOutcome) -> None:
        if outcome.request_id in self.outcomes:
            return
        self.outcomes[outcome.request_id] = outcome
        if self._ftr is not None:
            self._ftr.end_request(
                outcome.request_id,
                outcome.arrival + outcome.latency,
                outcome.status,
            )
        if _METRICS.enabled:
            _METRICS.counter("serve.outcomes", labels=(
                ("status", outcome.status), ("tenant", outcome.tenant),
            )).inc()
            if outcome.status == "shed":
                _METRICS.counter("serve.shed").inc()
            elif outcome.status == "failed":
                _METRICS.counter("serve.failed").inc()
            else:
                _METRICS.histogram("serve.latency_ms").observe(
                    outcome.latency * 1e3
                )

    def _fail(self, req: ServeRequest, now: float, error: str) -> None:
        if self._frec is not None:
            self._frec.record(
                "", now, "failed", f"{req.request_id} {error}"
            )
        self._record(RequestOutcome(
            request_id=req.request_id, status="failed",
            latency=now - req.arrival, arrival=req.arrival,
            attempts=self.attempts[req.request_id],
            hedged=self.hedged.get(req.request_id, False),
            tenant=req.tenant, workload=req.workload, error=error,
        ))

    def _shed(self, req: ServeRequest, now: float) -> None:
        if self._frec is not None:
            self._frec.record(
                "", now, "shed",
                f"{req.request_id} tenant={req.tenant} "
                f"depth={self.queue.depth}",
            )
        self._record(RequestOutcome(
            request_id=req.request_id, status="shed",
            latency=now - req.arrival, arrival=req.arrival,
            attempts=self.attempts[req.request_id],
            tenant=req.tenant, workload=req.workload,
            error="queue-depth",
        ))

    # -- run -----------------------------------------------------------

    def run(self) -> ServeSummary:
        """Play the scenario to completion and summarize it."""
        with obs.span(
            "serve.run", seed=self.seed, requests=self.total,
            nodes=self.fleet_spec.nodes, faults=len(self.plan),
        ):
            self._prime()
            self._loop()
        return self._summarize()

    def _prime(self) -> None:
        for req in self.requests:
            self._push(req.arrival, "arrival", req)
            if _METRICS.enabled:
                _METRICS.counter("serve.requests").inc()
        for event in self.plan.events:
            self._push(event.at, "fault", event)
        self._push(self.policies.health.check_interval, "health", None)

    def _loop(self) -> None:
        handlers = {
            "arrival": self._on_arrival,
            "flush": self._on_flush,
            "complete": self._on_complete,
            "hedge": self._on_hedge,
            "retry": self._on_retry,
            "fault": self._on_fault,
            "revive": self._on_revive,
            "health": self._on_health,
        }
        while self._heap and not self._done():
            now, _, kind, payload = heapq.heappop(self._heap)
            self.now = now
            handlers[kind](now, payload)
        # Anything still outcome-less when the heap drains is a lost
        # request — the summary's `lost` count surfaces it (CI fails).

    # -- handlers ------------------------------------------------------

    def _on_arrival(self, now: float, req: ServeRequest) -> None:
        if self._ftr is not None:
            self._ftr.begin_request(
                req.request_id, req.tenant, req.workload, now
            )
            self._ftr.begin_phase(
                req.request_id, "queue", now, lane=req.workload
            )
        victim = self.queue.admit(req)
        self._depth_samples.append((now, self.queue.depth))
        if victim is not None:
            self._shed(victim, now)
            if victim.request_id == req.request_id:
                return
        self._schedule_flush(now, req.workload)

    def _schedule_flush(self, now: float, workload: str) -> None:
        if self._flush_pending.get(workload):
            return
        self._flush_pending[workload] = True
        self._push(
            now + self.policies.batching.window, "flush", workload
        )

    def _on_flush(self, now: float, workload: str) -> None:
        self._flush_pending[workload] = False
        batching = self.policies.batching
        while self.queue.lane(workload):
            node = self.fleet.place(now)
            if node is None:
                return  # no healthy node; health pump will re-flush
            taken = self.queue.take(workload, batching.max_batch)
            if not taken:
                return
            self._dispatch(now, taken, workload, node=node)

    def _dispatch(
        self,
        now: float,
        reqs: List[ServeRequest],
        workload: str,
        node: AcceleratorNode,
        is_hedge: bool = False,
        rival_id: Optional[int] = None,
    ) -> Optional[Batch]:
        """Send one batch to a node; returns the batch (or None)."""
        self._batch_seq += 1
        batch = Batch(
            batch_id=self._batch_seq, workload=workload,
            requests=list(reqs), node=node.name, dispatched_at=now,
            is_hedge=is_hedge,
        )
        self._batches[batch.batch_id] = batch
        if rival_id is not None:
            self._rivals[batch.batch_id] = rival_id
            self._rivals[rival_id] = batch.batch_id
        if not is_hedge:
            for req in reqs:
                self.attempts[req.request_id] += 1

        single = self.oracle.seconds(workload)
        nominal = self.policies.batching.batch_seconds(single, len(reqs))
        start = max(node.busy_until, now)

        failed_fast = False
        if node.pending_transients > 0:
            node.pending_transients -= 1
            failed_fast = True
            duration = node.effective_seconds(
                nominal * _TRANSIENT_FAIL_FRACTION
            )
        else:
            duration = node.effective_seconds(nominal)

        node.busy_until = start + duration
        node.inflight.append(batch)
        self.batches_dispatched += 1
        if _METRICS.enabled:
            _METRICS.counter("serve.batches").inc()
        if self._frec is not None:
            self._frec.record(
                node.name, now, "dispatch",
                f"batch{batch.batch_id} x{len(reqs)} {workload}"
                + (" hedge" if is_hedge else "")
                + (" fail-fast" if failed_fast else ""),
            )
        if self._ftr is not None:
            self._ftr.batch(
                batch.batch_id, node.name,
                f"{workload} x{len(reqs)}", start, duration,
                workload=workload, size=len(reqs), hedge=is_hedge,
                failed_fast=failed_fast,
            )
            phase = "hedge" if is_hedge else "service"
            for req in reqs:
                if not is_hedge:
                    self._ftr.end_phase(
                        req.request_id, "queue", now, node=node.name
                    )
                self._ftr.begin_phase(
                    req.request_id, phase, now,
                    node=node.name, batch=batch.batch_id,
                    attempt=self.attempts[req.request_id],
                )
        self._push(
            start + duration, "complete",
            (batch.batch_id, failed_fast),
        )

        if (
            not is_hedge
            and not failed_fast
            and self.policies.hedge.enabled
            and self.policies.hedge.max_hedges > 0
        ):
            # Expect nominal service at the node's rated speed; fire the
            # hedge timer when the batch overstays trigger_factor times
            # that (a straggler or an undetected crash).
            expected = nominal / node.speed
            self._push(
                start + self.policies.hedge.trigger_factor * expected,
                "hedge", batch.batch_id,
            )
        return batch

    def _on_complete(self, now: float, payload: Tuple[int, bool]) -> None:
        batch_id, failed_fast = payload
        batch = self._batches.get(batch_id)
        if batch is None:
            return
        # The node is done with the batch whether or not it still
        # counts: a hedge-race loser must not linger for a later crash
        # to tag, truncate and orphan.
        node = self.fleet.by_name.get(batch.node)
        if node is not None and batch in node.inflight:
            node.inflight.remove(batch)
        if batch.cancelled:
            return
        self._done_batches.add(batch_id)

        rival_id = self._rivals.get(batch_id)
        rival = self._batches.get(rival_id) if rival_id else None

        if failed_fast:
            tag = f"transient:{batch.node}"
            if self._frec is not None:
                self._frec.record(
                    batch.node, now, "transient",
                    f"batch{batch_id} {batch.workload}",
                )
            for req in batch.requests:
                if self._ftr is not None:
                    self._ftr.end_phase(
                        req.request_id, "service", now,
                        error="transient", fault=tag,
                    )
                self._retry_or_fail(req, now, error="transient", tag=tag)
            return

        hedge_scored = False
        for req in batch.requests:
            if req.request_id in self.outcomes:
                continue
            was_hedged = self.hedged.get(req.request_id, False)
            self._record(RequestOutcome(
                request_id=req.request_id, status="ok",
                latency=now - req.arrival, arrival=req.arrival,
                attempts=self.attempts[req.request_id],
                hedged=was_hedged,
                hedge_won=batch.is_hedge,
                node=batch.node, tenant=req.tenant,
                workload=req.workload,
            ))
            if node is not None:
                node.served += 1
            if batch.is_hedge:
                hedge_scored = True
        if hedge_scored:
            self.hedge_wins += 1
            if _METRICS.enabled:
                _METRICS.counter("serve.hedge_wins").inc()
        if rival is not None and not rival.cancelled:
            rival.cancelled = True
            if self._ftr is not None:
                self._ftr.mark_batch(
                    rival.batch_id, cancelled=True, lost_race=True
                )

    def _on_hedge(self, now: float, batch_id: int) -> None:
        batch = self._batches.get(batch_id)
        if (
            batch is None
            or batch.cancelled
            or batch_id in self._done_batches
            or batch_id in self._rivals
        ):
            return
        pending = [
            r for r in batch.requests
            if r.request_id not in self.outcomes
        ]
        if not pending:
            return
        node = self.fleet.place(now, exclude=(batch.node,))
        if node is None:
            return
        for req in pending:
            self.hedged[req.request_id] = True
        self.hedges += 1
        if _METRICS.enabled:
            _METRICS.counter("serve.hedges").inc()
        if self._frec is not None:
            self._frec.record(
                batch.node, now, "hedge",
                f"batch{batch_id} straggling; duplicate -> {node.name}",
            )
        self._dispatch(
            now, pending, batch.workload, node=node,
            is_hedge=True, rival_id=batch_id,
        )

    def _retry_or_fail(
        self, req: ServeRequest, now: float, error: str, tag: str = ""
    ) -> None:
        if req.request_id in self.outcomes:
            return
        attempts = self.attempts[req.request_id]
        if attempts >= self.policies.retry.max_attempts:
            self._fail(req, now, error=f"{error}:attempts-exhausted")
            return
        if req.deadline is not None and now >= req.deadline:
            self._fail(req, now, error=f"{error}:deadline")
            return
        delay = self.policies.retry.delay(attempts, token=req.request_id)
        self.retries += 1
        if _METRICS.enabled:
            _METRICS.counter("serve.retries").inc()
        if self._ftr is not None:
            self._ftr.closed_phase(
                req.request_id, "backoff", now, now + delay,
                attempt=attempts, error=error,
                **({"fault": tag} if tag else {}),
            )
        if self._frec is not None:
            self._frec.record(
                "", now, "retry",
                f"{req.request_id} attempt={attempts} {error}"
                + (f" fault={tag}" if tag else ""),
            )
        self._push(now + delay, "retry", req)

    def _on_retry(self, now: float, req: ServeRequest) -> None:
        if req.request_id in self.outcomes:
            return
        if self._ftr is not None:
            self._ftr.begin_phase(
                req.request_id, "queue", now,
                lane=req.workload, readmitted=True,
            )
        self.queue.admit(req, requeue=True)
        self._depth_samples.append((now, self.queue.depth))
        self._schedule_flush(now, req.workload)

    def _on_fault(self, now: float, event: FaultEvent) -> None:
        self._count_fault(event.kind)
        if self._frec is not None:
            self._frec.record(
                event.node, now, f"fault:{event.kind}", event.tag
            )
        if event.kind == "crash":
            self._crash(now, event)
        elif event.kind == "straggler":
            node = self.fleet.by_name.get(event.node)
            if node is None:
                return
            node.straggler_factor = event.factor
            gen = self._straggle_gen.get(event.node, 0) + 1
            self._straggle_gen[event.node] = gen
            self._push(
                now + event.duration, "revive",
                ("straggler", event.node, gen),
            )
        elif event.kind == "transient":
            node = self.fleet.by_name.get(event.node)
            if node is not None:
                node.pending_transients += 1
        elif event.kind == "cache_corrupt":
            self.oracle.inject_fault(event.workload)

    def _crash(self, now: float, event: FaultEvent) -> None:
        node = self.fleet.by_name.get(event.node)
        if node is None:
            return
        if node.state == UP:
            node.state = DOWN
        # In-flight work dies with the node; its requests become
        # orphans that the *health checker* discovers — recovery pays
        # the detection latency, it is not free at crash time.
        gen = self._crash_gen.get(event.node, 0) + 1
        self._crash_gen[event.node] = gen
        for batch in node.inflight:
            batch.cancelled = True
            if self._ftr is not None:
                self._ftr.mark_batch(
                    batch.batch_id, truncate_at=now,
                    cancelled=True, fault=event.tag,
                )
            for req in batch.requests:
                node.orphans.append(req)
        node.inflight = []
        node.busy_until = now
        self._push(
            now + event.duration, "revive", ("crash", event.node, gen),
        )

    def _on_revive(self, now: float, payload: Tuple[str, str, int]) -> None:
        kind, name, gen = payload
        node = self.fleet.by_name.get(name)
        if node is None:
            return
        if kind == "straggler":
            if self._straggle_gen.get(name) == gen:
                node.straggler_factor = 1.0
                if self._frec is not None:
                    self._frec.record(
                        name, now, "revive", f"straggler#g{gen} over"
                    )
            return
        if self._crash_gen.get(name) != gen:
            return
        if self._frec is not None:
            self._frec.record(name, now, "revive", f"crash#g{gen} over")
        self._drain_orphans(node, now)
        self.fleet.rejoin(node, now)
        self._pump(now)

    def _drain_orphans(self, node: AcceleratorNode, now: float) -> None:
        orphans, node.orphans = node.orphans, []
        if not orphans:
            return
        tag = f"crash:{node.name}#g{self._crash_gen.get(node.name, 0)}"
        if self._frec is not None:
            self._frec.record(
                node.name, now, "orphan-drain",
                f"{len(orphans)} requests fault={tag}",
            )
        for req in orphans:
            if self._ftr is not None:
                self._ftr.end_phase(
                    req.request_id, "service", now,
                    error="crash", fault=tag,
                )
            self._retry_or_fail(req, now, error="crash", tag=tag)

    def _pump(self, now: float) -> None:
        """Re-flush every waiting lane (capacity may have returned)."""
        if self.fleet.up_count():
            for workload in self.queue.workloads_waiting():
                self._schedule_flush(now, workload)

    def _on_health(self, now: float, _payload: Any) -> None:
        health = self.policies.health
        for node in self.fleet.nodes:
            if node.state != DOWN:
                continue
            node.health_misses += 1
            if self._frec is not None:
                self._frec.record(
                    node.name, now, "health-miss",
                    f"misses={node.health_misses}",
                )
            self._drain_orphans(node, now)
            if node.health_misses >= health.evict_after:
                self.fleet.evict(node)
                self.postmortem_triggers += 1
                if self._frec is not None:
                    self._frec.record(
                        node.name, now, "evict",
                        f"misses={node.health_misses}",
                    )
                    self.postmortems.append(self._frec.postmortem(
                        f"health-eviction:{node.name}", now,
                        node=node.name,
                    ))
        self._pump(now)
        if not self._done():
            self._push(now + health.check_interval, "health", None)

    # -- summary -------------------------------------------------------

    def _summarize(self) -> ServeSummary:
        # Makespan = latest completion instant on the virtual clock.
        self.makespan = max(
            (req.arrival + self.outcomes[req.request_id].latency
             for req in self.requests
             if req.request_id in self.outcomes),
            default=0.0,
        )
        if _METRICS.enabled:
            _METRICS.gauge("serve.queue_depth_peak").set(
                self.queue.peak_depth
            )
        lost = self.total - len(self.outcomes)
        if lost > 0:
            self.postmortem_triggers += 1
            if self._frec is not None:
                self.postmortems.append(self._frec.postmortem(
                    f"lost-requests:{lost}", self.makespan,
                ))
        return ServeSummary(
            seed=self.seed,
            load_doc=self.load.as_doc(),
            fleet_doc=self.fleet_spec.as_doc(),
            policies_doc=self.policies.as_doc(),
            faults_doc=self.plan.as_doc(),
            oracle_name=self.oracle.name,
            outcomes=self.outcomes,
            retries=self.retries,
            hedges=self.hedges,
            hedge_wins=self.hedge_wins,
            evictions=self.fleet.evictions,
            rejoins=self.fleet.rejoins,
            oracle_fallbacks=self.oracle.fallbacks,
            batches=self.batches_dispatched,
            queue_depth_peak=self.queue.peak_depth,
            faults_fired=self.faults_fired,
            makespan=self.makespan,
            depth_samples=self._depth_samples,
            rollup_bucket=self.policies.obs.rollup_bucket,
            postmortem_triggers=self.postmortem_triggers,
            postmortems=self.postmortems,
        )
