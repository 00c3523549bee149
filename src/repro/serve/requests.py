"""Requests, outcomes, and the admission/batching front.

A :class:`ServeRequest` is one encrypted-inference job a tenant
submits; a :class:`RequestOutcome` is its terminal record (every
request must end in exactly one — the simulator's "zero lost
requests" invariant is checked against this).  The
:class:`AdmissionQueue` is the front door: it holds per-workload FIFO
lanes (only same-workload requests batch together — their schedules
share a fingerprint, so one replayed schedule serves the whole
batch), enforces a global depth bound, and sheds by tenant priority
when the bound is hit — overload degrades service for the lowest
priority tenants first instead of collapsing for everyone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.resilience.errors import InvariantViolation

__all__ = [
    "AdmissionQueue",
    "Batch",
    "OUTCOME_STATUSES",
    "RequestOutcome",
    "ServeRequest",
]

#: Terminal statuses a request can reach.
OUTCOME_STATUSES = ("ok", "shed", "failed")


@dataclass(frozen=True)
class ServeRequest:
    """One submitted encrypted-inference job.

    Attributes:
        request_id: stable id (``r000042``) — also the jitter token
            for this request's retry backoff.
        tenant: submitting tenant name.
        workload: workload name (``repro.workloads`` registry key).
        priority: larger = more important; shedding removes the
            smallest priorities first.
        arrival: simulated submission time in seconds.
        deadline: optional absolute simulated deadline; retries are
            abandoned (the request fails) once it passes.
    """

    request_id: str
    tenant: str
    workload: str
    priority: int = 1
    arrival: float = 0.0
    deadline: Optional[float] = None


@dataclass
class RequestOutcome:
    """The terminal record of one request.

    ``latency`` is simulated seconds from arrival to completion (only
    meaningful for ``ok``); ``arrival`` is the submission instant, so
    ``arrival + latency`` is the completion instant — the time-series
    rollups and SLO burn windows bin on it; ``attempts`` counts
    dispatches including the first; ``hedged``/``hedge_won`` record
    speculative execution.
    """

    request_id: str
    status: str
    latency: float = 0.0
    arrival: float = 0.0
    attempts: int = 0
    hedged: bool = False
    hedge_won: bool = False
    node: str = ""
    tenant: str = ""
    workload: str = ""
    error: str = ""

    def __post_init__(self) -> None:
        if self.status not in OUTCOME_STATUSES:
            raise InvariantViolation(
                "repro.serve.requests.RequestOutcome",
                f"unknown outcome status {self.status!r}",
            )

    def as_doc(self) -> Dict[str, Any]:
        """Byte-stable JSON form for the run summary."""
        return {
            "status": self.status,
            "latency_ms": round(self.latency * 1e3, 6),
            "arrival": round(self.arrival, 9),
            "attempts": self.attempts,
            "hedged": self.hedged,
            "hedge_won": self.hedge_won,
            "node": self.node,
            "tenant": self.tenant,
            "workload": self.workload,
            "error": self.error,
        }


@dataclass(eq=False)
class Batch:
    """A group of same-workload requests dispatched as one unit.

    Batches compare by identity (ids are unique, and a node's in-flight
    list is scanned on every completion).  ``cancelled`` marks work lost
    to a crash or a hedge race (the completion event still fires and
    takes the batch off its node, but serves nothing); ``is_hedge``
    marks a speculative duplicate racing the primary.
    """

    batch_id: int
    workload: str
    requests: List[ServeRequest]
    node: str = ""
    dispatched_at: float = 0.0
    cancelled: bool = False
    is_hedge: bool = False

    def __len__(self) -> int:
        return len(self.requests)


class AdmissionQueue:
    """Per-workload FIFO lanes behind one global depth bound.

    ``admit`` either accepts a request or returns the shed victim:
    when the queue is full, the *lowest-priority* waiting request is
    compared against the newcomer and whichever ranks lower (ties
    favor the already-queued request, FIFO fairness) is shed.  Shed
    requests get a terminal outcome; they are degraded service, not
    lost work.

    ``depth`` is a running count of the queued requests, kept by every
    method that adds or removes one; mutate lanes only through them.
    """

    def __init__(self, max_depth: int):
        if max_depth < 1:
            raise InvariantViolation(
                "repro.serve.requests.AdmissionQueue",
                f"max_depth must be >= 1, got {max_depth}",
            )
        self.max_depth = max_depth
        self._lanes: Dict[str, List[ServeRequest]] = {}
        #: Total requests waiting across all lanes.
        self.depth = 0
        self.peak_depth = 0

    def lane(self, workload: str) -> List[ServeRequest]:
        """The FIFO lane for one workload (created on demand)."""
        return self._lanes.setdefault(workload, [])

    def workloads_waiting(self) -> List[str]:
        """Workloads with at least one queued request, name-sorted."""
        return sorted(w for w, lane in self._lanes.items() if lane)

    def admit(
        self, request: ServeRequest, requeue: bool = False
    ) -> Optional[ServeRequest]:
        """Queue a request; returns the shed victim if the queue is full.

        The victim may be ``request`` itself (newcomer loses priority
        ties).  ``requeue=True`` bypasses the depth bound — a retried
        request was already admitted once and must not be shed by its
        own recovery path.
        """
        victim: Optional[ServeRequest] = None
        if not requeue and self.depth >= self.max_depth:
            lowest = self._lowest_priority()
            if lowest is not None and lowest.priority < request.priority:
                victim = lowest
                self.lane(victim.workload).remove(victim)
                self.depth -= 1
            else:
                return request  # newcomer sheds on ties: FIFO fairness
        self.lane(request.workload).append(request)
        self.depth += 1
        self.peak_depth = max(self.peak_depth, self.depth)
        return victim

    def take(self, workload: str, limit: int) -> List[ServeRequest]:
        """Dequeue up to ``limit`` requests from one lane, FIFO."""
        lane = self.lane(workload)
        taken, rest = lane[:limit], lane[limit:]
        self._lanes[workload] = rest
        self.depth -= len(taken)
        return taken

    def requeue_front(self, requests: List[ServeRequest]) -> None:
        """Put requests back at the head of their lanes (in order)."""
        for request in reversed(requests):
            self.lane(request.workload).insert(0, request)
        self.depth += len(requests)
        self.peak_depth = max(self.peak_depth, self.depth)

    def _lowest_priority(self) -> Optional[ServeRequest]:
        """The queued request shedding would pick: lowest priority,
        most recently arrived among equals (oldest requests of a
        priority class are the next to be served — shed from the
        back)."""
        best: Optional[ServeRequest] = None
        best_key: Optional[Tuple[int, float, str]] = None
        for lane in self._lanes.values():
            for req in lane:
                key = (req.priority, -req.arrival, req.request_id)
                if best_key is None or key < best_key:
                    best, best_key = req, key
        return best
