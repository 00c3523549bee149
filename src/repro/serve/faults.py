"""The deterministic fault-injection plane.

A :class:`FaultPlan` is a *seeded, precomputed* schedule of fault
events over the simulated timeline — not a random process sampled
while the simulator runs.  The same ``(seed, horizon, fleet)`` always
yields the identical event list, so a chaos run is as replayable as a
fault-free one: CI runs the same plan twice and asserts byte-identical
request-outcome summaries.

Fault kinds (DESIGN.md "Failure semantics" maps each to its detection
signal and recovery action):

* ``crash`` — the node drops dead for ``duration`` seconds; in-flight
  batches are lost and their requests retried once the health checker
  detects the corpse.
* ``straggler`` — the node's service times are multiplied by
  ``factor`` for ``duration`` seconds; hedging is the countermeasure.
* ``transient`` — the next batch dispatched to the node fails fast
  (a replay error, a checksum mismatch); per-request retry with
  backoff absorbs it.
* ``cache_corrupt`` — the next schedule-oracle read for ``workload``
  is corrupt (armed through the oracle's ``inject_fault``); the oracle
  answers with its degraded fallback latency.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.resilience.errors import ConfigError

__all__ = ["FAULT_KINDS", "FAULT_PRESETS", "FaultEvent", "FaultPlan"]

#: Every fault kind the plane can inject.
FAULT_KINDS = ("crash", "straggler", "transient", "cache_corrupt")

#: Preset intensities: (crashes, stragglers, transients, corruptions).
FAULT_PRESETS: Dict[str, Tuple[int, int, int, int]] = {
    "none": (0, 0, 0, 0),
    "quick": (1, 2, 1, 0),
    "mild": (1, 1, 2, 1),
    "aggressive": (2, 3, 4, 2),
}


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault at a simulated timestamp.

    Attributes:
        at: simulated time (seconds) the fault fires.
        kind: one of :data:`FAULT_KINDS`.
        node: target accelerator name ("" for ``cache_corrupt``).
        duration: outage / slowdown window in seconds (crash and
            straggler only).
        factor: latency multiplier (straggler only).
        workload: target workload name (``cache_corrupt`` only).
    """

    at: float
    kind: str
    node: str = ""
    duration: float = 0.0
    factor: float = 1.0
    workload: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                "kind", self.kind, f"must be one of {FAULT_KINDS}"
            )
        if self.at < 0:
            raise ConfigError("at", self.at, "must be >= 0")

    @property
    def tag(self) -> str:
        """A stable human-readable id for this fault generation.

        Retry/backoff child spans and flight-recorder entries caused by
        this fault carry the tag, so a trace viewer can walk from a slow
        request back to the injected fault that made it slow.
        """
        target = self.node or self.workload
        return f"{self.kind}@{self.at:.6f}" + (f":{target}" if target else "")

    def as_doc(self) -> Dict[str, Any]:
        """JSON form (also embedded in the run summary)."""
        return {
            "at": round(self.at, 9),
            "kind": self.kind,
            "node": self.node,
            "duration": round(self.duration, 9),
            "factor": round(self.factor, 9),
            "workload": self.workload,
        }

    @staticmethod
    def from_doc(doc: Dict[str, Any]) -> "FaultEvent":
        """Rebuild one event from its JSON form."""
        return FaultEvent(
            at=float(doc.get("at", 0.0)),
            kind=str(doc.get("kind", "")),
            node=str(doc.get("node", "")),
            duration=float(doc.get("duration", 0.0)),
            factor=float(doc.get("factor", 1.0)),
            workload=str(doc.get("workload", "")),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A sorted, immutable schedule of fault events."""

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(
            self.events, key=lambda e: (e.at, e.kind, e.node, e.workload)
        ))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def for_kind(self, kind: str) -> List[FaultEvent]:
        """Every event of one kind, in firing order."""
        return [e for e in self.events if e.kind == kind]

    def as_doc(self) -> List[Dict[str, Any]]:
        """JSON form of the whole plan."""
        return [e.as_doc() for e in self.events]

    @staticmethod
    def from_doc(doc: Sequence[Dict[str, Any]]) -> "FaultPlan":
        """Rebuild a plan from its JSON form."""
        return FaultPlan(tuple(FaultEvent.from_doc(e) for e in doc))

    @staticmethod
    def generate(
        seed: int,
        horizon: float,
        nodes: Sequence[str],
        workloads: Sequence[str] = ("bootstrapping",),
        crashes: int = 1,
        stragglers: int = 2,
        transients: int = 1,
        cache_corruptions: int = 0,
        straggler_factor: Tuple[float, float] = (2.5, 6.0),
    ) -> "FaultPlan":
        """Deterministically sample a plan from a seed.

        All draws come from one ``random.Random(f"faults:{seed}")``
        stream consumed in a fixed order, so the same arguments always
        produce the identical plan — in any process, on any platform.
        Fault times land in the middle 10%–80% of the horizon so the
        fleet is warm when they hit and has time to recover before the
        tail drains.
        """
        if horizon <= 0:
            raise ConfigError("horizon", horizon, "must be > 0")
        if not nodes and (crashes or stragglers or transients):
            raise ConfigError("nodes", nodes, "node faults need nodes")
        rng = random.Random(f"faults:{seed}")
        window = (0.10 * horizon, 0.80 * horizon)
        events: List[FaultEvent] = []
        for _ in range(crashes):
            events.append(FaultEvent(
                at=rng.uniform(*window), kind="crash",
                node=rng.choice(list(nodes)),
                duration=rng.uniform(0.10, 0.30) * horizon,
            ))
        for _ in range(stragglers):
            events.append(FaultEvent(
                at=rng.uniform(*window), kind="straggler",
                node=rng.choice(list(nodes)),
                duration=rng.uniform(0.15, 0.40) * horizon,
                factor=rng.uniform(*straggler_factor),
            ))
        for _ in range(transients):
            events.append(FaultEvent(
                at=rng.uniform(*window), kind="transient",
                node=rng.choice(list(nodes)),
            ))
        for _ in range(cache_corruptions):
            events.append(FaultEvent(
                at=rng.uniform(*window), kind="cache_corrupt",
                workload=rng.choice(list(workloads)),
            ))
        return FaultPlan(tuple(events))

    @staticmethod
    def preset(
        name: str,
        seed: int,
        horizon: float,
        nodes: Sequence[str],
        workloads: Sequence[str] = ("bootstrapping",),
    ) -> "FaultPlan":
        """A named intensity from :data:`FAULT_PRESETS`."""
        if name not in FAULT_PRESETS:
            raise ConfigError(
                "faults", name,
                f"unknown preset; known: {sorted(FAULT_PRESETS)}",
            )
        crashes, stragglers, transients, corruptions = FAULT_PRESETS[name]
        return FaultPlan.generate(
            seed=seed, horizon=horizon, nodes=nodes, workloads=workloads,
            crashes=crashes, stragglers=stragglers, transients=transients,
            cache_corruptions=corruptions,
        )
