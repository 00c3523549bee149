"""The simulated accelerator fleet and the schedule oracle.

An :class:`AcceleratorNode` is one simulated FHE accelerator: it has
a relative speed (heterogeneous fleets mix Table I configs), a health
state driven by the fault plane, and a ``busy_until`` cursor — work
queues on the node, which is what makes placement a real decision.

The **schedule oracle** answers "how long does one request of this
workload take on a reference node?".  Serving never runs a DP search
online: :class:`TableOracle` answers from measured CROPHE-64-class
latencies, and the fault plane's ``cache_corrupt`` events arm its
degraded-lookup mode, so every serve run exercises the fallback path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.metrics import REGISTRY as _METRICS
from repro.resilience.errors import ConfigError

__all__ = [
    "AcceleratorNode",
    "DEFAULT_SERVICE_SECONDS",
    "Fleet",
    "FleetSpec",
    "TableOracle",
]

#: Node health states.
UP, DOWN, EVICTED = "up", "down", "evicted"

#: Reference single-request service times (seconds) per workload —
#: the fallback latency table, anchored to this repo's measured
#: CROPHE-class results (EXPERIMENTS.md: ResNet-20 ≈ 109 ms at the
#: small-SRAM point; bootstrapping and HELR scaled from the same
#: runs).  Serving policy comparisons need *relative* magnitudes and
#: queueing behaviour, not re-simulated precision.
DEFAULT_SERVICE_SECONDS: Dict[str, float] = {
    "bootstrapping": 0.0182,
    "helr": 0.0069,
    "resnet20": 0.1089,
    "resnet110": 0.6120,
}


class TableOracle:
    """Per-request service seconds from a static latency table, with a
    degraded-fallback fault mode.

    An injected fault makes the next lookup for that workload pay
    ``degraded_factor`` — the cost of re-deriving a schedule estimate
    when the cached one is untrustworthy — and counts
    ``serve.oracle_fallbacks``.
    """

    name = "table"

    def __init__(
        self,
        table: Optional[Dict[str, float]] = None,
        degraded_factor: float = 2.0,
    ):
        self.table = dict(table or DEFAULT_SERVICE_SECONDS)
        self.degraded_factor = degraded_factor
        self._armed: Dict[str, int] = {}
        self.fallbacks = 0

    def seconds(self, workload: str) -> float:
        """Reference single-request service time, in seconds."""
        if workload not in self.table:
            raise ConfigError(
                "workload", workload,
                f"oracle knows {sorted(self.table)}",
            )
        base = self.table[workload]
        if self._armed.get(workload, 0) > 0:
            self._armed[workload] -= 1
            self._note_fallback()
            return base * self.degraded_factor
        return base

    def inject_fault(self, workload: str) -> None:
        """Arm one deterministic lookup fault for ``workload``."""
        self._armed[workload] = self._armed.get(workload, 0) + 1

    def _note_fallback(self) -> None:
        self.fallbacks += 1
        if _METRICS.enabled:
            _METRICS.counter("serve.oracle_fallbacks").inc()


@dataclass
class AcceleratorNode:
    """One simulated accelerator with health and load state."""

    name: str
    speed: float = 1.0
    hw_label: str = "CROPHE-64"
    state: str = UP
    straggler_factor: float = 1.0
    busy_until: float = 0.0
    health_misses: int = 0
    inflight: List[object] = field(default_factory=list)
    orphans: List[object] = field(default_factory=list)
    pending_transients: int = 0
    served: int = 0

    @property
    def available(self) -> bool:
        return self.state == UP

    def effective_seconds(self, service: float) -> float:
        """Service time on this node right now (speed × straggler)."""
        return service / self.speed * self.straggler_factor


@dataclass(frozen=True)
class FleetSpec:
    """Declarative fleet description.

    ``speeds`` cycles over the node count, so heterogeneous fleets
    (Table I mixes) are one tuple: ``FleetSpec(4, (1.0, 0.85))`` gives
    two fast and two slow accelerators.
    """

    nodes: int = 4
    speeds: Tuple[float, ...] = (1.0,)
    hw_label: str = "CROPHE-64"

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ConfigError("nodes", self.nodes, "must be >= 1")
        if not self.speeds or any(s <= 0 for s in self.speeds):
            raise ConfigError(
                "speeds", self.speeds, "must all be positive"
            )

    def build(self) -> List[AcceleratorNode]:
        """Materialize the node list (``acc0`` .. ``accN-1``)."""
        return [
            AcceleratorNode(
                name=f"acc{i}",
                speed=self.speeds[i % len(self.speeds)],
                hw_label=self.hw_label,
            )
            for i in range(self.nodes)
        ]

    def as_doc(self) -> Dict[str, object]:
        """JSON form embedded in the run summary."""
        return {
            "nodes": self.nodes,
            "speeds": list(self.speeds),
            "hw_label": self.hw_label,
        }


class Fleet:
    """Placement and health bookkeeping over the node list."""

    def __init__(self, nodes: List[AcceleratorNode]):
        if not nodes:
            raise ConfigError("nodes", nodes, "a fleet needs nodes")
        self.nodes = nodes
        self.by_name = {n.name: n for n in nodes}
        self.evictions = 0
        self.rejoins = 0

    def place(
        self, now: float, exclude: Iterable[str] = ()
    ) -> Optional[AcceleratorNode]:
        """Earliest-available healthy node, name tie-broken.

        Deterministic: ties on availability time go to the lexically
        smallest name, so the same state always places the same way.
        """
        excluded = set(exclude)
        candidates = [
            n for n in self.nodes
            if n.available and n.name not in excluded
        ]
        if not candidates:
            return None
        return min(
            candidates, key=lambda n: (max(n.busy_until, now), n.name)
        )

    def up_count(self) -> int:
        """Healthy (placeable) nodes right now."""
        return sum(1 for n in self.nodes if n.available)

    def evict(self, node: AcceleratorNode) -> None:
        """Health checker gave up on the node."""
        if node.state != EVICTED:
            node.state = EVICTED
            self.evictions += 1
            if _METRICS.enabled:
                _METRICS.counter("serve.evictions").inc()
                _METRICS.counter(
                    "serve.node_events",
                    labels=(("node", node.name), ("kind", "evict")),
                ).inc()

    def rejoin(self, node: AcceleratorNode, now: float) -> None:
        """A revived node returns to the placement pool."""
        was_evicted = node.state == EVICTED
        node.state = UP
        node.health_misses = 0
        node.busy_until = now
        if was_evicted:
            self.rejoins += 1
            if _METRICS.enabled:
                _METRICS.counter("serve.rejoins").inc()
                _METRICS.counter(
                    "serve.node_events",
                    labels=(("node", node.name), ("kind", "rejoin")),
                ).inc()
