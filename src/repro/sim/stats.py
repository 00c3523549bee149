"""Utilization and traffic statistics (Table IV / Figure 11 inputs).

This module also owns the **canonical bottleneck tie-break**: every
place that names "the limiting resource" — the simulation engine's
per-step winners, :mod:`repro.obs.attribution`, and the utilization
reports — resolves ties through :data:`BOTTLENECK_PRECEDENCE` (via
:func:`bottleneck_order`), so Table IV and the obs tables can never
disagree on a tied group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

#: Canonical bottleneck-attribution precedence (ties go leftward):
#: compute first, then the interconnect, then the memory system, then
#: the transpose unit — the order the paper discusses limiters in.
BOTTLENECK_PRECEDENCE = ("pe", "noc", "dram", "sram", "transpose")

#: Domain-specific spellings of the canonical resource names.  The
#: engine says ``tpu``, utilization reports say ``dram_bw``/``sram_bw``
#: — all one precedence.
RESOURCE_ALIASES = {
    "tpu": "transpose",
    "dram_bw": "dram",
    "sram_bw": "sram",
}


def canonical_resource(name: str) -> str:
    """Map a domain spelling onto its canonical resource name."""
    return RESOURCE_ALIASES.get(name, name)


def bottleneck_order(names: Sequence[str]) -> Tuple[str, ...]:
    """Order resource spellings by the canonical precedence.

    Names whose canonical form is not in :data:`BOTTLENECK_PRECEDENCE`
    sort after every known resource, keeping their given order — the
    sort is stable, so callers with exotic extra keys stay
    deterministic too.
    """
    known = {r: i for i, r in enumerate(BOTTLENECK_PRECEDENCE)}
    return tuple(sorted(
        names,
        key=lambda n: known.get(canonical_resource(n), len(known)),
    ))


def dominant(
    values: Mapping[str, float],
    order: Optional[Sequence[str]] = None,
) -> str:
    """The argmax key of ``values`` with deterministic tie-breaking.

    Ties go to the key earliest in ``order`` (or insertion order when
    no order is given), so bottleneck attribution is stable across runs
    and dict-construction details.  An empty mapping is a programming
    error (callers always have at least one resource) and raises
    :class:`~repro.resilience.errors.InvariantViolation`.
    """
    if not values:
        from repro.resilience.errors import InvariantViolation

        raise InvariantViolation(
            "repro.sim.stats.dominant", "no candidates to attribute"
        )
    keys = [k for k in (order or values) if k in values]
    # Keys outside the requested order still participate, after it.
    keys += [k for k in values if k not in keys]
    best = keys[0]
    for key in keys[1:]:
        if values[key] > values[best]:
            best = key
    return best


@dataclass
class UtilizationReport:
    """Resource busy-time fractions over a simulated execution."""

    pe: float = 0.0
    noc: float = 0.0
    sram_bw: float = 0.0
    dram_bw: float = 0.0
    transpose: float = 0.0

    #: Attribution precedence, derived from the canonical
    #: :data:`BOTTLENECK_PRECEDENCE` so every table tie-breaks alike.
    FIELD_ORDER = bottleneck_order(
        ("pe", "noc", "sram_bw", "dram_bw", "transpose")
    )

    @classmethod
    def from_busy(
        cls, busy: Mapping[str, float], total_seconds: float
    ) -> "UtilizationReport":
        """Build a report from per-resource busy seconds and wall time.

        ``busy`` uses the engine's short keys (``pe``/``noc``/``sram``/
        ``dram``/``tpu``); fractions are clamped to [0, 1] and are zero
        for a zero-length execution.
        """

        def frac(key: str) -> float:
            if not total_seconds:
                return 0.0
            return min(1.0, busy.get(key, 0.0) / total_seconds)

        return cls(
            pe=frac("pe"),
            noc=frac("noc"),
            sram_bw=frac("sram"),
            dram_bw=frac("dram"),
            transpose=frac("tpu"),
        )

    def as_dict(self) -> Dict[str, float]:
        """Display-label view of the utilization fields."""
        return {
            "PEs": self.pe,
            "NoC b/w": self.noc,
            "SRAM b/w": self.sram_bw,
            "DRAM b/w": self.dram_bw,
            "transpose": self.transpose,
        }

    def dominant(self) -> str:
        """Field name of the busiest resource (stable tie-breaking)."""
        return dominant(
            {
                "pe": self.pe,
                "noc": self.noc,
                "sram_bw": self.sram_bw,
                "dram_bw": self.dram_bw,
                "transpose": self.transpose,
            },
            order=self.FIELD_ORDER,
        )


@dataclass
class TrafficReport:
    """Byte totals per memory level."""

    dram_read_bytes: int = 0
    dram_write_bytes: int = 0
    sram_bytes: int = 0
    noc_bytes: int = 0
    transpose_bytes: int = 0

    #: Tie order for traffic *volume* (outer memory level first) — a
    #: different question from bottleneck attribution, so deliberately
    #: not :data:`BOTTLENECK_PRECEDENCE`.
    FIELD_ORDER = ("dram", "sram", "noc", "transpose")

    @property
    def dram_bytes(self) -> int:
        return self.dram_read_bytes + self.dram_write_bytes

    def add(self, other: "TrafficReport") -> None:
        """Accumulate another report into this one."""
        self.dram_read_bytes += other.dram_read_bytes
        self.dram_write_bytes += other.dram_write_bytes
        self.sram_bytes += other.sram_bytes
        self.noc_bytes += other.noc_bytes
        self.transpose_bytes += other.transpose_bytes

    def dominant(self) -> str:
        """Memory level carrying the most bytes (stable tie-breaking)."""
        return dominant(
            {
                "dram": self.dram_bytes,
                "sram": self.sram_bytes,
                "noc": self.noc_bytes,
                "transpose": self.transpose_bytes,
            },
            order=self.FIELD_ORDER,
        )
