"""Mesh NoC model.

Packets travel hop-by-hop on a 2-D mesh with X-Y routing; multicast is
supported for shared auxiliary data (Section IV-A).  The model exposes
per-transfer latency (hops x per-hop latency + serialization) and an
aggregate-bandwidth view used by the group-level cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.hw.config import HardwareConfig

#: Serialization derate applied to the aggregate-bandwidth NoC view: an
#: average X-Y route crosses ~1/4 of the mesh links concurrently, so the
#: usable group-level bandwidth is the aggregate divided by this factor.
#: The group cost model (``repro.sched.dataflow.GroupPricing``) applies
#: it; the DP's prices and ``SpatialGroupPlan.execution_seconds`` both
#: price through that model.
NOC_SERIALIZATION_FACTOR = 4.0


@dataclass(frozen=True)
class MeshNoc:
    """A rows x cols mesh of PEs."""

    rows: int
    cols: int
    link_bytes_per_cycle: int
    hop_latency_cycles: int = 1

    @classmethod
    def for_config(cls, config: HardwareConfig) -> "MeshNoc":
        rows, cols = config.mesh
        return cls(rows, cols, config.noc_link_bytes_per_cycle)

    @property
    def num_pes(self) -> int:
        return self.rows * self.cols

    @property
    def num_links(self) -> int:
        """Bidirectional links counted once per direction."""
        return 2 * (self.rows * (self.cols - 1) + self.cols * (self.rows - 1))

    def coords(self, pe_index: int) -> Tuple[int, int]:
        """Mesh (row, col) of a PE index."""
        if not 0 <= pe_index < self.num_pes:
            raise ValueError(f"PE index {pe_index} out of range")
        return divmod(pe_index, self.cols)

    def hops(self, src: int, dst: int) -> int:
        """Manhattan distance under X-Y routing."""
        sr, sc = self.coords(src)
        dr, dc = self.coords(dst)
        return abs(sr - dr) + abs(sc - dc)

    def transfer_cycles(self, nbytes: int, src: int, dst: int) -> int:
        """Latency of a unicast transfer: head latency + serialization."""
        if src == dst:
            return 0
        head = self.hops(src, dst) * self.hop_latency_cycles
        serialization = -(nbytes // -self.link_bytes_per_cycle)
        return head + serialization

    def multicast_cycles(self, nbytes: int, src: int, dsts: Tuple[int, ...]) -> int:
        """Tree multicast: pay the longest path once (links replicate)."""
        if not dsts:
            return 0
        head = max(self.hops(src, d) for d in dsts) * self.hop_latency_cycles
        serialization = -(nbytes // -self.link_bytes_per_cycle)
        return head + serialization

    def aggregate_bytes_per_cycle(self) -> int:
        """Total payload all links move per cycle."""
        return self.num_links * self.link_bytes_per_cycle
