"""Memory models: the global SRAM buffer and the HBM main memory.

The HBM model substitutes the paper's Ramulator 2 runs with a bandwidth
model derated by a row-locality efficiency factor — the paper itself
notes its Ramulator-based reproduction made baselines slightly slower
than originally reported, which is the behaviour a derated-bandwidth
model captures at first order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.config import HardwareConfig


@dataclass(frozen=True)
class SramBuffer:
    """Multi-bank global SRAM buffer (single-ported banks at 2x clock)."""

    capacity_bytes: int
    bytes_per_second: float

    @classmethod
    def for_config(cls, config: HardwareConfig) -> "SramBuffer":
        return cls(config.sram_capacity_bytes, config.sram_bytes_per_second)

    def fits(self, nbytes: int) -> bool:
        """Whether a working set fits the buffer capacity."""
        return nbytes <= self.capacity_bytes


@dataclass(frozen=True)
class HbmMemory:
    """Off-chip HBM: peak bandwidth derated by streaming efficiency.

    ``efficiency`` reflects row-buffer locality and refresh overheads for
    the long sequential bursts FHE tensors produce; 0.85 matches typical
    measured HBM streaming efficiency.
    """

    bytes_per_second_peak: float
    efficiency: float = 0.85
    base_latency_s: float = 120e-9

    @classmethod
    def for_config(cls, config: HardwareConfig) -> "HbmMemory":
        return cls(config.dram_bytes_per_second)

    @property
    def bytes_per_second(self) -> float:
        return self.bytes_per_second_peak * self.efficiency
