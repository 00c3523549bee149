"""Hardware configurations (paper Table I).

A :class:`HardwareConfig` describes one accelerator: the homogeneous
CROPHE PE array or one of the baseline designs.  Baselines additionally
carry a *functional-unit mix* — the fixed ratio of specialized units
(NTT, element-wise, BConv, automorphism) that the paper identifies as
the source of their utilization losses (Section III-A).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.resilience.errors import ConfigError

TB = 1e12
MB = 1 << 20


@dataclass(frozen=True)
class FunctionalUnitMix:
    """Fraction of a baseline's compute provisioned per operator class.

    Fractions sum to 1.  A homogeneous design (CROPHE) uses ``None``
    instead of a mix: every PE runs every operator kind.
    """

    ntt: float
    elementwise: float
    bconv: float
    automorphism: float

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Reject mixes that are not a partition of the compute.

        Raises:
            ConfigError: naming the offending fraction.
        """
        for name in ("ntt", "elementwise", "bconv", "automorphism"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(
                    name, value, "FU fraction must lie in [0, 1]"
                )
        total = self.ntt + self.elementwise + self.bconv + self.automorphism
        if abs(total - 1.0) > 1e-6:
            raise ConfigError(
                "fu_mix", total, "FU fractions must sum to 1"
            )


@dataclass(frozen=True)
class HardwareConfig:
    """One accelerator configuration (a Table I column).

    Attributes:
        name: configuration label.
        word_bits: machine word length for residues.
        frequency_ghz: logic clock.
        lanes_per_pe: vector lanes per PE (each one modular multiplier).
        num_pes: number of PEs (or clusters for the baselines).
        dram_bandwidth_tbs: off-chip HBM bandwidth (TB/s).
        sram_bandwidth_tbs: global SRAM bandwidth (TB/s), all banks.
        sram_capacity_mb: global SRAM buffer capacity.
        register_file_kb: per-PE register file size.
        noc_link_bytes_per_cycle: per-link payload of the mesh NoC.
        mesh_dims: (rows, cols) of the PE mesh; ``None`` derives a near-
            square mesh from ``num_pes``.
        transpose_unit_mb: capacity of the SRAM transpose unit.
        fu_mix: functional-unit split for specialized baselines.
        area_mm2 / power_w: reference totals from Table I.
    """

    name: str
    word_bits: int
    frequency_ghz: float
    lanes_per_pe: int
    num_pes: int
    dram_bandwidth_tbs: float = 1.0
    sram_bandwidth_tbs: float = 40.0  # global buffer only (Table I lists "global + RF")
    sram_capacity_mb: float = 180.0
    register_file_kb: int = 64
    noc_link_bytes_per_cycle: int = 1024  # 256-lane PEs stream ~2 kB/cycle
    mesh_dims: Optional[Tuple[int, int]] = None
    transpose_unit_mb: float = 4.0
    fu_mix: Optional[FunctionalUnitMix] = None
    area_mm2: float = 0.0
    power_w: float = 0.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Reject non-physical configurations at construction time.

        Raises:
            ConfigError: naming the offending field (e.g. a negative
                SRAM capacity or a zero-lane PE).
        """
        positive = (
            ("word_bits", self.word_bits),
            ("frequency_ghz", self.frequency_ghz),
            ("lanes_per_pe", self.lanes_per_pe),
            ("num_pes", self.num_pes),
            ("dram_bandwidth_tbs", self.dram_bandwidth_tbs),
            ("sram_bandwidth_tbs", self.sram_bandwidth_tbs),
            ("sram_capacity_mb", self.sram_capacity_mb),
            ("noc_link_bytes_per_cycle", self.noc_link_bytes_per_cycle),
            ("transpose_unit_mb", self.transpose_unit_mb),
        )
        for name, value in positive:
            if value <= 0:
                raise ConfigError(name, value, "must be positive")
        if self.register_file_kb < 0:
            raise ConfigError(
                "register_file_kb", self.register_file_kb,
                "must be non-negative",
            )
        if self.mesh_dims is not None:
            rows, cols = self.mesh_dims
            if rows < 1 or cols < 1:
                raise ConfigError(
                    "mesh_dims", self.mesh_dims,
                    "mesh dimensions must be >= 1",
                )
            if rows * cols < self.num_pes:
                raise ConfigError(
                    "mesh_dims", self.mesh_dims,
                    f"a {rows}x{cols} mesh cannot seat {self.num_pes} PEs",
                )

    @property
    def is_homogeneous(self) -> bool:
        return self.fu_mix is None

    @property
    def word_bytes(self) -> int:
        return (self.word_bits + 7) // 8

    @property
    def total_lanes(self) -> int:
        return self.lanes_per_pe * self.num_pes

    @property
    def sram_capacity_bytes(self) -> int:
        return int(self.sram_capacity_mb * MB)

    @property
    def sram_bytes_per_second(self) -> float:
        return self.sram_bandwidth_tbs * TB

    @property
    def dram_bytes_per_second(self) -> float:
        return self.dram_bandwidth_tbs * TB

    @property
    def mesh(self) -> Tuple[int, int]:
        if self.mesh_dims is not None:
            return self.mesh_dims
        rows = 1
        while rows * rows < self.num_pes:
            rows *= 2
        cols = self.num_pes // rows
        if rows * cols != self.num_pes:
            cols = -(self.num_pes // -rows)
        return (rows, cols)

    @property
    def noc_bytes_per_second(self) -> float:
        """Aggregate NoC bandwidth across all mesh links."""
        rows, cols = self.mesh
        links = 2 * (rows * (cols - 1) + cols * (rows - 1))
        return links * self.noc_link_bytes_per_cycle * self.frequency_ghz * 1e9

    def with_sram_mb(self, capacity_mb: float) -> "HardwareConfig":
        """Copy with a different SRAM capacity (the Figure 10 sweep)."""
        return replace(self, sram_capacity_mb=capacity_mb)

    def scaled_pes(self, num_pes: int) -> "HardwareConfig":
        """Copy with a different PE count (mesh re-derived)."""
        return replace(self, num_pes=num_pes, mesh_dims=None)


#: 64-bit CROPHE variant (compared with BTS and ARK).  Table I column 3.
CROPHE_64 = HardwareConfig(
    name="CROPHE-64",
    word_bits=64,
    frequency_ghz=1.2,
    lanes_per_pe=256,
    num_pes=64,
    dram_bandwidth_tbs=1.0,
    sram_bandwidth_tbs=39.0,  # global buffer; the +314 in Table I is RF bandwidth
    sram_capacity_mb=512.0,
    register_file_kb=256,  # 64 PEs x 256 kB = 16 MB (Table I "512 + 16")
    area_mm2=362.8,
    power_w=195.2,
)

#: 36-bit CROPHE variant (compared with SHARP).  Table I column 6.
CROPHE_36 = HardwareConfig(
    name="CROPHE-36",
    word_bits=36,
    frequency_ghz=1.2,
    lanes_per_pe=256,
    num_pes=128,
    dram_bandwidth_tbs=1.0,
    sram_bandwidth_tbs=44.0,  # global buffer; the +354 in Table I is RF bandwidth
    sram_capacity_mb=180.0,
    register_file_kb=64,  # 128 PEs x 64 kB = 8 MB (Table I "180 + 8")
    area_mm2=251.1,
    power_w=181.1,
)

#: 28-bit CROPHE variant (compared with CraterLake; omitted from Table I).
CROPHE_28 = HardwareConfig(
    name="CROPHE-28",
    word_bits=28,
    frequency_ghz=1.2,
    lanes_per_pe=256,
    num_pes=128,
    dram_bandwidth_tbs=1.0,
    sram_bandwidth_tbs=44.0,
    sram_capacity_mb=256.0,
    register_file_kb=64,
    area_mm2=230.0,
    power_w=160.0,
)

HW_CONFIGS: Dict[str, HardwareConfig] = {
    c.name: c for c in (CROPHE_64, CROPHE_36, CROPHE_28)
}


def crophe_config(word_bits: int) -> HardwareConfig:
    """CROPHE variant by word length (64, 36, or 28 bits)."""
    table = {64: CROPHE_64, 36: CROPHE_36, 28: CROPHE_28}
    try:
        return table[word_bits]
    except KeyError:
        raise KeyError(
            f"no CROPHE variant with {word_bits}-bit words; "
            f"choose from {sorted(table)}"
        ) from None
