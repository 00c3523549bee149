"""Baseline accelerator configurations (paper Table I, columns 1-5).

Each baseline is modeled as a :class:`~repro.hw.config.HardwareConfig`
with a :class:`~repro.hw.config.FunctionalUnitMix`: the paper's central
hardware observation is that these designs provision *fixed ratios of
specialized units* per operator class, so an operator can only use its
own class's share of the chip's logic while the rest idles
(Section III-A).  Total logic capability is set comparable to the paired
CROPHE variant, matching the paper's note that "the total logic
capabilities in CROPHE and baselines are still comparable" despite the
different lane x PE accounting.

The FU mixes are derived from the baselines' published microarchitecture
budgets (e.g. SHARP reports ~65% utilization for its NTT and
element-wise engines but <30% for BConv and automorphism units
[SHARP, Fig. 6(b)], implying NTT-heavy provisioning).
"""

from __future__ import annotations

from typing import Dict

from repro.hw.config import (
    CROPHE_28,
    CROPHE_36,
    CROPHE_64,
    FunctionalUnitMix,
    HardwareConfig,
)

#: BTS [35]: 64-bit, 2048 small PEs, huge 512 MB scratchpad.
BTS = HardwareConfig(
    name="BTS",
    word_bits=64,
    frequency_ghz=1.2,
    lanes_per_pe=8,
    num_pes=2048,
    dram_bandwidth_tbs=1.0,
    sram_bandwidth_tbs=38.4,  # global scratchpad; +292 in Table I is RF
    sram_capacity_mb=512.0,
    register_file_kb=16,
    fu_mix=FunctionalUnitMix(ntt=0.45, elementwise=0.20, bconv=0.25,
                             automorphism=0.10),
    area_mm2=373.6,
    power_w=163.2,
)

#: ARK [34]: 64-bit, 4 clusters x 256 lanes, runtime data generation.
ARK = HardwareConfig(
    name="ARK",
    word_bits=64,
    frequency_ghz=1.0,
    lanes_per_pe=4096,
    num_pes=4,
    dram_bandwidth_tbs=1.0,
    sram_bandwidth_tbs=20.0,  # global buffer; +72 in Table I is RF
    sram_capacity_mb=512.0,
    register_file_kb=256,
    fu_mix=FunctionalUnitMix(ntt=0.40, elementwise=0.25, bconv=0.25,
                             automorphism=0.10),
    area_mm2=418.3,
    power_w=281.3,
)

#: SHARP [33]: 36-bit short words, hierarchical clusters.
SHARP = HardwareConfig(
    name="SHARP",
    word_bits=36,
    frequency_ghz=1.0,
    lanes_per_pe=8192,
    num_pes=4,
    dram_bandwidth_tbs=1.0,
    sram_bandwidth_tbs=36.0,  # global buffer; +36 in Table I is RF
    sram_capacity_mb=180.0,
    register_file_kb=256,
    fu_mix=FunctionalUnitMix(ntt=0.45, elementwise=0.30, bconv=0.15,
                             automorphism=0.10),
    area_mm2=178.8,
    power_w=94.7,
)

#: CraterLake [51] scaled to 7 nm (CL+): 28-bit, monolithic vector unit.
CRATERLAKE = HardwareConfig(
    name="CL+",
    word_bits=28,
    frequency_ghz=1.0,
    lanes_per_pe=4096,
    num_pes=8,
    dram_bandwidth_tbs=1.0,
    sram_bandwidth_tbs=84.0,
    sram_capacity_mb=256.0,
    register_file_kb=128,
    fu_mix=FunctionalUnitMix(ntt=0.40, elementwise=0.30, bconv=0.20,
                             automorphism=0.10),
    area_mm2=222.7,
    power_w=126.8,
)

BASELINE_CONFIGS: Dict[str, HardwareConfig] = {
    c.name: c for c in (BTS, ARK, SHARP, CRATERLAKE)
}

#: Which CROPHE variant each baseline is compared against (same word
#: length, similar area budget).
_PAIRINGS: Dict[str, HardwareConfig] = {
    "BTS": CROPHE_64,
    "ARK": CROPHE_64,
    "SHARP": CROPHE_36,
    "CL+": CROPHE_28,
}


def baseline_config(name: str) -> HardwareConfig:
    """Look up a baseline accelerator configuration by name."""
    try:
        return BASELINE_CONFIGS[name]
    except KeyError:
        raise KeyError(
            f"unknown baseline {name!r}; choose from {sorted(BASELINE_CONFIGS)}"
        ) from None


def paired_crophe(baseline_name: str) -> HardwareConfig:
    """The CROPHE variant evaluated against a given baseline."""
    try:
        return _PAIRINGS[baseline_name]
    except KeyError:
        raise KeyError(
            f"no CROPHE pairing for {baseline_name!r}; "
            f"choose from {sorted(_PAIRINGS)}"
        ) from None
