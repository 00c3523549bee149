"""Tests for hardware configurations and the area/power model."""

import pytest

from repro.baselines.accelerators import (
    ARK,
    BASELINE_CONFIGS,
    BTS,
    CRATERLAKE,
    SHARP,
    baseline_config,
    paired_crophe,
)
from repro.hw.area import area_report
from repro.hw.config import (
    CROPHE_28,
    CROPHE_36,
    CROPHE_64,
    FunctionalUnitMix,
    crophe_config,
)


class TestConfigs:
    def test_crophe_is_homogeneous(self):
        assert CROPHE_64.is_homogeneous
        assert CROPHE_36.is_homogeneous

    def test_baselines_are_specialized(self):
        for cfg in BASELINE_CONFIGS.values():
            assert not cfg.is_homogeneous

    def test_fu_mix_must_sum_to_one(self):
        with pytest.raises(ValueError):
            FunctionalUnitMix(ntt=0.5, elementwise=0.5, bconv=0.5,
                              automorphism=0.5)

    @pytest.mark.parametrize(
        "cfg,word,pes,sram",
        [
            (BTS, 64, 2048, 512.0),
            (ARK, 64, 4, 512.0),
            (SHARP, 36, 4, 180.0),
            (CRATERLAKE, 28, 8, 256.0),
            (CROPHE_64, 64, 64, 512.0),
            (CROPHE_36, 36, 128, 180.0),
        ],
    )
    def test_table1_values(self, cfg, word, pes, sram):
        assert cfg.word_bits == word
        assert cfg.num_pes == pes
        assert cfg.sram_capacity_mb == sram

    def test_comparable_logic_capability(self):
        """Paper: total logic in CROPHE and baselines is comparable."""
        assert BTS.total_lanes == CROPHE_64.total_lanes
        assert ARK.total_lanes == CROPHE_64.total_lanes
        assert SHARP.total_lanes == CROPHE_36.total_lanes
        assert CRATERLAKE.total_lanes == CROPHE_28.total_lanes

    def test_pairings(self):
        assert paired_crophe("BTS") is CROPHE_64
        assert paired_crophe("SHARP") is CROPHE_36
        with pytest.raises(KeyError):
            paired_crophe("nope")

    def test_baseline_lookup(self):
        assert baseline_config("ARK") is ARK
        with pytest.raises(KeyError):
            baseline_config("nope")

    def test_crophe_lookup(self):
        assert crophe_config(64) is CROPHE_64
        with pytest.raises(KeyError):
            crophe_config(48)

    def test_with_sram_mb(self):
        shrunk = CROPHE_36.with_sram_mb(45.0)
        assert shrunk.sram_capacity_mb == 45.0
        assert shrunk.num_pes == CROPHE_36.num_pes

    def test_mesh_derivation(self):
        assert CROPHE_64.mesh == (8, 8)
        assert CROPHE_36.mesh == (16, 8) or CROPHE_36.mesh == (8, 16)

    def test_bandwidth_units(self):
        assert CROPHE_64.dram_bytes_per_second == 1e12
        assert CROPHE_64.sram_capacity_bytes == 512 * (1 << 20)


class TestAreaModel:
    def test_table2_reproduced_exactly(self):
        report = area_report(CROPHE_36)
        rows = {name: (a, p) for name, a, p in report.rows()}
        assert rows["modular multipliers"][0] == pytest.approx(337650.31)
        assert rows["modular adders/subtractors"][0] == pytest.approx(27784.55)
        assert rows["register files"][0] == pytest.approx(67242.02)
        assert rows["inter-lane network"][0] == pytest.approx(15806.76)
        assert rows["PE"][0] == pytest.approx(448483.64)
        assert rows["128 PEs"][0] == pytest.approx(57.40, abs=0.02)
        assert rows["global buffer"][0] == pytest.approx(116.05)
        assert rows["Total"][0] == pytest.approx(251.13, abs=0.05)
        assert rows["Total"][1] == pytest.approx(181.11, abs=0.05)

    def test_multiplier_area_scales_superlinearly_with_word(self):
        a36 = area_report(CROPHE_36).pe_components_um2["modular multipliers"]
        a64 = area_report(CROPHE_64).pe_components_um2["modular multipliers"]
        assert a64 / a36 > 64 / 36

    def test_buffer_area_scales_with_capacity(self):
        big = area_report(CROPHE_36)
        small = area_report(CROPHE_36.with_sram_mb(45.0))
        ratio = (
            big.chip_components_mm2["global buffer"]
            / small.chip_components_mm2["global buffer"]
        )
        assert ratio == pytest.approx(4.0)

    def test_total_positive_for_all_crophe_variants(self):
        for cfg in (CROPHE_64, CROPHE_36, CROPHE_28):
            r = area_report(cfg)
            assert r.total_area_mm2 > 0
            assert r.total_power_w > 0


class TestNocModelSizing:
    def test_link_width_feeds_lanes(self):
        """Each link moves a meaningful fraction of a PE's ingest rate."""
        from repro.hw.config import CROPHE_64

        pe_ingest = CROPHE_64.lanes_per_pe * CROPHE_64.word_bytes
        assert CROPHE_64.noc_link_bytes_per_cycle >= pe_ingest // 4

    def test_aggregate_noc_exceeds_dram(self):
        """On-chip links must outpace off-chip memory by a wide margin."""
        from repro.hw.config import CROPHE_36, CROPHE_64

        for cfg in (CROPHE_64, CROPHE_36):
            assert cfg.noc_bytes_per_second > 10 * cfg.dram_bytes_per_second
