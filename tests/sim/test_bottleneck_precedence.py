"""Regression tests for the canonical bottleneck tie-break.

A noc/dram tie once resolved differently depending on which module
named the winner.  The engine's per-step winner and
:mod:`repro.obs.attribution` now both defer to
:data:`repro.sim.stats.BOTTLENECK_PRECEDENCE`.
"""

from __future__ import annotations

import itertools

import pytest

from repro.obs.attribution import RESOURCES, GroupAttribution
from repro.sim.engine import BOTTLENECK_ORDER
from repro.sim.stats import (
    BOTTLENECK_PRECEDENCE,
    bottleneck_order,
    canonical_resource,
    dominant,
)


class TestAttributionTies:
    def test_noc_dram_tie_goes_to_noc(self):
        attr = GroupAttribution(group=0)
        attr.cycles["noc"] = 100.0
        attr.cycles["dram"] = 100.0
        assert attr.bottleneck == "noc"

    def test_all_zero_goes_to_pe(self):
        # An idle group attributes to the first canonical resource.
        assert GroupAttribution(group=0).bottleneck == "pe"

    def test_display_order_is_canonical(self):
        assert RESOURCES == BOTTLENECK_PRECEDENCE


class TestCrossModuleAgreement:
    """Every tie pattern must resolve identically in the attribution
    table and the engine's per-step winner."""

    @pytest.mark.parametrize(
        "tied", list(itertools.combinations(range(5), 2))
    )
    def test_two_way_ties_agree_everywhere(self, tied):
        engine_spellings = {
            "pe": "pe", "noc": "noc", "dram": "dram", "sram": "sram",
            "transpose": "tpu",
        }
        canon = BOTTLENECK_PRECEDENCE
        values = {r: 0.0 for r in canon}
        for idx in tied:
            values[canon[idx]] = 3.0

        attr = GroupAttribution(group=0)
        attr.cycles.update(values)
        attribution_winner = attr.bottleneck

        engine_values = {
            engine_spellings[r]: v for r, v in values.items()
        }
        engine_winner = canonical_resource(
            dominant(engine_values, order=BOTTLENECK_ORDER)
        )

        expected = canon[min(tied)]
        assert attribution_winner == expected
        assert engine_winner == expected

    def test_order_canonicalizes_aliases(self):
        # tpu/dram_bw spellings participate under their canonical rank.
        assert bottleneck_order(("tpu", "dram_bw")) == ("dram_bw", "tpu")
