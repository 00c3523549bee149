"""Tests for the analytical group cost model (``GroupPricing``)."""

import pytest

from repro.baselines.accelerators import SHARP
from repro.hw.config import CROPHE_64
from repro.sched.dataflow import GroupMetrics, GroupPricing
from repro.sched.scheduler import Scheduler


def _terms(m: GroupMetrics, hw):
    return GroupPricing.for_config(hw).terms(
        m.compute_cycles, m.dram_bytes, m.sram_bytes, m.noc_bytes,
        m.transpose_bytes,
    )


class TestBreakdown:
    def test_total_is_max(self):
        m = GroupMetrics(compute_cycles=1_200, dram_read_bytes=10 ** 9,
                         sram_bytes=10 ** 6, noc_bytes=10 ** 3)
        terms = _terms(m, CROPHE_64)
        seconds = GroupPricing.for_config(CROPHE_64).seconds(
            m.compute_cycles, m.dram_bytes, m.sram_bytes, m.noc_bytes,
            m.transpose_bytes,
        )
        assert seconds == max(terms) == terms[1]

    def test_group_breakdown_from_metrics(self):
        m = GroupMetrics(
            compute_cycles=1_200_000,   # 1 ms at 1.2 GHz
            dram_read_bytes=850_000_000,
            sram_bytes=0,
            noc_bytes=0,
        )
        compute, dram, _sram, _noc, _transpose = _terms(m, CROPHE_64)
        assert compute == pytest.approx(1e-3)
        assert dram == pytest.approx(1e-3, rel=0.25)

    def test_specialized_hw_has_free_noc(self):
        m = GroupMetrics(noc_bytes=10 ** 9)
        assert _terms(m, SHARP)[3] == 0.0
        assert _terms(m, CROPHE_64)[3] > 0.0


class TestBreakdownMatchesPlans:
    @pytest.mark.parametrize("workload", ["bootstrapping", "resnet20"])
    def test_total_equals_step_seconds(self, workload):
        """Across whole quick workloads, pricing each step's effective
        metrics reproduces its scheduled seconds *exactly* — the DP's
        transition and ``GroupPricing`` share one definition of each
        resource term (including the hoisted NoC serialization factor),
        so any drift between them is a bug."""
        from repro.fhe.params import CKKSParams
        from repro.workloads import build_bootstrapping
        from repro.workloads.resnet import build_resnet20

        if workload == "bootstrapping":
            params = CKKSParams(
                log_n=12, max_level=7, boot_levels=5, dnum=2, alpha=4,
                word_bits=36, name="tiny",
            )
            segments = build_bootstrapping(params).segments
        else:
            params = CKKSParams(
                log_n=12, max_level=13, boot_levels=3, dnum=2, alpha=7,
                word_bits=36, name="tiny-deep",
            )
            segments = build_resnet20(params).segments
        pricing = GroupPricing.for_config(CROPHE_64)
        checked = 0
        for seg in segments[:3]:
            sched = Scheduler(seg.graph, CROPHE_64).schedule()
            for step in sched.steps:
                m = step.metrics
                assert pricing.seconds(
                    m.compute_cycles, m.dram_bytes, m.sram_bytes,
                    m.noc_bytes, m.transpose_bytes,
                ) == step.seconds
                checked += 1
        assert checked > 0
