"""Tests for the CROPHE scheduler, MAD baseline, and mapper."""

import pytest

from repro.baselines.mad import MadScheduler, MAD_MAX_GROUP
from repro.fhe.params import parameter_set
from repro.hw.config import CROPHE_64
from repro.ir.builders import GraphBuilder
from repro.ir.operators import OpKind
from repro.sched.mapper import map_group
from repro.sched.scheduler import Scheduler, SchedulerConfig

PARAMS = parameter_set("ARK")


def _hmult_graph(level=PARAMS.max_level, split=None):
    b = GraphBuilder(PARAMS, ntt_split=split)
    b.hmult(b.input_ciphertext("x", level), b.input_ciphertext("y", level))
    return b.graph


@pytest.fixture(scope="module")
def hmult_schedule():
    return Scheduler(_hmult_graph(), CROPHE_64).schedule()


class TestScheduler:
    def test_covers_all_operators(self, hmult_schedule):
        g_ops = _hmult_graph().num_operators  # same structure
        covered = sum(len(s.plan.ops) for s in hmult_schedule.steps)
        assert covered == g_ops

    def test_steps_respect_topological_order(self, hmult_schedule):
        seen = set()
        for step in hmult_schedule.steps:
            for op in step.plan.ops:
                for pred_t in op.inputs:
                    producer = step.plan.graph.producer_of(pred_t)
                    if producer is not None and producer.uid not in seen:
                        assert any(
                            producer.uid == o.uid for o in step.plan.ops
                        ), "producer scheduled after consumer"
                seen.add(op.uid)

    def test_total_time_positive(self, hmult_schedule):
        assert hmult_schedule.total_seconds > 0

    def test_group_size_respected(self):
        config = SchedulerConfig(max_group_size=3)
        sched = Scheduler(_hmult_graph(), CROPHE_64, config).schedule()
        assert all(len(s.plan.ops) <= 3 for s in sched.steps)

    def test_buffers_fit_sram(self, hmult_schedule):
        cap = CROPHE_64.sram_capacity_bytes
        assert all(s.plan.metrics.buffer_bytes <= cap for s in hmult_schedule.steps)

    def test_larger_groups_not_slower(self):
        small = Scheduler(
            _hmult_graph(), CROPHE_64, SchedulerConfig(max_group_size=1)
        ).schedule()
        large = Scheduler(
            _hmult_graph(), CROPHE_64, SchedulerConfig(max_group_size=7)
        ).schedule()
        assert large.total_seconds <= small.total_seconds

    def test_smaller_sram_not_faster(self):
        big = Scheduler(_hmult_graph(), CROPHE_64).schedule()
        small_hw = CROPHE_64.with_sram_mb(16.0)
        small = Scheduler(_hmult_graph(), small_hw).schedule()
        assert small.total_seconds >= big.total_seconds * 0.99

    def test_search_stats_recorded(self):
        s = Scheduler(_hmult_graph(), CROPHE_64)
        s.schedule()
        assert "search_seconds" in s.stats

    def test_temporal_sharing_reduces_dram(self):
        """Constants resident across steps are fetched once."""
        off = SchedulerConfig(constant_residency_fraction=0.0)
        g1 = _hmult_graph()
        no_share = Scheduler(g1, CROPHE_64, off).schedule()
        g2 = _hmult_graph()
        share = Scheduler(g2, CROPHE_64).schedule()
        assert share.dram_bytes <= no_share.dram_bytes


class TestMadScheduler:
    def test_mad_groups_capped(self):
        sched = MadScheduler(_hmult_graph(), CROPHE_64).schedule()
        assert all(len(s.plan.ops) <= MAD_MAX_GROUP for s in sched.steps)

    def test_mad_match_depth_clamped(self):
        sched = MadScheduler(_hmult_graph(), CROPHE_64).schedule()
        for step in sched.steps:
            for depth in step.plan.assignment.edge_matches.values():
                assert depth <= 1

    def test_mad_not_faster_than_crophe(self):
        mad = MadScheduler(_hmult_graph(), CROPHE_64).schedule()
        cro = Scheduler(_hmult_graph(), CROPHE_64).schedule()
        assert cro.total_seconds <= mad.total_seconds * 1.05


class TestMapper:
    def test_placement_covers_all_compute_ops(self, hmult_schedule):
        for step in hmult_schedule.steps[:5]:
            mapping = map_group(step.plan)
            for op in step.plan.ops:
                placement = mapping.placements[op.uid]
                assert placement.pes, f"{op.name} unplaced"

    def test_pes_within_mesh(self, hmult_schedule):
        total = CROPHE_64.num_pes
        for step in hmult_schedule.steps[:5]:
            mapping = map_group(step.plan)
            for placement in mapping.placements.values():
                assert all(0 <= pe < total for pe in placement.pes)

    def test_transpose_ops_on_right_edge(self):
        g = _hmult_graph(split=(256, 256))
        sched = Scheduler(g, CROPHE_64, n_split=(256, 256)).schedule()
        rows, cols = CROPHE_64.mesh
        for step in sched.steps:
            mapping = map_group(step.plan)
            for op in step.plan.ops:
                if op.kind is OpKind.TRANSPOSE:
                    pes = mapping.placements[op.uid].pes
                    assert all(pe % cols == cols - 1 for pe in pes)

    def test_edge_hops_recorded(self, hmult_schedule):
        multi = next(
            s for s in hmult_schedule.steps if len(s.plan.ops) >= 2
        )
        mapping = map_group(multi.plan)
        assert mapping.average_hops() >= 0


class TestStreamWindow:
    def test_wider_window_not_slower(self):
        tight = SchedulerConfig(stream_window=1)
        wide = SchedulerConfig(stream_window=6)
        small_hw = CROPHE_64.with_sram_mb(32.0)
        t = Scheduler(_hmult_graph(), small_hw, tight).schedule()
        w = Scheduler(_hmult_graph(), small_hw, wide).schedule()
        assert w.total_seconds <= t.total_seconds * 1.02

    def test_window_bounds_pending_age(self):
        cfg = SchedulerConfig(stream_window=2)
        sched = Scheduler(_hmult_graph(), CROPHE_64, cfg).schedule()
        assert sched.total_seconds > 0
