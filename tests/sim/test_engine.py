"""Tests for the simulation engine, trace records, and statistics."""

import os

import pytest

from repro.fhe.params import parameter_set
from repro.baselines.accelerators import SHARP
from repro.baselines.mad import MadScheduler
from repro.hw.config import CROPHE_64
from repro.ir.builders import GraphBuilder
from repro.sched.dataflow import Schedule
from repro.sched.scheduler import Scheduler
from repro.sim.engine import BARRIER_CYCLES, SimulationEngine
from repro.sim.stats import TrafficReport, UtilizationReport
from repro.sim.trace import EventKind, TraceEvent, dump_trace, load_trace

PARAMS = parameter_set("ARK")


def _schedule(level=10):
    b = GraphBuilder(PARAMS)
    b.hmult(b.input_ciphertext("x", level), b.input_ciphertext("y", level))
    return Scheduler(b.graph, CROPHE_64).schedule()


@pytest.fixture(scope="module")
def sim_result():
    return SimulationEngine(CROPHE_64).run(_schedule())


class TestEngine:
    def test_total_time_positive(self, sim_result):
        assert sim_result.total_seconds > 0
        assert sim_result.total_ms == sim_result.total_seconds * 1e3

    def test_utilizations_bounded(self, sim_result):
        u = sim_result.utilization
        for v in u.as_dict().values():
            assert 0.0 <= v <= 1.0

    def test_traffic_accumulated(self, sim_result):
        assert sim_result.traffic.dram_bytes >= 0
        assert sim_result.traffic.sram_bytes >= 0

    def test_barrier_overhead_counted(self):
        sched = _schedule()
        result = SimulationEngine(CROPHE_64).run(sched)
        min_time = len(sched.steps) * BARRIER_CYCLES / (1.2e9)
        assert result.total_seconds >= min_time

    def test_repeat_scales_time(self):
        sched = _schedule()
        r1 = SimulationEngine(CROPHE_64).run(
            Schedule(steps=sched.steps, repeat=1)
        )
        r4 = SimulationEngine(CROPHE_64).run(
            Schedule(steps=sched.steps, repeat=4)
        )
        assert r4.total_seconds > r1.total_seconds
        # Warm repeats are at most as expensive as cold ones.
        assert r4.total_seconds <= 4 * r1.total_seconds * 1.001

    def test_warm_repeats_cheaper_than_cold(self):
        """Steady-state constant residency makes warm iterations faster."""
        sched = _schedule()
        r1 = SimulationEngine(CROPHE_64).run(
            Schedule(steps=sched.steps, repeat=1)
        )
        r10 = SimulationEngine(CROPHE_64).run(
            Schedule(steps=sched.steps, repeat=10)
        )
        assert r10.total_seconds < 10 * r1.total_seconds

    def test_constant_share_speeds_up(self):
        sched = _schedule()
        solo = SimulationEngine(CROPHE_64, constant_share=1).run(
            Schedule(steps=sched.steps, repeat=1)
        )
        shared = SimulationEngine(CROPHE_64, constant_share=4).run(
            Schedule(steps=sched.steps, repeat=1)
        )
        assert shared.total_seconds <= solo.total_seconds

    def test_trace_collection(self):
        sched = _schedule()
        engine = SimulationEngine(CROPHE_64, collect_trace=True)
        result = engine.run(Schedule(steps=sched.steps, repeat=1))
        assert result.events
        kinds = {e.kind for e in result.events}
        assert EventKind.OP_EXECUTE in kinds
        assert EventKind.BARRIER in kinds

    def test_specialized_hw_idealized_noc(self):
        b = GraphBuilder(PARAMS)
        b.hmult(b.input_ciphertext("x", 10), b.input_ciphertext("y", 10))
        sched = MadScheduler(b.graph, SHARP).schedule()
        result = SimulationEngine(SHARP).run(sched)
        assert result.utilization.noc == 0.0


class TestTrace:
    def test_round_trip(self, tmp_path):
        events = [
            TraceEvent(EventKind.OP_EXECUTE, 0, "ntt#1", cycles=42,
                       pes=(1, 2)),
            TraceEvent(EventKind.DRAM_READ, 0, "evk", bytes=1024),
        ]
        path = os.path.join(tmp_path, "trace.jsonl")
        dump_trace(events, path)
        back = load_trace(path)
        assert back == events


class TestStats:
    def test_traffic_add(self):
        a = TrafficReport(dram_read_bytes=10, sram_bytes=5)
        b = TrafficReport(dram_read_bytes=1, dram_write_bytes=2)
        a.add(b)
        assert a.dram_read_bytes == 11
        assert a.dram_bytes == 13
        assert a.sram_bytes == 5

    def test_utilization_dict(self):
        u = UtilizationReport(pe=0.5, noc=0.25, sram_bw=0.1, dram_bw=0.9)
        d = u.as_dict()
        assert d["PEs"] == 0.5
        assert d["DRAM b/w"] == 0.9


class TestSteadyStateConstants:
    def test_packs_within_budget(self):
        sched = _schedule()
        engine = SimulationEngine(CROPHE_64, residency_fraction=0.5)
        kept = engine._steady_state_constants(sched)
        sizes = {}
        for step in sched.steps:
            sizes.update(step.metrics.constant_bytes)
        total = sum(sizes[uid] for uid in kept)
        assert total <= CROPHE_64.sram_capacity_bytes // 2

    def test_zero_budget_keeps_nothing(self):
        sched = _schedule()
        engine = SimulationEngine(CROPHE_64, residency_fraction=0.0)
        assert not engine._steady_state_constants(sched)

    def test_prefers_large_constants(self):
        sched = _schedule()
        engine = SimulationEngine(CROPHE_64, residency_fraction=0.5)
        kept = engine._steady_state_constants(sched)
        sizes = {}
        for step in sched.steps:
            sizes.update(step.metrics.constant_bytes)
        if kept and len(sizes) > len(kept):
            smallest_kept = min(sizes[uid] for uid in kept)
            largest_dropped = max(
                (b for uid, b in sizes.items() if uid not in kept),
                default=0,
            )
            # Greedy largest-first: anything dropped that is larger than a
            # kept constant must not have fit at its turn.
            assert smallest_kept >= 0 and largest_dropped >= 0

    @pytest.mark.xfail(
        strict=True,
        reason="warm repeats drop the step's deferred-spill DRAM writes: "
        "every window output is kept, and the spills are never passed as "
        "extra_write_bytes (fixing it moves perfbench/reference.json)",
    )
    def test_warm_repeats_charge_spill_writes(self):
        b = GraphBuilder(PARAMS)
        ct = b.hmult(b.input_ciphertext("x", 10), b.input_ciphertext("y", 10))
        b.rescale(ct)
        hw = CROPHE_64.with_sram_mb(32)
        steps = Scheduler(b.graph, hw).schedule().steps
        assert sum(s.metrics.dram_write_bytes for s in steps) > 0
        once, twice = (
            SimulationEngine(hw).run(Schedule(steps=steps, repeat=r))
            for r in (1, 2)
        )
        assert twice.traffic.dram_write_bytes == (
            2 * once.traffic.dram_write_bytes
        )
