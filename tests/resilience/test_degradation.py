"""Budgeted search degradation and infeasibility."""

import math

import pytest

from repro.fhe.params import parameter_set
from repro.hw.config import CROPHE_64
from repro.ir.builders import GraphBuilder
from repro.resilience.errors import (
    InfeasibleScheduleError,
    SearchBudgetExceeded,
)
from repro.sched.scheduler import Scheduler, SchedulerConfig
from repro.sim.engine import SimulationEngine

PARAMS = parameter_set("ARK")


def _hmult_graph(level=PARAMS.max_level):
    b = GraphBuilder(PARAMS)
    b.hmult(b.input_ciphertext("x", level), b.input_ciphertext("y", level))
    return b.graph


@pytest.fixture(scope="module")
def full_schedule():
    return Scheduler(_hmult_graph(), CROPHE_64).schedule()


class TestDegradation:
    def test_unbudgeted_search_is_not_degraded(self, full_schedule):
        assert not full_schedule.degraded
        assert full_schedule.degraded_reason == ""

    def test_tiny_budget_degrades_but_stays_valid(self, full_schedule):
        cfg = SchedulerConfig(max_search_nodes=3)
        sched = Scheduler(_hmult_graph(), CROPHE_64, cfg).schedule()
        assert sched.degraded
        assert "budget" in sched.degraded_reason
        # Still a complete, feasible schedule.
        covered = sum(len(s.plan.ops) for s in sched.steps)
        assert covered == _hmult_graph().num_operators
        cap = CROPHE_64.sram_capacity_bytes
        assert all(
            s.plan.metrics.buffer_bytes <= cap for s in sched.steps
        )
        # The fallback cannot beat the full DP search.
        assert sched.total_seconds >= full_schedule.total_seconds * 0.999

    def test_degraded_schedule_simulates_finitely(self):
        cfg = SchedulerConfig(max_search_nodes=3)
        sched = Scheduler(_hmult_graph(), CROPHE_64, cfg).schedule()
        report = SimulationEngine(CROPHE_64).run(sched)
        assert math.isfinite(report.total_seconds)
        assert report.total_seconds > 0

    def test_fallback_off_raises_typed_error(self):
        cfg = SchedulerConfig(max_search_nodes=3, fallback_on_budget=False)
        with pytest.raises(SearchBudgetExceeded) as exc:
            Scheduler(_hmult_graph(), CROPHE_64, cfg).schedule()
        assert exc.value.nodes_explored >= 3
        assert exc.value.budget_nodes == 3

    def test_wall_clock_budget_also_degrades(self):
        cfg = SchedulerConfig(max_search_seconds=1e-9)
        sched = Scheduler(_hmult_graph(), CROPHE_64, cfg).schedule()
        assert sched.degraded
        assert sched.total_seconds > 0

    def test_degraded_flag_in_stats(self):
        cfg = SchedulerConfig(max_search_nodes=3)
        s = Scheduler(_hmult_graph(), CROPHE_64, cfg)
        s.schedule()
        assert s.stats["degraded"] == 1.0

    def test_group_cap_respected_by_fallback(self):
        cfg = SchedulerConfig(max_group_size=2, max_search_nodes=3)
        sched = Scheduler(_hmult_graph(), CROPHE_64, cfg).schedule()
        assert sched.degraded
        assert all(len(s.plan.ops) <= 2 for s in sched.steps)


class TestInfeasible:
    def test_impossible_sram_raises_typed_error(self):
        tiny = CROPHE_64.with_sram_mb(0.001)
        with pytest.raises(InfeasibleScheduleError) as exc:
            Scheduler(_hmult_graph(), tiny).schedule()
        err = exc.value
        assert err.operator is not None
        assert err.position is not None and err.position >= 0
        assert "SRAM" in str(err)

    def test_infeasible_is_catchable_as_runtime_error(self):
        tiny = CROPHE_64.with_sram_mb(0.001)
        with pytest.raises(RuntimeError):
            Scheduler(_hmult_graph(), tiny).schedule()
