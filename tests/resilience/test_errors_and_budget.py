"""The exception hierarchy and search budgets."""

import pytest

from repro.resilience.budget import BudgetMeter, SearchBudget
from repro.resilience.errors import (
    ConfigError,
    InfeasibleScheduleError,
    ReproError,
    SearchBudgetExceeded,
    SimulationError,
)


class TestHierarchy:
    def test_all_subclass_repro_error(self):
        for exc in (
            ConfigError("f", 1, "bad"),
            InfeasibleScheduleError("no cover"),
            SearchBudgetExceeded(1.0, 10, None, 5),
            SimulationError("boom"),
        ):
            assert isinstance(exc, ReproError)

    def test_config_error_is_value_error(self):
        # Pre-existing callers catch ValueError; keep them working.
        assert isinstance(ConfigError("f", 1, "bad"), ValueError)

    def test_infeasible_is_runtime_error(self):
        assert isinstance(InfeasibleScheduleError("x"), RuntimeError)

    def test_config_error_names_field(self):
        exc = ConfigError("sram_capacity_mb", -1, "must be positive")
        assert exc.field == "sram_capacity_mb"
        assert exc.value == -1
        assert "sram_capacity_mb" in str(exc)

    def test_infeasible_payload(self):
        exc = InfeasibleScheduleError(
            "no cover", operator="ntt.3", position=7,
            partial_steps=2, detail="buffer 10B > SRAM 5B",
        )
        assert exc.operator == "ntt.3"
        assert exc.position == 7
        assert exc.partial_steps == 2
        assert "ntt.3" in str(exc) and "buffer" in str(exc)

    def test_budget_exceeded_payload(self):
        exc = SearchBudgetExceeded(2.5, 100, 2.0, None, frontier=12)
        assert exc.nodes_explored == 100
        assert exc.frontier == 12
        assert "position 12" in str(exc)


class TestBudget:
    def test_rejects_nonpositive_limits(self):
        with pytest.raises(ConfigError):
            SearchBudget(max_seconds=0)
        with pytest.raises(ConfigError):
            SearchBudget(max_nodes=-5)

    def test_unlimited(self):
        assert SearchBudget().unlimited
        assert not SearchBudget(max_nodes=1).unlimited

    def test_node_budget_trips(self):
        meter = BudgetMeter(SearchBudget(max_nodes=3))
        for _ in range(3):
            meter.charge()
        assert not meter.exceeded
        meter.charge()
        assert meter.exceeded

    def test_unlimited_never_trips(self):
        meter = BudgetMeter(SearchBudget())
        meter.charge(10_000)
        assert not meter.exceeded

    def test_wall_clock_trips_between_charges(self):
        meter = BudgetMeter(SearchBudget(max_seconds=1e-9))
        # Poll without charging: the property re-reads the clock.
        assert meter.exceeded

    def test_describe_mentions_spend(self):
        meter = BudgetMeter(SearchBudget(max_nodes=5))
        meter.charge(2)
        assert "2/5 nodes" in meter.describe()
