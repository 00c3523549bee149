"""Metrics registry semantics and snapshot-diff regression verdicts."""

import json
import pathlib

import pytest

from repro.obs.diffing import diff_documents, diff_snapshots
from repro.obs.metrics import MetricsRegistry, is_time_metric


@pytest.fixture()
def registry():
    return MetricsRegistry(enabled=True)


class TestRegistry:
    def test_counter_create_or_get(self, registry):
        registry.counter("sim.steps").inc()
        registry.counter("sim.steps").inc(2)
        snap = registry.snapshot()
        assert snap["sim.steps"] == {"type": "counter", "value": 3}

    def test_gauge_last_write_wins(self, registry):
        registry.gauge("runner.cell_seconds.fig9").set(1.0)
        registry.gauge("runner.cell_seconds.fig9").set(2.5)
        snap = registry.snapshot()
        assert snap["runner.cell_seconds.fig9"]["value"] == 2.5

    def test_histogram_summary(self, registry):
        h = registry.histogram("sched.search_seconds")
        for v in (1.0, 3.0):
            h.observe(v)
        snap = registry.snapshot()["sched.search_seconds"]
        assert snap["count"] == 2
        assert snap["min"] == 1.0
        assert snap["max"] == 3.0
        assert snap["mean"] == 2.0

    def test_type_conflict_is_an_error(self, registry):
        registry.counter("x")
        with pytest.raises(KeyError):
            registry.gauge("x")

    def test_snapshot_name_sorted(self, registry):
        registry.counter("b").inc()
        registry.counter("a").inc()
        assert list(registry.snapshot()) == ["a", "b"]

    def test_time_metric_detection(self):
        assert is_time_metric("sched.search_seconds")
        assert is_time_metric("fig9.wall_seconds")
        assert is_time_metric("runner.cell_seconds.fig9")
        assert not is_time_metric("sim.busy_cycles.dram")


def _snap(**values):
    return {
        name: {"type": "counter", "value": value}
        for name, value in values.items()
    }


class TestDiffVerdicts:
    def test_within_threshold_is_ok(self):
        report = diff_snapshots(_snap(m=100), _snap(m=105), threshold=0.10)
        (delta,) = report.deltas
        assert delta.verdict == "ok"
        assert report.ok

    def test_regressed_beyond_threshold(self):
        report = diff_snapshots(_snap(m=100), _snap(m=125), threshold=0.10)
        (delta,) = report.deltas
        assert delta.verdict == "regressed"
        assert not report.ok
        assert len(report.regressions) == 1

    def test_improved_beyond_threshold(self):
        report = diff_snapshots(_snap(m=100), _snap(m=50), threshold=0.10)
        (delta,) = report.deltas
        assert delta.verdict == "improved"
        assert report.ok

    def test_time_metrics_reported_but_not_gated(self):
        old = _snap(**{"sched.search_seconds": 1.0})
        new = _snap(**{"sched.search_seconds": 10.0})
        report = diff_snapshots(old, new, threshold=0.10)
        (delta,) = report.deltas
        assert delta.verdict == "regressed"
        assert not delta.gated
        assert report.ok  # the gate ignores wall-clock noise

    def test_include_time_gates_wall_clock(self):
        old = _snap(**{"sched.search_seconds": 1.0})
        new = _snap(**{"sched.search_seconds": 10.0})
        report = diff_snapshots(old, new, threshold=0.10, include_time=True)
        assert not report.ok

    def test_added_and_removed_are_informational(self):
        """Only a wall-clock metric is ever "added"; a removed counter
        dropped to 0, which is never worse."""
        old = _snap(old_only=1)
        new = _snap(**{"fig9.wall_seconds": 2.0})
        report = diff_snapshots(old, new)
        verdicts = {d.name: d.verdict for d in report.deltas}
        assert verdicts == {
            "old_only": "removed", "fig9.wall_seconds": "added",
        }
        assert not any(d.gated for d in report.deltas)
        assert report.ok

    def test_counter_missing_from_baseline_is_compared_against_zero(self):
        """The registry creates a counter when it first counts: absent
        from the baseline means 0 there, so its appearance regresses."""
        new = _snap(**{"sched.degraded_fallbacks": 2})
        report = diff_snapshots(_snap(), new)
        (delta,) = report.deltas
        assert delta.verdict == "regressed" and delta.gated
        assert not report.ok
        assert diff_snapshots(_snap(), _snap(zero=0)).ok

    def test_histogram_compares_on_count(self):
        old = {"h": {"type": "histogram", "count": 10, "total": 1.0}}
        new = {"h": {"type": "histogram", "count": 20, "total": 1.0}}
        report = diff_snapshots(old, new)
        (delta,) = report.deltas
        assert delta.old == 10 and delta.new == 20
        assert delta.verdict == "regressed"


class TestDiffDocuments:
    def _bench(self, wall, windows):
        """A runner metrics document: a cell's wall time and a counter."""
        metrics = _snap(**{"sched.windows_explored": windows})
        metrics["runner.cell_seconds.fig9"] = {"type": "gauge", "value": wall}
        return {"version": 1, "kind": "repro-metrics", "metrics": metrics}

    def test_bench_self_diff_is_clean(self):
        doc = self._bench(10.0, 500)
        report = diff_documents(doc, doc)
        assert report.ok
        assert all(d.verdict == "ok" for d in report.deltas)

    def test_bench_counter_regression_fails_gate(self):
        report = diff_documents(self._bench(10.0, 500), self._bench(10.0, 700))
        assert not report.ok
        (bad,) = report.regressions
        assert bad.name == "sched.windows_explored"

    def test_bench_wall_time_not_gated(self):
        report = diff_documents(self._bench(10.0, 500), self._bench(30.0, 500))
        assert report.ok
        wall = next(
            d for d in report.deltas if d.name == "runner.cell_seconds.fig9"
        )
        assert wall.verdict == "regressed" and not wall.gated

    def test_metrics_document_kind(self):
        old = {"version": 1, "kind": "repro-metrics", "metrics": _snap(m=10)}
        new = {"version": 1, "kind": "repro-metrics", "metrics": _snap(m=100)}
        assert not diff_documents(old, new).ok

    def test_report_to_dict_round_trips_json(self):
        report = diff_documents(self._bench(1.0, 10), self._bench(1.0, 100))
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["ok"] is False
        assert payload["regressions"] == 1


class TestQuickBaseline:
    """The committed per-cell counter baseline CI gates the cold pass on."""

    BASELINE = pathlib.Path(__file__).resolve().parents[2] / "BENCH_quick"

    def test_one_metrics_document_per_cell(self):
        from repro.experiments.runner import EXPERIMENTS

        files = sorted(p.name for p in self.BASELINE.iterdir())
        assert files == sorted(f"{cell}.metrics.json" for cell in EXPERIMENTS)
        for name in files:
            doc = json.loads((self.BASELINE / name).read_text())
            assert doc["kind"] == "repro-metrics", name
            assert isinstance(doc["metrics"], dict), name
