"""The ``python -m repro.serve`` entry point."""

import hashlib
import json

import pytest

from repro import obs
from repro.obs.metrics import REGISTRY
from repro.serve.__main__ import EXIT_OK, main


@pytest.fixture(autouse=True)
def _telemetry_scope():
    """The CLI enables global telemetry; leave it as we found it."""
    yield
    obs.disable()
    obs.reset()


class TestRun:
    def test_quick_chaos_run_exits_ok(self, tmp_path, capsys):
        summary = tmp_path / "summary.json"
        metrics = tmp_path / "metrics.json"
        code = main([
            "run", "--quick", "--faults", "quick", "--seed", "7",
            "--summary-json", str(summary),
            "--metrics-json", str(metrics),
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "0 lost" in out
        assert "p95=" in out

        doc = json.loads(summary.read_text())
        assert doc["totals"]["lost"] == 0
        assert doc["totals"]["requests"] == 200
        assert doc["recovery"]["retries"] > 0

        snap = json.loads(metrics.read_text())
        assert snap["serve.requests"]["value"] == 200
        assert snap["serve.retries"]["value"] > 0

    def test_same_seed_byte_identical_summaries(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            REGISTRY.reset()
            assert main([
                "run", "--quick", "--faults", "aggressive",
                "--seed", "3", "--summary-json", str(path),
            ]) == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_quick_aggressive_summary_bytes_are_pinned(self, tmp_path):
        """The summary every serve change must leave byte-identical
        (recorded before the one-pass summary and the renderer)."""
        path = tmp_path / "summary.json"
        assert main([
            "run", "--quick", "--faults", "aggressive", "--seed", "3",
            "--summary-json", str(path),
        ]) == EXIT_OK
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "20fb0a89090b49b79695b89230ef8a6dc8edd4330b7d1b5289825c082ecccb67"
        )

    def test_no_hedge_flag_disables_hedging(self, tmp_path):
        path = tmp_path / "s.json"
        assert main([
            "run", "--quick", "--faults", "quick", "--seed", "7",
            "--no-hedge", "--summary-json", str(path),
        ]) == EXIT_OK
        doc = json.loads(path.read_text())
        assert doc["policies"]["hedge"]["enabled"] is False
        assert doc["recovery"]["hedges"] == 0

    def test_clean_run_postmortem_ends_with_end_of_run(self, tmp_path):
        path = tmp_path / "pm.json"
        assert main([
            "run", "--quick", "--faults", "none",
            "--postmortem-out", str(path),
        ]) == EXIT_OK
        doc = json.loads(path.read_text())
        assert doc["kind"] == "repro-postmortem"
        assert doc["postmortems"][-1]["reason"] == "end-of-run"


class TestPlan:
    def test_plan_prints_schedule(self, capsys):
        assert main([
            "plan", "--faults", "quick", "--seed", "7",
        ]) == EXIT_OK
        out = capsys.readouterr().out
        assert "crash" in out
        assert "straggler" in out

    def test_empty_plan(self, capsys):
        assert main(["plan", "--faults", "none"]) == EXIT_OK
        assert "(empty plan)" in capsys.readouterr().out
