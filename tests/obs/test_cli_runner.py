"""The ``python -m repro.obs`` CLI and the runner's telemetry flags."""

import json
import os

import pytest

from repro.obs.__main__ import main as obs_main


def _metrics_doc(wall, windows):
    """A metrics document: one wall-clock gauge and one counter."""
    return {
        "version": 1,
        "kind": "repro-metrics",
        "metrics": {
            "runner.cell_seconds.table1": {"type": "gauge", "value": wall},
            "sched.windows_explored": {"type": "counter", "value": windows},
        },
    }


def _write_doc(document, path):
    with open(path, "w") as handle:
        json.dump(document, handle)


class TestDiffCommand:
    def test_self_diff_exits_zero(self, tmp_path, capsys):
        path = os.path.join(tmp_path, "b.json")
        _write_doc(_metrics_doc(1.0, 100), path)
        assert obs_main(["diff", path, path]) == 0
        assert "no gated regressions" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        old = os.path.join(tmp_path, "old.json")
        new = os.path.join(tmp_path, "new.json")
        _write_doc(_metrics_doc(1.0, 100), old)
        _write_doc(_metrics_doc(1.0, 200), new)
        assert obs_main(["diff", old, new]) == 1
        captured = capsys.readouterr()
        assert "regressed" in captured.out
        assert "FAIL" in captured.err

    def test_wall_time_regression_passes_without_include_time(
        self, tmp_path
    ):
        old = os.path.join(tmp_path, "old.json")
        new = os.path.join(tmp_path, "new.json")
        _write_doc(_metrics_doc(1.0, 100), old)
        _write_doc(_metrics_doc(50.0, 100), new)
        assert obs_main(["diff", old, new]) == 0
        assert obs_main(["diff", old, new, "--include-time"]) == 1

    def test_json_output(self, tmp_path, capsys):
        path = os.path.join(tmp_path, "b.json")
        _write_doc(_metrics_doc(1.0, 100), path)
        assert obs_main(["diff", path, path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True


class TestSummarize:
    def test_bench_document(self, tmp_path, capsys):
        path = os.path.join(tmp_path, "b.json")
        _write_doc(_metrics_doc(2.5, 100), path)
        assert obs_main(["summarize", path]) == 0
        out = capsys.readouterr().out
        assert "runner.cell_seconds.table1" in out
        assert "sched.windows_explored" in out

    def test_jsonl_trace_gives_attribution(self, tmp_path, capsys):
        from repro.sim.trace import EventKind, TraceEvent, dump_trace

        path = os.path.join(tmp_path, "t.jsonl")
        dump_trace(
            [TraceEvent(EventKind.OP_EXECUTE, 0, "op", cycles=10)], path
        )
        assert obs_main(["summarize", path]) == 0
        assert "limiter" in capsys.readouterr().out


class TestBadInput:
    """Bad input is one ``error:`` line and exit 2, never a traceback."""

    @pytest.mark.parametrize("suffix", [".json", ".jsonl"])
    @pytest.mark.parametrize(
        "case", ["missing", "directory", "malformed", "list"]
    )
    @pytest.mark.parametrize("command", ["diff", "summarize"])
    def test_bad_document_exits_2(
        self, command, case, suffix, tmp_path, capsys
    ):
        # summarize reads a .jsonl path as a simulator trace.
        path = os.path.join(tmp_path, "doc" + suffix)
        if case == "directory":
            os.mkdir(path)
        elif case == "malformed":
            with open(path, "w") as f:
                f.write("{nope\n")
        elif case == "list":
            _write_doc([1, 2], path)
        argv = [command, path] + ([path] if command == "diff" else [])
        assert obs_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and path in err
        assert "Traceback" not in err

    def test_r_hyb_below_one_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            obs_main(["trace", "--r-hyb", "0", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "--r-hyb" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


class TestTraceCommand:
    @pytest.mark.parametrize("design", ["crophe", "baseline", "mad"])
    def test_trace_each_design(self, design, tmp_path, capsys):
        out_dir = str(tmp_path)
        assert obs_main([
            "trace", "--workload", "bootstrapping", "--design", design,
            "--out-dir", out_dir,
        ]) == 0
        out = capsys.readouterr().out
        assert "ms simulated" in out
        written = os.listdir(out_dir)
        assert any(name.endswith(".spans.perfetto.json") for name in written)
        assert any(name.endswith(".trace.jsonl") for name in written)
        if design == "mad":
            # MAD's "auto" rotation strategy traces the variant that
            # evaluate_workload keeps.
            from repro.baselines.accelerators import baseline_config
            from repro.experiments.common import DesignPoint, evaluate_workload
            from repro.fhe.params import parameter_set

            kept = evaluate_workload(
                DesignPoint("SHARP+MAD", baseline_config("SHARP"),
                            dataflow="mad"),
                "bootstrapping", parameter_set("SHARP"),
            )
            assert (
                f"{kept.ms:.3f} ms simulated, {kept.num_groups} group(s)"
                in out
            )


class TestRunnerFlags:
    def test_trace_dir_and_metrics_json(self, tmp_path):
        from repro.experiments.runner import main as runner_main

        trace_dir = os.path.join(tmp_path, "traces")
        metrics = os.path.join(tmp_path, "runner_metrics.json")
        artifact = os.path.join(tmp_path, "artifact.json")
        code = runner_main([
            "table2", "--no-isolation",
            "--trace-dir", trace_dir,
            "--metrics-json", metrics,
            "--artifact", artifact,
        ])
        assert code == 0
        written = os.listdir(trace_dir)
        assert "table2.metrics.json" in written
        assert "table2.spans.json" in written
        assert "table2.spans.perfetto.json" in written
        with open(metrics) as f:
            doc = json.load(f)
        assert doc["kind"] == "repro-metrics"
        assert "runner.cell_seconds.table2" in doc["metrics"]
        assert doc["metrics"]["runner.exit.ok"]["value"] == 1

    def test_trace_dir_written_for_failing_cell(self, tmp_path, monkeypatch):
        from repro.experiments import runner
        from repro.experiments.runner import main as runner_main
        from repro.resilience.errors import SimulationError

        def failing_table3(quick=False):
            raise SimulationError("cell 'table3' forced to fail")

        monkeypatch.setitem(runner.EXPERIMENTS, "table3", failing_table3)
        trace_dir = os.path.join(tmp_path, "traces")
        metrics = os.path.join(tmp_path, "m.json")
        code = runner_main([
            "table3", "--no-isolation",
            "--trace-dir", trace_dir,
            "--metrics-json", metrics,
            "--artifact", os.path.join(tmp_path, "a.json"),
        ])
        assert code == 4  # simulation-class failure
        assert "table3.metrics.json" in os.listdir(trace_dir)
        with open(metrics) as f:
            doc = json.load(f)
        assert doc["metrics"]["runner.exit.failed"]["value"] == 1
