"""Crash isolation, the resumable artifact, and runner exit codes."""

import json
import os
import time

import pytest

from repro.resilience.isolation import (
    CellStatus,
    RunArtifact,
    classify_error,
    run_isolated,
)
from repro.resilience.errors import (
    ConfigError,
    InfeasibleScheduleError,
    SearchBudgetExceeded,
    SimulationError,
)
from repro.experiments import runner


# --- helpers run in forked subprocesses: keep them module-level -------

def _ok_cell():
    return "fine"


def _sleepy_cell():
    time.sleep(30.0)
    return "never"


def _crashing_cell():
    os._exit(9)


def _raising_cell():
    raise SimulationError("deliberate failure", group_index=2)


def _failing_table1(quick=False):
    raise SimulationError("cell 'table1' forced to fail")


def _stalled_table1(quick=False):
    # Stalls inside an open span, the state a runaway search is in when
    # --timeout kills it.
    from repro import obs

    with obs.span("test.stalled_cell", cell="table1"):
        time.sleep(30.0)


def _flaky_cell(marker):
    # Fails on the first attempt, succeeds once the marker file exists.
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("seen")
        raise RuntimeError("transient wobble")
    return "recovered"


class TestClassify:
    def test_kinds(self):
        assert classify_error(ConfigError("f", 1, "m")) == "config"
        assert classify_error(SearchBudgetExceeded(1.0, 1, 1.0, 1)) == "budget"
        assert classify_error(InfeasibleScheduleError("x")) == "infeasible"
        assert classify_error(SimulationError("x")) == "simulation"
        assert classify_error(KeyError("x")) == "error"


class TestRunIsolated:
    def test_ok(self):
        status = run_isolated("ok", _ok_cell, retries=0)
        assert status.status == "ok"
        assert status.output == "fine"
        assert status.attempts == 1

    def test_timeout_is_retried_then_reported(self):
        status = run_isolated("slow", _sleepy_cell, timeout=0.5, retries=1)
        assert status.status == "timeout"
        assert status.attempts == 2
        assert "wall-clock" in status.error
        assert not status.ok

    def test_crash_does_not_kill_the_caller(self):
        status = run_isolated("boom", _crashing_cell, retries=0)
        assert status.status == "failed"
        assert status.error_kind == "crash"
        assert "exit code 9" in status.error

    def test_structured_failure_not_retried(self):
        status = run_isolated("sim", _raising_cell, retries=3)
        assert status.status == "failed"
        assert status.error_kind == "simulation"
        assert status.attempts == 1  # deterministic: no retry

    def test_transient_failure_retried_and_recovers(self, tmp_path):
        marker = str(tmp_path / "marker")
        status = run_isolated(
            "flaky", _flaky_cell, args=(marker,), retries=1
        )
        assert status.status == "ok"
        assert status.attempts == 2
        assert status.output == "recovered"


class TestArtifact:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "run.json")
        art = RunArtifact(path=path)
        art.record(CellStatus(name="a", status="ok", output="hello",
                              attempts=1, seconds=0.5))
        art.record(CellStatus(name="b", status="failed",
                              error_kind="budget", error="too slow"))
        loaded = RunArtifact.load(path)
        assert loaded.completed("a")
        assert not loaded.completed("b")
        assert loaded.cells["a"].output == "hello"
        assert loaded.cells["b"].error_kind == "budget"

    def test_corrupt_artifact_tolerated(self, tmp_path):
        path = str(tmp_path / "run.json")
        with open(path, "w") as fh:
            fh.write("not json at all")
        loaded = RunArtifact.load(path)
        assert loaded.cells == {}

    def test_save_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "run.json")
        RunArtifact(path=path).save()
        assert [p for p in os.listdir(tmp_path)] == ["run.json"]


class TestExitCodes:
    def _failed(self, kind):
        return CellStatus(name=kind, status="failed", error_kind=kind)

    def test_all_ok(self):
        assert runner._exit_code(
            [CellStatus(name="a", status="ok")]
        ) == runner.EXIT_OK

    def test_priority_config_over_simulation(self):
        statuses = [self._failed("simulation"), self._failed("config")]
        assert runner._exit_code(statuses) == runner.EXIT_CONFIG

    @pytest.mark.parametrize(
        "kind, code",
        [
            ("config", runner.EXIT_CONFIG),
            ("budget", runner.EXIT_BUDGET),
            ("simulation", runner.EXIT_SIMULATION),
            ("error", runner.EXIT_OTHER),
            ("crash", runner.EXIT_OTHER),
        ],
    )
    def test_mapping(self, kind, code):
        assert runner._exit_code([self._failed(kind)]) == code

    def test_skipped_counts_as_ok(self):
        assert runner._exit_code(
            [CellStatus(name="a", status="skipped")]
        ) == runner.EXIT_OK


class TestMain:
    """End-to-end through ``main()`` on the cheap table cells."""

    def test_forced_failure_yields_simulation_exit(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setitem(runner.EXPERIMENTS, "table1", _failing_table1)
        path = str(tmp_path / "art.json")
        code = runner.main(["table1", "--artifact", path])
        assert code == runner.EXIT_SIMULATION
        out = capsys.readouterr()
        assert "run report" in out.out
        assert "forced to fail" in out.err
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["cells"]["table1"]["status"] == "failed"
        assert payload["cells"]["table1"]["error_kind"] == "simulation"

    def test_resume_reruns_failed_then_skips_ok(
        self, tmp_path, monkeypatch, capsys
    ):
        path = str(tmp_path / "art.json")
        monkeypatch.setitem(runner.EXPERIMENTS, "table1", _failing_table1)
        assert runner.main(["table1", "--artifact", path]) != 0
        monkeypatch.undo()
        # Failed cells are re-run under --resume...
        assert runner.main(
            ["table1", "--artifact", path, "--resume"]
        ) == runner.EXIT_OK
        # ...and completed cells are skipped.
        code = runner.main(["table1", "--artifact", path, "--resume"])
        assert code == runner.EXIT_OK
        assert "skipped" in capsys.readouterr().out

    def test_no_isolation_path(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(runner.EXPERIMENTS, "table1", _failing_table1)
        path = str(tmp_path / "art.json")
        code = runner.main(
            ["table1", "--artifact", path, "--no-isolation"]
        )
        assert code == runner.EXIT_SIMULATION

    def test_ok_run_records_output(self, tmp_path, capsys):
        path = str(tmp_path / "art.json")
        code = runner.main(["table1", "--artifact", path])
        assert code == runner.EXIT_OK
        loaded = RunArtifact.load(path)
        assert loaded.completed("table1")
        assert loaded.cells["table1"].output.strip()


class TestTimeoutTelemetryFlush:
    """Satellite contract: a cell killed by ``--timeout`` still leaves
    well-formed span artifacts — open spans are force-closed on the
    SIGTERM grace path and tagged ``interrupted``."""

    def _spans_of(self, trace_dir):
        with open(os.path.join(trace_dir, "table1.spans.json")) as fh:
            return json.load(fh)  # must parse: well-formed or bust

    def test_timed_out_cell_flushes_spans(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setitem(runner.EXPERIMENTS, "table1", _stalled_table1)
        trace_dir = str(tmp_path / "traces")
        code = runner.main([
            "table1", "--artifact", str(tmp_path / "art.json"),
            "--timeout", "1.5", "--retries", "0",
            "--trace-dir", trace_dir,
        ])
        assert code == runner.EXIT_OTHER  # the cell timed out

        doc = self._spans_of(trace_dir)
        rendered = json.dumps(doc)
        # The stalled span was open when SIGTERM arrived: it must be
        # present, closed, and tagged as interrupted.
        assert "test.stalled_cell" in rendered
        assert '"interrupted": true' in rendered

        # The Perfetto export from the dying cell parses too.
        with open(
            os.path.join(trace_dir, "table1.spans.perfetto.json")
        ) as fh:
            perfetto = json.load(fh)
        assert perfetto["traceEvents"]

    def test_healthy_cell_spans_not_interrupted(
        self, tmp_path, capsys
    ):
        trace_dir = str(tmp_path / "traces")
        code = runner.main([
            "table1", "--artifact", str(tmp_path / "art.json"),
            "--trace-dir", trace_dir,
        ])
        assert code == runner.EXIT_OK
        rendered = json.dumps(self._spans_of(trace_dir))
        assert '"interrupted": true' not in rendered
