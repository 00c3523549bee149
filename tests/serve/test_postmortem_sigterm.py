"""Killing a run mid-chaos still yields a parseable postmortem.

The CLI installs a SIGTERM handler that aborts the run — the event
loop, or the report and output writes after it — snapshots the
flight-recorder rings at the last simulated instant, and exits
``EXIT_INTERRUPTED``: a chaos run that dies still explains itself.
The subprocess tests (signals from outside need one) wait for the
``serve: running`` stderr line the CLI prints once the handler is
armed, so the kill never races interpreter start or load generation.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import obs
from repro.serve import __main__ as cli

SRC = Path(__file__).resolve().parents[2] / "src"
EXIT_INTERRUPTED = 3


def _spawn(tmp_path, out_name="postmortem.json"):
    out = tmp_path / out_name
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve", "run",
            "--requests", "60000", "--horizon", "20",
            "--faults", "aggressive", "--seed", "3",
            "--postmortem-out", str(out),
        ],
        env=env, cwd=str(tmp_path),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    banner = proc.stderr.readline()
    assert banner.startswith("serve: running 60000 requests"), banner
    return proc, out


@pytest.mark.slow
class TestSigtermPostmortem:
    def test_sigterm_mid_run_writes_parseable_postmortem(self, tmp_path):
        proc, out = _spawn(tmp_path)
        proc.send_signal(signal.SIGTERM)
        _, stderr = proc.communicate(timeout=60)
        assert proc.returncode == EXIT_INTERRUPTED, stderr
        assert "interrupted at t=" in stderr
        assert "Traceback" not in stderr

        doc = json.loads(out.read_text())
        assert doc["kind"] == "repro-postmortem"
        assert doc["context"]["interrupted"] is True
        assert doc["postmortems"][-1]["reason"] == "sigterm"

    def test_ring_contents_are_in_event_order(self, tmp_path):
        proc, out = _spawn(tmp_path)
        # Past the arrival priming (about 0.1 s for 60k requests) and
        # well short of the run's end (over 1.5 s of loop and summary).
        time.sleep(0.5)
        proc.send_signal(signal.SIGTERM)
        _, stderr = proc.communicate(timeout=60)
        assert proc.returncode == EXIT_INTERRUPTED, stderr
        doc = json.loads(out.read_text())
        rings = doc["postmortems"][-1]["rings"]
        assert rings, "a mid-chaos kill should have recorded events"
        for ring in rings.values():
            seqs = [e["seq"] for e in ring]
            assert seqs == sorted(seqs)
            assert all(e["kind"] for e in ring)


class TestSigtermAfterTheLoop:
    @pytest.fixture(autouse=True)
    def _telemetry_scope(self):
        yield
        obs.disable()
        obs.reset()

    def test_sigterm_in_report_still_writes_the_postmortem(
        self, tmp_path, monkeypatch
    ):
        """A kill after the event loop is interrupted, not a traceback."""

        def report(doc):
            os.kill(os.getpid(), signal.SIGTERM)
            time.sleep(5)  # the handler raises before this returns
            raise AssertionError("SIGTERM was not delivered")

        monkeypatch.setattr(cli, "_report", report)
        before = signal.getsignal(signal.SIGTERM)
        summary = tmp_path / "summary.json"
        postmortem = tmp_path / "postmortem.json"
        code = cli.main([
            "run", "--quick", "--faults", "aggressive", "--seed", "3",
            "--summary-json", str(summary),
            "--postmortem-out", str(postmortem),
        ])
        assert code == EXIT_INTERRUPTED
        assert signal.getsignal(signal.SIGTERM) == before
        assert not summary.exists()
        doc = json.loads(postmortem.read_text())
        assert doc["context"]["interrupted"] is True
        last = doc["postmortems"][-1]
        assert last["reason"] == "sigterm"
        assert last["rings"], "the whole run was recorded"
