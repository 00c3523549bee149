"""Tests for the ``python -m repro.passes`` CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.passes.pipeline as pipeline_mod
from repro.analysis.diagnostics import EXIT_VERIFY
from repro.fhe.params import PARAMETER_SETS
from repro.passes.__main__ import main


@pytest.fixture(autouse=True)
def _small_parameter_set(monkeypatch, deep_params):
    """Expose the quick test params under a CLI-addressable name."""
    monkeypatch.setitem(PARAMETER_SETS, "TESTSMALL", deep_params)


def _argv(command, *extra):
    return [command, "bootstrapping", "--params", "TESTSMALL", *extra]


class TestDump:
    def test_primitive_level_keeps_coarse_ops(self, capsys):
        assert main(_argv("dump", "--level", "primitive")) == 0
        out = capsys.readouterr().out
        assert "@ primitive" in out
        assert "key_switch" in out

    def test_decomposed_level_is_expanded(self, capsys):
        assert main(_argv("dump", "--level", "decomposed")) == 0
        out = capsys.readouterr().out
        assert "@ decomposed" in out
        assert "key_switch" not in out
        assert "bconv" in out

    def test_failing_lowering_exits_verify(self, monkeypatch, capsys):
        # A walk that copies its input, so coarse operators survive and
        # the enforced P001 postcondition fails the lowering.
        monkeypatch.setattr(
            pipeline_mod, "lower_primitives",
            lambda graph, params, split: graph.clone(),
        )
        assert main(_argv("dump", "--level", "decomposed")) == EXIT_VERIFY
        err = capsys.readouterr().err
        assert err.startswith("error: bootstrapping/mod_raise: ")
        assert "[P001]" in err
        assert len(err.splitlines()) == 1


class TestVerify:
    @pytest.mark.parametrize("command", ["dump"])
    @pytest.mark.parametrize(
        "flag,value,expected",
        [
            ("--params", "NOPE", "TESTSMALL"),
            ("--strategy", "bogus", "'plain', 'min-ks', 'hoisting', 'hybrid'"),
            ("--r-hyb", "0", "--r-hyb must be >= 1"),
        ],
        ids=["params", "strategy", "r-hyb"],
    )
    def test_bad_build_flag_is_usage_error(
        self, command, flag, value, expected, capsys
    ):
        argv = [command, "bootstrapping", "--params", "TESTSMALL"]
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 2
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["dump"])
    def test_unknown_workload_is_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "bogus", "--params", "TESTSMALL"])
        assert exc.value.code == 2
        assert "choose from bootstrapping" in capsys.readouterr().err


class TestDiffArtifacts:
    """``diff-artifacts``: the byte-identity check between two commits."""

    CELLS = {
        "fig9": {"status": "ok", "output": {"speedup": 2.03}, "seconds": 5.6},
        "table1": {"status": "ok", "output": [["ARK", 1]], "seconds": 0.0},
    }

    def _write(self, tmp_path, name, cells):
        path = tmp_path / name
        path.write_text(json.dumps({"cells": cells}))
        return str(path)

    def _diff(self, tmp_path, candidate):
        baseline = self._write(tmp_path, "parent.json", self.CELLS)
        changed = self._write(tmp_path, "change.json", candidate)
        return main(["diff-artifacts", baseline, changed])

    def _copy(self):
        return json.loads(json.dumps(self.CELLS))

    def test_identical_artifacts_pass(self, tmp_path, capsys):
        cells = self._copy()
        cells["fig9"]["seconds"] = 7.1  # wall time is not compared
        assert self._diff(tmp_path, cells) == 0
        assert "2 cell(s), 0 divergence(s)" in capsys.readouterr().out

    def test_output_difference_names_the_cell(self, tmp_path, capsys):
        cells = self._copy()
        cells["fig9"]["output"]["speedup"] = 2.04
        assert self._diff(tmp_path, cells) == EXIT_VERIFY
        out = capsys.readouterr().out
        assert "fig9: DIVERGED" in out
        assert "table1" not in out
        assert "1 divergence(s)" in out

    def test_status_difference_fails(self, tmp_path, capsys):
        cells = self._copy()
        cells["table1"]["status"] = "failed"
        assert self._diff(tmp_path, cells) == EXIT_VERIFY
        assert "table1: DIVERGED" in capsys.readouterr().out

    def test_different_cell_sets_fail(self, tmp_path, capsys):
        cells = self._copy()
        del cells["table1"]
        cells["fig10"] = cells["fig9"]
        assert self._diff(tmp_path, cells) == EXIT_VERIFY
        out = capsys.readouterr().out
        assert "cell sets diverge" in out
        assert "only-baseline=['table1']" in out
        assert "only-candidate=['fig10']" in out


def test_dump_into_a_closed_pipe_exits_without_traceback():
    """``dump ... | head -1``: the reader closes the pipe after one line
    while the dump (about 500 kB, far beyond a pipe buffer) still
    writes, so the write fails with EPIPE."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.passes", "dump", "bootstrapping",
         "--level", "decomposed"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b"== bootstrapping/")
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in stderr
    assert "BrokenPipeError" not in stderr


def test_exit_verify_is_distinct():
    assert EXIT_VERIFY == 5
