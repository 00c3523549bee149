"""Self-tests of the benchmark (about two minutes)::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench  # noqa: E402
import layers  # noqa: E402
import report  # noqa: E402


def _reference():
    with open(bench.REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _cli(*args, cwd=bench.ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _boot_run(reference, workload="boot-cold"):
    sample = {"results": copy.deepcopy(reference["boot"]), "errors": {},
              "counts": {"sched.searches": 156, "mad.searches": 32},
              "disk_cache": False}
    return {"workload": workload, "samples": [sample]}


# -- correctness against the committed reference -----------------------------


def test_reference_outputs_pass():
    ref = _reference()
    assert bench.check_run(_boot_run(ref), ref)["failed"] == 0


@pytest.mark.parametrize("field", ["seconds", "dram_read_bytes", "groups"])
def test_perturbed_reference_value_is_a_failed_operation(field):
    ref = _reference()
    run = _boot_run(ref)
    perturbed = copy.deepcopy(ref)
    value = perturbed["boot"]["CROPHE-36"][field]
    perturbed["boot"]["CROPHE-36"][field] = (
        math.nextafter(value, math.inf) if isinstance(value, float) else value + 1
    )
    out = bench.check_run(run, perturbed)
    assert out["attempted"] == 4
    assert out["failed"] == 1
    assert "CROPHE-36" in out["problems"][0] and field in out["problems"][0]


def test_raised_or_degraded_evaluations_fail():
    ref = _reference()
    run = _boot_run(ref)
    sample = run["samples"][0]
    sample["results"]["SHARP+MAD"]["degraded"] = True
    del sample["results"]["CROPHE-p-36"]
    sample["errors"]["CROPHE-p-36"] = "Traceback ..."
    assert bench.check_run(run, ref)["failed"] == 2


@pytest.mark.parametrize("populated", [True, False])
@pytest.mark.parametrize("broken", ["perturbed", "raised"])
def test_replay_must_equal_its_own_cold_run(populated, broken):
    ref = _reference()
    run = _boot_run(ref, "boot-replay")
    pop = run["populate"] = copy.deepcopy(run["samples"][0])
    if broken == "perturbed":
        pop["results"]["CROPHE-36"]["seconds"] *= 1 + 1e-15
    else:
        del pop["results"]["CROPHE-36"]
        pop["errors"]["CROPHE-36"] = "Traceback ..."
    run["populated"] = populated
    out = bench.check_run(run, ref)
    # The replay is off its own cold run; the cold run, checked by the run
    # that made it, is off the reference.
    assert out["attempted"] == (8 if populated else 4)
    assert out["failed"] == (2 if populated else 1)


class _FakeRunner:
    """A populate that writes one schedule and returns ``results``."""

    def __init__(self, results):
        self.results = results
        self.populates = 0

    def timed(self, workload, phase, cache_dir):
        self.populates += 1
        os.makedirs(os.path.join(cache_dir, "schedule"))
        with open(os.path.join(cache_dir, "schedule", "s.json"), "w") as fh:
            fh.write("{}")
        return {"results": copy.deepcopy(self.results), "errors": {}}


def test_replay_cache_keeps_the_last_two_source_trees(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "STATE_DIR", str(tmp_path))
    runner = _FakeRunner(_reference()["boot"])
    for key in ("a", "b", "a", "c"):
        monkeypatch.setattr(bench, "_source_key", lambda k=key: k)
        _, populate, _ = bench.replay_cache(runner)
        assert populate["schedules_cached"] == 1
        time.sleep(0.05)  # distinct directory mtimes
    assert runner.populates == 3  # back on "a", its cache was reused
    assert sorted(os.listdir(tmp_path)) == ["replay-cache-a", "replay-cache-c"]


def test_replay_cache_does_not_keep_a_failed_populate(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "STATE_DIR", str(tmp_path))
    boot = _reference()["boot"]
    runner = _FakeRunner({k: v for k, v in boot.items() if k != "CROPHE-36"})
    for _ in range(2):
        root, _, populated = bench.replay_cache(runner)
        assert populated and root.endswith(".partial")
    assert runner.populates == 2


def test_serve_losses_and_summary_mismatch_fail():
    ref = _reference()
    serve = {"sha256": ref["serve"]["sha256"],
             "totals": {"requests": 10, "shed": 0, "failed": 0, "lost": 0}}
    assert bench.check_serve(serve, ref["serve"], [], "s") == 0
    serve["totals"]["shed"] = 2
    serve["sha256"] = "0" * 64
    assert bench.check_serve(serve, ref["serve"], [], "s") == 3


# -- shape guards -------------------------------------------------------------


def test_shape_guards_accept_a_cold_search():
    assert bench.shape_violations(_boot_run(_reference())) == []


def test_shape_guards_trip_on_counts_of_a_warm_cache():
    run = _boot_run(_reference())
    run["samples"][0].update(
        counts={"sched.searches": 0, "mad.searches": 0, "sched.replays": 188},
        disk_cache=True,
    )
    violations = bench.shape_violations(run)
    assert any("disk cache" in v for v in violations)
    assert any("0 searches" in v for v in violations)


@pytest.mark.slow
def test_shape_guards_trip_when_boot_cold_is_pointed_at_a_warm_cache():
    runner = bench.Runner(seed=5, deadline=time.monotonic() + 170)
    try:
        warm, _, _ = bench.replay_cache(runner)
        sample = runner.spawn("boot-cold", cache_dir=warm)
    finally:
        runner.close()
    assert sample["counts"].get("sched.searches", 0) == 0
    run = {"workload": "boot-cold", "samples": [sample]}
    violations = bench.shape_violations(run)
    assert any("disk cache" in v for v in violations)
    assert any("0 searches" in v for v in violations)


# -- the printed result line ----------------------------------------------------


@pytest.fixture(scope="module")
def serve_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench") / "runs.json"
    lines = {}
    for trace in ("0", "1"):
        proc = _cli("--workload", "serve-chaos", "--seed", "7", "--seconds", "1",
                    "--trace", trace, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        lines[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(out, encoding="utf-8") as fh:
        return lines, json.load(fh)["runs"]


def test_printed_metric_names_equal_the_declared_ones(serve_runs):
    lines, _ = serve_runs
    spec = bench.declared()
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        line = lines[trace]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert list(line["metrics"]) == sorted(m["name"] for m in spec[section])
        for m in spec[section]:
            assert line["metrics"][m["name"]]["unit"] == m["unit"]


def test_traced_self_times_sum_to_the_traced_wall(serve_runs):
    _, runs = serve_runs
    traced = next(r for r in runs if r["trace"])
    layer = traced["per_layer"]
    wall = traced["traced"]["trace_wall_s"]
    assert sum(layer[m] for m in layers.PARTITION) == pytest.approx(wall, rel=1e-9)
    assert layer["serve.run_s"] > 0 and layer["obs.metric_calls"] > 0
    assert layer["sched.searches"] == layer["passes.lowerings"] == 0


def test_self_times_partition_nested_spans_and_hot_calls():
    tracer = layers.Tracer()
    root = tracer.open("bench.timed")
    outer = tracer.open("sched.search")
    inner = tracer.open("analysis.sched_gate")
    time.sleep(0.01)
    tracer.close(inner)
    tracer.add_hot("obs.metric_s", 0.002)
    tracer.close(outer)
    tracer.close(root)
    totals = tracer.self_times(root)
    assert sum(totals.values()) == pytest.approx(tracer.spans[root].duration)
    assert totals["analysis.sched_gate_s"] >= 0.01
    assert totals["obs.metric_s"] == 0.002


# -- refusal and comparison ---------------------------------------------------


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli("--workload", "boot-cold", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def test_compare_verdicts():
    same = [10.0, 10.2, 9.9, 10.1]
    assert report.verdict(same, same, 0.2, "lower") == "within bound"
    assert report.verdict(same, [v * 1.5 for v in same], 0.2, "lower") == "REGRESSED"
    assert report.verdict(same, [v * 0.5 for v in same], 0.2, "lower") == "improved"
    noisy = [5.0, 15.0, 10.0, 12.0]
    assert report.verdict(same, noisy, 0.2, "lower") == "unresolved"
