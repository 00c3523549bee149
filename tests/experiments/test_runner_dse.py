"""Runner integration with the DSE layer: --jobs and --cache-dir.

The cheap table cells exercise the plumbing end-to-end (parallel cell
execution, cache-root export, metrics counters); ``TestWarmCache``
evaluates one design on tiny parameters in two isolated cell processes
over one cache root, the warm-cache contract the runner's ``--jobs`` and
``--cache-dir`` cells rely on.
"""

import json
import os

from repro.dse.cache import CACHE_ENV, aggregate_stats
from repro.experiments import runner
from repro.fhe.params import CKKSParams
from repro.resilience.isolation import RunArtifact, run_isolated

TINY = CKKSParams(
    log_n=12, max_level=7, boot_levels=5, dnum=2, alpha=4, word_bits=36,
    name="tiny",
)


def _evaluate_tiny() -> str:
    """Cell body: one CROPHE-36 bootstrapping evaluation, as a document."""
    from repro.experiments.common import (
        DesignPoint,
        default_scheduler_config,
        evaluate_workload,
    )
    from repro.hw.config import CROPHE_36
    from repro.sched.serialize import eval_result_to_doc

    result = evaluate_workload(
        DesignPoint("CROPHE-36", CROPHE_36), "bootstrapping", TINY,
        scheduler_config=default_scheduler_config(),
    )
    return json.dumps(eval_result_to_doc(result), sort_keys=True)


class TestJobs:
    def test_parallel_cells_all_recorded(self, tmp_path, capsys):
        path = str(tmp_path / "art.json")
        code = runner.main([
            "table1", "--artifact", path, "--jobs", "2",
        ])
        assert code == runner.EXIT_OK
        assert RunArtifact.load(path).completed("table1")
        out = capsys.readouterr().out
        assert "==== table1 ====" in out

    def test_no_isolation_forces_serial(self, tmp_path):
        # --no-isolation cells share module state; jobs must clamp to 1
        # rather than run them concurrently in one process.
        path = str(tmp_path / "art.json")
        code = runner.main([
            "table1", "--artifact", path, "--jobs", "4", "--no-isolation",
        ])
        assert code == runner.EXIT_OK


class TestCacheDir:
    def test_cache_dir_exported_and_reported(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.delenv(CACHE_ENV, raising=False)
        cache = str(tmp_path / "cache")
        path = str(tmp_path / "art.json")
        metrics = str(tmp_path / "metrics.json")
        code = runner.main([
            "table1", "--artifact", path, "--cache-dir", cache,
            "--metrics-json", metrics,
        ])
        assert code == runner.EXIT_OK
        assert os.environ.get(CACHE_ENV) == cache
        assert "cache:" in capsys.readouterr().out
        with open(metrics, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["kind"] == "repro-metrics"
        for key in ("hits", "misses", "writes", "corrupt", "evictions"):
            assert doc["metrics"][f"dse.cache.{key}"]["type"] == "counter"

    def test_metrics_without_cache_dir_omit_counters(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv(CACHE_ENV, raising=False)
        path = str(tmp_path / "art.json")
        metrics = str(tmp_path / "metrics.json")
        assert runner.main(
            ["table1", "--artifact", path, "--metrics-json", metrics]
        ) == runner.EXIT_OK
        with open(metrics, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert not any(
            key.startswith("dse.cache.") for key in doc["metrics"]
        )


class TestWarmCache:
    def test_second_process_over_warm_cache_has_zero_misses(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments.common import clear_cache

        # Forked cells inherit this process's memory tiers: start them
        # cold so only the disk tier can serve the second cell.
        clear_cache()
        cache = str(tmp_path / "cache")
        monkeypatch.setenv(CACHE_ENV, cache)

        cold = run_isolated("cold", _evaluate_tiny, retries=0)
        assert cold.ok, cold.error
        after_cold = aggregate_stats(cache)
        assert after_cold["misses"] > 0

        warm = run_isolated("warm", _evaluate_tiny, retries=0)
        assert warm.ok, warm.error
        after_warm = aggregate_stats(cache)
        assert after_warm["misses"] == after_cold["misses"]
        assert after_warm["hits"] > after_cold["hits"]
        assert json.loads(warm.output) == json.loads(cold.output)
