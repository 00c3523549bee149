"""Tests for the evaluation pipeline and the static exhibits.

The dynamic figures are exercised on a deliberately tiny parameter set
(log N = 12, L = 7) so each evaluation schedules in well under a second;
the full paper-scale sweeps live in ``benchmarks/``.
"""

from dataclasses import replace

import pytest

from repro.baselines.accelerators import SHARP
from repro.dse.fingerprint import schedule_fingerprint
from repro.experiments import common
from repro.experiments.common import (
    R_HYB_CANDIDATES,
    DesignPoint,
    clear_cache,
    default_scheduler_config,
    evaluate_workload,
    speedup,
)
from repro.experiments.table1 import ROW_LABELS, format_table1, table1
from repro.experiments.table2 import compare_with_paper, format_table2
from repro.experiments.table3 import format_table3, table3
from repro.fhe.params import CKKSParams
from repro.hw.config import CROPHE_36
from repro.obs.events import SINK
from repro.passes.lowering import lower_workload
from repro.sched.dataflow import Schedule
from repro.sim.engine import SimulationEngine
from repro.sim.stats import TrafficReport, UtilizationReport

TINY = CKKSParams(
    log_n=12, max_level=7, boot_levels=5, dnum=2, alpha=4,
    word_bits=36, name="tiny",
)


@pytest.fixture(scope="module")
def tiny_results():
    base = evaluate_workload(
        DesignPoint("SHARP+MAD", SHARP, dataflow="mad"),
        "bootstrapping", TINY,
    )
    crophe = evaluate_workload(
        DesignPoint("CROPHE-36", CROPHE_36), "bootstrapping", TINY
    )
    return base, crophe


class TestStaticTables:
    def test_table1_columns(self):
        data = table1()
        assert set(data) == {"BTS", "ARK", "CROPHE-64", "CL+", "SHARP",
                             "CROPHE-36"}
        for col in data.values():
            assert len(col) == len(ROW_LABELS)

    def test_table1_formats(self):
        text = format_table1()
        assert "CROPHE-64" in text
        assert "Word length" in text

    def test_table2_within_one_percent(self):
        for name, area, p_area, power, p_power in compare_with_paper():
            assert area == pytest.approx(p_area, rel=0.01), name
            assert power == pytest.approx(p_power, rel=0.01), name

    def test_table2_formats(self):
        assert "global buffer" in format_table2()

    def test_table3_exact(self):
        assert table3()["SHARP"] == [16, 35, 27, 3, 12]
        assert "Parameter set" in format_table3()


class TestEvaluationPipeline:
    def test_produces_positive_times(self, tiny_results):
        base, crophe = tiny_results
        assert base.seconds > 0
        assert crophe.seconds > 0

    def test_crophe_not_slower(self, tiny_results):
        base, crophe = tiny_results
        assert speedup(base, crophe) >= 0.8

    def test_utilizations_bounded(self, tiny_results):
        for r in tiny_results:
            for v in r.utilization.as_dict().values():
                assert 0.0 <= v <= 1.0

    def test_segment_seconds_sum(self, tiny_results):
        base, _ = tiny_results
        assert sum(base.segment_seconds.values()) == pytest.approx(
            base.seconds
        )

    def test_cache_round_trip(self):
        point = DesignPoint("CROPHE-36", CROPHE_36)
        a = evaluate_workload(point, "bootstrapping", TINY)
        b = evaluate_workload(point, "bootstrapping", TINY)
        assert a is b
        clear_cache()
        c = evaluate_workload(point, "bootstrapping", TINY)
        assert c is not a
        assert c.seconds == pytest.approx(a.seconds, rel=0.01)

    def test_clusters_never_slower(self):
        plain = evaluate_workload(
            DesignPoint("CROPHE-36", CROPHE_36), "bootstrapping", TINY
        )
        p = evaluate_workload(
            DesignPoint("CROPHE-p-36", CROPHE_36, clusters=2),
            "bootstrapping", TINY,
        )
        assert p.seconds <= plain.seconds * 1.001

    def test_smaller_sram_not_faster(self):
        big = evaluate_workload(
            DesignPoint("CROPHE-36", CROPHE_36), "bootstrapping", TINY
        )
        small = evaluate_workload(
            DesignPoint("CROPHE-36s", CROPHE_36.with_sram_mb(8.0)),
            "bootstrapping", TINY,
        )
        assert small.seconds >= big.seconds * 0.99

    def test_mad_design_usable_on_any_hw(self):
        r = evaluate_workload(
            DesignPoint("CROPHE+MAD", CROPHE_36, dataflow="mad"),
            "bootstrapping", TINY,
        )
        assert r.seconds > 0


def _fresh_best(point, params):
    """``point``'s evaluation rebuilt from its live schedules: every
    segment simulated on a fresh engine, no result reused.  Returns the
    fastest variant's result and the (fingerprint, repeat) pairs."""
    base = default_scheduler_config()
    best, pairs = None, set()
    for r_hyb in R_HYB_CANDIDATES:
        for decompose in (True, False):
            for clusters in (c for c in (1, 2, 4) if c <= point.clusters):
                options = common._workload_options(
                    point, params, r_hyb, decompose
                )
                config = replace(base, constant_share=clusters)
                seconds, groups = 0.0, 0
                traffic, busy, per_segment = TrafficReport(), {}, {}
                workload = lower_workload("bootstrapping", params, options)
                for seg in workload.segments:
                    fp = schedule_fingerprint(
                        seg.graph, point.hw, point.dataflow, config,
                        options.ntt_split,
                    )
                    pairs.add((fp, seg.repeat))
                    schedule = common._SCHED_LIVE[fp][0]
                    run = SimulationEngine(
                        point.hw, residency_fraction=base.keep_fraction,
                        constant_share=clusters,
                    ).run(Schedule(steps=schedule.steps, repeat=seg.repeat))
                    seconds += run.total_seconds
                    groups += run.num_groups
                    traffic.add(run.traffic)
                    per_segment[seg.name] = (
                        per_segment.get(seg.name, 0.0) + run.total_seconds
                    )
                    for key in ("pe", "noc", "sram_bw", "dram_bw"):
                        busy[key] = busy.get(key, 0.0) + (
                            getattr(run.utilization, key) * run.total_seconds
                        )
                result = common.EvalResult(
                    label=point.label, workload="bootstrapping",
                    seconds=seconds,
                    utilization=UtilizationReport(
                        **{k: v / seconds for k, v in busy.items()}
                    ),
                    traffic=traffic, num_groups=groups,
                    segment_seconds=per_segment,
                )
                if best is None or result.seconds < best.seconds:
                    best = result
    return best, pairs


class TestSimulationReuse:
    """One engine run per (schedule fingerprint, repeat, events
    collected): CROPHE-p's ``clusters=1`` variants are CROPHE's, and the
    reused results equal fresh simulations."""

    P = DesignPoint("CROPHE-p-36", CROPHE_36, clusters=4)
    TWIN = DesignPoint("CROPHE-36", CROPHE_36)

    @staticmethod
    def _count_runs(mp):
        """Patch the engine to log each run's trace flag."""
        runs = []
        real = SimulationEngine.run

        def counting(engine, schedule):
            runs.append(engine.collect_trace)
            return real(engine, schedule)

        mp.delenv("REPRO_DSE_CACHE", raising=False)
        mp.setattr(SimulationEngine, "run", counting)
        return runs

    @pytest.fixture(scope="class")
    def evaluated(self):
        """From cold: CROPHE-p, then its twin, counting engine runs."""
        with pytest.MonkeyPatch.context() as mp:
            runs = self._count_runs(mp)
            clear_cache()
            p = evaluate_workload(self.P, "bootstrapping", TINY)
            after_p = len(runs)
            twin = evaluate_workload(self.TWIN, "bootstrapping", TINY)
        return {"p": p, "twin": twin, "runs": len(runs), "after_p": after_p}

    @staticmethod
    def _comparable(result):
        return (
            result.seconds, result.traffic, result.utilization,
            result.num_groups, result.segment_seconds,
        )

    def test_one_run_per_pair_and_the_twin_adds_none(self, evaluated):
        _, pairs = _fresh_best(self.P, TINY)
        assert evaluated["after_p"] == len(pairs)
        assert evaluated["runs"] == evaluated["after_p"]

    def test_results_equal_fresh_simulations(self, evaluated):
        for point, name in ((self.P, "p"), (self.TWIN, "twin")):
            fresh, _ = _fresh_best(point, TINY)
            assert self._comparable(evaluated[name]) == (
                self._comparable(fresh)
            )

    def test_event_runs_never_reuse_eventless_results(
        self, evaluated, monkeypatch
    ):
        _, pairs = _fresh_best(self.TWIN, TINY)
        assert all(
            (fp, repeat, False) in common._SIM_LIVE for fp, repeat in pairs
        )
        runs = self._count_runs(monkeypatch)
        SINK.clear()
        SINK.enable()
        try:
            # A new label: the result misses, every schedule hits.
            evaluate_workload(
                replace(self.TWIN, label="CROPHE-36-traced"),
                "bootstrapping", TINY,
            )
            assert runs == [True] * len(pairs)
            assert SINK.runs
            assert all(run.events for run in SINK.runs)
        finally:
            SINK.disable()
            SINK.clear()


class TestRunnerCli:
    def test_static_tables_via_cli(self, capsys, tmp_path):
        from repro.experiments.runner import main

        artifact = tmp_path / "artifact.json"
        assert main(["table2", "--artifact", str(artifact)]) == 0
        assert artifact.exists()
        out = capsys.readouterr().out
        assert "global buffer" in out

    def test_unknown_experiment_rejected(self):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit):
            main(["nope"])

    def test_registry_covers_all_exhibits(self):
        from repro.experiments.runner import EXPERIMENTS

        assert set(EXPERIMENTS) == {
            "table1", "table2", "table3", "table4",
            "fig9", "fig10", "fig11",
        }
