"""Tests for the evaluation pipeline and the static exhibits.

The dynamic figures are exercised on a deliberately tiny parameter set
(log N = 12, L = 7) so each evaluation schedules in well under a second;
the full paper-scale sweeps live in ``benchmarks/``.
"""

import pytest

from repro.baselines.accelerators import SHARP
from repro.experiments.common import (
    DesignPoint,
    clear_cache,
    evaluate_workload,
    speedup,
)
from repro.experiments.table1 import ROW_LABELS, format_table1, table1
from repro.experiments.table2 import compare_with_paper, format_table2
from repro.experiments.table3 import format_table3, table3
from repro.fhe.params import CKKSParams
from repro.hw.config import CROPHE_36

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
