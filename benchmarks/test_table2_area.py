"""Benchmark: Table II area/power breakdown matches the paper."""

import pytest

from repro.experiments.table2 import compare_with_paper, table2


def test_table2(benchmark):
    rows = benchmark(compare_with_paper)
    for name, area, paper_area, power, paper_power in rows:
        assert area == pytest.approx(paper_area, rel=0.01), name
        assert power == pytest.approx(paper_power, rel=0.01), name


def test_total_area_matches_table1(benchmark):
    report = benchmark(table2)
    assert report.total_area_mm2 == pytest.approx(251.1, rel=0.01)
    assert report.total_power_w == pytest.approx(181.1, rel=0.01)
