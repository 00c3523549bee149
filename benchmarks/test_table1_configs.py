"""Benchmark: regenerate Table I and check it against the paper."""

from repro.experiments.table1 import ROW_LABELS, table1


def test_table1(benchmark):
    data = benchmark(table1)
    # Paper values (word bits, frequency, lanes, PEs, DRAM, SRAM MB).
    assert data["BTS"][:2] == [64, 1.2]
    assert data["ARK"][0] == 64
    assert data["SHARP"][0] == 36
    assert data["CL+"][0] == 28
    assert data["CROPHE-64"][:4] == [64, 1.2, 256, 64]
    assert data["CROPHE-36"][:4] == [36, 1.2, 256, 128]
    # All designs share the 1 TB/s HBM budget.
    dram_row = ROW_LABELS.index("DRAM bandwidth (TB/s)")
    assert all(col[dram_row] == 1.0 for col in data.values())
    # CROPHE variants sized to similar area as their baselines.
    area_row = ROW_LABELS.index("Area (mm2)")
    assert abs(data["CROPHE-64"][area_row] - data["BTS"][area_row]) < 60
    assert data["CROPHE-36"][area_row] < 260
