"""Benchmark: Figure 9 overall comparison — shape assertions.

Paper expectations encoded here:

* CROPHE beats every baseline+MAD on every workload (1.15x-3.6x range);
* CROPHE-p is at least as fast as CROPHE;
* CROPHE hardware running MAD does *not* beat the tuned baselines by
  much (the co-design message: hardware alone is not enough).
"""

import pytest

from repro.experiments.fig9 import fig9


def _cells(full):
    if full:
        return fig9()
    return fig9(baselines=("SHARP", "ARK"),
                workloads=("bootstrapping", "resnet20"))


@pytest.fixture(scope="module")
def cells(full_sweep):
    return _cells(full_sweep)


def test_fig9_runs(benchmark, full_sweep):
    result = benchmark.pedantic(
        lambda: _cells(full_sweep), iterations=1, rounds=1
    )
    assert result


class TestShape:
    def test_crophe_beats_baselines(self, cells):
        for c in cells:
            if c.design.startswith("CROPHE-") and "MAD" not in c.design \
                    and not c.design.startswith("CROPHE-p"):
                assert c.speedup > 1.0, (c.baseline, c.workload, c.speedup)

    def test_speedup_factors_roughly_match_paper(self, cells):
        """Paper range: 1.15x (SHARP/HELR) to 3.6x (BTS/boot); allow a
        generous band around it for the simulated substrate."""
        for c in cells:
            if c.design.startswith("CROPHE-") and "MAD" not in c.design:
                assert 1.0 < c.speedup < 8.0, (
                    c.baseline, c.workload, c.design, c.speedup
                )

    def test_crophe_p_at_least_as_fast(self, cells):
        by_key = {(c.baseline, c.workload, c.design): c for c in cells}
        for (b, w, d), c in by_key.items():
            if d.startswith("CROPHE-p"):
                plain = next(
                    v for (b2, w2, d2), v in by_key.items()
                    if b2 == b and w2 == w
                    and d2.startswith("CROPHE-") and "p" not in d2
                    and "MAD" not in d2
                )
                assert c.speedup >= plain.speedup * 0.999

    def test_crophe_hw_with_mad_not_a_win(self, cells):
        """Hardware without the dataflow gives far less than the
        co-design: CROPHE-hw+MAD must trail full CROPHE substantially
        (the paper's point that the two halves must be applied jointly).
        """
        by_key = {(c.baseline, c.workload, c.design): c for c in cells}
        for (b, w, d), c in by_key.items():
            if d != "CROPHE-hw+MAD":
                continue
            full = next(
                v for (b2, w2, d2), v in by_key.items()
                if b2 == b and w2 == w and d2.startswith("CROPHE-")
                and "MAD" not in d2 and not d2.startswith("CROPHE-p")
            )
            assert c.speedup < full.speedup * 0.9, (b, w, c.speedup)
            assert c.speedup < 1.6, (b, w, c.speedup)

    def test_baseline_reference_is_unity(self, cells):
        for c in cells:
            if c.design.endswith("+MAD") and c.design.startswith(c.baseline):
                assert c.speedup == pytest.approx(1.0)
