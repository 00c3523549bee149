"""Tests for the NTT-split candidate analysis (Sections V-B and V-D)."""

from repro.sched.ntt_decomp import candidate_splits


class TestNttDecompAnalysis:
    def test_candidate_splits_fill_lanes(self):
        for n1, n2 in candidate_splits(1 << 16, lanes_per_pe=256):
            assert n1 >= 256 and n2 >= 256
            assert n1 * n2 == 1 << 16

    def test_candidate_splits_bounded(self):
        assert 1 <= len(candidate_splits(1 << 16)) <= 4
