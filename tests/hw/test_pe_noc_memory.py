"""Tests for PE timing, mesh NoC, memory, and transpose models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.config import CROPHE_64
from repro.hw.memory import HbmMemory, SramBuffer
from repro.hw.noc import MeshNoc
from repro.hw.pe import operator_cycles, seconds
from repro.hw.transpose import TransposeUnit
from repro.ir.operators import Operator, OpKind
from repro.sched.dataflow import GroupPricing

N = 65536


class TestPeTiming:
    def test_more_pes_fewer_cycles(self):
        op = Operator("m", OpKind.EW_MUL, limbs=24, n=N)
        c1 = operator_cycles(op, 1, 256)
        c16 = operator_cycles(op, 16, 256)
        assert c16 < c1
        assert c1 == 24 * N // 256

    def test_paper_example_n14_elementwise(self):
        """Section IV-B: N=2^14 element-wise on 256 lanes: 1 PE -> 64
        iterations, 16 PEs -> 4 iterations."""
        op = Operator("m", OpKind.EW_MUL, limbs=1, n=1 << 14)
        assert operator_cycles(op, 1, 256) == 64
        assert operator_cycles(op, 16, 256) == 4

    def test_automorphism_costs_moves(self):
        op = Operator("a", OpKind.AUTOMORPHISM, limbs=4, n=N)
        assert operator_cycles(op, 4, 256) == 4 * N // (4 * 256)

    def test_pure_add_uses_adders(self):
        op = Operator("a", OpKind.EW_ADD, limbs=4, n=N)
        assert operator_cycles(op, 4, 256) >= 1

    def test_min_one_cycle(self):
        op = Operator("a", OpKind.EW_MUL, limbs=1, n=16)
        assert operator_cycles(op, 64, 256) == 1

    def test_zero_pes_rejected(self):
        op = Operator("a", OpKind.EW_MUL, limbs=1, n=16)
        with pytest.raises(ValueError):
            operator_cycles(op, 0, 256)

    def test_seconds_conversion(self):
        assert seconds(1_200_000_000, CROPHE_64) == pytest.approx(1.0)


class TestMeshNoc:
    @pytest.fixture()
    def noc(self):
        return MeshNoc(rows=4, cols=4, link_bytes_per_cycle=64)

    def test_hops_manhattan(self, noc):
        assert noc.hops(0, 0) == 0
        assert noc.hops(0, 3) == 3
        assert noc.hops(0, 15) == 6  # corner to corner on 4x4

    def test_link_count(self, noc):
        assert noc.num_links == 2 * (4 * 3 + 4 * 3)

    def test_transfer_includes_serialization(self, noc):
        same = noc.transfer_cycles(1024, 3, 3)
        assert same == 0
        cyc = noc.transfer_cycles(1024, 0, 1)
        assert cyc == 1 + 1024 // 64

    def test_multicast_pays_longest_path_once(self, noc):
        single = noc.transfer_cycles(640, 0, 15)
        multi = noc.multicast_cycles(640, 0, (1, 15))
        assert multi == single

    def test_out_of_range_pe(self, noc):
        with pytest.raises(ValueError):
            noc.coords(16)

    @given(st.integers(min_value=0, max_value=15),
           st.integers(min_value=0, max_value=15))
    @settings(max_examples=30, deadline=None)
    def test_hops_symmetric(self, src, dst):
        noc = MeshNoc(rows=4, cols=4, link_bytes_per_cycle=64)
        assert noc.hops(src, dst) == noc.hops(dst, src)


class TestMemories:
    def test_sram_fits(self):
        sram = SramBuffer(capacity_bytes=1024, bytes_per_second=1e9)
        assert sram.fits(1024)
        assert not sram.fits(1025)

    def test_sram_access_time(self):
        # One second's worth of bytes through the buffer ports.
        nbytes = int(SramBuffer.for_config(CROPHE_64).bytes_per_second)
        pricing = GroupPricing.for_config(CROPHE_64)
        assert pricing.terms(0, 0, nbytes, 0, 0)[2] == pytest.approx(1.0)

    def test_hbm_derated_bandwidth(self):
        hbm = HbmMemory(bytes_per_second_peak=1e12, efficiency=0.85)
        assert hbm.bytes_per_second == pytest.approx(0.85e12)

    def test_hbm_base_latency(self):
        hbm = HbmMemory.for_config(CROPHE_64)
        pricing = GroupPricing.for_config(CROPHE_64)
        assert pricing.terms(0, 0, 0, 0, 0)[1] == 0.0
        assert pricing.terms(0, 1, 0, 0, 0)[1] >= hbm.base_latency_s

    def test_hbm_for_config(self):
        hbm = HbmMemory.for_config(CROPHE_64)
        assert hbm.bytes_per_second_peak == 1e12


class TestTranspose:
    def test_capacity(self):
        tpu = TransposeUnit.for_config(CROPHE_64)
        assert tpu.fits_tile(1 << 20)
        assert not tpu.fits_tile(1 << 30)

    def test_throughput(self):
        tpu = TransposeUnit(capacity_bytes=1 << 22, bytes_per_second=1e12)
        assert tpu.transpose_seconds(1e12) == pytest.approx(1.0)
