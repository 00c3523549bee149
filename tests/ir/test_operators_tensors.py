"""Tests for the operator taxonomy and tensor containers."""

import pytest

from repro.ir.loops import Axis
from repro.ir.operators import Operator, OpKind
from repro.ir.tensors import (
    bconv_matrix_tensor,
    evk_tensor,
    external_tensor,
    plaintext_tensor,
    poly_tensor,
    twiddle_tensor,
)

N = 4096


class TestTensors:
    def test_poly_shape_and_bytes(self):
        t = poly_tensor("x", 10, N, word_bytes=8)
        assert t.shape == (10, N)
        assert t.elements == 10 * N
        assert t.bytes == 10 * N * 8
        assert not t.is_constant

    def test_evk_prng_halves(self):
        full = evk_tensor("k", 3, 20, N)
        halved = evk_tensor("k2", 3, 20, N, prng_halved=True)
        assert full.elements == 2 * halved.elements

    def test_constants_flagged(self):
        assert evk_tensor("k", 1, 2, N).is_constant
        assert bconv_matrix_tensor("m", 4, 2).is_constant
        assert plaintext_tensor("p", 2, N).is_constant
        assert twiddle_tensor("t", N).is_constant
        assert not external_tensor("e", 2, N).is_constant

    def test_unique_uids(self):
        a = poly_tensor("a", 1, N)
        b = poly_tensor("a", 1, N)
        assert a != b
        assert a.uid != b.uid


class TestOperatorWork:
    def test_ew_mul_work(self):
        op = Operator("m", OpKind.EW_MUL, limbs=10, n=N)
        assert op.mul_work == 10 * N

    def test_ew_add_is_mul_free(self):
        op = Operator("a", OpKind.EW_ADD, limbs=10, n=N)
        assert op.mul_work == 0
        assert op.add_work == 10 * N

    def test_ntt_work(self):
        op = Operator("n", OpKind.NTT, limbs=4, n=N)
        assert op.mul_work == 4 * (N // 2) * 12  # log2(4096) = 12

    def test_four_step_work_sums_to_monolithic_butterflies(self):
        """col + row phases together do the same butterfly count."""
        col = Operator("c", OpKind.NTT_COL, limbs=4, n=N, n_split=(64, 64))
        row = Operator("r", OpKind.NTT_ROW, limbs=4, n=N, n_split=(64, 64))
        mono = Operator("m", OpKind.NTT, limbs=4, n=N)
        assert col.mul_work + row.mul_work == mono.mul_work

    def test_bconv_work(self):
        op = Operator("b", OpKind.BCONV, limbs=4, out_limbs=30, n=N)
        assert op.mul_work == 4 * 30 * N + 4 * N

    def test_ksk_inp_work(self):
        op = Operator("k", OpKind.KSK_INP, limbs=30, digits=3, n=N)
        assert op.mul_work == 2 * 3 * 30 * N

    def test_automorphism_and_transpose_mul_free(self):
        assert Operator("a", OpKind.AUTOMORPHISM, limbs=4, n=N).mul_work == 0
        assert Operator("t", OpKind.TRANSPOSE, limbs=4, n=N).mul_work == 0

    def test_ntt_phase_requires_split(self):
        with pytest.raises(ValueError):
            Operator("c", OpKind.NTT_COL, limbs=4, n=N)

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError):
            Operator("c", OpKind.NTT_COL, limbs=4, n=N, n_split=(64, 32))


class TestLoopNests:
    def test_ew_offers_both_orders(self):
        op = Operator("m", OpKind.EW_MUL, limbs=10, n=N)
        nests = op.candidate_loop_nests()
        tops = {nest.loops[0].axis for nest in nests}
        assert tops == {Axis.LIMB, Axis.N}

    def test_ew_tiled_variants(self):
        op = Operator("m", OpKind.EW_MUL, limbs=10, n=N)
        nests = op.candidate_loop_nests(n_split=(64, 64))
        assert len(nests) == 6

    def test_monolithic_ntt_binds_slots(self):
        op = Operator("n", OpKind.NTT, limbs=4, n=N)
        (nest,) = op.candidate_loop_nests()
        assert nest.loops[0].axis is Axis.LIMB
        assert nest.loops[1].axis is Axis.STAGE

    def test_col_phase_free_on_n1(self):
        op = Operator("c", OpKind.NTT_COL, limbs=4, n=N, n_split=(64, 64))
        tops = {nest.loops[0].axis for nest in op.candidate_loop_nests()}
        assert Axis.N1 in tops

    def test_row_phase_free_on_n2(self):
        op = Operator("r", OpKind.INTT_ROW, limbs=4, n=N, n_split=(64, 64))
        tops = {nest.loops[0].axis for nest in op.candidate_loop_nests()}
        assert Axis.N2 in tops

    def test_bconv_slot_major_only(self):
        op = Operator("b", OpKind.BCONV, limbs=4, out_limbs=30, n=N)
        nests = op.candidate_loop_nests()
        assert all(
            nest.loops[0].axis in (Axis.N, Axis.N1, Axis.N2) for nest in nests
        )

    def test_ksk_matches_figure6_order(self):
        """Figure 6's alpha' > beta > N1 order must be available."""
        op = Operator("k", OpKind.KSK_INP, limbs=30, digits=3, n=N)
        nests = op.candidate_loop_nests(n_split=(64, 64))
        axes = [tuple(l.axis for l in nest.loops) for nest in nests]
        assert (Axis.LIMB, Axis.DIGIT, Axis.N1, Axis.N2) in axes


class TestSignature:
    def test_same_structure_same_signature(self):
        a = Operator("a", OpKind.EW_MUL, limbs=10, n=N)
        b = Operator("b", OpKind.EW_MUL, limbs=10, n=N)
        assert a.signature() == b.signature()

    def test_different_limbs_differ(self):
        a = Operator("a", OpKind.EW_MUL, limbs=10, n=N)
        b = Operator("b", OpKind.EW_MUL, limbs=11, n=N)
        assert a.signature() != b.signature()


class TestMacOperator:
    def test_mac_work_scales_with_width(self):
        narrow = Operator("m1", OpKind.EW_MULADD, limbs=10, n=N, digits=1)
        wide = Operator("m8", OpKind.EW_MULADD, limbs=10, n=N, digits=8)
        assert wide.mul_work == 8 * narrow.mul_work
        assert wide.add_work == 8 * narrow.add_work

    def test_mac_default_width_matches_plain_fma(self):
        op = Operator("m", OpKind.EW_MULADD, limbs=10, n=N)
        assert op.mul_work == 10 * N
