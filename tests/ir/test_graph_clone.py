"""Tests for OperatorGraph.clone and structural equality."""

import pytest

from repro.ir.builders import GraphBuilder
from repro.ir.graph import (
    OperatorGraph,
    graphs_structurally_equal,
    structural_mismatch,
)
from repro.ir.operators import Operator, OpKind
from repro.ir.tensors import poly_tensor


def _sample_graph(params, lowering="full", tag="t"):
    b = GraphBuilder(params, ntt_split=None, lowering=lowering)
    ct0 = b.input_ciphertext(f"{tag}.x", 3)
    ct1 = b.input_ciphertext(f"{tag}.y", 3)
    h = b.hmult(ct0, ct1, f"{tag}.m")
    b.rescale(h, f"{tag}.rs")
    return b.graph


class TestClone:
    def test_clone_is_structurally_equal(self, small_params):
        g = _sample_graph(small_params)
        c = g.clone()
        assert graphs_structurally_equal(g, c)
        assert structural_mismatch(g, c) is None

    def test_clone_is_fully_independent(self, small_params):
        g = _sample_graph(small_params)
        c = g.clone()
        g_uids = {op.uid for op in g.operators}
        c_uids = {op.uid for op in c.operators}
        assert not (g_uids & c_uids)
        g_tensors = {t.uid for t in g.tensors}
        c_tensors = {t.uid for t in c.tensors}
        assert not (g_tensors & c_tensors)

    def test_clone_preserves_names_and_order(self, small_params):
        g = _sample_graph(small_params)
        c = g.clone()
        assert [op.name for op in c.operators] == [
            op.name for op in g.operators
        ]
        assert [op.name for op in c.operators_topological()] == [
            op.name for op in g.operators_topological()
        ]

    def test_clone_preserves_constant_sharing(self, small_params):
        g = _sample_graph(small_params)
        c = g.clone()
        # The shared twiddle tensor stays one object in the clone.
        for graph in (g, c):
            twiddles = {
                t.uid for t in graph.tensors if t.name.startswith("twiddle.")
            }
            assert len(twiddles) == len(
                {t.name for t in graph.tensors if t.name.startswith("twiddle.")}
            )
        assert len(c.tensors) == len(g.tensors)

    def test_mutating_clone_leaves_original(self, small_params):
        g = _sample_graph(small_params)
        n = g.num_operators
        c = g.clone()
        # A tensor the clone produces and never consumes.
        src = next(t for t in c.tensors
                   if c.producer_of(t) is not None and not c.consumers_of(t))
        out = poly_tensor("extra", src.shape[0], small_params.n,
                          small_params.bytes_per_word())
        c.add_operator(
            Operator(
                name="extra", kind=OpKind.EW_ADD, limbs=src.shape[0],
                n=small_params.n, inputs=[src], outputs=[out], tag="extra",
            )
        )
        assert g.num_operators == n
        assert c.num_operators == n + 1

    def test_clone_rename(self, small_params):
        g = _sample_graph(small_params)
        assert g.clone(name="other").name == "other"
        assert g.clone().name == g.name

    def test_clone_preserves_attrs(self, small_params):
        b = GraphBuilder(small_params, lowering="primitive")
        ct = b.input_ciphertext("x", 3)
        b.baby_rotations(ct, 4, "hybrid", r_hyb=2, tag="r")
        c = b.graph.clone()
        batches = [op for op in c.operators if op.kind is OpKind.ROT_BATCH]
        assert len(batches) == 1
        assert dict(batches[0].attrs)["n1"] == 4


class TestStructuralEquality:
    def test_identical_builds_are_equal(self, small_params):
        a = _sample_graph(small_params)
        b = _sample_graph(small_params)
        assert graphs_structurally_equal(a, b)

    def test_empty_graphs_equal(self):
        assert graphs_structurally_equal(OperatorGraph(), OperatorGraph())

    def test_operator_count_mismatch(self, small_params):
        a = _sample_graph(small_params)
        b = GraphBuilder(small_params)
        ct0 = b.input_ciphertext("x", 3)
        ct1 = b.input_ciphertext("y", 3)
        b.hmult(ct0, ct1, "m")
        why = structural_mismatch(a, b.graph)
        assert why is not None and "count" in why

    def test_tag_mismatch_detected(self, small_params):
        a = _sample_graph(small_params, tag="t")
        b = _sample_graph(small_params, tag="u")
        # Names/tags differ but signatures agree; tags are part of the
        # structural relation (they drive lowered operator naming).
        why = structural_mismatch(a, b)
        assert why is not None and "tags differ" in why

    def test_sharing_pattern_mismatch_detected(self, small_params):
        def build(shared):
            b = GraphBuilder(small_params)
            ct = b.input_ciphertext("x", 3)
            first = b.ew(OpKind.EW_ADD, [ct.b, ct.a], 4, "t.one")
            second_in = first if shared else b.ew(
                OpKind.EW_ADD, [ct.b, ct.a], 4, "t.one"
            )
            b.ew(OpKind.EW_MUL, [second_in, second_in], 4, "t.two")
            return b.graph

        a, b = build(True), build(False)
        if a.num_operators == b.num_operators:
            assert not graphs_structurally_equal(a, b)

    def test_shape_mismatch_detected(self, small_params):
        def build(limbs):
            b = GraphBuilder(small_params)
            ct = b.input_ciphertext("x", limbs - 1)
            b.ew(OpKind.EW_ADD, [ct.b, ct.a], limbs, "t")
            return b.graph

        assert not graphs_structurally_equal(build(3), build(4))

    def test_mismatch_message_names_operator(self, small_params):
        a = _sample_graph(small_params, tag="t")
        b = _sample_graph(small_params, tag="u")
        why = structural_mismatch(a, b)
        assert "operator #" in why


class TestCoarseOperatorGuards:
    def test_coarse_kinds_flagged(self):
        assert OpKind.KEY_SWITCH.is_coarse
        assert OpKind.ROT_BATCH.is_coarse
        assert not OpKind.NTT.is_coarse

    def test_coarse_cost_queries_raise(self, small_params):
        from repro.resilience.errors import InvariantViolation

        b = GraphBuilder(small_params, lowering="primitive")
        ct = b.input_ciphertext("x", 3)
        d = b.ew(OpKind.EW_MUL, [ct.a, ct.a], 4, "d")
        b.key_switch(d, 3, b.evk("relin", 3), "ks")
        coarse = [op for op in b.graph.operators if op.kind.is_coarse]
        assert coarse
        with pytest.raises(InvariantViolation):
            coarse[0].mul_work()
        with pytest.raises(InvariantViolation):
            coarse[0].add_work()
        with pytest.raises(InvariantViolation):
            coarse[0].candidate_loop_nests()
