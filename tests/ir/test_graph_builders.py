"""Tests for the operator graph and the CKKS primitive builders."""

import pytest

from repro.analysis import verify_graph
from repro.fhe.params import parameter_set
from repro.ir.builders import GraphBuilder
from repro.ir.graph import OperatorGraph
from repro.ir.operators import Operator, OpKind
from repro.ir.tensors import TensorKind, poly_tensor

PARAMS = parameter_set("ARK")


def _chain_graph():
    g = OperatorGraph("chain")
    t0 = poly_tensor("t0", 2, 64)
    t1 = poly_tensor("t1", 2, 64)
    t2 = poly_tensor("t2", 2, 64)
    a = Operator("a", OpKind.EW_MUL, limbs=2, n=64, inputs=[t0], outputs=[t1])
    b = Operator("b", OpKind.EW_ADD, limbs=2, n=64, inputs=[t1], outputs=[t2])
    g.add_operator(a)
    g.add_operator(b)
    return g, a, b, (t0, t1, t2)


class TestGraph:
    def test_producer_consumer_wiring(self):
        g, a, b, (t0, t1, t2) = _chain_graph()
        assert g.producer_of(t1) is a
        assert g.consumers_of(t1) == [b]
        assert g.successors(a) == [b]
        assert g.predecessors(b) == [a]

    def test_graph_io(self):
        g, a, b, (t0, t1, t2) = _chain_graph()
        assert g.graph_inputs() == [t0]

    def test_topological_order_respects_deps(self):
        g, a, b, _ = _chain_graph()
        order = g.operators_topological()
        assert order.index(a) < order.index(b)

    def test_dfs_order_keeps_chains_contiguous(self):
        """Two independent chains should not interleave."""
        g = OperatorGraph("two-chains")
        ops = []
        for chain in range(2):
            prev = poly_tensor(f"in{chain}", 1, 64)
            for i in range(3):
                out = poly_tensor(f"c{chain}_{i}", 1, 64)
                op = Operator(
                    f"op{chain}_{i}", OpKind.EW_MUL, limbs=1, n=64,
                    inputs=[prev], outputs=[out],
                )
                g.add_operator(op)
                ops.append(op)
                prev = out
        order = [op.name for op in g.operators_topological()]
        # Each chain's ops appear consecutively.
        for chain in range(2):
            idxs = [order.index(f"op{chain}_{i}") for i in range(3)]
            assert idxs == list(range(min(idxs), min(idxs) + 3))

    def test_duplicate_operator_rejected(self):
        g, a, _, _ = _chain_graph()
        with pytest.raises(ValueError):
            g.add_operator(a)

    def test_duplicate_producer_rejected(self):
        g = OperatorGraph()
        t = poly_tensor("t", 1, 64)
        g.add_operator(
            Operator("a", OpKind.EW_ADD, limbs=1, n=64, outputs=[t])
        )
        with pytest.raises(ValueError):
            g.add_operator(
                Operator("b", OpKind.EW_ADD, limbs=1, n=64, outputs=[t])
            )

    def test_subgraph_signature_matches_structure(self):
        g1, a1, b1, _ = _chain_graph()
        g2, a2, b2, _ = _chain_graph()
        assert g1.subgraph_signature([a1, b1]) == g2.subgraph_signature([a2, b2])


class TestBuilders:
    def test_hmult_structure(self):
        b = GraphBuilder(PARAMS)
        out = b.hmult(
            b.input_ciphertext("x", PARAMS.max_level),
            b.input_ciphertext("y", PARAMS.max_level),
        )
        g = b.graph
        assert verify_graph(g).ok
        kinds = [op.kind for op in g.operators]
        beta = PARAMS.digits_at_level(PARAMS.max_level)
        # One KSK inner product, beta ModUps worth of iNTT/BConv/NTT.
        assert kinds.count(OpKind.KSK_INP) == 1
        assert kinds.count(OpKind.BCONV) == beta + 2  # modups + 2 moddowns
        assert out.level == PARAMS.max_level

    def test_keyswitch_digit_count_follows_level(self):
        b = GraphBuilder(PARAMS)
        ct = b.input_ciphertext("x", 5)  # alpha=6 -> 1 digit
        b.hmult(ct, b.input_ciphertext("y", 5))
        kinds = [op.kind for op in b.graph.operators]
        assert kinds.count(OpKind.BCONV) == 1 + 2

    def test_evk_tensor_shared_by_amount(self):
        b = GraphBuilder(PARAMS)
        assert b.evk("rot", 10, 1) is b.evk("rot", 10, 1)
        assert b.evk("rot", 10, 1) is not b.evk("rot", 10, 2)
        assert b.evk("rot", 10, 1) is not b.evk("rot", 9, 1)

    def test_min_ks_uses_single_evk(self):
        b = GraphBuilder(PARAMS)
        ct = b.input_ciphertext("x", 10)
        b.baby_rotations(ct, 4, "min-ks")
        evks = [t for t in b.graph.constant_tensors()
                if t.kind is TensorKind.EVK]
        assert len(evks) == 1

    def test_hoisting_uses_n1_minus_1_evks_one_modup_set(self):
        b = GraphBuilder(PARAMS)
        ct = b.input_ciphertext("x", 10)
        b.baby_rotations(ct, 4, "hoisting")
        evks = [t for t in b.graph.constant_tensors()
                if t.kind is TensorKind.EVK]
        assert len(evks) == 3
        beta = PARAMS.digits_at_level(10)
        intts = [op for op in b.graph.operators if op.kind is OpKind.INTT
                 and "modup" in op.tag]
        assert len(intts) == beta  # one ModUp set shared by all amounts

    def test_hybrid_evk_count_matches_formula(self):
        from repro.fhe.rotation import hybrid_cost_summary

        b = GraphBuilder(PARAMS)
        ct = b.input_ciphertext("x", 10)
        b.baby_rotations(ct, 8, "hybrid", r_hyb=4)
        evks = [t for t in b.graph.constant_tensors()
                if t.kind is TensorKind.EVK]
        assert len(evks) == hybrid_cost_summary(8, 4)["distinct_evks"]

    def test_decomposed_ntt_phases(self):
        b = GraphBuilder(PARAMS, ntt_split=(256, 256))
        ct = b.input_ciphertext("x", 5)
        b.rescale(b.hmult(ct, b.input_ciphertext("y", 5)))
        kinds = {op.kind for op in b.graph.operators}
        assert OpKind.NTT not in kinds
        assert OpKind.INTT not in kinds
        assert OpKind.NTT_COL in kinds
        assert OpKind.TRANSPOSE in kinds

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError):
            GraphBuilder(PARAMS, ntt_split=(256, 128))

    def test_bsgs_matvec_op_scaling(self):
        b = GraphBuilder(PARAMS)
        ct = b.input_ciphertext("x", 10)
        b.bsgs_matvec(ct, 4, 2)
        small = b.graph.num_operators
        b2 = GraphBuilder(PARAMS)
        ct2 = b2.input_ciphertext("x", 10)
        b2.bsgs_matvec(ct2, 8, 4)
        assert b2.graph.num_operators > small

    def test_pmult_plaintext_is_single_limb(self):
        """OF-Limb: plaintexts move as one base limb."""
        b = GraphBuilder(PARAMS)
        ct = b.input_ciphertext("x", 10)
        b.pmult(ct)
        pts = [t for t in b.graph.constant_tensors()
               if t.kind is TensorKind.PLAINTEXT]
        assert len(pts) == 1
        assert pts[0].shape[0] == 1

    def test_rescale_drops_level(self):
        b = GraphBuilder(PARAMS)
        ct = b.input_ciphertext("x", 10)
        out = b.rescale(ct)
        assert out.level == 9

    def test_rescale_at_zero_raises(self):
        b = GraphBuilder(PARAMS)
        ct = b.input_ciphertext("x", 0)
        with pytest.raises(ValueError):
            b.rescale(ct)

    def test_unknown_strategy_raises(self):
        b = GraphBuilder(PARAMS)
        ct = b.input_ciphertext("x", 5)
        with pytest.raises(ValueError):
            b.baby_rotations(ct, 4, "nope")


class TestPlainRotationStrategy:
    def test_plain_uses_distinct_evks_and_full_keyswitches(self):
        b = GraphBuilder(PARAMS)
        ct = b.input_ciphertext("x", 10)
        rots = b.baby_rotations(ct, 4, "plain")
        assert len(rots) == 4
        evks = [t for t in b.graph.constant_tensors()
                if t.kind is TensorKind.EVK]
        assert len(evks) == 3  # one per nonzero amount
        beta = PARAMS.digits_at_level(10)
        modup_intts = [
            op for op in b.graph.operators
            if op.kind is OpKind.INTT and "modup" in op.tag
        ]
        assert len(modup_intts) == 3 * beta  # no hoisting: per-rotation

    def test_plain_more_expensive_than_hoisting(self):
        b1 = GraphBuilder(PARAMS)
        b1.baby_rotations(b1.input_ciphertext("x", 10), 8, "plain")
        b2 = GraphBuilder(PARAMS)
        b2.baby_rotations(b2.input_ciphertext("x", 10), 8, "hoisting")
        work1 = sum(op.total_work for op in b1.graph.operators)
        work2 = sum(op.total_work for op in b2.graph.operators)
        assert work1 > work2
