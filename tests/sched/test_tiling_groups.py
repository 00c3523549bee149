"""Tests for nest assignment and spatial group plans."""

from repro.fhe.params import parameter_set
from repro.hw.config import CROPHE_64
from repro.ir.builders import GraphBuilder
from repro.ir.operators import OpKind
from repro.sched.dataflow import SpatialGroupPlan
from repro.sched.tiling import count_orientation_switches

PARAMS = parameter_set("ARK")


def _hmult_graph(split=None):
    b = GraphBuilder(PARAMS, ntt_split=split)
    b.hmult(
        b.input_ciphertext("x", PARAMS.max_level),
        b.input_ciphertext("y", PARAMS.max_level),
    )
    return b.graph


def _bsgs_graph(split=None):
    b = GraphBuilder(PARAMS, ntt_split=split)
    b.bsgs_matvec(b.input_ciphertext("x", 10), 4, 4)
    return b.graph


def assign_loop_nests(g, ops, n_split=None):
    """The nest assignment a plan of ``ops`` chooses."""
    return SpatialGroupPlan(g, ops, CROPHE_64, n_split).assignment


class TestNestAssignment:
    def test_elementwise_chain_fully_matches(self):
        b = GraphBuilder(PARAMS)
        ct = b.input_ciphertext("x", 10)
        s = b.hadd(ct, b.input_ciphertext("y", 10))
        s2 = b.hadd(s, b.input_ciphertext("z", 10))
        g = b.graph
        ops = g.operators_topological()
        assignment = assign_loop_nests(g, ops)
        # Every internal edge between element-wise ops matches deeply.
        for edge, depth in assignment.edge_matches.items():
            assert depth >= 1

    def test_intt_to_bconv_is_orientation_switch(self):
        """Monolithic iNTT feeding BConv cannot match (Section V-B)."""
        g = _hmult_graph()
        ops = g.operators_topological()
        assignment = assign_loop_nests(g, ops)
        switches = 0
        for op in ops:
            if op.kind is not OpKind.BCONV:
                continue
            for pred in g.predecessors(op):
                if pred.kind is OpKind.INTT:
                    assert assignment.match_of(pred, op) == 0
                    switches += 1
        assert switches > 0

    def test_decomposed_row_phase_matches_bconv(self):
        """Four-step row phases pipeline with BConv on N2 (Figure 7)."""
        g = _hmult_graph(split=(256, 256))
        ops = g.operators_topological()
        assignment = assign_loop_nests(g, ops, n_split=(256, 256))
        matched = 0
        for op in ops:
            if op.kind is not OpKind.BCONV:
                continue
            for pred in g.predecessors(op):
                if pred.kind is OpKind.INTT_ROW:
                    matched += assignment.match_of(pred, op)
        assert matched > 0

    @staticmethod
    def _switches_per_ntt(g, n_split=None):
        ops = g.operators_topological()
        assignment = assign_loop_nests(g, ops, n_split=n_split)
        switches = count_orientation_switches(g, ops, assignment)
        ntts = sum(1 for op in ops if op.kind.is_monolithic_ntt) + sum(
            1 for op in ops if op.kind.is_ntt_phase
        ) / 2
        return switches / ntts

    def test_orientation_switch_count_drops_with_decomposition(self):
        # Normalize per (i)NTT instance: decomposition should reduce
        # unmatched edges per NTT despite the larger op count.
        for build in (_hmult_graph, _bsgs_graph):
            mono = self._switches_per_ntt(build())
            dec = self._switches_per_ntt(
                build(split=(256, 256)), n_split=(256, 256)
            )
            assert dec <= mono, build.__name__


class TestSpatialGroupPlan:
    def test_pe_allocation_proportional_to_load(self):
        g = _hmult_graph()
        ops = g.operators_topological()
        # Pick a window with one heavy (NTT) and one light (EW) operator.
        ntt = next(op for op in ops if op.kind is OpKind.INTT)
        ew = next(op for op in ops if op.kind is OpKind.EW_MUL)
        plan = SpatialGroupPlan(g, [ew, ntt], CROPHE_64)
        assert plan.pe_allocation[ntt.uid] > plan.pe_allocation[ew.uid]

    def test_all_pes_distributed(self):
        g = _hmult_graph()
        ops = g.operators_topological()[:4]
        plan = SpatialGroupPlan(g, ops, CROPHE_64)
        assert sum(plan.pe_allocation.values()) == CROPHE_64.num_pes

    def test_infeasible_when_more_ops_than_pes(self):
        g = _hmult_graph()
        ops = g.operators_topological()
        tiny_hw = CROPHE_64.scaled_pes(2)
        plan = SpatialGroupPlan(g, ops[:4], tiny_hw)
        assert not plan.feasible_allocation

    def test_matched_pipeline_avoids_sram(self):
        """An element-wise chain in one group moves data PE-to-PE."""
        b = GraphBuilder(PARAMS)
        ct = b.input_ciphertext("x", 10)
        s = b.hadd(ct, b.input_ciphertext("y", 10))
        b.hadd(s, b.input_ciphertext("z", 10))
        g = b.graph
        ops = g.operators_topological()
        plan = SpatialGroupPlan(g, ops, CROPHE_64)
        # Internal matched edges produce NoC traffic, not SRAM traffic.
        internal = g.internal_tensors(ops)
        assert internal
        assert plan.metrics.noc_bytes > 0

    def test_buffer_grows_without_matching(self):
        """Orientation switches force full-tensor buffering."""
        g = _hmult_graph()
        ops = g.operators_topological()
        intt = next(op for op in ops if op.kind is OpKind.INTT)
        bconv = next(
            op for op in g.successors(intt) if op.kind is OpKind.BCONV
        )
        plan = SpatialGroupPlan(g, [intt, bconv], CROPHE_64)
        t = g.edge_tensor(intt, bconv)
        assert plan.metrics.buffer_bytes >= t.bytes

    def test_constants_counted_once(self):
        """Two ops sharing an evk in one group fetch it once."""
        b = GraphBuilder(PARAMS)
        ct = b.input_ciphertext("x", 10)
        b.baby_rotations(ct, 8, "hybrid", r_hyb=4)
        g = b.graph
        inps = [op for op in g.operators if op.kind is OpKind.KSK_INP]
        by_evk = {}
        for op in inps:
            evk = next(t for t in op.inputs if t.kind.value == "evk")
            by_evk.setdefault(evk.uid, []).append(op)
        shared = next(ops for ops in by_evk.values() if len(ops) >= 2)
        plan = SpatialGroupPlan(g, shared[:2], CROPHE_64)
        evk_uid = next(iter(
            t.uid for t in shared[0].inputs if t.kind.value == "evk"
        ))
        # The evk appears once in the constant tally.
        assert evk_uid in plan.metrics.constant_bytes
        count = sum(
            1 for uid in plan.metrics.constant_bytes if uid == evk_uid
        )
        assert count == 1

    def test_execution_seconds_residency_discount(self):
        g = _hmult_graph()
        ops = g.operators_topological()[:3]
        plan = SpatialGroupPlan(g, ops, CROPHE_64)
        cold, cold_m = plan.execution_seconds()
        ins, _ = plan.boundary()
        warm, warm_m = plan.execution_seconds(
            resident_inputs={t.uid for t in ins},
            resident_constants=set(plan.metrics.constant_bytes),
        )
        assert warm_m.dram_read_bytes <= cold_m.dram_read_bytes
        assert warm <= cold

    def test_constant_share_discount(self):
        g = _hmult_graph()
        ops = g.operators_topological()
        inp = next(op for op in ops if op.kind is OpKind.KSK_INP)
        plan = SpatialGroupPlan(g, [inp], CROPHE_64)
        solo, m1 = plan.execution_seconds()
        shared, m2 = plan.execution_seconds(constant_share=4)
        assert m2.dram_read_bytes < m1.dram_read_bytes
