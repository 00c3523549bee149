"""Focused tests on the group-metrics accounting rules."""

from repro.fhe.params import parameter_set
from repro.hw.config import CROPHE_64
from repro.ir.graph import OperatorGraph
from repro.ir.operators import Operator, OpKind
from repro.ir.tensors import poly_tensor
from repro.sched.dataflow import SpatialGroupPlan

PARAMS = parameter_set("ARK")
N = PARAMS.n
WORD = CROPHE_64.word_bytes


def _single_consumer_graph(src_limbs: int, op_limbs: int):
    """A graph with one op consuming a slice of a bigger tensor."""
    g = OperatorGraph()
    src = poly_tensor("big", src_limbs, N, WORD)
    out = poly_tensor("out", op_limbs, N, WORD)
    op = Operator(
        "slice", OpKind.EW_ADD, limbs=op_limbs, n=N,
        inputs=[src], outputs=[out],
    )
    g.add_operator(op)
    return g, op, src


class TestSliceAwareReads:
    def test_slice_consumer_charged_slice(self):
        g, op, src = _single_consumer_graph(src_limbs=24, op_limbs=6)
        plan = SpatialGroupPlan(g, [op], CROPHE_64)
        charged = plan.metrics.external_read_bytes[src.uid]
        assert charged == 6 * N * WORD
        assert charged < src.bytes

    def test_full_consumer_charged_full(self):
        g, op, src = _single_consumer_graph(src_limbs=6, op_limbs=6)
        plan = SpatialGroupPlan(g, [op], CROPHE_64)
        assert plan.metrics.external_read_bytes[src.uid] == src.bytes

    def test_two_consumers_top_up_to_largest_slice(self):
        g = OperatorGraph()
        src = poly_tensor("big", 24, N, WORD)
        small = Operator(
            "small", OpKind.EW_ADD, limbs=4, n=N,
            inputs=[src], outputs=[poly_tensor("o1", 4, N, WORD)],
        )
        large = Operator(
            "large", OpKind.EW_ADD, limbs=12, n=N,
            inputs=[src], outputs=[poly_tensor("o2", 12, N, WORD)],
        )
        g.add_operator(small)
        g.add_operator(large)
        plan = SpatialGroupPlan(g, [small, large], CROPHE_64)
        assert plan.metrics.external_read_bytes[src.uid] == 12 * N * WORD

    def test_residency_discount_uses_charged_slice(self):
        g, op, src = _single_consumer_graph(src_limbs=24, op_limbs=6)
        plan = SpatialGroupPlan(g, [op], CROPHE_64)
        cold, cold_m = plan.execution_seconds()
        warm, warm_m = plan.execution_seconds(resident_inputs={src.uid})
        saved = cold_m.dram_read_bytes - warm_m.dram_read_bytes
        assert saved == 6 * N * WORD


class TestPeAllocationStructural:
    def _window(self, creation_order):
        """Three equal-work ops; ``creation_order`` permutes uid order.

        The window (graph insertion) order is always a, b, c — only the
        order the Operator objects are *constructed* in, and hence their
        uids, follows ``creation_order``.
        """
        made = {}
        for name in creation_order:
            made[name] = Operator(
                name, OpKind.EW_ADD, limbs=6, n=N,
                inputs=[poly_tensor(f"{name}.in", 6, N, WORD)],
                outputs=[poly_tensor(f"{name}.out", 6, N, WORD)],
            )
        g = OperatorGraph()
        ops = [made[name] for name in ("a", "b", "c")]
        for op in ops:
            g.add_operator(op)
        return g, ops

    def test_leftover_tie_break_ignores_uid_order(self):
        # Equal loads leave the leftover PEs to a tie-break; it must
        # depend only on window position, not on tensor/operator uids —
        # pipeline-lowered graphs share untouched ops (old, small uids)
        # while rewritten ops get fresh ones, so uid order differs from
        # legacy builds of the very same structure.
        g1, ops1 = self._window(("a", "b", "c"))
        g2, ops2 = self._window(("c", "b", "a"))
        p1 = SpatialGroupPlan(g1, ops1, CROPHE_64)
        p2 = SpatialGroupPlan(g2, ops2, CROPHE_64)
        by_pos1 = [p1.pe_allocation[op.uid] for op in ops1]
        by_pos2 = [p2.pe_allocation[op.uid] for op in ops2]
        assert by_pos1 == by_pos2
        assert sum(by_pos1) == CROPHE_64.num_pes

    def test_leftover_goes_to_latest_tied_op(self):
        g, ops = self._window(("a", "b", "c"))
        plan = SpatialGroupPlan(g, ops, CROPHE_64)
        alloc = [plan.pe_allocation[op.uid] for op in ops]
        leftover = CROPHE_64.num_pes % 3
        if leftover:
            # Ties resolve toward the back of the window.
            assert alloc == sorted(alloc)
            assert alloc[-1] == alloc[0] + 1


class TestBoundary:
    def test_chain_boundary(self):
        """A window's external inputs and escaping outputs."""
        g = OperatorGraph("chain")
        t0, t1, t2 = (poly_tensor(f"t{i}", 2, N, WORD) for i in range(3))
        a = Operator("a", OpKind.EW_MUL, limbs=2, n=N,
                     inputs=[t0], outputs=[t1])
        b = Operator("b", OpKind.EW_ADD, limbs=2, n=N,
                     inputs=[t1], outputs=[t2])
        g.add_operator(a)
        g.add_operator(b)
        assert SpatialGroupPlan(g, [a], CROPHE_64).boundary() == ([t0], [t1])
        assert SpatialGroupPlan(g, [a, b], CROPHE_64).boundary() \
            == ([t0], [t2])


class TestDeferredWrites:
    def test_extra_write_bytes_added(self):
        g, op, src = _single_consumer_graph(4, 4)
        plan = SpatialGroupPlan(g, [op], CROPHE_64)
        base, base_m = plan.execution_seconds()
        _, spill_m = plan.execution_seconds(extra_write_bytes=1 << 20)
        assert spill_m.dram_write_bytes == base_m.dram_write_bytes + (1 << 20)

    def test_kept_outputs_skip_write(self):
        g, op, src = _single_consumer_graph(4, 4)
        plan = SpatialGroupPlan(g, [op], CROPHE_64)
        _, outs = plan.boundary()
        _, kept_m = plan.execution_seconds(
            kept_outputs={t.uid for t in outs}
        )
        _, full_m = plan.execution_seconds()
        assert kept_m.dram_write_bytes < full_m.dram_write_bytes
