"""Tests for pipeline construction."""

from repro.ir.builders import GraphBuilder
from repro.passes import PassPipeline
from repro.workloads.base import WorkloadOptions


class TestPipelineConstruction:
    def test_default_sequence_accepted(self, small_params):
        b = GraphBuilder(small_params, lowering="primitive")
        ct = b.input_ciphertext("x", 3)
        b.rescale(b.hmult(ct, ct, "m"), "rs")
        result = PassPipeline(
            small_params, WorkloadOptions(ntt_split=(8, 8))
        ).run(b.graph)
        assert result.rewrote
        assert not any(
            op.kind.is_coarse or op.kind.is_monolithic_ntt
            for op in result.graph.operators
        )
