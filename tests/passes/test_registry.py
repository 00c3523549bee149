"""Tests for the pass catalog, levels, and pipeline construction."""

import pytest

from repro.ir.builders import GraphBuilder
from repro.passes import (
    PASSES,
    Level,
    PassPipeline,
    graph_level,
)
from repro.resilience.errors import ConfigError
from repro.workloads.base import WorkloadOptions


class TestLevels:
    def test_str_is_value(self):
        assert str(Level.PRIMITIVE) == "primitive"
        assert str(Level.DECOMPOSED) == "decomposed"

    def test_graph_level_primitive(self, small_params):
        b = GraphBuilder(small_params, lowering="primitive")
        ct = b.input_ciphertext("x", 3)
        b.hmult(ct, ct, "m")
        assert graph_level(b.graph) is Level.PRIMITIVE

    def test_graph_level_decomposed(self, small_params):
        b = GraphBuilder(small_params)
        ct = b.input_ciphertext("x", 3)
        b.hmult(ct, ct, "m")
        assert graph_level(b.graph) is Level.DECOMPOSED


class TestCatalog:
    def test_default_passes_registered(self):
        assert [p.name for p in PASSES] == [
            "lower-rotations", "lower-keyswitch", "decompose-ntt"
        ]

    def test_every_pass_described(self):
        for p in PASSES:
            assert p.description


class TestPipelineConstruction:
    def test_bad_invariant_mode_rejected(self, small_params):
        with pytest.raises(ConfigError, match="choose from"):
            PassPipeline(small_params, invariants="sometimes")

    def test_default_sequence_accepted(self, small_params):
        b = GraphBuilder(small_params, lowering="primitive")
        ct = b.input_ciphertext("x", 3)
        b.rescale(b.hmult(ct, ct, "m"), "rs")
        result = PassPipeline(
            small_params, WorkloadOptions(ntt_split=(8, 8))
        ).run(b.graph)
        assert [s.pass_name for s in result.stages] == [
            p.name for p in PASSES
        ]
