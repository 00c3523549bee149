"""Tests for the workload generators."""

import pytest

from repro.analysis import verify_graph
from repro.fhe.params import parameter_set
from repro.ir.operators import OpKind
from repro.workloads import (
    WORKLOAD_BUILDERS,
    build_bootstrapping,
    build_helr,
    build_resnet110,
    build_resnet20,
)
from repro.workloads.base import WorkloadOptions

PARAMS = parameter_set("SHARP")


class TestBootstrapping:
    def test_segment_structure(self):
        wl = build_bootstrapping(PARAMS)
        names = [s.name for s in wl.segments]
        assert "mod_raise" in names
        assert sum(1 for n in names if n.startswith("coeff_to_slot")) == 3
        assert sum(1 for n in names if n.startswith("slot_to_coeff")) == 3
        assert any(n.startswith("evalmod_step") for n in names)

    def test_graphs_validate(self):
        wl = build_bootstrapping(PARAMS)
        for seg in wl.segments:
            assert verify_graph(seg.graph).ok, seg.name

    def test_build_is_memoized(self):
        opts = WorkloadOptions()
        a = build_bootstrapping(PARAMS, opts)
        b = build_bootstrapping(PARAMS, opts)
        assert all(
            x.graph is y.graph for x, y in zip(a.segments, b.segments)
        )

    def test_builder_and_lowering_share_graphs_after_clear(self):
        from repro.experiments.common import clear_cache
        from repro.passes.lowering import lower_workload

        opts = WorkloadOptions()
        build_bootstrapping(PARAMS, opts)
        clear_cache()
        built = build_bootstrapping(PARAMS, opts)
        lowered = lower_workload("bootstrapping", PARAMS, opts)
        assert [s.name for s in built.segments] == [
            s.name for s in lowered.segments
        ]
        assert all(
            x.graph is y.graph
            for x, y in zip(built.segments, lowered.segments)
        )

    def test_distinct_options_not_shared(self):
        a = build_bootstrapping(PARAMS, WorkloadOptions(r_hyb=2))
        b = build_bootstrapping(PARAMS, WorkloadOptions(r_hyb=4))
        assert a is not b

    def test_rotation_strategy_changes_graph(self):
        a = build_bootstrapping(
            PARAMS, WorkloadOptions(rotation_strategy="min-ks")
        )
        b = build_bootstrapping(
            PARAMS, WorkloadOptions(rotation_strategy="hoisting")
        )
        sa = a.segment("coeff_to_slot0").num_operators
        sb = b.segment("coeff_to_slot0").num_operators
        assert sa != sb

    def test_ntt_split_produces_phases(self):
        wl = build_bootstrapping(
            PARAMS, WorkloadOptions(ntt_split=(256, 256))
        )
        kinds = {
            op.kind
            for seg in wl.segments
            for op in seg.graph.operators
        }
        assert OpKind.NTT_COL in kinds
        assert OpKind.NTT not in kinds

    def test_total_vs_distinct_operators(self):
        wl = build_bootstrapping(PARAMS)
        assert wl.total_operators > wl.distinct_operators

    def test_unknown_segment_raises(self):
        wl = build_bootstrapping(PARAMS)
        with pytest.raises(KeyError):
            wl.segment("nope")


class TestHelr:
    def test_includes_bootstrap_and_gradient(self):
        wl = build_helr(parameter_set("ARK"))
        names = [s.name for s in wl.segments]
        assert "helr_gradient" in names
        assert any(n.startswith("coeff_to_slot") for n in names)

    def test_gradient_has_rotations_and_mults(self):
        wl = build_helr(parameter_set("ARK"))
        g = wl.segment("helr_gradient").graph
        kinds = [op.kind for op in g.operators]
        assert OpKind.AUTOMORPHISM in kinds
        assert OpKind.KSK_INP in kinds


class TestResnet:
    def test_resnet20_repeats(self):
        wl = build_resnet20(PARAMS)
        assert wl.segment("conv").repeat == 40  # 2 kernels x 20 layers
        boot_seg = wl.segment("coeff_to_slot0")
        assert boot_seg.repeat == 20

    def test_resnet110_scales_repeats_only(self):
        w20 = build_resnet20(PARAMS)
        w110 = build_resnet110(PARAMS)
        assert w110.distinct_operators == w20.distinct_operators
        assert w110.total_operators > 5 * w20.total_operators

    def test_shared_graphs_between_networks(self):
        """ResNet-20 and -110 reuse the same segment graphs (merging)."""
        w20 = build_resnet20(PARAMS)
        w110 = build_resnet110(PARAMS)
        assert w20.segment("conv").graph is w110.segment("conv").graph

    def test_registry_complete(self):
        assert set(WORKLOAD_BUILDERS) == {
            "bootstrapping", "helr", "resnet20", "resnet110"
        }
        for name, builder in WORKLOAD_BUILDERS.items():
            wl = builder(PARAMS)
            assert wl.segments, name
