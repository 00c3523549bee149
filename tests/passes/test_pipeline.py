"""Tests for the PassPipeline runner: invariants, telemetry, memo keys."""

import pytest

import repro.passes.pipeline as pipeline_mod
from repro.analysis.diagnostics import Severity
from repro.dse.fingerprint import graph_fingerprint, schedule_fingerprint
from repro.fhe.params import parameter_set
from repro.hw.config import CROPHE_64
from repro.ir.builders import GraphBuilder
from repro.passes import (
    PassPipeline,
    lower_graph,
    lower_workload,
    lowering_key,
)
from repro.resilience.errors import VerificationError
from repro.sched.plan_memo import MEMO
from repro.sched.scheduler import Scheduler
from repro.workloads.base import WorkloadOptions

SPLIT = (8, 8)


def _primitive_graph(params, tag="t"):
    b = GraphBuilder(params, lowering="primitive")
    ct0 = b.input_ciphertext(f"{tag}.x", 3)
    ct1 = b.input_ciphertext(f"{tag}.y", 3)
    b.rescale(b.hmult(ct0, ct1, f"{tag}.m"), f"{tag}.rs")
    return b.graph


def _options(split=SPLIT):
    return WorkloadOptions(
        ntt_split=split, rotation_strategy="hybrid", r_hyb=4
    )


class TestStages:
    def test_stage_results_recorded(self, small_params):
        graph = _primitive_graph(small_params)
        result = PassPipeline(small_params, _options()).run(graph)
        assert result.rewrote
        assert result.graph.num_operators > graph.num_operators
        assert not any(op.kind.is_coarse for op in result.graph.operators)
        # The source and the lowered graph each get the G*/C*/F* battery;
        # the postcondition report carries the off-catalog split's P002.
        assert [r.pass_name.split()[0] for r in result.reports] == [
            "source", "source", "source",
            "lowering", "lowered", "lowered", "lowered",
        ]


class TestInvariantModes:
    @pytest.fixture()
    def broken_pass(self, monkeypatch):
        """A walk that copies its input, so coarse operators survive."""
        monkeypatch.setattr(
            pipeline_mod, "lower_primitives",
            lambda graph, params, split: graph.clone(),
        )

    def test_error_mode_raises(self, small_params, broken_pass):
        pipeline = PassPipeline(small_params)
        with pytest.raises(VerificationError, match="P001") as exc:
            pipeline.run(_primitive_graph(small_params))
        # The error carries every finding of the lowering so far.
        assert "P001" in exc.value.report.rule_ids()
        assert exc.value.rule_ids == ("P001",)

    def test_clean_run_reports_no_errors(self, small_params):
        result = PassPipeline(small_params, _options()).run(
            _primitive_graph(small_params)
        )
        assert all(r.ok for r in result.reports)


class TestTelemetry:
    def test_counters_and_spans(self, small_params, metrics):
        PassPipeline(small_params, _options()).run(
            _primitive_graph(small_params)
        )
        snap = metrics.snapshot()
        assert snap["passes.pipeline.runs"]["value"] == 1
        # One gate on the source graph, one on the lowered graph.
        assert snap["passes.invariants{status=clean}"]["value"] == 2
        assert "passes.invariants{status=dirty}" not in snap
        assert snap["passes.rewrites"]["value"] == 1
        assert snap["passes.pass_seconds"]["count"] == 1

    def test_identity_lowering_counts_no_rewrite(self, small_params, metrics):
        b = GraphBuilder(small_params, lowering="primitive")
        ct = b.input_ciphertext("x", 3)
        b.hadd(ct, ct, "s")
        PassPipeline(small_params, _options()).run(b.graph)
        snap = metrics.snapshot()
        assert snap["passes.rewrites"]["value"] == 0
        assert snap["passes.invariants{status=clean}"]["value"] == 2


class TestSplitCatalogWarning:
    """P002: a configured four-step split off ``candidate_splits(N)``."""

    def _p002(self, result):
        return [
            d for r in result.reports for d in r.diagnostics
            if d.rule == "P002"
        ]

    def test_off_catalog_split_warns_once(self, small_params):
        # candidate_splits(64) is empty: no tile reaches the lane count.
        result = PassPipeline(small_params, _options(SPLIT)).run(
            _primitive_graph(small_params)
        )
        found = self._p002(result)
        assert len(found) == 1
        assert found[0].severity is Severity.WARNING

    def test_no_split_no_warning(self, small_params):
        result = PassPipeline(small_params, _options(None)).run(
            _primitive_graph(small_params)
        )
        assert not self._p002(result)

    def test_catalog_split_no_warning(self):
        ark = parameter_set("ARK")
        result = PassPipeline(ark, _options((256, 256))).run(
            _primitive_graph(ark)
        )
        assert not self._p002(result)


class TestLoweringMemo:
    def test_same_key_same_object(self, small_params, metrics):
        options = _options()
        first = lower_graph(
            _primitive_graph(small_params), small_params, options
        )
        second = lower_graph(
            _primitive_graph(small_params), small_params, options
        )
        assert second is first
        snap = metrics.snapshot()
        assert snap["passes.memo.misses"]["value"] == 1
        assert snap["passes.memo.hits"]["value"] == 1

    def test_tags_split_the_key(self, small_params):
        # Structural fingerprints ignore names/tags, but lowered operator
        # names derive from tags — the memo key must tell them apart.
        a = _primitive_graph(small_params, tag="a")
        b = _primitive_graph(small_params, tag="b")
        assert graph_fingerprint(a) == graph_fingerprint(b)
        assert lowering_key(a, small_params, SPLIT) != lowering_key(
            b, small_params, SPLIT
        )

    def test_split_is_part_of_the_key(self, small_params):
        g = _primitive_graph(small_params)
        assert lowering_key(g, small_params, None) != lowering_key(
            g, small_params, SPLIT
        )


class TestCrossWorkloadSharing:
    def test_helr_reuses_bootstrapping_lowerings(self, deep_params, metrics):
        options = _options()
        boot = lower_workload("bootstrapping", deep_params, options)
        hits_before = metrics.snapshot()["passes.memo.hits"]["value"]
        helr = lower_workload("helr", deep_params, options)
        hits_after = metrics.snapshot()["passes.memo.hits"]["value"]
        assert hits_after > hits_before
        # Shared segments lower to the *same object*, so every cache
        # keyed on the decomposed-level fingerprint shares downstream.
        boot_by_name = {s.name: s.graph for s in boot.segments}
        shared = [
            s for s in helr.segments if s.name in boot_by_name
        ]
        assert shared
        for segment in shared:
            assert segment.graph is boot_by_name[segment.name]

    def test_plan_memo_hits_across_workloads(self, deep_params):
        options = _options()
        boot = lower_workload("bootstrapping", deep_params, options)
        helr = lower_workload("helr", deep_params, options)
        seg_b = next(
            s.graph for s in boot.segments if s.name == "mod_raise"
        )
        seg_h = next(
            s.graph for s in helr.segments if s.name == "mod_raise"
        )
        sched_b = Scheduler(seg_b, CROPHE_64, n_split=SPLIT)
        sched_h = Scheduler(seg_h, CROPHE_64, n_split=SPLIT)
        # Both workloads key their plans on the same decomposed-level
        # fingerprint...
        assert schedule_fingerprint(
            seg_b, CROPHE_64, "crophe", sched_b.config, SPLIT
        ) == schedule_fingerprint(
            seg_h, CROPHE_64, "crophe", sched_h.config, SPLIT
        )
        # ...so scheduling HELR's segment after bootstrapping's hits the
        # plan memo instead of re-running plan construction.
        sched_b.schedule()
        mid = MEMO.snapshot()
        sched_h.schedule()
        after = MEMO.snapshot()
        assert after["memo_hit"] > mid["memo_hit"]
