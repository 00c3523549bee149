"""Structural plan memoization and a DP-loop fix.

The hard requirement pinned here: the memo (on/off, warm or cold,
memory or disk tier) must be **invisible** in the output —
float-identical schedules, identical serialized window covers — while
structurally congruent windows share stored skeletons across
*workloads* (ResNet-20 warming ResNet-110) and across *hardware
variants* that differ only in fields plan construction never reads.
The last class is a regression test for an infeasible window size
silently pruning every larger candidate at its frontier.
"""

import dataclasses
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fhe.params import CKKSParams, parameter_set
from repro.hw.config import CROPHE_36, CROPHE_64
from repro.ir.builders import GraphBuilder
from repro.sched.dataflow import SpatialGroupPlan
from repro.sched.plan_memo import (
    MEMO,
    instantiate,
    skeleton_from_doc,
    skeleton_of,
    skeleton_to_doc,
    window_key,
)
from repro.sched.scheduler import Scheduler, SchedulerConfig
from repro.sched.serialize import schedule_to_doc
from repro.workloads import build_bootstrapping
from repro.workloads.resnet import build_resnet20, build_resnet110

ARK = parameter_set("ARK")

TINY_DEEP = CKKSParams(
    log_n=12, max_level=13, boot_levels=3, dnum=2, alpha=7, word_bits=36,
    name="tiny-deep",
)
TINY_BOOT = CKKSParams(
    log_n=12, max_level=7, boot_levels=5, dnum=2, alpha=4, word_bits=36,
    name="tiny",
)


@pytest.fixture(autouse=True)
def _fresh_memo(monkeypatch):
    """Each test starts memo-enabled with empty tiers and no disk root.

    Structural plan fingerprints are intentionally identical across
    same-shaped graphs, so entries would otherwise leak between tests.
    """
    monkeypatch.delenv("REPRO_PLAN_MEMO", raising=False)
    monkeypatch.delenv("REPRO_DSE_CACHE", raising=False)
    MEMO.clear()
    yield
    MEMO.clear()


def _hmult_graph():
    b = GraphBuilder(ARK)
    b.hmult(b.input_ciphertext("x", ARK.max_level),
            b.input_ciphertext("y", ARK.max_level))
    return b.graph


def _doc(schedule):
    return json.dumps(schedule_to_doc(schedule), sort_keys=True)


def _distinct_segment_graphs(workload):
    seen, graphs = set(), []
    for seg in workload.segments:
        sig = seg.graph.subgraph_signature(
            tuple(seg.graph.operators_topological())
        )
        if sig not in seen:
            seen.add(sig)
            graphs.append(seg.graph)
    return graphs


def _schedule(graph, hw, monkeypatch, memo=True, fresh_memo=True, **knobs):
    monkeypatch.setenv("REPRO_PLAN_MEMO", "1" if memo else "0")
    if fresh_memo:
        MEMO.clear()
    sched = Scheduler(graph, hw, SchedulerConfig(**knobs))
    return sched, sched.schedule()


# ---------------------------------------------------------------------
# Structural window keys
# ---------------------------------------------------------------------


class TestWindowKey:
    def test_structural_twins_share_keys_across_graphs(self):
        """Two independently built hmult graphs have disjoint uids but
        identical window structures — every singleton key matches."""
        g1, g2 = _hmult_graph(), _hmult_graph()
        o1 = g1.operators_topological()
        o2 = g2.operators_topological()
        assert len(o1) == len(o2)
        for a, b in zip(o1, o2):
            assert window_key(g1, (a,)) == window_key(g2, (b,))

    def test_escape_fate_is_part_of_the_key(self):
        """The same operator windowed alone vs with its consumer has a
        different structure (its output escapes vs stays internal)."""
        g = _hmult_graph()
        order = g.operators_topological()
        # Find a producer/consumer pair adjacent in the order.
        for i in range(len(order) - 1):
            prod, cons = order[i], order[i + 1]
            if any(g.producer_of(t) is prod for t in cons.inputs):
                pair = window_key(g, (prod, cons))
                assert pair != (
                    window_key(g, (prod,)) + window_key(g, (cons,))
                )
                return
        pytest.skip("no adjacent producer/consumer pair in this graph")

    def test_memoized_plan_is_bitwise_equal(self):
        """An instantiated twin carries the exact nests, allocation,
        and metrics of the originally constructed plan."""
        g1, g2 = _hmult_graph(), _hmult_graph()
        w1 = tuple(g1.operators_topological()[:3])
        w2 = tuple(g2.operators_topological()[:3])
        p1 = SpatialGroupPlan(g1, w1, CROPHE_64)
        twin = instantiate(skeleton_of(p1), g2, w2, CROPHE_64, None)
        direct = SpatialGroupPlan(g2, w2, CROPHE_64)
        assert twin.pe_allocation == direct.pe_allocation
        assert twin.metrics.__dict__ == direct.metrics.__dict__
        # Insertion order of the byte dicts matters downstream.
        assert list(twin.metrics.constant_bytes) == list(
            direct.metrics.constant_bytes
        )
        assert list(twin.metrics.external_read_bytes) == list(
            direct.metrics.external_read_bytes
        )
        assert twin.execution_seconds() == direct.execution_seconds()


# ---------------------------------------------------------------------
# Determinism: the memo must be invisible
# ---------------------------------------------------------------------


class TestDeterminism:
    def test_warm_memo_all_hits_and_identical(self, monkeypatch):
        graph = _hmult_graph()
        _, first = _schedule(graph, CROPHE_64, monkeypatch)
        monkeypatch.setenv("REPRO_PLAN_MEMO", "1")
        warm = Scheduler(graph, CROPHE_64, SchedulerConfig())
        second = warm.schedule()
        assert warm.stats["plan_memo_misses"] == 0
        assert warm.stats["plan_memo_hits"] >= 1
        assert _doc(second) == _doc(first)

    @settings(
        max_examples=8, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        max_group_size=st.integers(min_value=1, max_value=6),
        stream_window=st.integers(min_value=1, max_value=4),
    )
    def test_property_identical_under_any_knobs(
        self, max_group_size, stream_window
    ):
        """Any (window, stream) knob combination: the memo reproduces
        the memo-free schedule exactly."""
        graph = _hmult_graph()
        knobs = dict(
            max_group_size=max_group_size, stream_window=stream_window
        )
        os.environ["REPRO_PLAN_MEMO"] = "0"
        try:
            MEMO.clear()
            base = Scheduler(
                graph, CROPHE_64, SchedulerConfig(**knobs)
            ).schedule()
            os.environ["REPRO_PLAN_MEMO"] = "1"
            MEMO.clear()
            fast = Scheduler(
                graph, CROPHE_64, SchedulerConfig(**knobs)
            ).schedule()
        finally:
            os.environ.pop("REPRO_PLAN_MEMO", None)
            MEMO.clear()
        assert fast.total_seconds == base.total_seconds
        assert _doc(fast) == _doc(base)


# ---------------------------------------------------------------------
# Sharing across workloads and hardware variants
# ---------------------------------------------------------------------


class TestCrossWorkloadMemo:
    def test_resnet20_warms_resnet110(self, monkeypatch):
        """ResNet-110 segments are structural twins of ResNet-20's:
        after scheduling ResNet-20, a ResNet-110 segment search runs
        memo-hot and yields the byte-identical schedule a cold search
        produces."""
        graphs110 = _distinct_segment_graphs(build_resnet110(TINY_DEEP))
        target = graphs110[0]
        _, cold = _schedule(target, CROPHE_36, monkeypatch)
        # Warm the memo with ResNet-20 only, then search the
        # ResNet-110 segment without clearing.
        MEMO.clear()
        for graph in _distinct_segment_graphs(build_resnet20(TINY_DEEP)):
            _schedule(graph, CROPHE_36, monkeypatch, fresh_memo=False)
        warm, hot = _schedule(target, CROPHE_36, monkeypatch,
                              fresh_memo=False)
        assert warm.stats["plan_memo_hits"] >= 1
        assert warm.stats["plan_memo_misses"] == 0
        assert _doc(hot) == _doc(cold)

    def test_hw_variants_share_skeletons(self, monkeypatch):
        """Configs differing only in timing fields (clock, bandwidths,
        SRAM capacity label) share plan skeletons: construction reads
        none of them, and timing always evaluates against the live
        config — so the variant search runs miss-free yet prices with
        its own clock."""
        graph = _distinct_segment_graphs(build_bootstrapping(TINY_BOOT))[0]
        first, base = _schedule(graph, CROPHE_64, monkeypatch)
        assert first.stats["plan_memo_misses"] >= 1
        variant = dataclasses.replace(
            CROPHE_64, name="variant-2x",
            frequency_ghz=CROPHE_64.frequency_ghz * 2,
        )
        second, out = _schedule(graph, variant, monkeypatch,
                                fresh_memo=False)
        assert second.stats["plan_memo_misses"] == 0
        assert second.stats["plan_memo_hits"] >= 1
        # Same windows (structure is config-independent here), faster
        # or equal steps under the doubled clock.
        assert [len(s.plan.ops) for s in out.steps] \
            == [len(s.plan.ops) for s in base.steps]
        assert out.total_seconds <= base.total_seconds

    def test_word_bits_still_split_the_memo(self, monkeypatch):
        """Fields plan construction *does* read (word size) must keep
        separate memo entries — the projection only widens over timing
        fields."""
        graph = _distinct_segment_graphs(build_bootstrapping(TINY_BOOT))[0]
        _schedule(graph, CROPHE_64, monkeypatch)
        second, _ = _schedule(graph, CROPHE_36, monkeypatch,
                              fresh_memo=False)
        assert second.stats["plan_memo_misses"] >= 1


# ---------------------------------------------------------------------
# Disk tier
# ---------------------------------------------------------------------


class TestDiskTier:
    def test_skeleton_doc_round_trip(self):
        g = _hmult_graph()
        w = tuple(g.operators_topological()[:4])
        skeleton = skeleton_of(SpatialGroupPlan(g, w, CROPHE_64))
        doc = json.loads(json.dumps(skeleton_to_doc(skeleton)))
        assert skeleton_from_doc(doc) == skeleton

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda d: d.pop("nests"),
            lambda d: d["metrics"].pop("noc_bytes"),
            lambda d: d.update(nests="not-a-list"),
            lambda d: d["edge_matches"].append(["x", 0, 1]),
        ],
    )
    def test_corrupt_doc_degrades_to_miss(self, mangle):
        g = _hmult_graph()
        w = tuple(g.operators_topological()[:4])
        doc = skeleton_to_doc(skeleton_of(SpatialGroupPlan(g, w, CROPHE_64)))
        mangle(doc)
        assert skeleton_from_doc(doc) is None

    def test_disk_tier_serves_new_process_identically(
        self, tmp_path, monkeypatch
    ):
        """Clearing the in-memory tiers simulates a fresh process: the
        second search is served from disk (disk hits, zero construction
        misses) and is byte-identical."""
        monkeypatch.setenv("REPRO_DSE_CACHE", str(tmp_path))
        graph = _hmult_graph()
        first = Scheduler(graph, CROPHE_64, SchedulerConfig()).schedule()
        assert MEMO.stats["memo_miss"] >= 1
        MEMO.clear()
        cold = Scheduler(graph, CROPHE_64, SchedulerConfig())
        second = cold.schedule()
        assert MEMO.stats["disk_hit"] >= 1
        assert MEMO.stats["memo_miss"] == 0
        assert _doc(second) == _doc(first)

    def test_corrupt_disk_entry_falls_back_to_construction(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_DSE_CACHE", str(tmp_path))
        graph = _hmult_graph()
        first = Scheduler(graph, CROPHE_64, SchedulerConfig()).schedule()
        # Vandalize every stored plan payload: valid JSON with a valid
        # envelope but a wrong-shaped payload — the parse must degrade
        # to a miss (fresh construction), never an exception.
        plan_dir = tmp_path / "plan"
        victims = list(plan_dir.rglob("*.json"))
        assert victims
        for path in victims:
            doc = json.loads(path.read_text())
            doc["payload"] = {"nests": "gone"}
            path.write_text(json.dumps(doc))
        MEMO.clear()
        second = Scheduler(graph, CROPHE_64, SchedulerConfig()).schedule()
        assert MEMO.stats["memo_miss"] >= 1
        assert _doc(second) == _doc(first)


# ---------------------------------------------------------------------
# Bugfix: infeasible size must not prune larger candidates
# ---------------------------------------------------------------------


class _SizeInfeasibleScheduler(Scheduler):
    """Test double: reports windows of the given sizes PE-infeasible.

    ``feasible_allocation`` is currently monotone in window growth (the
    compute-op count never shrinks), so the pre-fix ``break`` was
    latently safe; this double models any future allocator for which it
    is not, and records which window sizes the DP actually asked for —
    the discriminator between ``break`` and ``continue``.
    """

    def __init__(self, *args, infeasible_sizes=(2,), **kwargs):
        super().__init__(*args, **kwargs)
        self._infeasible_sizes = set(infeasible_sizes)
        self.requested_sizes = set()

    def _plan_for(self, window):
        self.requested_sizes.add(len(window))
        plan = super()._plan_for(window)
        if len(window) in self._infeasible_sizes:
            plan.pe_allocation = {}
        return plan


class TestInfeasibleSizeContinues:
    def test_larger_sizes_still_explored(self):
        """Size 2 infeasible everywhere: the DP must still price sizes
        3+ (pre-fix it broke out of the frontier at size 2, so no
        window larger than 2 was ever requested)."""
        graph = _hmult_graph()
        sched = _SizeInfeasibleScheduler(
            graph, CROPHE_64, SchedulerConfig(max_group_size=4),
            infeasible_sizes=(2,),
        )
        schedule = sched.schedule()
        assert 3 in sched.requested_sizes
        assert 4 in sched.requested_sizes
        assert not schedule.degraded
        assert all(len(s.plan.ops) != 2 for s in schedule.steps)
        covered = sum(len(s.plan.ops) for s in schedule.steps)
        assert covered == graph.num_operators

    def test_skipping_infeasible_size_matches_plain_search(self):
        """With every size feasible the double is inert — sanity that
        the subclass itself does not perturb the search."""
        graph = _hmult_graph()
        plain = Scheduler(
            graph, CROPHE_64, SchedulerConfig(max_group_size=4)
        ).schedule()
        doubled = _SizeInfeasibleScheduler(
            graph, CROPHE_64, SchedulerConfig(max_group_size=4),
            infeasible_sizes=(),
        ).schedule()
        assert _doc(doubled) == _doc(plain)
