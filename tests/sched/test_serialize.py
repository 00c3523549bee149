"""Schedule / EvalResult JSON round-trips (the DSE cache's payloads).

The headline contract: serializing a ResNet-20 segment schedule and
replaying its window cover rebuilds **exactly** the same schedule —
float-identical seconds and metrics — so a cache hit is
indistinguishable from a fresh DP search.
"""

import json

import pytest

from repro.baselines.mad import MadScheduler
from repro.experiments.common import (
    DesignPoint,
    clear_cache,
    evaluate_workload,
)
from repro.fhe.params import CKKSParams
from repro.hw.config import CROPHE_36
from repro.resilience.errors import InvariantViolation
from repro.sched.serialize import (
    eval_result_from_doc,
    eval_result_to_doc,
    schedule_from_doc,
    schedule_to_doc,
)
from repro.sched.scheduler import Scheduler
from repro.workloads.resnet import build_resnet20

# Small ring for speed, but deep enough for the ResNet ReLU chain
# (conv segments sit at level max(max_level - boot_levels, 10)).
TINY = CKKSParams(
    log_n=12, max_level=13, boot_levels=3, dnum=2, alpha=7, word_bits=36,
    name="tiny-deep",
)

# Shallower set for the full-pipeline EvalResult test (bootstrapping
# alone has no level floor, and shallow params evaluate much faster).
TINY_BOOT = CKKSParams(
    log_n=12, max_level=7, boot_levels=5, dnum=2, alpha=4, word_bits=36,
    name="tiny",
)


@pytest.fixture(scope="module")
def resnet_segments():
    return build_resnet20(TINY).segments


class TestScheduleRoundTrip:
    def test_resnet20_exact_equality(self, resnet_segments):
        """Every distinct ResNet-20 segment round-trips exactly."""
        for segment in resnet_segments:
            schedule = Scheduler(segment.graph, CROPHE_36).schedule()
            doc = schedule_to_doc(schedule)
            # Through an actual JSON string, as the disk tier stores it.
            doc = json.loads(json.dumps(doc))
            restored = schedule_from_doc(doc, segment.graph, CROPHE_36)
            assert schedule_to_doc(restored) == doc, segment.name
            assert restored.total_seconds == schedule.total_seconds

    def test_replay_preserves_step_structure(self, resnet_segments):
        segment = resnet_segments[0]
        schedule = Scheduler(segment.graph, CROPHE_36).schedule()
        restored = schedule_from_doc(
            schedule_to_doc(schedule), segment.graph, CROPHE_36
        )
        assert len(restored.steps) == len(schedule.steps)
        for a, b in zip(schedule.steps, restored.steps):
            assert [op.name for op in a.plan.ops] == [
                op.name for op in b.plan.ops
            ]
            assert a.seconds == b.seconds
            assert a.metrics == b.metrics

    def test_mad_round_trip(self, resnet_segments):
        segment = resnet_segments[0]
        schedule = MadScheduler(segment.graph, CROPHE_36).schedule()
        doc = schedule_to_doc(schedule, dataflow="mad")
        assert doc["dataflow"] == "mad"
        restored = schedule_from_doc(doc, segment.graph, CROPHE_36)
        assert schedule_to_doc(restored, dataflow="mad") == doc

    def test_repeat_and_degraded_survive(self, resnet_segments):
        segment = resnet_segments[0]
        schedule = Scheduler(segment.graph, CROPHE_36).schedule()
        schedule.repeat = 7
        schedule.degraded = True
        schedule.degraded_reason = "budget"
        restored = schedule_from_doc(
            schedule_to_doc(schedule), segment.graph, CROPHE_36
        )
        assert restored.repeat == 7
        assert restored.degraded
        assert restored.degraded_reason == "budget"

    def test_rejects_foreign_document(self, resnet_segments):
        segment = resnet_segments[0]
        with pytest.raises(InvariantViolation):
            schedule_from_doc({"kind": "nonsense"}, segment.graph, CROPHE_36)

    def test_rejects_mangled_cover(self, resnet_segments):
        """A cover that does not tile the graph is an error, not UB."""
        segment = resnet_segments[0]
        schedule = Scheduler(segment.graph, CROPHE_36).schedule()
        doc = schedule_to_doc(schedule)
        doc["window_sizes"] = doc["window_sizes"][:-1]
        with pytest.raises(InvariantViolation):
            schedule_from_doc(doc, segment.graph, CROPHE_36)


class TestEvalResultRoundTrip:
    def test_exact_equality(self):
        clear_cache()
        result = evaluate_workload(
            DesignPoint("CROPHE-36", CROPHE_36), "bootstrapping", TINY_BOOT,
        )
        doc = json.loads(json.dumps(eval_result_to_doc(result)))
        restored = eval_result_from_doc(doc)
        assert eval_result_to_doc(restored) == doc
        assert restored.seconds == result.seconds
        assert restored.segment_seconds == result.segment_seconds

    def test_rejects_foreign_document(self):
        with pytest.raises(InvariantViolation):
            eval_result_from_doc({"kind": "repro-schedule"})
