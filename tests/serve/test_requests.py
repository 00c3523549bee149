"""Admission queue shedding semantics and outcome validation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience.errors import InvariantViolation
from repro.serve.requests import (
    AdmissionQueue,
    RequestOutcome,
    ServeRequest,
)


def _req(i, priority=1, workload="bootstrapping", arrival=0.0):
    return ServeRequest(
        request_id=f"r{i:06d}", tenant="t", workload=workload,
        priority=priority, arrival=arrival,
    )


class TestOutcome:
    def test_unknown_status_rejected(self):
        with pytest.raises(InvariantViolation):
            RequestOutcome(request_id="r", status="vanished")

    def test_doc_reports_milliseconds(self):
        out = RequestOutcome(request_id="r", status="ok", latency=0.1234)
        assert out.as_doc()["latency_ms"] == pytest.approx(123.4)


class TestAdmissionQueue:
    def test_fifo_within_lane(self):
        q = AdmissionQueue(max_depth=8)
        for i in range(3):
            assert q.admit(_req(i, arrival=float(i))) is None
        taken = q.take("bootstrapping", limit=2)
        assert [r.request_id for r in taken] == ["r000000", "r000001"]
        assert q.depth == 1

    def test_lanes_are_per_workload(self):
        q = AdmissionQueue(max_depth=8)
        q.admit(_req(0, workload="helr"))
        q.admit(_req(1, workload="resnet20"))
        assert q.workloads_waiting() == ["helr", "resnet20"]
        assert q.take("helr", limit=8)[0].request_id == "r000000"

    def test_full_queue_sheds_lowest_priority(self):
        q = AdmissionQueue(max_depth=2)
        q.admit(_req(0, priority=1))
        q.admit(_req(1, priority=2))
        victim = q.admit(_req(2, priority=3))
        assert victim is not None and victim.request_id == "r000000"
        ids = {r.request_id for r in q.take("bootstrapping", 8)}
        assert ids == {"r000001", "r000002"}

    def test_newcomer_sheds_on_priority_tie(self):
        q = AdmissionQueue(max_depth=1)
        q.admit(_req(0, priority=2))
        newcomer = _req(1, priority=2)
        assert q.admit(newcomer) is newcomer
        assert q.depth == 1

    def test_requeue_bypasses_depth_bound(self):
        q = AdmissionQueue(max_depth=1)
        q.admit(_req(0))
        assert q.admit(_req(1), requeue=True) is None
        assert q.depth == 2

    def test_requeue_front_preserves_order(self):
        q = AdmissionQueue(max_depth=8)
        q.admit(_req(2))
        q.requeue_front([_req(0), _req(1)])
        taken = q.take("bootstrapping", 8)
        assert [r.request_id for r in taken] == [
            "r000000", "r000001", "r000002",
        ]

    def test_peak_depth_tracked(self):
        q = AdmissionQueue(max_depth=8)
        for i in range(5):
            q.admit(_req(i))
        q.take("bootstrapping", 8)
        assert q.peak_depth == 5

    def test_zero_depth_rejected(self):
        with pytest.raises(InvariantViolation):
            AdmissionQueue(max_depth=0)


_WORKLOADS = ("bootstrapping", "helr", "resnet20")

#: One queue operation: admit a fresh request (priority, workload),
#: requeue one (bypassing the bound), take from a lane, or put a
#: batch back at the head of its lanes.
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("admit"), st.integers(0, 3),
                  st.sampled_from(_WORKLOADS)),
        st.tuples(st.just("requeue"), st.integers(0, 3),
                  st.sampled_from(_WORKLOADS)),
        st.tuples(st.just("take"), st.integers(1, 4),
                  st.sampled_from(_WORKLOADS)),
        st.tuples(st.just("front"), st.integers(0, 3),
                  st.sampled_from(_WORKLOADS)),
    ),
    max_size=60,
)


class TestRunningDepth:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), _ops)
    def test_depth_is_the_lane_total_throughout(self, max_depth, ops):
        """The running count equals a re-sum after every operation, and
        the peak is the largest depth any admit or requeue left."""
        q = AdmissionQueue(max_depth=max_depth)
        peak = 0
        for i, (op, arg, workload) in enumerate(ops):
            if op in ("admit", "requeue"):
                req = _req(i, priority=arg, workload=workload,
                           arrival=float(i))
                victim = q.admit(req, requeue=op == "requeue")
                if victim is not req:
                    peak = max(peak, sum(map(len, q._lanes.values())))
            elif op == "take":
                q.take(workload, limit=arg)
            else:
                q.requeue_front([
                    _req(i * 10 + k, workload=workload, arrival=float(i))
                    for k in range(arg)
                ])
                peak = max(peak, sum(map(len, q._lanes.values())))
            assert q.depth == sum(map(len, q._lanes.values()))
            assert q.peak_depth == peak
