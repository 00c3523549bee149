"""In-flight bookkeeping: a batch leaves its node when it completes.

A completion event takes its batch off the node whether or not the
batch still counts (a hedge-race loser is cancelled but keeps running
until then), so a crash cancels, truncates and orphans exactly the
batches running at that instant — never one that already finished.
"""

import pytest

from repro.obs.fleet import FleetObserver
from repro.serve.faults import FaultPlan
from repro.serve.fleet import FleetSpec, TableOracle
from repro.serve.loadgen import LoadSpec
from repro.serve.sim import ServeSimulator


def _sim(requests, horizon, nodes, seed, observer=None):
    load = LoadSpec(requests=requests, horizon=horizon)
    fleet = FleetSpec(nodes=nodes)
    plan = FaultPlan.preset(
        "aggressive", seed=seed, horizon=horizon,
        nodes=[n.name for n in fleet.build()],
        workloads=tuple(load.workloads()),
    )
    return ServeSimulator(
        load=load, fleet_spec=fleet, plan=plan, oracle=TableOracle(),
        seed=seed, observer=observer,
    )


@pytest.fixture(scope="module")
def traced():
    observer = FleetObserver(trace=True, record=True)
    sim = _sim(2000, 15.0, 8, 3, observer)
    summary = sim.run()
    return sim, summary, observer.tracer


class TestCrashTags:
    def test_no_finished_batch_carries_a_later_crash(self, traced):
        sim, _, tracer = traced
        crashes = {
            e.tag: e.at for e in sim.plan.events if e.kind == "crash"
        }
        assert crashes
        tagged = [
            b for b in tracer.batches if b.attrs.get("fault") in crashes
        ]
        assert tagged, "the scenario's crashes should hit running work"
        stale = [
            (b.attrs["batch"], b.end, b.attrs["fault"])
            for b in tagged if b.end < crashes[b.attrs["fault"]]
        ]
        assert stale == []

    def test_every_node_ends_with_nothing_in_flight(self, traced):
        sim, _, _ = traced
        assert {n.name: n.inflight for n in sim.fleet.nodes if n.inflight} == {}

    def test_summary_equals_the_untraced_run(self, traced):
        _, summary, _ = traced
        assert _sim(2000, 15.0, 8, 3).run().to_json() == summary.to_json()


@pytest.mark.parametrize("seed", [5, 7, 13])
def test_in_flight_batches_are_exactly_those_still_running(seed):
    """Whatever is left in flight when the loop stops (every request
    has an outcome) still has its completion event pending."""
    sim = _sim(800, 4.0, 3, seed)
    sim.run()
    pending = {
        payload[0] for _, _, kind, payload in sim._heap
        if kind == "complete"
    }
    for node in sim.fleet.nodes:
        for batch in node.inflight:
            assert batch.node == node.name
            assert batch.batch_id in pending
