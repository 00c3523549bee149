"""End-to-end wiring: workload cleanliness, insertion guards, run gates."""

import pytest

from repro.analysis import verify_graph, verify_schedule, verify_semantics
from repro.fhe.params import parameter_set
from repro.hw.config import CROPHE_64
from repro.ir.builders import GraphBuilder
from repro.ir.graph import OperatorGraph
from repro.ir.operators import Operator, OpKind
from repro.ir.tensors import poly_tensor
from repro.resilience.errors import (
    ConfigError,
    GraphInvariantError,
    SimulationError,
)
from repro.sched.scheduler import Scheduler, SchedulerConfig
from repro.sim.engine import SimulationEngine
from repro.workloads import build_resnet20
from repro.workloads.base import WorkloadOptions

PARAMS = parameter_set("ARK")


def _hmult_schedule():
    b = GraphBuilder(PARAMS)
    b.hmult(b.input_ciphertext("x", PARAMS.max_level),
            b.input_ciphertext("y", PARAMS.max_level))
    return Scheduler(b.graph, CROPHE_64,
                     SchedulerConfig(verify="off")).schedule()


class TestResnet20KnownGood:
    """ISSUE acceptance: the shipped ResNet-20 passes every static check."""

    @pytest.fixture(scope="class")
    def workload(self):
        root = 1 << (PARAMS.log_n // 2)
        options = WorkloadOptions(ntt_split=(root, PARAMS.n // root),
                                  rotation_strategy="hybrid", r_hyb=4)
        return build_resnet20(PARAMS, options)

    def test_all_segment_graphs_verify_clean(self, workload):
        for segment in workload.segments:
            assert verify_graph(segment.graph).clean, segment.name
            assert verify_semantics(segment.graph, PARAMS).clean, segment.name

    def test_smallest_segment_schedule_verifies_clean(self, workload):
        segment = min(workload.segments, key=lambda s: s.num_operators)
        config = SchedulerConfig(verify="off")
        schedule = Scheduler(segment.graph, CROPHE_64, config).schedule()
        report = verify_schedule(schedule, CROPHE_64, graph=segment.graph,
                                 config=config)
        assert report.clean, report.render_text()


class TestInsertionGuards:
    def _op(self, name, src, dst):
        return Operator(name, OpKind.EW_ADD, 2, 16,
                        inputs=[src], outputs=[dst])

    def test_cycle_closing_insertion_rejected_and_rolled_back(self):
        g = OperatorGraph("guard")
        t1, t2 = poly_tensor("t1", 2, 16), poly_tensor("t2", 2, 16)
        g.add_operator(self._op("a", t2, t1))
        with pytest.raises(GraphInvariantError) as err:
            g.add_operator(self._op("b", t1, t2))
        assert "a" in str(err.value) and "b" in str(err.value)
        # Rolled back: the graph is exactly as before the bad insertion.
        assert g.num_operators == 1
        assert t2.uid not in {t.uid for op in g.operators
                              for t in op.outputs}
        # t2 dangles by design, so only the cycle rule must be silent.
        assert "G001" not in verify_graph(g).rule_ids()

    def test_self_loop_insertion_rejected_and_rolled_back(self):
        g = OperatorGraph("guard")
        t0, t1 = poly_tensor("t0", 2, 16), poly_tensor("t1", 2, 16)
        a = self._op("a", t0, t1)
        b = self._op("b", t1, poly_tensor("t2", 2, 16))
        g.add_operator(a)
        g.add_operator(b)
        before = g.operators_topological()
        loop = poly_tensor("loop", 2, 16)
        # Consumes a's output and its own.
        selfish = Operator("selfish", OpKind.EW_ADD, 2, 16,
                           inputs=[t1, loop], outputs=[loop])
        with pytest.raises(GraphInvariantError) as err:
            g.add_operator(selfish)
        assert "selfish" in str(err.value)
        assert g.num_operators == 2
        assert g.successors(a) == [b] and g.predecessors(b) == [a]
        assert g.consumers_of(t1) == [b]
        assert loop not in g.tensors
        assert g._operators_topological_uncached() == before
        # A later insertion orders as in a graph that never saw the loop.
        g.add_operator(self._op("c", t1, poly_tensor("t3", 2, 16)))
        assert [op.name for op in g.operators_topological()] == [
            op.name for op in g.clone().operators_topological()
        ]
        assert "G001" not in verify_graph(g).rule_ids()

    def test_duplicate_producer_insertion_rejected(self):
        g = OperatorGraph("guard")
        shared = poly_tensor("shared", 2, 16)
        g.add_operator(self._op("first", poly_tensor("i1", 2, 16), shared))
        with pytest.raises(GraphInvariantError) as err:
            g.add_operator(self._op("second", poly_tensor("i2", 2, 16),
                                    shared))
        assert "first" in str(err.value) and "second" in str(err.value)
        assert g.num_operators == 1

    def test_duplicate_operator_insertion_rejected(self):
        g = OperatorGraph("guard")
        op = self._op("solo", poly_tensor("i", 2, 16),
                      poly_tensor("o", 2, 16))
        g.add_operator(op)
        with pytest.raises(GraphInvariantError):
            g.add_operator(op)


class TestSchedulerGate:
    def test_bogus_verify_mode_rejected(self):
        with pytest.raises(ConfigError):
            SchedulerConfig(verify="bogus").validate()

    def test_default_gate_passes_on_real_graph(self):
        b = GraphBuilder(PARAMS)
        b.hmult(b.input_ciphertext("x", PARAMS.max_level),
                b.input_ciphertext("y", PARAMS.max_level))
        scheduler = Scheduler(b.graph, CROPHE_64)  # verify="error" default
        schedule = scheduler.schedule()
        assert schedule.steps
        assert scheduler.stats["verify_errors"] == 0


class TestEngineGate:
    def test_corrupt_schedule_refused_before_run(self):
        schedule = _hmult_schedule()
        schedule.steps[0].plan.metrics.buffer_bytes = (
            CROPHE_64.sram_capacity_bytes + 1)
        with pytest.raises(SimulationError, match="verification"):
            SimulationEngine(CROPHE_64).run(schedule)
